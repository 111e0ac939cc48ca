"""The Igusa-Clebsch invariants of a binary sextic from transvectants summed
in Fractions, each scaled as it is formed: the oracle that
genus2.igusa_clebsch_of_sextic, which sums in ints and scales once, must
equal."""

from fractions import Fraction
from math import comb, factorial, perm


def _partial(f, a: int, b: int) -> list:
    """d^(a+b) f / dx^a dy^b of the binary form sum f[i] x^i y^(m-i)."""
    m = len(f) - 1
    return [f[i] * perm(i, a) * perm(m - i, b) for i in range(a, m - b + 1)]


def transvectant(f, g, k: int) -> list[Fraction]:
    """The k-th transvectant (f, g)_k of binary forms of degrees m and n
    (index = power of x), scaled by (m-k)!(n-k)!/(m!n!)."""
    m, n = len(f) - 1, len(g) - 1
    out = [Fraction(0)] * (m + n - 2 * k + 1)
    for j in range(k + 1):
        w = (-1) ** j * comb(k, j)
        dg = _partial(g, j, k - j)
        for a, u in enumerate(_partial(f, k - j, j)):
            for b, v in enumerate(dg):
                out[a + b] += w * u * v
    scale = Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    return [scale * c for c in out]


def igusa_clebsch(cs, disc: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(I2, I4, I6, I10) of the sextic c0..c6 with sextic discriminant disc,
    by Mestre's relations on A = (f, f)_6, B = (i, i)_4, C = (i, (i, i)_2)_4,
    i = (f, f)_4."""
    i = transvectant(cs, cs, 4)
    A = transvectant(cs, cs, 6)[0]
    B = transvectant(i, i, 4)[0]
    C = transvectant(i, transvectant(i, i, 2), 4)[0]
    i2 = -120 * A
    i4 = -720 * A**2 + 6750 * B
    i6 = 8640 * A**3 - 108000 * A * B + 202500 * C
    return (i2, i4, i6, Fraction(-disc))

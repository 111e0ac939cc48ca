"""The general-sextic path that isogeny_forge left behind when every genus-2
curve became one given by its three even factors, kept as oracles:

- det_bareiss is the exact determinant by fraction-free (Bareiss)
  elimination, also the minors of the Smith-form oracle in test_exactnum;
- resultant is Res(f, g) by the Sylvester determinant;
- sextic_discriminant is Res(S, S')/lc(S) of any sextic c0..c6, which
  genus2.sextic_discriminant must equal in closed form on a product of
  even factors;
- SexticCurve is lam y^2 = S(x) from its coefficients alone, with that
  discriminant, for the counts and invariants that take any sextic.
"""

from __future__ import annotations

from typing import NamedTuple


def det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) by the Sylvester determinant (coefficients low to high)."""
    while f and f[-1] == 0:
        f = f[:-1]
    while g and g[-1] == 0:
        g = g[:-1]
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + fr + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + gr + [0] * (n - dg - 1 - i))
    return det_bareiss(rows)


def sextic_discriminant(coeffs) -> int:
    """Res(S, S')/lc(S) of the sextic c0..c6 with c6 != 0: zero exactly when
    S has a repeated root."""
    cs = [int(c) for c in coeffs]
    if len(cs) != 7 or cs[6] == 0:
        raise ValueError(f"need 7 coefficients c0..c6 with c6 != 0, got {cs}")
    q, rem = divmod(resultant(cs, [i * cs[i] for i in range(1, 7)]), cs[6])
    assert rem == 0, "Res(S, S') is not divisible by the leading coefficient"
    return q


class SexticCurve(NamedTuple):
    """lam y^2 = S(x) for any sextic coeffs = c0..c6, with no factors."""

    lam: int
    coeffs: tuple[int, ...]

    @property
    def disc(self) -> int:
        return sextic_discriminant(self.coeffs)

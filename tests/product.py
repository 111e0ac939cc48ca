"""Symbols on a product of elliptic curves, expanded into coordinate symbols.

A point of E_1 x ... x E_d is the sum of its embedded coordinates, so by
slot bilinearity a symbol {P_1, ..., P_r} on the product is the sum of the
coordinate symbols, one per index tuple; a term with a zero coordinate
vanishes.  product_decompose emits the bilinear columns it used as a
certificate and re-checks the identity exactly.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from isogeny_forge.elliptic import EllipticGroup, Point
from isogeny_forge.errors import CertificateError
from isogeny_forge.exactnum import _add_multiple


ProductPoint = tuple  # one Point per coordinate curve


def product_zero(d: int) -> ProductPoint:
    return (None,) * d


def embed(i: int, x: Point, d: int) -> ProductPoint:
    t = [None] * d
    t[i] = x
    return tuple(t)


def project(i: int, P: ProductPoint) -> Point:
    return P[i]


def product_add(groups: Sequence[EllipticGroup], P: ProductPoint, Q: ProductPoint) -> ProductPoint:
    return tuple(g.add(x, y) for g, x, y in zip(groups, P, Q))


class DecompositionResult(NamedTuple):
    original: tuple[ProductPoint, ...]
    terms: dict[tuple[int, ...], tuple[Point, ...]]  # index tuple -> slot points
    certificate: list[tuple[int, dict]]  # (multiplier, bilinear column dict)
    verified: bool
    roundtrip_ok: bool


def product_decompose(
    groups: Sequence[EllipticGroup], symbol_points: Sequence[ProductPoint]
) -> DecompositionResult:
    """Expand a symbol on a product of curves into coordinate symbols.

    Each slot point decomposes as a sum of its embedded coordinates; slot
    bilinearity expands the symbol into one term per index tuple (terms with a
    zero coordinate vanish).  The emitted certificate lists the bilinear
    columns used, and the decomposition identity is re-checked exactly.
    """
    d = len(groups)
    r = len(symbol_points)
    original = tuple(tuple(P) for P in symbol_points)
    work: dict[tuple[ProductPoint, ...], int] = {original: 1}
    cert: list[tuple[int, dict]] = []

    def col_dict(entries):
        acc: dict[tuple[ProductPoint, ...], int] = {}
        for tup, c in entries:
            _add_multiple(acc, {tup: c}, 1)
        return acc

    for slot in range(r):
        nxt: dict[tuple[ProductPoint, ...], int] = {}
        for tup, coeff in work.items():
            P = tup[slot]
            pieces = [embed(i, P[i], d) for i in range(d)]
            # suffix sums s_k = pieces[k] + ... + pieces[d-1]
            suffix = [pieces[-1]]
            for k in range(d - 2, -1, -1):
                suffix.append(product_add(groups, pieces[k], suffix[-1]))
            suffix.reverse()
            if suffix[0] != P:
                raise CertificateError("coordinate expansion does not resum")

            def with_slot(x):
                t = list(tup)
                t[slot] = x
                return tuple(t)

            for k in range(d - 1):
                col = col_dict(
                    [
                        (with_slot(suffix[k]), 1),
                        (with_slot(pieces[k]), -1),
                        (with_slot(suffix[k + 1]), -1),
                    ]
                )
                if col:
                    cert.append((coeff, col))
            for piece in pieces:
                _add_multiple(nxt, {with_slot(piece): coeff}, 1)
        work = nxt

    # drop terms with a vanishing coordinate: {..., 0, ...} = 0 is derivable
    # from the bilinear column at (0, 0), which equals -{..., 0, ...}
    zero = product_zero(d)
    final: dict[tuple[ProductPoint, ...], int] = {}
    for tup, coeff in work.items():
        if any(pt == zero for pt in tup):
            col = col_dict([(tup, 1), (tup, -1), (tup, -1)])
            cert.append((-coeff, col))
            continue
        final[tup] = final.get(tup, 0) + coeff

    # exact re-verification: original = sum(final) + sum(mult * column)
    check: dict[tuple[ProductPoint, ...], int] = dict(final)
    for mult, col in cert:
        _add_multiple(check, col, mult)
    verified = check == {original: 1}

    terms: dict[tuple[int, ...], tuple[Point, ...]] = {}
    roundtrip = True
    for tup in final:
        idx = []
        comps = []
        for pt in tup:
            nz = [i for i in range(d) if pt[i] is not None]
            if len(nz) != 1:
                roundtrip = False
                break
            i = nz[0]
            x = project(i, pt)
            if embed(i, x, d) != pt:
                roundtrip = False
                break
            idx.append(i)
            comps.append(x)
        else:
            terms[tuple(idx)] = tuple(comps)
            continue
        break
    return DecompositionResult(original, terms, cert, verified, roundtrip)

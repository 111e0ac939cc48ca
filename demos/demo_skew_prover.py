#!/usr/bin/env python3
"""Machine-checked skew-symmetry of two-slot symbols over E(F_q).

For every ordered pair of points, the sum {a1,a2} + {a2,a1} is certified to
lie in the lattice generated by slot bilinearity and the two reciprocity
families; one lone symbol is certified to lie outside, so the lattice is not
degenerate.  Both sign conventions for the chord's third point are run.  Past
two slots a symbol {a1, a2, X} carries a fixed run X of r - 2 points that no
relation reads, so r = 3 gives the r = 2 answers."""

from isogeny_forge.elliptic import curve_from_pair, rational_points_mod_p
from isogeny_forge.kgroup import MINUS, PLUS, SkewBilinear, prove_skew

E = curve_from_pair(1, -1)
for q in (5, 7, 11):
    G = rational_points_mod_p(E, q)
    print(f"E(F_{q}): {len(G.points)} points, structure {G.structure()}")
    bilinear = SkewBilinear(G, 2)  # shared by both conventions
    for conv in (MINUS, PLUS):
        rep = prove_skew(bilinear, conv)
        avg = sum(rep.certificate_lengths.values()) / max(1, len(rep.certificate_lengths))
        print(
            f"  convention={conv:>5}: {rep.pairs_proved} pairs proved from "
            f"{rep.n_columns} relation columns; 2{{a,a}} proved for "
            f"{rep.two_torsion_proved} points; avg certificate length {avg:.1f}"
        )
        print(
            f"    negative control: {{{rep.negative_control_pair[0]}, "
            f"{rep.negative_control_pair[1]}}} certified outside the lattice: "
            f"{rep.negative_control_certified}"
        )
    rep3 = prove_skew(SkewBilinear(G, 3), MINUS)
    print(f"  r=3: all proved = {rep3.all_proved}")
    print()

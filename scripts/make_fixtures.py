"""Regenerate the fixture corpus in src/mindeg/fixtures/.

Every fixture is reconstructed from scratch (projective actions from the
standard matrix generators, classical permutation constructions, published
generator lists for the Mathieu groups) and its defining invariants are
asserted before writing.  Run from the repository root:

    python3 scripts/make_fixtures.py
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from groups import (  # noqa: E402
    _line_maps, a5wrz2, a5xa6, alt, d8, hint_data, pgammal2, pgl2,
    projective_points, psl2, psl3_graph_extension, psl_on_plane, sym,
)
from mindeg.bsgs import build_group  # noqa: E402
from mindeg.fflinalg import frobenius  # noqa: E402
from mindeg.perm import Permutation, parse_permutation  # noqa: E402
from mindeg.pipeline import matrix_to_projective_perm  # noqa: E402

OUT = os.path.join(ROOT, "src", "mindeg", "fixtures")


def write_grp(name, recipe, G, kernel=None):
    lines = [f"# {name}", f"# provenance: {recipe}",
             f"# order {G.order()}" if kernel is None
             else f"# |G| {G.order()}, |K| {kernel.order()}",
             f"degree {G.degree}"]
    for g in G.generators:
        lines.append(f"gen {g}")
    if kernel is not None:
        lines.append("kernel")
        for k in kernel.generators:
            lines.append(f"gen {k}")
    path = os.path.join(OUT, f"{name}.grp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path} (degree {G.degree}, order {G.order()})")


def psl2_11_on_11_points():
    """PSL(2,11) on the 11 cosets of an icosahedral subgroup.

    Found by searching the 12-point action for an Alt(5) subgroup, then
    acting on its right cosets.
    """
    G = psl2(11)
    import itertools

    from mindeg.perm import compose, element_order
    # a deterministic search: pick an involution and an order-3 element
    # whose product has order 5; they generate an Alt(5)
    els = list(G.elements())
    invs = sorted((g for g in els if element_order(g) == 2),
                  key=lambda g: g.images)
    thirds = sorted((g for g in els if element_order(g) == 3),
                    key=lambda g: g.images)
    H = None
    for u, v in itertools.product(invs, thirds):
        if element_order(compose(u, v)) == 5:
            cand = build_group(12, [u, v])
            if cand.order() == 60:
                H = cand
                break
    assert H is not None
    members = {g.images for g in H.elements()}
    # right cosets Hg, keyed by their lexicographically least element
    cosets = {}
    for g in els:
        key = min(compose(h_img, g).images
                  for h_img in (Permutation(im) for im in members))
        cosets.setdefault(key, g)
    keys = sorted(cosets)
    assert len(keys) == 11
    index = {k: i for i, k in enumerate(keys)}

    def act(gen):
        images = []
        for k in keys:
            g = cosets[k]
            key2 = min(compose(Permutation(im), compose(g, gen)).images
                       for im in members)
            images.append(index[key2])
        return Permutation(tuple(images))

    P11 = build_group(11, [act(gen) for gen in G.generators])
    assert P11.order() == 660
    return P11


def aut_a6():
    """Aut(Alt(6)) = PGammaL(2,9) on the projective line (10 points)."""
    F, moebius, t, s, m, full_m = _line_maps(9)
    fr = moebius(lambda x: frobenius(F, x, 1) if x != 9 else 9)
    G = build_group(10, [t, s, full_m, fr])
    assert G.order() == 1440
    return G


def write_hint(name, family, d, q, perm_gens, mats):
    data = hint_data(family, d, q, perm_gens, mats)
    path = os.path.join(OUT, f"{name}.hint.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main():
    os.makedirs(OUT, exist_ok=True)

    write_grp("A5", "alternating group on 5 points", alt(5))
    write_grp("S5", "symmetric group on 5 points", sym(5))
    write_grp("A6", "alternating group on 6 points", alt(6))
    write_grp("S6", "symmetric group on 6 points", sym(6))

    G21, field, L, pts, index = psl_on_plane(3, 2)
    assert G21.order() == 168
    write_grp("PSL27", "PSL(3,2) = PSL(2,7) on the 7 points of the Fano "
              "plane, from the SL(3,2) standard generators", G21)
    write_grp("PGL27", "PGL(2,7) as Moebius maps x+1, -1/x, gx on the "
              "projective line over F_7", pgl2(7))
    write_grp("PSL28", "PSL(2,8) as Moebius maps on the projective line "
              "over F_8", psl2(8))
    write_grp("PGammaL28", "PSL(2,8) with the Frobenius map adjoined "
              "(Moebius maps on the projective line over F_8)", pgammal2(8))
    write_grp("PSL211", "PSL(2,11) on the 11 cosets of an icosahedral "
              "subgroup of the 12-point Moebius action", psl2_11_on_11_points())

    G, perm_gens21, L34 = None, None, None
    G34, f34, L34, pts34, idx34 = psl_on_plane(3, 4)
    assert G34.order() == 20160
    write_grp("PSL34", "PSL(3,4) on the 21 points of PG(2,4), from the "
              "SL(3,4) standard generators", G34)
    perm_gens21 = [matrix_to_projective_perm(U, pts34, idx34) for U in L34]
    write_hint("PSL34", "SL", 3, 4, perm_gens21, L34)

    G42, dbl_gens, L42 = psl3_graph_extension(4)
    assert G42.order() == 2 * G34.order() == 40320
    write_grp("PSL34_2", "PSL(3,4) extended by the point-line duality of "
              "PG(2,4): points 1-21, lines 22-42 indexed by normal vectors, "
              "duality v -> v-perp", G42)
    write_hint("PSL34_2", "SL", 3, 4, dbl_gens, L42)

    a = parse_permutation("(1 2 3 4 5 6 7 8 9 10 11)", 12)
    b = parse_permutation("(3 7 11 8)(4 10 5 6)", 12)
    c = parse_permutation("(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)", 12)
    M12 = build_group(12, [a, b, c])
    assert M12.order() == 95040, M12.order()
    write_grp("M12", "Mathieu group M12: the 11-cycle and quadruple "
              "4-cycle generating M11, extended by an outer involution "
              "(published generator list, atlas)", M12)

    write_grp("AutA6", "PGammaL(2,9) = Aut(Alt(6)) on the projective line "
              "over F_9", aut_a6())
    write_grp("A5wrZ2", "Alt(5) wr Z2: two disjoint copies of Alt(5) "
              "swapped by an involution", a5wrz2())
    write_grp("A5xA6", "Alt(5) x Alt(6) on 5 + 6 points", a5xa6())
    write_grp("S4", "symmetric group on 4 points (not Fitting-free)", sym(4))
    write_grp("D8", "dihedral group of order 8 (not Fitting-free)", d8())
    write_grp("Z6", "cyclic group of order 6 on 6 points",
              build_group(6, [parse_permutation("(1 2 3 4 5 6)", 6)]))

    S4 = sym(4)
    V4 = build_group(4, [parse_permutation("(1 2)(3 4)", 4),
                         parse_permutation("(1 3)(2 4)", 4)])
    write_grp("S4modV4", "Sym(4) with the Klein four-group as kernel "
              "(quotient isomorphic to Sym(3))", S4, kernel=V4)


if __name__ == "__main__":
    main()

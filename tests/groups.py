"""Shared test constructors for classical permutation groups."""

from pathlib import Path

from mindeg.bsgs import build_group, preimage_of_stabilizer
from mindeg.cli import parse_group_file
from mindeg.fflinalg import (
    Field, frobenius, invert, standard_generators, transpose,
)
from mindeg.perm import (
    Permutation, compose, compose3, identity, inverse, parse_permutation,
)
from mindeg.pipeline import (
    matrix_to_projective_perm, projective_action, projective_points,
)


def P(text, n):
    return parse_permutation(text, n)


def conjugate(s, g):
    """The conjugate g^-1 s g."""
    return compose3(inverse(g), s, g)


# Direct products with disjoint supports: A6 on 1..6 times PSL(2,8) on
# 7..15, and A7 on 1..7 times A7 on 8..14.
A6_PSL28 = ["(1 2 3)(7 8)(9 10)(11 12)(13 14)",
            "(2 3 4 5 6)(7 15)(9 12)(10 13)(11 14)",
            "(1 2 3)(8 9 11 10 13 14 12)"]
A7_A7 = ["(1 2 3)(8 9 10 11 12 13 14)", "(1 2 3 4 5 6 7)(8 9 10)"]
# Alt(5) on 1..5 times Alt(5) acting diagonally on 6..10 and 11..15, each
# generator moving all three orbits; and Alt(5) wr Z3 on three blocks of 5.
A5_X_DIAGONAL_A5 = ["(1 2 3)(6 7 8 9 10)(11 12 13 14 15)",
                    "(1 2 3 4 5)(6 7 8)(11 12 13)"]
A5_WR_Z3 = ["(1 2 3)", "(1 2 3 4 5)",
            "(1 6 11)(2 7 12)(3 8 13)(4 9 14)(5 10 15)"]


def alt(n):
    gens = [P("(1 2 3)", n)]
    if n > 3:
        cyc = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
        shifted = "(" + " ".join(str(i) for i in range(2, n + 1)) + ")"
        gens.append(P(cyc if n % 2 == 1 else shifted, n))
    return build_group(n, gens)


def sym(n):
    cyc = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    return build_group(n, [P("(1 2)", n), P(cyc, n)])


def a5wrz2():
    """Alt(5) wr Z2 on 10 points (two blocks of 5, swapped)."""
    gens = [P("(1 2 3)", 10), P("(3 4 5)", 10),
            P("(6 7 8)", 10), P("(8 9 10)", 10),
            P("(1 6)(2 7)(3 8)(4 9)(5 10)", 10)]
    G = build_group(10, gens)
    assert G.order() == 7200
    return G


def a5xa6():
    """Alt(5) x Alt(6) on 11 points (disjoint supports)."""
    gens = [P("(1 2 3)", 11), P("(1 2 3 4 5)", 11),
            P("(6 7 8)", 11), P("(7 8 9 10 11)", 11)]
    G = build_group(11, gens)
    assert G.order() == 60 * 360
    return G


def s6xa5():
    """Sym(6) x Alt(5) on 11 points (disjoint supports)."""
    return build_group(11, [P("(1 2)", 11), P("(1 2 3 4 5 6)", 11),
                            P("(7 8 9)", 11), P("(9 10 11)", 11)])


def a5xa5_diagonal():
    """Alt(5) x Alt(5) on the 60 elements of Alt(5): (a, b) sends x to
    a^-1 x b.

    The action is faithful (Alt(5) has trivial center), and each factor
    acts regularly, so a point stabilizer of a factor is trivial.  Returns
    G and its first factor, the pairs (a, 1).
    """
    A5 = alt(5)
    elements = sorted(A5.elements(), key=lambda x: x.images)
    index = {x: i for i, x in enumerate(elements)}
    one = identity(5)

    def on_elements(a, b):
        ainv = inverse(a)
        return Permutation(tuple(index[compose(compose(ainv, x), b)]
                                 for x in elements))

    left = [on_elements(a, one) for a in A5.generators]
    right = [on_elements(one, b) for b in A5.generators]
    G = build_group(60, left + right)
    assert G.order() == 3600
    return G, build_group(60, left)


def a5wrz2_product_action():
    """Alt(5) wr Z2 on the 25 pairs (i, j), i, j in 0..4, as 5i + j: each
    copy of Alt(5) moves one coordinate, and the swap exchanges them.  Its
    socle Alt(5) x Alt(5) is transitive but not 2-transitive."""
    def on_pairs(f):
        return Permutation(tuple(5 * a + b for i in range(5)
                                 for j in range(5) for a, b in [f(i, j)]))

    gens = [on_pairs(lambda i, j: (c.images[i], j)) for c in alt(5).generators]
    gens += [on_pairs(lambda i, j: (i, c.images[j]))
             for c in alt(5).generators]
    G = build_group(25, gens + [on_pairs(lambda i, j: (j, i))])
    assert G.order() == 7200
    return G


def a5_on_two_orbits():
    """Alt(5) on 5 + 60 points: naturally on the first 5, by x -> a^-1 x on
    the elements of Alt(5) on the other 60, together with x -> x b there.

    The point stabilizer of the first orbit fixes no other point, that of
    the second (regular) orbit fixes every point.  Returns G (order 3600)
    and the normal Alt(5), whose centralizer is the right multiplications.
    """
    D, left = a5xa5_diagonal()
    on_5 = alt(5).generators + [identity(5)] * 2
    G = build_group(65, [Permutation(a.images + tuple(5 + x for x in b.images))
                         for a, b in zip(on_5, D.generators)])
    assert G.order() == 3600
    return G, build_group(65, G.generators[:len(left.generators)])


def d8():
    """Dihedral group of order 8 on 4 points."""
    return build_group(4, [P("(1 2 3 4)", 4), P("(1 3)", 4)])


def _pp_decompose(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    t = q
    while t % p == 0:
        t //= p
        e += 1
    assert t == 1, f"{q} is not a prime power"
    return p, e


def _line_maps(q):
    """Moebius generators t: x+1, s: -1/x, m: g^k x on the projective line.

    With k = 2 for odd q (k = 1 for even q) all three maps lie in PSL(2,q)
    and generate it (Borel subgroup plus the Weyl reflection).
    """
    F = Field(*_pp_decompose(q))
    inf = q
    g = next(x for x in range(2, q) if _mult_order(F, x) == q - 1) if q > 3 else \
        next(x for x in range(1, q) if _mult_order(F, x) == q - 1)

    def moebius(f):
        return Permutation(tuple([f(x) for x in range(q)] + [f(inf)]))

    t = moebius(lambda x: F.add(x, 1) if x != inf else inf)
    s = moebius(lambda x: inf if x == 0 else (0 if x == inf else F.neg(F.inv(x))))
    k = 1 if q % 2 == 0 else 2
    gk = F.pow(g, k)
    m = moebius(lambda x: F.mul(gk, x) if x != inf else inf)
    full_m = moebius(lambda x: F.mul(g, x) if x != inf else inf)
    return F, moebius, t, s, m, full_m


def psl2(q):
    """PSL(2,q) acting on the projective line: points 0..q-1, then infinity."""
    _, _, t, s, m, _ = _line_maps(q)
    G = build_group(q + 1, [t, s, m])
    expected = q * (q * q - 1) // (2 if q % 2 else 1)
    assert G.order() == expected, (q, G.order(), expected)
    return G


def pgl2(q):
    """PGL(2,q) on the projective line (full diagonal action)."""
    _, _, t, s, _, full_m = _line_maps(q)
    G = build_group(q + 1, [t, s, full_m])
    assert G.order() == q * (q * q - 1)
    return G


def pgammal2(q):
    """PΣL(2,q): PSL(2,q) with the Frobenius field action on the line.

    This is PΓL(2,q) only for even q, where PGL(2,q) = PSL(2,q); for odd q
    the diagonal automorphisms of PGL(2,q) are missing.
    """
    from mindeg.fflinalg import frobenius
    F, moebius, t, s, m, _ = _line_maps(q)
    fr = moebius(lambda x: frobenius(F, x, 1) if x != q else q)
    return build_group(q + 1, [t, s, m, fr])


def m10():
    """M10 on the projective line of F9: PSL(2,9) and x -> w*x^3, w primitive.

    The third index-2 overgroup of PSL(2,9) = Alt(6) in its automorphism
    group, besides PGL(2,9) and PΣL(2,9) = Sym(6).
    """
    from mindeg.fflinalg import frobenius
    F, moebius, t, s, m, full_m = _line_maps(9)
    w = full_m.images[1]  # full_m is x -> w*x
    fw = moebius(lambda x: F.mul(w, frobenius(F, x, 1)) if x != 9 else 9)
    G = build_group(10, [t, s, m, fw])
    assert G.order() == 720
    return G


def m11():
    """M11: the stabilizer of a point of M12 on 12 points."""
    fixture = Path(__file__).parent.parent / "src" / "mindeg" / "fixtures"
    M12 = parse_group_file(fixture / "M12.grp").group
    G = preimage_of_stabilizer(M12, M12.generators, 0)
    assert G.order() == 7920
    return G


def m22():
    """M22: the stabilizer of infinity and 0 in M24 on PL(23) (24 points,
    infinity last).

    M24 is generated by x -> x+1, x -> 2x, x -> -1/x and Conway's delta:
    x -> x^3/9 on the nonzero squares, x -> 9x^3 on the non-squares.
    """
    inf = 23
    squares = {x * x % 23 for x in range(1, 23)}

    def on_line(f):
        return Permutation(tuple(f(x) for x in range(24)))

    def delta(x):
        if x in (0, inf):
            return x
        return x ** 3 * pow(9, -1, 23) % 23 if x in squares else 9 * x ** 3 % 23

    M24 = build_group(24, [
        on_line(lambda x: inf if x == inf else (x + 1) % 23),
        on_line(lambda x: inf if x == inf else 2 * x % 23),
        on_line(lambda x: 0 if x == inf else inf if x == 0
                else -pow(x, -1, 23) % 23),
        on_line(delta)])
    assert M24.order() == 244823040
    M23 = preimage_of_stabilizer(M24, M24.generators, inf)
    G = preimage_of_stabilizer(M23, M23.generators, 0)
    assert G.order() == 443520
    return G


def _mult_order(F, x):
    k, y = 1, x
    while y != 1:
        y = F.mul(y, x)
        k += 1
    return k


def psl_on_plane(d, q):
    """PSL(d,q) acting on projective (d-1)-space, from the SL generators."""
    field, L = standard_generators("SL", d, q)
    pts = projective_points(field, d)
    index = {v: i for i, v in enumerate(pts)}
    perms = [matrix_to_projective_perm(U, pts, index) for U in L]
    return build_group(len(pts), perms), field, L, pts, index


def asl24():
    """ASL(2,4) on the 16 vectors of F_4^2: SL(2,4) acting linearly, with
    the translation by the first basis vector.

    SL(2,4) is transitive on the nonzero vectors, so the translations it
    conjugates that one into are all of them.  The group is perfect and
    2-transitive, and its translations are an abelian minimal normal
    subgroup.
    """
    field, L = standard_generators("SL", 2, 4)
    vectors = [(x, y) for x in range(4) for y in range(4)]
    index = {v: i for i, v in enumerate(vectors)}

    def linear(U):
        return Permutation(tuple(
            index[tuple(field.add(field.mul(a, v[0]), field.mul(b, v[1]))
                        for a, b in U.rows)] for v in vectors))

    shift = Permutation(tuple(index[(field.add(v[0], 1), v[1])]
                              for v in vectors))
    G = build_group(16, [linear(U) for U in L] + [shift])
    assert G.order() == 16 * 60
    return G


def asl32():
    """ASL(3,2) = AGL(3,2) on the 8 vectors of F_2^3: SL(3,2) acting
    linearly, and x -> Ux + e_1 for its first generator U.

    The group is perfect and 2-transitive, and 4 divides the order 168 of
    its point stabilizer.  No generator is a translation, so the normal
    closure of each is the whole group, not the translations.
    """
    _, L = standard_generators("SL", 3, 2)
    vectors = [(x, y, z) for x in range(2) for y in range(2)
               for z in range(2)]
    index = {v: i for i, v in enumerate(vectors)}

    def affine(U, shift):
        return Permutation(tuple(
            index[tuple((sum(a * x for a, x in zip(row, v)) + c) % 2
                        for row, c in zip(U.rows, shift))]
            for v in vectors))

    G = build_group(8, [affine(U, (0, 0, 0)) for U in L]
                    + [affine(L[0], (1, 0, 0))])
    assert G.order() == 8 * 168
    return G


def psp44_on_points():
    """PSp(4,4) on the 85 points of its projective space: rank 3, so
    transitive but not 2-transitive."""
    _, L, pi, _ = projective_action("Sp", 4, 4)
    G = build_group(85, [pi(U) for U in L])
    assert G.order() == 979200
    return G


def center_scalars(family, d, field):
    """Scalars c with cI in the center of the matrix cover: the reference
    that the order-p lift is tested against."""
    if family == "SL":
        return [c for c in field.elements()
                if c and field.pow(c, d) == 1]
    if family in ("Sp", "OmegaPlus"):
        # Z(Sp(4, 2^e)) is trivial: c^2 = 1 forces c = 1 in characteristic 2
        return [c for c in field.elements() if c and field.mul(c, c) == 1]
    raise ValueError(f"unknown family {family!r}")


def hint_data(family, d, q, gens, mats, factor_index=0):
    """The hint JSON dictionary for the isomorphism gens[i] -> mats[i]."""
    return {"factor_index": factor_index, "family": family, "d": d, "q": q,
            "field_convention": "lex-least-irreducible",
            "degree": gens[0].degree,
            "generators": [list(g.images) for g in gens],
            "generator_images": [[x for row in M.rows for x in row]
                                 for M in mats]}


def pgammasp44_with_hint():
    """PSp(4,4) extended by the field automorphism, on the 85 points of
    PG(3,4), and the hint pi(U) -> U on the standard generators.  The
    Frobenius x -> x^2 on coordinates keeps a point's first nonzero
    coordinate 1."""
    fld, L, pi, _ = projective_action("Sp", 4, 4)
    pts = projective_points(fld, 4)
    index = {v: i for i, v in enumerate(pts)}
    frob = Permutation(tuple(index[tuple(frobenius(fld, x, 1) for x in v)]
                             for v in pts))
    gens = [pi(U) for U in L]
    G = build_group(85, gens + [frob])
    assert G.order() == 2 * 979200
    return G, hint_data("Sp", 4, 4, gens, L)


def psl3_graph_extension(q):
    """PSL(3,q).2 of graph type on the points plus lines of PG(2,q), the
    socle generators and the SL(3,q) standard generators they come from.

    U acts on points by v -> Uv and on lines (indexed by their normal
    vectors) by w -> U^-T w; the duality v -> v^perp swaps the two orbits
    and conjugates U to U^-T.
    """
    fld, L = standard_generators("SL", 3, q)
    pts = projective_points(fld, 3)
    index = {v: i for i, v in enumerate(pts)}
    n = len(pts)

    def double(U):
        lines = matrix_to_projective_perm(transpose(invert(U)), pts, index)
        return Permutation(matrix_to_projective_perm(U, pts, index).images
                           + tuple(n + x for x in lines.images))

    gens = [double(U) for U in L]
    tau = Permutation(tuple(range(n, 2 * n)) + tuple(range(n)))
    return build_group(2 * n, gens + [tau]), gens, L

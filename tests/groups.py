"""Shared test constructors for classical permutation groups."""

from pathlib import Path

from mindeg.bsgs import build_group, preimage_of_stabilizer
from mindeg.cli import parse_group_file
from mindeg.fflinalg import make_field, standard_generators
from mindeg.perm import Permutation, parse_permutation
from mindeg.pipeline import projective_points


def P(text, n):
    return parse_permutation(text, n)


# Direct products with disjoint supports: A6 on 1..6 times PSL(2,8) on
# 7..15, and A7 on 1..7 times A7 on 8..14.
A6_PSL28 = ["(1 2 3)(7 8)(9 10)(11 12)(13 14)",
            "(2 3 4 5 6)(7 15)(9 12)(10 13)(11 14)",
            "(1 2 3)(8 9 11 10 13 14 12)"]
A7_A7 = ["(1 2 3)(8 9 10 11 12 13 14)", "(1 2 3 4 5 6 7)(8 9 10)"]


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
    F = make_field(*_pp_decompose(q))
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


def matrix_on_projective_points(U, pts, index):
    F = U.field
    images = []
    for v in pts:
        w = [0] * len(v)
        for r, row in enumerate(U.rows):
            acc = 0
            for x, y in zip(row, v):
                acc = F.add(acc, F.mul(x, y))
            w[r] = acc
        nz = next(x for x in w if x)
        iv = F.inv(nz)
        images.append(index[tuple(F.mul(iv, x) for x in w)])
    return Permutation(tuple(images))


def psl_on_plane(d, q):
    """PSL(d,q) acting on projective (d-1)-space, from the SL generators."""
    field, L = standard_generators("SL", d, q)
    pts = projective_points(field, d)
    index = {v: i for i, v in enumerate(pts)}
    perms = [matrix_on_projective_points(U, pts, index) for U in L]
    return build_group(len(pts), perms), field, L, pts, index

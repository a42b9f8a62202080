from array import array

import numpy as np
import pytest

from mindeg.bsgs import build_group
from mindeg.cli import parse_group_file
from mindeg.errors import LimitExceededError
from mindeg.oracle import ORACLE_LIMIT, mu_oracle
from mindeg.perm import compose, parse_permutation
from mindeg.smallgroup import (
    CayleyGroup, QuotientGroup, _conjugates, all_subgroups,
    from_direct_factors, isomorphism_search, list_elements,
)

from .groups import pgammal2, sym
from .test_cli import fx, s5_x_a5_mod_a5
from .test_pipeline import load_fixture


def P(text, n):
    return parse_permutation(text, n)


def sym3():
    return build_group(3, [P("(1 2)", 3), P("(1 2 3)", 3)])


def sym4():
    return build_group(4, [P("(1 2)", 4), P("(1 2 3 4)", 4)])


def klein_cayley():
    return from_direct_factors([2, 2])


def test_list_elements_sym3():
    C = list_elements(sym3(), bound=10)
    assert C.order == 6
    assert C.elements[0].is_identity()
    # table agrees with composition of the stored permutations
    from mindeg.perm import compose
    for i in range(6):
        for j in range(6):
            assert C.elements[C.table[i][j]] == compose(C.elements[i], C.elements[j])


def _listing_target(name, tmp_path):
    if name == "trivial":
        return build_group(3, [])
    path = s5_x_a5_mod_a5(tmp_path) if name == "S5xA5modA5" else fx(name)
    gf = parse_group_file(str(path))
    return gf.group if gf.kernel is None else gf.quotient()


@pytest.mark.parametrize("name", ["A5.grp", "PSL27.grp", "S6.grp", "trivial",
                                  "S4modV4.grp", "S5xA5modA5"])
def test_list_elements_matches_the_definition(name, tmp_path):
    # table[i][j] is the index of x_i x_j (of its coset, for a quotient),
    # checked pair by pair from the listed elements
    X = _listing_target(name, tmp_path)
    C = list_elements(X, bound=ORACLE_LIMIT)
    if isinstance(X, QuotientGroup):
        def key(g):
            return X.K.coset_rep(g).images
        assert C.order == X.index()
    else:
        def key(g):
            return g.images
        assert C.order == X.order()
    index = {key(x): i for i, x in enumerate(C.elements)}
    assert len(index) == C.order and C.elements[0].is_identity()
    for i, x in enumerate(C.elements):
        assert [index[key(compose(x, y))] for y in C.elements] == list(C.table[i])
    # columns[j][i] = table[i][j]
    assert list(map(tuple, C.columns)) == list(zip(*C.table))


def test_list_elements_bound_exceeded():
    with pytest.raises(LimitExceededError):
        list_elements(sym4(), bound=10)


def test_quotient_sym4_by_klein():
    G = sym4()
    K = build_group(4, [P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)])
    Q = QuotientGroup(G, K)
    assert Q.index() == 6
    C = list_elements(Q, bound=10)
    assert C.order == 6
    S3 = list_elements(sym3(), bound=10)
    assert isomorphism_search(C, S3) is not None


def test_quotient_validates_normality():
    G = sym4()
    H = build_group(4, [P("(1 2)", 4)])
    with pytest.raises(ValueError):
        QuotientGroup(G, H)


def test_quotient_validates_subgroup():
    A4 = build_group(4, [P("(1 2 3)", 4), P("(2 3 4)", 4)])
    H = build_group(4, [P("(1 2)", 4)])
    with pytest.raises(ValueError):
        QuotientGroup(A4, H)


def test_quotient_with_coset_key():
    # Alt(5) wr Z2 acting on its two blocks; kernel is Alt(5) x Alt(5)
    gens = [P("(1 2 3)", 10), P("(3 4 5)", 10), P("(6 7 8)", 10), P("(8 9 10)", 10),
            P("(1 6)(2 7)(3 8)(4 9)(5 10)", 10)]
    G = build_group(10, gens)
    K = build_group(10, gens[:4])
    C = list_elements(QuotientGroup(G, K), bound=10)
    assert C.order == 2


def test_from_direct_factors():
    C = from_direct_factors([2, 3])
    assert C.order == 6
    assert sorted(C.element_orders()) == [1, 2, 3, 3, 6, 6]


def test_subgroups_z6():
    C = from_direct_factors([6])
    subs = all_subgroups(C)
    assert sorted(len(s) for s in subs) == [1, 2, 3, 6]


def test_subgroups_sym3():
    C = list_elements(sym3(), bound=10)
    subs = all_subgroups(C)
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]


def test_subgroups_klein():
    subs = all_subgroups(klein_cayley())
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 4]


@pytest.mark.parametrize("moduli,n_subgroups,mu", [
    ([3, 5, 17], 8, 25), ([256], 9, 256), ([257], 2, 257)])
def test_orders_at_the_256_step(moduli, n_subgroups, mu):
    # orders 255 and 256 store bytes, 257 tuples
    C = from_direct_factors(moduli)
    assert len(all_subgroups(C)) == n_subgroups
    assert mu_oracle(C)[0] == mu


def test_subgroups_cyclic_count_is_divisor_count():
    def ndiv(n):
        return sum(1 for d in range(1, n + 1) if n % d == 0)

    for n in (2, 12, 30, 64, 97, 100):
        C = from_direct_factors([n])
        assert len(all_subgroups(C)) == ndiv(n)


def brute_subgroups(C):
    """All subgroups by checking every closed subset reachable from seeds."""
    m, t = C.order, C.table
    found = set()
    work = [frozenset([0])]
    found.add(frozenset([0]))
    while work:
        H = work.pop()
        for g in range(1, m):
            if g in H:
                continue
            members = set(H) | {g}
            changed = True
            while changed:
                changed = False
                for a in list(members):
                    for b in list(members):
                        p = t[a][b]
                        if p not in members:
                            members.add(p)
                            changed = True
            fz = frozenset(members)
            if fz not in found:
                found.add(fz)
                work.append(fz)
    return {tuple(sorted(s)) for s in found}


@pytest.mark.parametrize("make", [
    lambda: list_elements(sym4(), bound=100),
    lambda: from_direct_factors([2, 2, 2]),
    lambda: from_direct_factors([4, 4]),
    lambda: list_elements(build_group(4, [P("(1 2 3 4)", 4), P("(1 3)", 4)]), bound=100),
    lambda: list_elements(build_group(8, [P("(1 2 3 8)(4 5 6 7)", 8),
                                          P("(1 7 3 5)(2 6 8 4)", 8)]), bound=100),
])
def test_subgroups_match_bruteforce(make):
    C = make()
    subs = {tuple(s) for s in all_subgroups(C)}
    assert subs == brute_subgroups(C)


# Groups with perfect subgroups (A5 in S5, A6 and PSL(2,11); PSL(2,7) in
# itself and in PGL(2,7)).  Cyclic extension alone, adjoining to H an
# element that normalizes it, never reaches a perfect subgroup; the join
# <H, c> here needs no such c.  Counts of subgroups and of conjugacy
# classes are the literature values.
@pytest.mark.parametrize("name,n_subgroups,n_classes", [
    ("S5", 156, 19), ("PSL27", 179, 15), ("A6", 501, 22), ("PGL27", 413, 23),
    ("PSL211", 620, 16), ("S6", 1455, 56)])
def test_subgroup_and_class_counts(name, n_subgroups, n_classes):
    C = list_elements(load_fixture(f"{name}.grp"), bound=2000)
    subs = all_subgroups(C)
    assert len(subs) == n_subgroups
    assert subs == sorted(subs, key=lambda s: (len(s), s))
    gens = C.generating_set()
    classes: list[set[int]] = []
    for s in subs:
        if not any(tuple(s) in cls for cls in classes):
            classes.append({tuple(K) for K in _conjugates(C, s, gens)})
    assert len(classes) == n_classes
    assert sum(len(cls) for cls in classes) == n_subgroups


def test_subgroup_joins_are_one_per_normalizer_orbit(monkeypatch):
    # each class representative H0 is joined with one prime-power cyclic
    # subgroup per N_G(H0)-orbit: 1416 joins on S6, where joining every
    # cyclic subgroup outside H0 makes 12 503
    import mindeg.smallgroup
    C = list_elements(load_fixture("S6.grp"), bound=ORACLE_LIMIT)
    calls = []
    original = mindeg.smallgroup._join

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(mindeg.smallgroup, "_join", counted)
    assert len(all_subgroups(C)) == 1455
    assert len(calls) <= 2000


def test_subgroups_are_closed_and_lagrange():
    C = list_elements(sym4(), bound=100)
    t = C.table
    for s in all_subgroups(C):
        assert C.order % len(s) == 0
        members = set(s)
        assert all(t[a][b] in members for a in s for b in s)


def test_iso_search_negative():
    assert isomorphism_search(from_direct_factors([4]), klein_cayley()) is None
    assert isomorphism_search(from_direct_factors([2]), from_direct_factors([3])) is None


def test_iso_search_positive_and_symmetric():
    A = from_direct_factors([2, 3])
    B = from_direct_factors([6])
    phi = isomorphism_search(A, B)
    assert phi is not None
    for i in range(6):
        for j in range(6):
            assert phi[A.table[i][j]] == B.table[phi[i]][phi[j]]
    assert isomorphism_search(B, A) is not None


def test_iso_search_psigmal29_to_s6_respects_every_product():
    A = list_elements(pgammal2(9), bound=ORACLE_LIMIT)
    S6 = list_elements(sym(6), bound=ORACLE_LIMIT)
    phi = isomorphism_search(A, S6)
    assert sorted(phi) == list(range(720))
    # phi(x_i x_j) = phi(x_i) phi(x_j) on all 720^2 pairs
    phi, a, s6 = np.array(phi), np.array(A.table), np.array(S6.table)
    assert (phi[a] == s6[phi[:, None], phi[None, :]]).all()


def test_trivial_group_edge_cases():
    T = from_direct_factors([1])
    assert T.order == 1
    assert all_subgroups(T) == [[0]]
    assert isomorphism_search(T, T) == [0]


@pytest.mark.parametrize("m", [8, 256, 258, 300, 1000])
def test_cayley_rejects_an_intercalate_swap(m):
    # Z_m with the 2x2 subsquare on rows 1, 1 + m/2 and columns 2, 2 + m/2
    # swapped: still a Latin square with identity 0, but not associative
    t = [[(i + j) % m for j in range(m)] for i in range(m)]
    for i in (1, 1 + m // 2):
        t[i][2], t[i][2 + m // 2] = t[i][2 + m // 2], t[i][2]
    with pytest.raises(ValueError, match="not associative"):
        CayleyGroup(t)


def test_cayley_rejects_bad_tables():
    with pytest.raises(ValueError):
        CayleyGroup(np.array([[0, 1], [0, 1]]))
    with pytest.raises(ValueError):
        CayleyGroup([[1, 0], [0, 1]])


def test_int_buffers_are_read_as_ints():
    # bytes(row) of an int64 row would copy its raw memory
    z6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    tables = [CayleyGroup(t).table
              for t in (z6, [array("i", row) for row in z6], np.array(z6))]
    assert tables[0] == tables[1] == tables[2]
    assert [list(row) for row in tables[0]] == z6

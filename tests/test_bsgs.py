import os
import random
from math import gcd

import pytest

from mindeg.bsgs import (
    W_EMPTY, PermGroup, build_group, centralizer_of_normal, closure_has_order,
    evaluate_word, induced_action, is_two_transitive, normal_closure, orbits,
    point_stabilizer, preimage_of_stabilizer,
)
from mindeg.cli import parse_group_file
from mindeg.perm import (
    Permutation, compose, conjugate, element_order, identity, inverse,
    parse_permutation,
)
from mindeg.socle import socle_fitting_free

from .groups import A6_PSL28, A7_A7, a5wrz2, sym


def P(text, n):
    return parse_permutation(text, n)


def closure(degree, gens):
    """Brute-force closure, the oracle for chain-based orders."""
    seen = {tuple(range(degree))}
    frontier = [identity(degree)]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = compose(a, g)
                if b.images not in seen:
                    seen.add(b.images)
                    new.append(b)
        frontier = new
    return seen


SYM5 = [P("(1 2)", 5), P("(1 2 3 4 5)", 5)]
A5 = [P("(1 2 3)", 5), P("(3 4 5)", 5)]
SYM4 = [P("(1 2)", 4), P("(1 2 3 4)", 4)]


def evaluate(word, gens, degree):
    """The permutation a word DAG stands for over gens."""
    return evaluate_word(word, gens, [inverse(g) for g in gens], compose,
                         identity(degree))


def test_build_group_orders():
    assert build_group(5, SYM5).order() == 120
    assert build_group(5, A5).order() == 60
    assert build_group(3, []).order() == 1


def test_sym8_order():
    gens = [P("(1 2)", 8), P("(1 2 3 4 5 6 7 8)", 8)]
    assert build_group(8, gens).order() == 40320


def test_order_matches_bruteforce_closure():
    cases = [
        (4, SYM4),
        (4, [P("(1 2 3 4)", 4), P("(1 3)", 4)]),  # dihedral of order 8
        (5, A5),
        (6, [P("(1 2 3)(4 5 6)", 6), P("(1 4)(2 5)", 6)]),
        (7, [P("(1 2 3 4 5 6 7)", 7), P("(2 3)(4 7)", 7)]),
    ]
    for degree, gens in cases:
        assert build_group(degree, gens).order() == len(closure(degree, gens))


def test_contains_basic():
    G = build_group(3, [P("(1 2 3)", 3)])
    ok, word = G.contains(identity(3))
    assert ok and word is W_EMPTY
    assert evaluate(word, G.generators, 3) == identity(3)
    ok, word = G.contains(P("(1 2)", 3))
    assert not ok and word is None
    ok, word = G.contains(P("(1 3 2)", 3))
    assert ok
    assert evaluate(word, G.generators, 3) == P("(1 3 2)", 3)


def test_contains_matches_enumeration():
    G = build_group(4, SYM4)
    members = {g.images for g in G.elements()}
    assert len(members) == 24
    H = build_group(4, [P("(1 2 3)", 4), P("(2 3 4)", 4)])  # Alt(4)
    for imgs in members:
        g = Permutation(imgs)
        ok, word = H.contains(g)
        even = len([c for c in g.cycles() if len(c) % 2 == 0]) % 2 == 0
        assert ok == even
        if ok:
            assert evaluate(word, H.generators, 4) == g


def test_normal_closure():
    S4 = build_group(4, SYM4)
    K = normal_closure(S4, [P("(1 2)(3 4)", 4)])
    assert K.order() == 4
    assert normal_closure(S4, [identity(4)]).order() == 1
    S5 = build_group(5, SYM5)
    assert normal_closure(S5, [P("(1 2 3)", 5)]).order() == 60
    with pytest.raises(ValueError):
        normal_closure(build_group(3, [P("(1 2 3)", 3)]), [P("(1 2)", 3)])


def test_normal_closure_is_normal():
    S5 = build_group(5, SYM5)
    N = normal_closure(S5, [P("(1 2 3)", 5)])
    for g in S5.generators:
        for s in N.generators:
            assert N.member(conjugate(s, g))


def brute_centralizer(G, H):
    return [g for g in G.elements()
            if all(compose(g, h) == compose(h, g) for h in H.generators)]


def test_centralizer_examples():
    S4 = build_group(4, SYM4)
    V4 = build_group(4, [P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)])
    C = centralizer_of_normal(S4, V4)
    assert C.order() == 4
    assert {g.images for g in C.elements()} == {g.images for g in brute_centralizer(S4, V4)}

    S5 = build_group(5, SYM5)
    A5g = build_group(5, A5)
    assert centralizer_of_normal(S5, A5g).order() == 1

    assert centralizer_of_normal(S4, build_group(4, [])).order() == 24


def test_centralizer_matches_bruteforce_more():
    # Alt(5) x Alt(5) with disjoint supports inside its own normalizing product
    gens = [P("(1 2 3)", 10), P("(3 4 5)", 10), P("(6 7 8)", 10), P("(8 9 10)", 10)]
    G = build_group(10, gens)
    H = build_group(10, [P("(1 2 3)", 10), P("(3 4 5)", 10)])
    C = centralizer_of_normal(G, H)
    assert C.order() == 60
    assert all(g.images[:5] == (0, 1, 2, 3, 4) for g in C.generators)


def test_centralizer_precondition():
    S4 = build_group(4, SYM4)
    H = build_group(4, [P("(1 2)", 4)])  # not normal in Sym(4)
    with pytest.raises(ValueError):
        centralizer_of_normal(S4, H)


def test_induced_action_and_kernel():
    S4 = build_group(4, SYM4)
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def act(g, pairing):
        mapped = tuple(tuple(sorted(g.images[x] for x in pair)) for pair in pairing)
        return tuple(sorted(mapped))

    images = induced_action(S4, pairings, act)
    assert build_group(3, images).order() == 6


def test_induced_action_trivial_and_faithful():
    G = build_group(5, A5)
    images = induced_action(G, [0], lambda g, o: 0)
    assert build_group(1, images).order() == 1

    images = induced_action(G, list(range(5)), lambda g, x: g.images[x])
    assert build_group(5, images).order() == 60


def test_preimage_of_stabilizer():
    # Alt(5) wr Z2 on 10 points acting on its two blocks
    gens = [P("(1 2 3)", 10), P("(3 4 5)", 10), P("(6 7 8)", 10), P("(8 9 10)", 10),
            P("(1 6)(2 7)(3 8)(4 9)(5 10)", 10)]
    G = build_group(10, gens)
    assert G.order() == 7200
    blocks = [frozenset(range(5)), frozenset(range(5, 10))]

    def act(g, block):
        return frozenset(g.images[x] for x in block)

    images = induced_action(G, blocks, act)
    assert build_group(2, images).order() == 2
    N = preimage_of_stabilizer(G, images, 0)
    assert N.order() == 3600


def test_random_element_uniform():
    G = build_group(3, [P("(1 2)", 3), P("(1 2 3)", 3)])
    rng = random.Random(7)
    counts = {}
    for _ in range(6000):
        g = G.random_element(rng)
        assert G.member(g)
        counts[g.images] = counts.get(g.images, 0) + 1
    assert len(counts) == 6
    assert all(850 <= c <= 1150 for c in counts.values())


def test_random_element_trivial():
    G = build_group(4, [])
    rng = random.Random(0)
    assert G.random_element(rng) == identity(4)


def test_chain_consistency_invariants():
    for degree, gens in [(5, SYM5), (5, A5), (4, SYM4)]:
        G = build_group(degree, gens)
        for g in gens:
            assert G.member(g)


def test_elements_enumeration_count_and_distinct():
    G = build_group(5, A5)
    els = list(G.elements())
    assert len(els) == 60
    assert len({g.images for g in els}) == 60


def test_s6_order_regression():
    # verification must restart at the deepest level that received a new
    # strong generator; restarting at the shallowest left a stale orbit
    assert PermGroup(6, [P("(3 4)", 6), P("(1 3 4 5 6 2)", 6)]).order() == 720


def test_extend_grows_the_group_in_place():
    G = build_group(5, A5)
    assert not G.extend(compose(P("(1 2 3)(4 5)", 5), P("(4 5)", 5)))  # a member
    assert len(G.generators) == 2
    assert G.extend(P("(1 2)", 5))
    assert len(G.generators) == 3
    assert G.order() == 120
    assert G.member(P("(1 2 3 4)", 5))


@pytest.mark.parametrize("make", ["S4/V4", "A5wrZ2/A5xA5"])
def test_coset_rep_is_canonical(make):
    if make == "S4/V4":
        G = sym(4)
        K = build_group(4, [P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)])
        xs = list(G.elements())
    else:
        G = a5wrz2()
        K = build_group(10, G.generators[:4])
        rng = random.Random(7)
        xs = [G.random_element(rng) for _ in range(30)]
        xs += [compose(x, K.random_element(rng)) for x in xs]
    reps = [K.coset_rep(x) for x in xs]
    for x, r in zip(xs, reps):
        assert K.member(compose(inverse(x), r))
    for x, rx in zip(xs, reps):
        for y, ry in zip(xs, reps):
            assert (rx == ry) == K.member(compose(inverse(x), y))


def _relabelled_generating_set(rng, degree, gens):
    """A random generating set of <gens>: each generator replaced by a power
    coprime to its order, the points relabelled, the order shuffled."""
    images = list(range(degree))
    rng.shuffle(images)
    sigma = Permutation(tuple(images))
    out = []
    for g in gens:
        o = element_order(g)
        h = g
        for _ in range(rng.choice([k for k in range(o) if gcd(k + 1, o) == 1])):
            h = compose(h, g)
        out.append(conjugate(h, sigma))
    rng.shuffle(out)
    return out


def test_order_matches_sympy_on_random_generating_sets():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from tests.groups import a5xa6, alt, psl2, sym
    rng = random.Random(1)
    checked = 0
    for G in (sym(6), alt(7), psl2(7), a5xa6()):
        for _ in range(13):
            gens = _relabelled_generating_set(rng, G.degree, G.generators)
            expected = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g.images)) for g in gens]).order()
            assert expected == G.order()
            assert PermGroup(G.degree, gens).order() == expected, \
                [str(g) for g in gens]
            checked += 1
    assert checked == 52


def _count_chain_builds(monkeypatch):
    builds = []
    original = PermGroup._build_chain

    def counting(self):
        builds.append(self)
        original(self)

    monkeypatch.setattr(PermGroup, "_build_chain", counting)
    return builds


def test_normal_closure_builds_one_chain(monkeypatch):
    gens = [P("(1 2 3 4 5 6 7 8 9 10 11)", 12), P("(3 7 11 8)(4 10 5 6)", 12),
            P("(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)", 12)]
    G = PermGroup(12, gens)  # M12, chain not built yet
    builds = _count_chain_builds(monkeypatch)
    N = normal_closure(G, [gens[1]])
    assert N.order() == 95040
    assert len(N.generators) > 2  # the closure grew the seed's group
    assert len(builds) <= 2  # G's chain and N's, extended in place


def test_centralizer_builds_one_chain(monkeypatch):
    from tests.groups import a5xa6
    G = a5xa6()
    H = build_group(11, [P("(1 2 3)", 11), P("(1 2 3 4 5)", 11)])
    builds = _count_chain_builds(monkeypatch)
    C = centralizer_of_normal(G, H)
    assert C.order() == 360
    assert ({g.images for g in C.elements()}
            == {g.images for g in brute_centralizer(G, H)})
    # one stabilizer, hence one chain, per generator of H whose class is
    # nontrivial
    moved = sum(any(compose(g, h) != compose(h, g) for g in G.generators)
                for h in H.generators)
    assert len(builds) <= moved


def _fixture_and_socle(name):
    G = parse_group_file(os.path.join(FIXTURES, name + ".grp")).group
    return G, socle_fitting_free(G).socle


def _centralizer_cases():
    from tests.groups import (
        a5_on_two_orbits, a5wrz2, a5xa5_diagonal, pgammal2, psl2,
    )
    S4 = build_group(4, SYM4)
    V4 = build_group(4, [P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)])
    a5 = [P("(1 2 3)", 10), P("(3 4 5)", 10)]
    A5xA5 = build_group(10, a5 + [P("(6 7 8)", 10), P("(8 9 10)", 10)])
    W = a5wrz2()
    A7xA7 = build_group(14, [P(c, 14) for c in A7_A7])
    first_a7 = build_group(14, [P("(1 2 3)", 14), P("(1 2 3 4 5 6 7)", 14)])
    M = build_group(12, [P(c, 12) for c in M12])
    return [("S4>V4", S4, V4), ("A5xA5>A5", A5xA5, build_group(10, a5)),
            ("A5wrZ2>socle", W, build_group(10, W.generators[:4])),
            ("PGammaL28>PSL28", pgammal2(8), psl2(8)),
            ("A7xA7>A7", A7xA7, first_a7), ("M12>M12", M, M),
            # two socle orbits, points and lines: the fixed-point test
            # proves C = 1
            ("PSL34_2>socle", *_fixture_and_socle("PSL34_2")),
            # a regular factor, so H_alpha = 1 and the test must fall back
            ("A5xA5 diagonal>A5", *a5xa5_diagonal()),
            # H_alpha passes on the first orbit and fails on the second
            ("A5 on 5+60 points", *a5_on_two_orbits())]


def test_centralizer_matches_sympy_on_relabellings():
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_group(gens):
        return combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens])

    rng = random.Random(5)
    for label, G, H in _centralizer_cases():
        assert all(H.member(h) for h in H.generators)
        for _ in range(2):
            images = list(range(G.degree))
            rng.shuffle(images)
            sigma = Permutation(tuple(images))
            Gs = [conjugate(g, sigma) for g in G.generators]
            Hs = [conjugate(h, sigma) for h in H.generators]
            rng.shuffle(Gs)
            rng.shuffle(Hs)
            C = centralizer_of_normal(build_group(G.degree, Gs),
                                      build_group(G.degree, Hs))
            expected = sympy_group(Gs).centralizer(sympy_group(Hs))
            assert C.order() == expected.order(), label
            assert all(C.member(Permutation(tuple(c.array_form)))
                       for c in expected.generators), label
            assert all(expected.contains(
                combinatorics.Permutation(list(c.images)))
                for c in C.generators), label


@pytest.mark.parametrize("name", ["PSL34_2", "M12"])
def test_centralizer_of_a_socle_walks_no_class(monkeypatch, name):
    from mindeg import bsgs
    G, socle = _fixture_and_socle(name)
    points = []
    original = bsgs.class_tree

    def recording(x, maps, limit=None):
        points.append(x)
        return original(x, maps, limit)

    monkeypatch.setattr(bsgs, "class_tree", recording)
    assert centralizer_of_normal(G, socle).is_trivial()
    # conjugation walks start from a generator's image tuple; the test
    # only grows point orbits of the socle
    assert all(isinstance(x, int) for x in points)


@pytest.mark.parametrize("make", ["a5xa5_diagonal", "a5_on_two_orbits"])
def test_centralizer_of_a_regular_orbit_falls_back_to_class_walks(make):
    import tests.groups
    G, H = getattr(tests.groups, make)()
    C = centralizer_of_normal(G, H)
    assert C.order() == 60
    assert all(compose(c, h) == compose(h, c)
               for c in C.generators for h in H.generators)


def _act_on_sets(g, obj):
    """g on a point, or on nested frozensets of points."""
    if isinstance(obj, int):
        return g.images[obj]
    return frozenset(_act_on_sets(g, o) for o in obj)


def _stabilizer_cases():
    pairing = frozenset({frozenset({0, 1}), frozenset({2, 3})})
    return [("Sym4 on pairings", sym(4), pairing),
            ("Sym5 on pairs", sym(5), frozenset({0, 1})),
            ("A5wrZ2 on blocks", a5wrz2(), frozenset(range(5)))]


def test_preimage_of_stabilizer_matches_sympy_on_relabellings():
    # sympy's stabilizer of the point n + i in the group acting on its own
    # n points and on the objects, restricted back to the n points
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(9)
    for label, G, start in _stabilizer_cases():
        n = G.degree
        for _ in range(2):
            images = list(range(n))
            rng.shuffle(images)
            sigma = Permutation(tuple(images))
            gens = [conjugate(g, sigma) for g in G.generators]
            rng.shuffle(gens)
            Gs = build_group(n, gens)
            objects = [_act_on_sets(sigma, start)]
            for obj in objects:  # the orbit of the relabelled start object
                for g in gens:
                    y = _act_on_sets(g, obj)
                    if y not in objects:
                        objects.append(y)
            assert len(objects) >= 2, label
            point = rng.randrange(len(objects))
            actions = induced_action(Gs, objects, _act_on_sets)
            N = preimage_of_stabilizer(Gs, actions, point)
            E = combinatorics.PermutationGroup([
                combinatorics.Permutation(
                    list(g.images) + [n + y for y in im.images])
                for g, im in zip(gens, actions)])
            expected = combinatorics.PermutationGroup([
                combinatorics.Permutation(s.array_form[:n])
                for s in E.stabilizer(n + point).generators])
            assert N.order() == G.order() // len(objects), label
            assert N.order() == expected.order(), label
            assert all(N.member(Permutation(tuple(s.array_form)))
                       for s in expected.generators), label
            assert all(expected.contains(
                combinatorics.Permutation(list(s.images)))
                for s in N.generators), label


M12 = ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)",
       "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"]


@pytest.mark.parametrize("cycles,degree", [
    (A7_A7, 14), (A6_PSL28, 15), (M12, 12),
], ids=["A7xA7", "A6xPSL28", "M12"])
def test_closure_has_order_never_claims_a_proper_closure(cycles, degree):
    G = build_group(degree, [P(c, degree) for c in cycles])
    # elements of G, and elements inside one simple factor of a socle with
    # several factors, whose closures are proper
    factors = socle_fitting_free(G).factors
    blocks = factors if len(factors) > 1 else []
    sources = [G] + blocks
    rng = random.Random(11)
    decided = proper = 0
    for H in sources:
        for _ in range(6):
            y = H.random_element(rng)
            if y.is_identity():
                continue
            whole = normal_closure(G, [y]).order() == G.order()
            assert not whole or H is G  # a factor's element is never whole
            claimed = closure_has_order(G, y, G.order(), random.Random(7))
            assert not claimed or whole, str(y)
            decided += claimed
            proper += not whole
    assert decided > 0
    assert proper > 0 or not blocks


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mindeg",
                        "fixtures")


CHAINS = {
    "S6": lambda: sym(6),
    "M12": lambda: build_group(12, [P(c, 12) for c in M12]),
    "PSL34": lambda: parse_group_file(os.path.join(FIXTURES,
                                                   "PSL34.grp")).group,
    "A7xA7": lambda: build_group(14, [P(c, 14) for c in A7_A7]),
}


def _check_transversals(levels, gens, degree, label):
    """u(x) sends the base to x, u(x) u(x)^-1 = 1, and x's word gives u(x),
    for every level and orbit point.  u^-1 and the word are read deepest
    point first, so on a level not yet filled each read walks up the
    Schreier tree; u comes from fill()."""
    invs = [inverse(g) for g in gens]
    memo = {}
    for i, lvl in enumerate(levels):
        points = reversed(list(lvl.tree))
        found = [(x, lvl.rep_inv(x), lvl.rep_word(x)) for x in points]
        lvl.fill()
        assert lvl.points == sorted(lvl.tree)
        for x, uinv, word in found:
            u = lvl.reps[x]
            assert u.images[lvl.base] == x, (label, i, x)
            assert compose(u, uinv).is_identity(), (label, i, x)
            assert evaluate_word(word, gens, invs, compose, identity(degree),
                                 memo) == u, (label, i, x)


@pytest.mark.parametrize("label", list(CHAINS))
def test_schreier_tree_transversals(label):
    G = CHAINS[label]()
    _check_transversals(G._chain(), G.generators, G.degree, label)
    # an unverified chain, grown by sifts and installs alone: no level
    # is filled
    H = PermGroup(G.degree, G.generators)
    levels = []
    for k, g in enumerate(H.generators):
        H._install(levels, g, k + 1, 0)
    assert all(len(lvl.reps) == 1 for lvl in levels)  # no u formed yet
    assert any(len(lvl.rep_invs) < len(lvl.tree) for lvl in levels)
    _check_transversals(levels, H.generators, H.degree, label)


def test_adding_a_generator_forms_no_products(monkeypatch):
    import mindeg.bsgs as bsgs
    calls = []
    monkeypatch.setattr(bsgs, "compose", lambda a, b: calls.append((a, b)))
    lvl = bsgs._Level(0, 12)
    for k, c in enumerate(M12):
        g = P(c, 12)
        lvl.add_gen(g, inverse(g), k + 1)
    assert len(lvl.tree) == 12 and not calls


def test_evaluate_word_on_a_deep_dag():
    a, b = P("(1 2 3 4 5)", 5), P("(1 2)", 5)
    gens = [a, b]
    word, expected = 1, a
    for k in range(5000):
        if k % 3:
            word, expected = ("*", word, 2), compose(expected, b)
        else:
            word, expected = ("~", word), inverse(expected)
    assert evaluate(word, gens, 5) == expected


def _orbit_cases():
    from tests.groups import (
        a5_on_two_orbits, a5xa5_diagonal, asl24, psp44_on_points,
    )
    names = sorted(f[:-4] for f in os.listdir(FIXTURES) if f.endswith(".grp"))
    cases = [(name, parse_group_file(os.path.join(FIXTURES, name + ".grp"))
              .group) for name in names]
    a5xa5 = [P("(1 2 3)", 10), P("(1 2 3 4 5)", 10),
             P("(6 7 8)", 10), P("(6 7 8 9 10)", 10)]
    return cases + [
        ("ASL24", asl24()), ("PSp44 on 85 points", psp44_on_points()),
        ("Sym2", build_group(2, [P("(1 2)", 2)])),
        ("A5wrZ2 socle", build_group(10, a5wrz2().generators[:4])),
        ("PSL34_2 socle", _fixture_and_socle("PSL34_2")[1]),
        ("A5 on 5+60 points", a5_on_two_orbits()[0]),
        ("A5 on 5+60 points, normal A5", a5_on_two_orbits()[1]),
        ("A5xA5 diagonal", a5xa5_diagonal()[0]),
        ("A5xA5 diagonal, left A5", a5xa5_diagonal()[1]),
        ("A5xA5 on 5+5", build_group(10, a5xa5))]


def test_orbits_and_point_stabilizers_match_sympy_on_relabellings():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(11)
    cases = _orbit_cases()
    for label, G in cases:
        images = list(range(G.degree))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        gens = [conjugate(g, sigma) for g in G.generators]
        rng.shuffle(gens)
        H = build_group(G.degree, gens)
        S = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens])
        found = orbits(H)
        assert found[0][0] == H._chain()[0].base, label
        assert sum(map(len, found)) == len(set().union(*found)), label
        assert ({frozenset(o) for o in found}
                == {frozenset(o) for o in S.orbits() if len(o) > 1}), label
        for o in found:
            stab = point_stabilizer(H, o[0])
            expected = S.stabilizer(o[0])
            assert stab.order() == expected.order(), (label, o[0])
            assert all(stab.member(Permutation(tuple(s.array_form)))
                       for s in expected.generators), (label, o[0])
            assert all(expected.contains(
                combinatorics.Permutation(list(s.images)))
                for s in stab.generators), (label, o[0])
        # sympy's transitivity degree counts fixed points, so it is compared
        # on groups transitive on all of their points
        if len(found) > 1:
            assert not is_two_transitive(H), label
        elif len(S.orbits()) == 1:
            assert is_two_transitive(H) == (S.transitivity_degree >= 2), label
    # the known answers, so the comparison is not vacuous
    groups = dict(cases)
    assert is_two_transitive(groups["ASL24"])
    assert not is_two_transitive(groups["PSp44 on 85 points"])
    assert not is_two_transitive(build_group(3, []))
    assert orbits(build_group(3, [])) == []

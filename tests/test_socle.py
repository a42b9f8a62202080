import json
import random
from math import prod
from pathlib import Path

import pytest

import mindeg.bsgs
import mindeg.pipeline
import mindeg.socle
from mindeg.bsgs import (
    build_group, centralizer_of_normal, is_two_transitive, normal_closure,
    orbits, point_stabilizer,
)
from mindeg.cli import run_cli
from mindeg.errors import NotFittingFree
from mindeg.perm import compose, conjugate
from mindeg.pipeline import mu_fitting_free
from mindeg.socle import (
    minimal_normal_under, normalizer_of_factor, simple_factors,
    socle_fitting_free,
)

from .groups import (
    A6_PSL28, A7_A7, P, a5wrz2, a5xa6, alt, asl24, d8, pgammal2, pgl2, psl2,
    psp44_on_points, sym,
)
from .test_bsgs import _count_chain_builds

FIXTURES = Path(mindeg.socle.__file__).parent / "fixtures"


def brute_socle(G):
    """Join of all minimal normal subgroups, by exhaustive closure search."""
    normals = []  # distinct nontrivial normal subgroups arising as closures

    def find(N):
        for M in normals:
            if M.order() == N.order() and all(M.member(g) for g in N.generators):
                return True
        return False

    covered = set()
    for y in G.elements():
        if y.is_identity() or y.images in covered:
            continue
        # conjugate elements share their normal closure
        orbit = {y.images}
        frontier = [y]
        while frontier:
            x = frontier.pop()
            for g in G.generators:
                c = conjugate(x, g)
                if c.images not in orbit:
                    orbit.add(c.images)
                    frontier.append(c)
        covered |= orbit
        N = normal_closure(G, [y])
        if not find(N):
            normals.append(N)
    minimal = [
        N for N in normals
        if not any(M.order() < N.order()
                   and all(N.member(g) for g in M.generators)
                   for M in normals)
    ]
    gens = [g for N in minimal for g in N.generators]
    return build_group(G.degree, gens)


def test_minimal_normal_under_sym5():
    N, sampled, simple = minimal_normal_under(sym(5), sym(5))
    assert N.order() == 60
    assert not sampled
    assert simple


def test_minimal_normal_under_wreath_socle_is_minimal():
    G = a5wrz2()
    soc = build_group(10, list(G.generators)[:4])
    assert soc.order() == 3600
    N, _, simple = minimal_normal_under(G, soc)
    # the swap fuses the two Alt(5) blocks into one minimal normal subgroup
    assert N.order() == 3600
    assert not simple


def test_minimal_normal_under_deterministic_choice():
    G = a5xa6()
    N, _, simple = minimal_normal_under(G, G)
    # both factors are minimal normal; the seed with the smallest moved
    # point lives in the Alt(5) block
    assert N.order() == 60
    assert simple
    again, _, _ = minimal_normal_under(G, G)
    assert sorted(g.images for g in again.generators) == \
        sorted(g.images for g in N.generators)


def test_minimal_normal_under_rejects_trivial():
    with pytest.raises(ValueError):
        minimal_normal_under(sym(5), build_group(5, []))


def test_socle_sym5():
    dec = socle_fitting_free(sym(5))
    assert dec.socle.order() == 60
    assert len(dec.factors) == 1
    assert dec.minimal_normals == [[0]]


def test_socle_pgl27():
    dec = socle_fitting_free(pgl2(7))
    assert dec.socle.order() == 168
    assert len(dec.factors) == 1


def test_socle_rejects_non_fitting_free():
    with pytest.raises(NotFittingFree):
        socle_fitting_free(sym(4))
    with pytest.raises(NotFittingFree):
        socle_fitting_free(d8())


def test_socle_of_the_trivial_group_is_empty(tmp_path, capsys):
    G = build_group(3, [])
    dec = socle_fitting_free(G)
    assert dec.socle is G and dec.factors == [] and dec.minimal_normals == []
    assert not dec.probabilistic_minimality
    path = tmp_path / "trivial.grp"
    path.write_text("degree 3\n")
    assert run_cli(["socle", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "socle_order": 1, "socle_generators": [], "factor_orders": [],
        "minimal_normal_blocks": [], "fitting_free": True,
        "probabilistic_minimality": False}
    assert run_cli(["min-normal", str(path)]) == 0
    assert capsys.readouterr() == ("\n", "")
    assert run_cli(["min-normal", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "minimal_normal_blocks": [], "factor_orders": []}


def test_socle_wreath():
    dec = socle_fitting_free(a5wrz2())
    assert dec.socle.order() == 3600
    assert sorted(F.order() for F in dec.factors) == [60, 60]
    assert dec.minimal_normals == [[0, 1]]


def test_socle_direct_product():
    dec = socle_fitting_free(a5xa6())
    assert dec.socle.order() == 60 * 360
    assert sorted(F.order() for F in dec.factors) == [60, 360]
    assert sorted(map(len, dec.minimal_normals)) == [1, 1]


def test_simple_factors_simple_input():
    A5 = alt(5)
    factors = simple_factors(A5)
    assert len(factors) == 1 and factors[0].order() == 60


def test_simple_factors_disjoint_product():
    gens = [P("(1 2 3)", 10), P("(1 2 3 4 5)", 10),
            P("(6 7 8)", 10), P("(6 7 8 9 10)", 10)]
    soc = build_group(10, gens)
    assert soc.order() == 3600
    factors = simple_factors(soc)
    assert sorted(F.order() for F in factors) == [60, 60]


def test_normalizer_of_factor():
    G = a5wrz2()
    dec = socle_fitting_free(G)
    N = normalizer_of_factor(G, dec.factors, 0)
    assert N.order() == 3600
    assert all(dec.factors[0].member(conjugate(s, g))
               for g in N.generators for s in dec.factors[0].generators)

    H = a5xa6()
    dech = socle_fitting_free(H)
    for block in dech.minimal_normals:
        factors = [dech.factors[i] for i in block]
        assert normalizer_of_factor(H, factors, 0).order() == H.order()

    A5 = alt(5)
    deca = socle_fitting_free(A5)
    assert normalizer_of_factor(A5, deca.factors, 0).order() == 60


@pytest.mark.parametrize("make,blocks", [
    (a5wrz2, [[0, 1]]),
    (lambda: _product_group(A7_A7, 14), [[0], [1]]),
], ids=["A5wrZ2", "A7xA7"])
def test_normalizer_of_factor_builds_one_chain(monkeypatch, make, blocks):
    G = make()
    dec = socle_fitting_free(G)
    assert dec.minimal_normals == blocks
    for F in dec.factors:  # every chain built up front
        F.order()
    builds = _count_chain_builds(monkeypatch)
    for block in blocks:
        factors = [dec.factors[i] for i in block]
        builds.clear()
        N = normalizer_of_factor(G, factors, 0)
        # N_G(S) is G itself for a one-factor block, and otherwise the one
        # fresh group of the stabilizer; no chain for the image of G on the
        # factors
        assert len(builds) == (0 if len(block) == 1 else 1)
        assert N.order() == G.order() // len(block)


@pytest.mark.parametrize("make", [sym(5), pgl2(7), a5wrz2, a5xa6],
                         ids=["S5", "PGL27", "A5wrZ2", "A5xA6"])
def test_socle_invariants(make):
    G = make() if callable(make) else make
    dec = socle_fitting_free(G)
    total = 1
    for i, Fi in enumerate(dec.factors):
        total *= Fi.order()
        for j in range(i + 1, len(dec.factors)):
            Fj = dec.factors[j]
            for a in Fi.generators:
                for b in Fj.generators:
                    assert compose(a, b) == compose(b, a)
            # commuting factors meet trivially iff they generate a group of
            # order |Fi| * |Fj|
            assert build_group(G.degree, Fi.generators + Fj.generators
                               ).order() == Fi.order() * Fj.order()
    assert total == dec.socle.order()
    for g in G.generators:
        for s in dec.socle.generators:
            assert dec.socle.member(conjugate(s, g))
    assert centralizer_of_normal(G, dec.socle).is_trivial()


@pytest.mark.parametrize("make", [lambda: sym(5), lambda: alt(6),
                                  lambda: pgl2(7), lambda: psl2(7),
                                  lambda: pgammal2(8), a5wrz2],
                         ids=["S5", "A6", "PGL27", "PSL27", "PGammaL28",
                              "A5wrZ2"])
def test_socle_matches_brute_force(make):
    G = make()
    assert G.order() <= 10 ** 4
    dec = socle_fitting_free(G)
    B = brute_socle(G)
    assert B.order() == dec.socle.order()
    assert all(B.member(g) for g in dec.socle.generators)


def test_socle_of_normal_subgroup_is_restriction():
    # Soc(N) = Soc(G) ∩ N for a minimal normal subgroup N of G
    G = a5wrz2()
    dec = socle_fitting_free(G)
    N = dec.socle  # here the single minimal normal subgroup is the socle
    decN = socle_fitting_free(N)
    # N is the socle, so Soc(G) ∩ N = N
    assert decN.socle.order() == N.order()
    assert all(N.member(g) for g in decN.socle.generators)


# Products T1 x T2 of order above the exhaustive minimality bound, where a
# uniform random element almost never has a trivial component.  Without the
# prime-order powers the sampled sweep kept A6 x PSL(2,8) whole (its order
# is |A9|, so it was named Alt(9) and mu came out as 9 instead of 15) and
# left A7 x A7 whole (an order outside the simple-group table).


def _product_group(cycles, degree):
    return build_group(degree, [P(c, degree) for c in cycles])


@pytest.mark.parametrize("seed", range(20))
def test_socle_splits_a6_x_psl28(seed):
    G = _product_group(A6_PSL28, 15)
    assert G.order() == 360 * 504
    dec = socle_fitting_free(G, seed)
    assert sorted(F.order() for F in dec.factors) == [360, 504]


@pytest.mark.parametrize("seed", range(20))
def test_socle_splits_a7_x_a7(seed):
    G = _product_group(A7_A7, 14)
    assert G.order() == 2520 ** 2
    dec = socle_fitting_free(G, seed)
    assert sorted(F.order() for F in dec.factors) == [2520, 2520]


def test_mu_a7_x_a7_chain_builds_are_bounded(monkeypatch):
    # a seed-independent bound on the work of a run: each centralizer
    # step builds one chain, whatever elements the sweeps draw
    builds = _count_chain_builds(monkeypatch)
    counts = []
    for seed in range(20):
        G = _product_group(A7_A7, 14)
        del builds[:]
        assert mu_fitting_free(G, seed=seed).total == 14
        counts.append(len(builds))
    assert max(counts) <= 24, counts


@pytest.mark.parametrize("cycles,degree,mu", [(A6_PSL28, 15, 15),
                                              (A7_A7, 14, 14)],
                         ids=["A6xPSL28", "A7xA7"])
def test_cli_mu_of_product(tmp_path, capsys, cycles, degree, mu):
    path = tmp_path / "G.grp"
    path.write_text(f"degree {degree}\n"
                    + "".join(f"gen {c}\n" for c in cycles))
    assert run_cli(["mu", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == mu


@pytest.mark.parametrize("make,parts", [(a5xa6, 0), (a5wrz2, 1)],
                         ids=["A5xA6", "A5wrZ2"])
def test_mu_splits_the_socle_once(monkeypatch, make, parts):
    calls = []
    decs = []
    split = mindeg.socle.simple_factors
    decompose = mindeg.socle.socle_fitting_free

    def counted(N):
        assert not decs, "simple_factors ran after socle_fitting_free"
        calls.append(N)
        return split(N)

    def recorded(G, seed):
        decs.append(decompose(G, seed))
        return decs[-1]

    # patch every module that could hold the names, as a tracer would
    monkeypatch.setattr(mindeg.socle, "simple_factors", counted)
    monkeypatch.setattr(mindeg.pipeline, "simple_factors", counted,
                        raising=False)
    monkeypatch.setattr(mindeg.pipeline, "socle_fitting_free", recorded)
    G = make()
    mu_fitting_free(G)
    # once per minimal normal subgroup of more than one factor, on that
    # subgroup; the sweep proves the others simple
    (dec,) = decs
    split_blocks = [b for b in dec.minimal_normals if len(b) > 1]
    assert len(calls) == len(split_blocks) == parts
    for N, block in zip(calls, split_blocks):
        factors = [dec.factors[i] for i in block]
        assert N.order() == prod(F.order() for F in factors)
        assert all(N.member(s) for F in factors for s in F.generators)
        assert all(N.member(conjugate(n, g))
                   for g in G.generators for n in N.generators)


def _without_the_orbit_proof(monkeypatch):
    """Make the simplicity proof fail, so every candidate is swept."""
    monkeypatch.setattr(mindeg.socle, "_faithful_two_transitive_orbit",
                        lambda N: False)


def test_sampled_sweep_rarely_builds_a_verified_closure(monkeypatch):
    # |Soc| = 20160 > 10^4, so without the orbit proof the sweep samples
    # 256 elements; a closure that is all of the candidate is proved so by
    # closure_has_order, and normal_closure runs only when it gives up (and
    # for the sweep's starting candidate).
    from mindeg.cli import parse_group_file
    G = parse_group_file(str(FIXTURES / "PSL34.grp")).group
    _without_the_orbit_proof(monkeypatch)
    calls = []
    original = mindeg.socle.normal_closure

    def counted(H, seeds):
        calls.append(seeds)
        return original(H, seeds)

    monkeypatch.setattr(mindeg.socle, "normal_closure", counted)
    dec = socle_fitting_free(G)
    assert [F.order() for F in dec.factors] == [20160]
    assert dec.probabilistic_minimality
    assert len(calls) <= 8  # 257 when every sample built a verified closure


def test_sampled_sweep_forms_transversal_products_lazily(monkeypatch):
    # the unverified chains of closure_has_order are only sifted into, so
    # they form the u^-1 of the points a sift meets and no other product;
    # with u, u^-1 formed for every orbit point the sweep made 48 198 calls
    from mindeg.cli import parse_group_file
    G = parse_group_file(str(FIXTURES / "PSL34.grp")).group
    G.order()
    _without_the_orbit_proof(monkeypatch)
    calls = []
    original = mindeg.bsgs.compose

    def counted(a, b):
        calls.append(None)
        return original(a, b)

    monkeypatch.setattr(mindeg.bsgs, "compose", counted)
    N, sampled, simple = minimal_normal_under(G, G)
    assert N.order() == 20160 and sampled and simple
    assert len(calls) <= 30000


@pytest.mark.parametrize("name", ["PSL34", "M12"])
def test_sweep_proves_simplicity_when_closures_give_up(monkeypatch, name):
    # with every known-order test giving up, the verified closure of the
    # generator commutators proves the socle perfect, and with it simple:
    # the same socle, and no second split
    from mindeg.cli import parse_group_file
    path = str(FIXTURES / f"{name}.grp")
    expected = socle_fitting_free(parse_group_file(path).group)
    calls = []
    split = mindeg.socle.simple_factors

    def counted(N):
        calls.append(N)
        return split(N)

    monkeypatch.setattr(mindeg.socle, "closure_has_order",
                        lambda *args: False)
    monkeypatch.setattr(mindeg.socle, "simple_factors", counted)
    dec = socle_fitting_free(parse_group_file(path).group)
    assert len(dec.factors) == 1
    assert [g.images for g in dec.socle.generators] == \
        [g.images for g in expected.socle.generators]
    assert dec.probabilistic_minimality == expected.probabilistic_minimality
    assert calls == []


@pytest.mark.parametrize("name", ["PSL34", "M12"])
def test_sweep_alone_proves_simplicity_when_closures_give_up(monkeypatch,
                                                             name):
    # without the orbit proof and with every known-order test giving up,
    # the sweep's verified N-closures alone prove the socle simple
    from mindeg.cli import parse_group_file
    path = str(FIXTURES / f"{name}.grp")
    expected = socle_fitting_free(parse_group_file(path).group)
    _without_the_orbit_proof(monkeypatch)
    monkeypatch.setattr(mindeg.socle, "closure_has_order",
                        lambda *args: False)
    monkeypatch.setattr(mindeg.socle, "simple_factors", None)  # no split
    dec = socle_fitting_free(parse_group_file(path).group)
    assert [F.order() for F in dec.factors] == \
        [F.order() for F in expected.factors]
    assert [g.images for g in dec.socle.generators] == \
        [g.images for g in expected.socle.generators]
    assert dec.probabilistic_minimality


# --- the simplicity proof: a faithful, 2-transitive, non-affine orbit and a
# perfect group


def _spy(monkeypatch, name):
    """Record (first argument, result) of each call of a socle helper."""
    calls = []
    original = getattr(mindeg.socle, name)

    def spied(N, *args):
        result = original(N, *args)
        calls.append((N, result))
        return result

    monkeypatch.setattr(mindeg.socle, name, spied)
    return calls


@pytest.mark.parametrize("name", ["PSL34", "PSL34_2", "M12"])
def test_two_transitive_socles_are_never_sampled(monkeypatch, name):
    from mindeg.cli import parse_group_file
    G = parse_group_file(str(FIXTURES / f"{name}.grp")).group
    entered = []
    samples = mindeg.socle._prime_order_samples

    def counted(N, rng):
        entered.append(N)
        return samples(N, rng)

    monkeypatch.setattr(mindeg.socle, "_prime_order_samples", counted)
    dec = socle_fitting_free(G)
    assert [F.order() for F in dec.factors] == [G.order() if name == "M12"
                                                 else 20160]
    assert not dec.probabilistic_minimality
    assert entered == []


def test_affine_group_is_not_proved_simple(tmp_path, capsys):
    # ASL(2,4) is perfect and 2-transitive on 16 = 2^4 points, and 960
    # divides |AGL(4,2)|: Burnside's theorem allows an abelian socle
    G = asl24()
    assert is_two_transitive(G)
    assert mindeg.socle._is_perfect(G, random.Random(0))
    assert mindeg.socle._may_be_affine(16, G.order())
    assert not mindeg.socle._faithful_two_transitive_orbit(G)
    path = tmp_path / "ASL24.grp"
    path.write_text("degree 16\n"
                    + "".join(f"gen {g}\n" for g in G.generators))
    assert run_cli(["mu", str(path), "--json"]) == 1
    assert "abelian minimal normal subgroup" in capsys.readouterr().err
    with pytest.raises(NotFittingFree):
        socle_fitting_free(G)


def test_symmetric_group_fails_the_perfectness_condition(monkeypatch):
    G = sym(5)
    assert mindeg.socle._faithful_two_transitive_orbit(G)
    assert not mindeg.socle._is_perfect(G, random.Random(0))
    # the sweep descends from Sym(5) to Alt(5), which is proved
    perfect = _spy(monkeypatch, "_is_perfect")
    N, sampled, simple = minimal_normal_under(G, G)
    assert [(H.order(), r) for H, r in perfect] == [(120, False),
                                                    (60, True)]
    assert (N.order(), sampled, simple) == (60, False, True)


def test_affine_tie_falls_back_to_the_exhaustive_sweep(monkeypatch):
    # PSL(2,7) on 8 = 2^3 points: 168 divides |AGL(3,2)| = 1344
    assert mindeg.socle._may_be_affine(8, 168)
    assert not mindeg.socle._faithful_two_transitive_orbit(psl2(7))
    perfect = _spy(monkeypatch, "_is_perfect")
    swept = _spy(monkeypatch, "_class_representatives")
    G = pgl2(7)
    N, sampled, simple = minimal_normal_under(G, G)
    assert (N.order(), sampled, simple) == (168, False, True)
    assert perfect == []
    assert [H for H, _ in swept] == [G]


def test_literal_a7_x_a7_is_proved_factor_by_factor(monkeypatch):
    # A7 x A7 is simple on each 7-point orbit and faithful on neither, so
    # the first candidate is swept; each A7 it descends to is proved
    orbit = _spy(monkeypatch, "_faithful_two_transitive_orbit")
    dec = socle_fitting_free(_product_group(A7_A7, 14))
    assert [(H.order(), r) for H, r in orbit] == [
        (2520 ** 2, False), (2520, True), (2520, True)]
    assert [F.order() for F in dec.factors] == [2520, 2520]
    assert dec.minimal_normals == [[0], [1]]
    assert not dec.probabilistic_minimality


def test_intransitive_candidate_needs_a_faithful_orbit():
    # A5 x A5 on 5 + 5 points: the stabilizer of the first point has an
    # orbit of 4 points, which would pass a test that only compares an
    # orbit of that stabilizer with an orbit of N
    G = build_group(10, [P("(1 2 3)", 10), P("(1 2 3 4 5)", 10),
                         P("(6 7 8)", 10), P("(6 7 8 9 10)", 10)])
    first = orbits(G)[0]
    assert len(first) == 5 and not is_two_transitive(G)
    stabilizer = point_stabilizer(G, first[0])
    assert sorted(map(len, orbits(stabilizer))) == [4, 5]
    assert not mindeg.socle._faithful_two_transitive_orbit(G)


def test_rank_3_group_stays_sampled():
    G = psp44_on_points()
    assert not mindeg.socle._faithful_two_transitive_orbit(G)
    dec = socle_fitting_free(G)
    assert [F.order() for F in dec.factors] == [979200]
    assert dec.probabilistic_minimality


def _sympy_group(H):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in H.generators])


def _sympy_is_simple(S):
    """Every nontrivial conjugacy class has normal closure S."""
    return all(S.normal_closure(next(iter(c))).order() == S.order()
               for c in S.conjugacy_classes()
               if not next(iter(c)).is_Identity)


def _sympy_has_faithful_two_transitive_orbit(S):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for orbit in S.orbits():
        points = sorted(orbit)
        index = {x: i for i, x in enumerate(points)}
        R = combinatorics.PermutationGroup([
            combinatorics.Permutation([index[g(x)] for x in points])
            for g in S.generators])
        if R.order() == S.order() and R.transitivity_degree >= 2:
            return True
    return False


CERTIFIED = {
    "A5": [60], "S5": [60], "A6": [360], "S6": [360], "AutA6": [360],
    "PSL27": [168], "PGL27": [], "PSL28": [504], "PGammaL28": [504],
    "PSL211": [660], "A5wrZ2": [60, 60], "A5xA6": [60, 360],
    "M12": [95040], "PSL34": [20160], "PSL34_2": [20160],
}


@pytest.mark.parametrize("name", sorted(CERTIFIED) + ["A7xA7"])
def test_certified_groups_are_simple_by_sympy(monkeypatch, name):
    # sympy's composition_series handles solvable groups only, so
    # simplicity is checked by closing one element of each conjugacy class
    # (orders up to 10^4; sympy lists the classes of M12 and PSL(3,4) in
    # seconds), and above that the proof's conditions are rechecked
    from mindeg.cli import parse_group_file
    perfect = _spy(monkeypatch, "_is_perfect")
    if name == "A7xA7":
        G, expected = _product_group(A7_A7, 14), [2520, 2520]
    else:
        G = parse_group_file(str(FIXTURES / f"{name}.grp")).group
        expected = CERTIFIED[name]
    socle_fitting_free(G)
    certified = [N for N, proved in perfect if proved]
    assert [N.order() for N in certified] == expected
    for N in certified:
        S = _sympy_group(N)
        assert S.order() == N.order()
        assert S.is_perfect
        if N.order() <= 10 ** 4:
            assert _sympy_is_simple(S)
        else:
            assert _sympy_has_faithful_two_transitive_orbit(S)

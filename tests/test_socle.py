import json
import random
from math import prod
from pathlib import Path

import pytest

import mindeg.bsgs
import mindeg.pipeline
import mindeg.socle
from mindeg.bsgs import (
    build_group, centralizer_of_normal, induced_action, is_two_transitive,
    moved_points, normal_closure, orbits, point_stabilizer,
)
from mindeg.cli import run_cli
from mindeg.errors import NotFittingFree
from mindeg.perm import Permutation, compose
from mindeg.pipeline import mu_fitting_free
from mindeg.socle import (
    minimal_normal_under, normalizer_of_factor, simple_factors,
    socle_fitting_free,
)

from .groups import (
    A5_WR_Z3, A5_X_DIAGONAL_A5, A6_PSL28, A7_A7, P, a5wrz2,
    a5wrz2_product_action, a5xa5_diagonal, a5xa6, alt, asl24, asl32,
    conjugate, d8, pgammal2, pgl2, psl2, psp44_on_points, sym,
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
    N, sampled, blocks = minimal_normal_under(sym(5), sym(5))
    assert N.order() == 60
    assert not sampled
    assert blocks == [[N]]


def test_minimal_normal_under_wreath_socle_is_minimal():
    G = a5wrz2()
    soc = build_group(10, list(G.generators)[:4])
    assert soc.order() == 3600
    N, sampled, blocks = minimal_normal_under(G, soc)
    # the swap fuses the two Alt(5) factors into one minimal normal
    # subgroup, which is not simple
    assert N.order() == 3600 and not sampled
    assert [[F.order() for F in b] for b in blocks] == [[60, 60]]


def test_minimal_normal_under_deterministic_choice():
    G = a5xa6()
    N, _, blocks = minimal_normal_under(G, G)
    # both factors are minimal normal; the seed with the smallest moved
    # point lives in the Alt(5) block
    assert N.order() == 60
    assert blocks == [[N]]
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


def test_factor_image_tests_one_conjugated_generator(monkeypatch):
    # G permutes the factors of a block and distinct factors meet
    # trivially, so the factor that holds s^g, for one nontrivial s in
    # S_i, is S_i^g: a pair (g, i) costs one membership test per factor
    # tried, j + 1 for S_i^g = S_j (18 here; testing every conjugated
    # generator of S_i against every factor of its order took 36)
    G = build_group(15, [P(c, 15) for c in A5_WR_Z3])
    factors = socle_fitting_free(G).factors
    assert len(factors) == 3
    calls = []
    original = mindeg.bsgs.PermGroup.member

    def counted(self, g):
        calls.append(g)
        return original(self, g)

    monkeypatch.setattr(mindeg.bsgs.PermGroup, "member", counted)
    images = induced_action(G, range(3), lambda g, i: mindeg.socle
                            ._factor_image(g, i, factors))
    assert sorted(im.is_identity() for im in images) == [False, True, True]
    assert len(calls) == sum(j + 1 for im in images for j in im.images) == 18


def test_one_factor_blocks_induce_no_action(monkeypatch, capsys):
    # N_G(S1) = G when S1 is the one factor of its block, so no factor
    # image is formed, and the certificates stay pinned
    pins = json.loads((Path(__file__).parent / "data" / "cli_pins.json")
                      .read_text(encoding="utf-8"))

    def refuse(*args):
        raise AssertionError("factor image formed")

    monkeypatch.setattr(mindeg.socle, "_factor_image", refuse)
    for name in ("A5", "S6", "AutA6"):
        assert run_cli(["mu", str(FIXTURES / f"{name}.grp"), "--json"]) == 0
        assert capsys.readouterr().out == pins[name]["mu"], name
    # a two-factor block still acts on its factors
    with pytest.raises(AssertionError, match="factor image formed"):
        run_cli(["mu", str(FIXTURES / "A5wrZ2.grp"), "--json"])


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
def test_socle_splits_a7_x_a7(monkeypatch, seed):
    # the orbit proof splits it, so no seed reaches the sampled sweep
    G = _product_group(A7_A7, 14)
    assert G.order() == 2520 ** 2
    samples = _spy(monkeypatch, "_prime_order_samples")
    dec = socle_fitting_free(G, seed)
    assert sorted(F.order() for F in dec.factors) == [2520, 2520]
    assert samples == []


def test_literal_a7_x_a7_socle_does_not_depend_on_the_seed(tmp_path,
                                                           capsys):
    path = tmp_path / "A7xA7.grp"
    path.write_text("degree 14\n" + "".join(f"gen {c}\n" for c in A7_A7))
    outputs = []
    for extra in ([], ["--seed", "3"]):
        assert run_cli(["socle", str(path), "--json", *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("make,parts", [(a5xa6, 0), (a5wrz2, 0),
                                        (a5wrz2_product_action, 1)],
                         ids=["A5xA6", "A5wrZ2", "A5wrZ2-product-action"])
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
    # once per minimal normal subgroup that a sweep found not simple, on
    # that subgroup; the proofs and the sweep return the others split.
    # A5wrZ2's socle is split by its orbits, the product action's is swept.
    (dec,) = decs
    assert len(calls) == parts
    for N in calls:
        (factors,) = [[dec.factors[i] for i in b] for b in dec.minimal_normals
                      if all(N.member(s) for i in b
                             for s in dec.factors[i].generators)]
        assert N.order() == prod(F.order() for F in factors)
        assert all(N.member(s) for F in factors for s in F.generators)
        assert all(N.member(conjugate(n, g))
                   for g in G.generators for n in N.generators)


def _without_the_orbit_proof(monkeypatch):
    """Make the orbit proof fail, so every candidate is swept."""
    monkeypatch.setattr(mindeg.socle, "_orbit_blocks",
                        lambda G, N, rng: None)


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


# --- the orbit proof: a restriction to an orbit that is 2-transitive, not
# affine and perfect is simple, and a faithful one proves the candidate simple


def _spy(monkeypatch, name, arg=0):
    """Record (argument number ``arg``, result) of each call of a socle
    helper."""
    calls = []
    original = getattr(mindeg.socle, name)

    def spied(*args):
        result = original(*args)
        calls.append((args[arg], result))
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
    assert mindeg.socle._orbit_blocks(G, G, random.Random(0)) is None
    path = tmp_path / "ASL24.grp"
    path.write_text("degree 16\n"
                    + "".join(f"gen {g}\n" for g in G.generators))
    assert run_cli(["mu", str(path), "--json"]) == 1
    assert "abelian minimal normal subgroup" in capsys.readouterr().err
    with pytest.raises(NotFittingFree):
        socle_fitting_free(G)


def test_symmetric_group_fails_the_perfectness_condition(monkeypatch):
    G = sym(5)
    assert is_two_transitive(G) and not mindeg.socle._may_be_affine(5, 120)
    assert not mindeg.socle._is_perfect(G, random.Random(0))
    assert mindeg.socle._orbit_blocks(G, G, random.Random(0)) is None
    # the sweep descends from Sym(5) to Alt(5), which is proved
    perfect = _spy(monkeypatch, "_is_perfect")
    N, sampled, blocks = minimal_normal_under(G, G)
    assert [(H.order(), r) for H, r in perfect] == [(120, False),
                                                    (60, True)]
    assert (N.order(), sampled, blocks) == (60, False, [[N]])


def test_faithful_orbit_that_is_not_perfect_ends_the_walk(monkeypatch):
    # Sym(5) acting diagonally on 5 + 5 points: its first restriction is
    # faithful, 2-transitive and not affine, but not perfect, so N is not
    # perfect either and the second orbit is never restricted
    G = build_group(10, [
        Permutation(g.images + tuple(5 + x for x in g.images))
        for g in sym(5).generators])
    assert G.order() == 120 and len(orbits(G)) == 2
    restricted = _spy(monkeypatch, "_restriction", 1)
    assert mindeg.socle._orbit_blocks(G, G, random.Random(0)) is None
    assert [len(points) for points, _ in restricted] == [5]


def test_affine_tie_falls_back_to_the_exhaustive_sweep(monkeypatch):
    # ASL(3,2) on 8 = 2^3 points is perfect and 2-transitive: 1344 divides
    # |AGL(3,2)| = 1344 and 4 divides 1344 / 8, so no proof applies to the
    # first candidate, the whole group, and the sweep finds the translations
    G = asl32()
    assert is_two_transitive(G) and mindeg.socle._may_be_affine(8, 1344)
    assert mindeg.socle._orbit_blocks(G, G, random.Random(0)) is None
    perfect = _spy(monkeypatch, "_is_perfect")
    swept = _spy(monkeypatch, "_class_representatives", 1)
    N, sampled, blocks = minimal_normal_under(G, G)
    assert (N.order(), sampled, blocks) == (8, False, None)
    assert perfect == []
    assert [H.order() for H, _ in swept] == [1344, 8]


@pytest.mark.parametrize("make,mu", [
    (lambda: psl2(7), 7), (lambda: pgl2(7), 8), (lambda: psl2(31), 32),
    (lambda: psl2(127), 128),
], ids=["PSL27", "PGL27", "PSL2_31", "PSL2_127"])
def test_mersenne_psl2_is_proved_without_a_sweep(monkeypatch, make, mu):
    # PSL(2,q) on q + 1 = 2^d points has |N| / |Delta| = q(q - 1) / 2, an
    # odd number, so it cannot be affine although |N| divides |AGL(d,2)|;
    # the orbit proof covers it and neither sweep runs
    G = make()
    S = psl2(G.degree - 1)
    assert not mindeg.socle._may_be_affine(G.degree, S.order())
    assert mindeg.socle._orbit_blocks(S, S, random.Random(0)) == [[S]]
    swept = _spy(monkeypatch, "_class_representatives")
    sampled = _spy(monkeypatch, "_prime_order_samples")
    cert = mu_fitting_free(G)
    assert cert.total == mu and cert.factor_orders == [S.order()]
    assert not cert.flags["probabilistic-minimality"]
    assert swept == sampled == []


def test_literal_a7_x_a7_is_proved_factor_by_factor(monkeypatch):
    # A7 x A7 is simple on each 7-point orbit and faithful on neither, so
    # the first candidate is not proved simple; the orbit proof splits it
    # into its two A7, with no sweep and no second candidate
    split = _spy(monkeypatch, "_orbit_blocks", 1)
    swept = _spy(monkeypatch, "_prime_order_samples")
    dec = socle_fitting_free(_product_group(A7_A7, 14))
    assert [(H.order(), [[F.order() for F in b] for b in r])
            for H, r in split] == [(2520 ** 2, [[2520], [2520]])]
    assert swept == []
    assert [F.order() for F in dec.factors] == [2520, 2520]
    assert dec.minimal_normals == [[0], [1]]
    assert not dec.probabilistic_minimality


def test_intransitive_candidate_needs_a_faithful_orbit(monkeypatch):
    # A5 x A5 on 5 + 5 points: the stabilizer of the first point has an
    # orbit of 4 points, which would pass a test that only compares an
    # orbit of that stabilizer with an orbit of N; it is split, never
    # proved simple
    G = build_group(10, [P("(1 2 3)", 10), P("(1 2 3 4 5)", 10),
                         P("(6 7 8)", 10), P("(6 7 8 9 10)", 10)])
    first = orbits(G)[0]
    assert len(first) == 5 and not is_two_transitive(G)
    stabilizer = point_stabilizer(G, first[0])
    assert sorted(map(len, orbits(stabilizer))) == [4, 5]
    blocks = mindeg.socle._orbit_blocks(G, G, random.Random(0))
    assert blocks != [[G]]
    assert [[F.order() for F in b] for b in blocks] == [[60], [60]]
    # A5 on its 10 pairs and on 5 points: the first orbit, the rank-3
    # action on pairs, is not 2-transitive, which rules the split out, and
    # the later 5-point orbit is faithful and proves the candidate simple
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    N = build_group(15, [
        Permutation(tuple(pairs.index(tuple(sorted((g.images[i],
                                                    g.images[j]))))
                          for i, j in pairs)
                    + tuple(10 + x for x in g.images))
        for g in alt(5).generators])
    assert N.order() == 60 and [len(o) for o in orbits(N)] == [10, 5]
    swept = _spy(monkeypatch, "_class_representatives", 1)
    M, sampled, blocks = minimal_normal_under(N, N)
    assert (M.order(), sampled, blocks) == (60, False, [[M]])
    assert swept == []


def test_rank_3_group_stays_sampled():
    G = psp44_on_points()
    assert mindeg.socle._orbit_blocks(G, G, random.Random(0)) is None
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
    "PSL27": [168], "PGL27": [168], "PSL28": [504], "PGammaL28": [504],
    "PSL211": [660], "A5wrZ2": [60, 60], "A5xA6": [60, 360],
    "M12": [95040], "PSL34": [20160], "PSL34_2": [20160],
}


# products split by the orbit proof: the factor orders of each block
ORBIT_SPLIT = {"A5wrZ2": [[60, 60]], "A7xA7": [[2520], [2520]]}


def _check_split_by_sympy(N, blocks):
    """Each factor is simple and lies in N, the factors commute, and their
    orders multiply to |N|."""
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def perms(H):
        return [combinatorics.Permutation(list(g.images))
                for g in H.generators]

    SN = _sympy_group(N)
    factors = [F for block in blocks for F in block]
    for i, F in enumerate(factors):
        S = _sympy_group(F)
        assert S.order() == F.order() <= 10 ** 4
        assert _sympy_is_simple(S)
        assert all(SN.contains(x) for x in perms(F))
        for H in factors[:i]:
            assert all(x * y == y * x for x in perms(F) for y in perms(H))
    assert prod(F.order() for F in factors) == SN.order()


@pytest.mark.parametrize("name", sorted(CERTIFIED) + ["A7xA7"])
def test_certified_groups_are_simple_by_sympy(monkeypatch, name):
    # sympy's composition_series handles solvable groups only, so
    # simplicity is checked by closing one element of each conjugacy class
    # (orders up to 10^4; sympy lists the classes of M12 and PSL(3,4) in
    # seconds), and above that the proof's conditions are rechecked.  The
    # groups proved perfect are orbit restrictions; the orbit proof returns
    # [[N]] for a candidate proved simple, which is checked like them, and
    # otherwise a split, whose factors are checked as a split.
    from mindeg.cli import parse_group_file
    perfect = _spy(monkeypatch, "_is_perfect")
    split = _spy(monkeypatch, "_orbit_blocks", 1)
    if name == "A7xA7":
        G, expected = _product_group(A7_A7, 14), [2520, 2520]
    else:
        G = parse_group_file(str(FIXTURES / f"{name}.grp")).group
        expected = CERTIFIED[name]
    socle_fitting_free(G)
    certified = [N for N, proved in perfect if proved]
    assert [N.order() for N in certified] == expected
    simple = [N for N, r in split if r == [[N]]]
    assert [N.order() for N in simple] == (
        [] if name in ORBIT_SPLIT else expected)
    splits = [(N, r) for N, r in split if r not in (None, [[N]])]
    assert [[[F.order() for F in b] for b in r] for _, r in splits] == (
        [ORBIT_SPLIT[name]] if name in ORBIT_SPLIT else [])
    for N, r in splits:
        _check_split_by_sympy(N, r)
    for N in {id(N): N for N in certified + simple}.values():
        S = _sympy_group(N)
        assert S.order() == N.order()
        assert S.is_perfect
        if N.order() <= 10 ** 4:
            assert _sympy_is_simple(S)
        else:
            assert _sympy_has_faithful_two_transitive_orbit(S)


# --- the orbit proof: a product T_1 x ... x T_k split by the cuts of its
# generators to classes of linked orbits


@pytest.mark.parametrize("cycles,blocks,mu", [
    (A5_X_DIAGONAL_A5, [[60], [60]], 10),
    (A5_WR_Z3, [[60, 60, 60]], 15),
    (A6_PSL28, [[360], [504]], 15),
], ids=["A5xdiagA5", "A5wrZ3", "A6xPSL28"])
def test_orbit_proof_splits_products(monkeypatch, cycles, blocks, mu):
    # A5 x diag(A5): the first closure is all of G, whose two diagonal
    # orbits are linked; A5 wr Z3: one block of three factors, order above
    # the exhaustive bound
    G = _product_group(cycles, 15)
    split = _spy(monkeypatch, "_orbit_blocks", 1)
    classes = _spy(monkeypatch, "_class_representatives")
    samples = _spy(monkeypatch, "_prime_order_samples")
    cert = mu_fitting_free(G)
    assert cert.total == mu
    assert not cert.flags["probabilistic-minimality"]
    assert [[cert.factor_orders[i] for i in b]
            for b in cert.minimal_normal_blocks] == blocks
    ((N, found),) = split
    assert [[F.order() for F in b] for b in found] == blocks
    _check_split_by_sympy(N, found)
    assert classes == samples == []


@pytest.mark.parametrize("cycles", [A5_X_DIAGONAL_A5, A5_WR_Z3],
                         ids=["A5xdiagA5", "A5wrZ3"])
@pytest.mark.parametrize("seed", range(10))
def test_orbit_proof_orders_factors_by_least_point(cycles, seed):
    # relabelled, N's first orbit often starts at a base point that is not
    # its least point
    images = list(range(15))
    random.Random(seed).shuffle(images)
    sigma = Permutation(tuple(images))
    G = build_group(15, [conjugate(P(c, 15), sigma) for c in cycles])
    dec = socle_fitting_free(G)
    least = [min(moved_points(F.generators)) for F in dec.factors]
    assert least == sorted(least)


def test_cut_factors_refuses_a_wrong_grouping():
    # the classes are only a guess, and each order check refuses one kind
    # of wrong guess (the cuts lie in N exactly when the orders multiply to
    # |N|, since N lies in the product of the groups its cuts generate)
    cut_factors = mindeg.socle._cut_factors
    both = _product_group(["(1 2 3)", "(1 2 3 4 5)",
                           "(6 7 8)", "(6 7 8 9 10)"], 10)
    diagonal = _product_group(["(1 2 3)(6 7 8)",
                               "(1 2 3 4 5)(6 7 8 9 10)"], 10)
    first, second = list(range(5)), list(range(5, 10))
    # two unlinked orbits in one class: its group is A5 x A5, not of order
    # |N^Delta| = 60, though the orders multiply to |N|
    assert cut_factors(both, [(first + second, 60)]) is None
    # two linked orbits apart: each cut group has order 60, but the cuts
    # leave the diagonal and the orders multiply to 3600, not 60
    assert cut_factors(diagonal, [(first, 60), (second, 60)]) is None
    assert [F.order() for F in cut_factors(
        both, [(first, 60), (second, 60)])] == [60, 60]
    assert [F.order() for F in cut_factors(
        diagonal, [(first + second, 60)])] == [60]
    # A6 x PSL(2,8) left unsplit: one class, of order 181440, not 360
    product = _product_group(A6_PSL28, 15)
    assert cut_factors(product, [(list(range(15)), 360)]) is None
    assert [F.order() for F in cut_factors(
        product, [(list(range(6)), 360), (list(range(6, 15)), 504)])] == [
            360, 504]


def _beside_a5(H):
    """H on its points, times Alt(5) on 5 more."""
    n = H.degree
    return build_group(n + 5, [Permutation(g.images + tuple(range(n, n + 5)))
                               for g in H.generators]
                       + [P(c, n + 5) for c in (f"({n + 1} {n + 2} {n + 3})",
                                                f"({n + 1} {n + 2} {n + 3} "
                                                f"{n + 4} {n + 5})")])


@pytest.mark.parametrize("make", [
    lambda: build_group(25, a5wrz2_product_action().generators[:4]),
    asl24,
    lambda: sym(5),
], ids=["A5xA5-product-action", "ASL24", "S5"])
def test_orbit_proof_needs_simple_restrictions(make):
    # beside A5 on 5 points, the orders of the restrictions multiply to
    # |N|, but A5 x A5 on 25 points is not 2-transitive, ASL(2,4) on 16
    # points may be affine, and Sym(5) is not perfect: none is simple
    N = _beside_a5(make())
    assert mindeg.socle._orbit_blocks(N, N, random.Random(0)) is None


@pytest.mark.parametrize("make,sweep", [
    (psp44_on_points, "_prime_order_samples"),
    (lambda: a5xa5_diagonal()[0], "_class_representatives"),
], ids=["PSp44-on-85", "A5xA5-diagonal-on-60"])
def test_transitive_candidates_keep_their_sweep(monkeypatch, make, sweep):
    # a transitive candidate is never split by its orbits: the faithful
    # orbit proof covers it or the sweep decides, as before
    G = make()
    split = _spy(monkeypatch, "_orbit_blocks", 1)
    swept = _spy(monkeypatch, sweep)
    socle_fitting_free(G)
    assert split and all(r is None for _, r in split)
    assert swept


def _conjugacy_classes(G):
    """Element images -> class number, by closing each element under
    conjugation by G's generators."""
    class_of = {}
    k = 0
    for y in G.elements():
        if y.images in class_of:
            continue
        class_of[y.images] = k
        frontier = [y]
        while frontier:
            x = frontier.pop()
            for g in G.generators:
                c = conjugate(x, g)
                if c.images not in class_of:
                    class_of[c.images] = k
                    frontier.append(c)
        k += 1
    return class_of


@pytest.mark.parametrize("make,classes", [(lambda: sym(5), 7),
                                          (a5xa6, 5 * 7)],
                         ids=["S5", "A5xA6"])
def test_class_representatives_take_one_element_per_class(make, classes):
    # the sweep marks each class it has taken by its members' tables; a
    # mark that no later element matches would let every element through
    G = make()
    class_of = _conjugacy_classes(G)
    reps = list(mindeg.socle._class_representatives(G, G))
    assert sorted(class_of[y.images] for y in reps) == list(range(classes))

import json
import os
import random

import pytest

import mindeg.pipeline
import mindeg.smallgroup
from mindeg.bsgs import PermGroup, build_group
from mindeg.errors import HintRequired, LimitExceededError, UnsupportedCase
from mindeg.oracle import ORACLE_LIMIT, mu_oracle
from mindeg.perm import Permutation
from mindeg.pipeline import (
    InducedAutData, dispatch_table, induced_aut_group, load_hint,
    load_hint_file, mu_fitting_free,
)
from mindeg.simpleid import SimpleName, mu_simple
from mindeg.smallgroup import QuotientGroup, isomorphism_search, list_elements
from mindeg.socle import socle_fitting_free

from .groups import (
    P, a5wrz2, a5xa6, alt, conjugate, hint_data, m10, pgammal2,
    pgammasp44_with_hint, pgl2, psl2, psl3_graph_extension, s6xa5, sym,
)
from .test_bsgs import _count_chain_builds, _relabelled_generating_set

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "mindeg", "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def load_fixture(name):
    from mindeg.cli import parse_group_file
    return parse_group_file(fixture_path(name)).group


# --- end-to-end values ---------------------------------------------------------


@pytest.mark.parametrize("make,expected", [
    (lambda: alt(5), 5), (lambda: sym(5), 5), (lambda: sym(7), 7),
    (lambda: pgl2(7), 8), (lambda: psl2(8), 9), (lambda: pgammal2(8), 9),
    (a5wrz2, 10), (a5xa6, 11),
], ids=["A5", "S5", "S7", "PGL27", "PSL28", "PGammaL28", "A5wrZ2", "A5xA6"])
def test_mu_values(make, expected):
    assert mu_fitting_free(make()).total == expected


def test_mu_psl211_degree11_fixture():
    G = load_fixture("PSL211.grp")
    assert G.degree == 11 and G.order() == 660
    assert mu_fitting_free(G).total == 11


@pytest.mark.parametrize("make", [lambda: alt(5), lambda: sym(5),
                                  lambda: psl2(7), lambda: pgl2(7)],
                         ids=["A5", "S5", "PSL27", "PGL27"])
def test_mu_matches_oracle(make):
    G = make()
    cert = mu_fitting_free(G)
    C = list_elements(G, bound=2000)
    mu, _ = mu_oracle(C)
    assert cert.total == mu


@pytest.mark.parametrize("make,expected,rule", [
    (lambda: pgl2(9), 10, "row 1"),
    (m10, 10, "row 1"),
    (lambda: pgammal2(9), 6, "default (A embeds in Sym(6))"),
], ids=["PGL29", "M10", "PSigmaL29"])
def test_alt6_row_on_the_index_2_overgroups(make, expected, rule):
    # the three subgroups of index 2 in Aut(Alt(6)), each on 10 points: only
    # PSigmaL(2,9) = Sym(6) embeds in Sym(6)
    G = make()
    assert G.degree == 10 and G.order() == 720
    cert = mu_fitting_free(G)
    assert cert.total == expected
    assert [r.rule for r in cert.records] == [rule]
    mu, _ = mu_oracle(list_elements(G, bound=ORACLE_LIMIT))
    assert mu == expected


def _alt6_inputs():
    """Groups whose Alt(6) factor has |A| = 720: the three index-2
    overgroups, Sym(6) on relabelled generating sets, and Sym(6) x Alt(5),
    where C_G(S1) = Alt(5) is nontrivial."""
    S6 = load_fixture("S6.grp")
    rng = random.Random(720)
    return ([pgl2(9), m10(), pgammal2(9), s6xa5()]
            + [build_group(6, _relabelled_generating_set(rng, 6,
                                                         S6.generators))
               for _ in range(4)])


def _alt6_data(G):
    dec = socle_fitting_free(G)
    k = next(i for i, F in enumerate(dec.factors) if F.order() == 360)
    data = induced_aut_group(G, [dec.factors[k]], 0)
    assert data.order == 720
    return data


def test_sym6_witness_agrees_with_the_cayley_search():
    S6 = list_elements(sym(6), bound=ORACLE_LIMIT)
    for G in _alt6_inputs():
        data = _alt6_data(G)
        A = list_elements(QuotientGroup(data.normalizer, data.centralizer),
                          bound=ORACLE_LIMIT)
        expected = isomorphism_search(A, S6) is not None
        assert mindeg.pipeline._embeds_in_sym6(data) == expected


@pytest.mark.parametrize("make", [
    lambda: pgl2(9), m10, lambda: pgammal2(9), s6xa5,
    lambda: load_fixture("S6.grp"),
], ids=["PGL29", "M10", "PSigmaL29", "S6xA5", "S6"])
def test_alt6_row_lists_no_cayley_table(monkeypatch, make):
    # the witness decides the row, so the fallback's listing and search
    # are never reached
    G = make()

    def refuse(*_args, **_kwargs):
        raise AssertionError("the Alt(6) row listed a Cayley table")

    for name in ("list_elements", "isomorphism_search"):
        monkeypatch.setattr(mindeg.smallgroup, name, refuse)
        monkeypatch.setattr(mindeg.pipeline, name, refuse)
    cert = mu_fitting_free(G)
    assert [r.order_A for r in cert.records if r.factor_name == "Alt(6)"] \
        == [720]


def test_sym6_fallback_gives_the_same_certificates(monkeypatch):
    inputs = _alt6_inputs()
    witnessed = [mu_fitting_free(G).to_json() for G in inputs]
    monkeypatch.setattr(mindeg.pipeline, "SYM6_WITNESS_DRAWS", 0)
    assert [mu_fitting_free(G).to_json() for G in inputs] == witnessed


def test_mu_of_the_diagonal_a5_x_a5_is_10():
    # both factors act regularly on 60 points, so mu is far below the degree
    # and each centralizer falls back to class walks
    from .groups import a5xa5_diagonal
    G, _ = a5xa5_diagonal()
    cert = mu_fitting_free(G)
    assert cert.total == 10
    assert cert.factor_orders == [60, 60]
    assert cert.minimal_normal_blocks == [[0], [1]]
    assert [(r.factor_name, r.rule, r.mu) for r in cert.records] == [
        ("Alt(5)", "default", 5)] * 2


def test_mu_never_exceeds_degree():
    for make in (alt, sym):
        for n in (5, 6, 7):
            G = make(n)
            assert mu_fitting_free(G).total <= G.degree


# --- certificates --------------------------------------------------------------


def test_certificate_arithmetic():
    cert = mu_fitting_free(a5wrz2())
    assert cert.total == sum(r.length * r.mu for r in cert.records)
    assert cert.records[0].length == 2
    covered = sorted(i for b in cert.minimal_normal_blocks for i in b)
    assert covered == list(range(len(cert.factor_orders)))


def test_certificate_json_round_trip():
    cert = mu_fitting_free(sym(5))
    text = cert.to_json()
    assert json.loads(text) == cert.to_dict()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_certificate_deterministic_for_fixed_seed():
    a = mu_fitting_free(a5xa6(), seed=7).to_json()
    b = mu_fitting_free(a5xa6(), seed=7).to_json()
    assert a == b


# --- hints ---------------------------------------------------------------------


def test_load_hint_rejects_malformed():
    base = {"factor_index": 0, "family": "SL", "d": 3, "q": 4,
            "field_convention": "lex-least-irreducible",
            "generator_images": [], "generators": [[1, 0, 2]], "degree": 3}
    for key in ("family", "field_convention", "generator_images",
                "generators"):
        bad = dict(base)
        del bad[key]
        with pytest.raises(ValueError, match=key):
            load_hint(bad)
    bad = dict(base)
    bad["field_convention"] = "other"
    with pytest.raises(ValueError, match="field convention"):
        load_hint(bad)
    bad = dict(base)
    bad["generator_images"] = [[1, 2, 3]]  # wrong length
    with pytest.raises(ValueError, match="wrong length"):
        load_hint(bad)
    bad = dict(base)
    del bad["degree"]  # generators without a degree
    with pytest.raises(ValueError, match="degree"):
        load_hint(bad)
    bad = dict(base)
    bad["generators"] = [[0, 1, 2]]
    with pytest.raises(ValueError, match="identity"):
        load_hint(bad)


def test_load_hint_rejects_non_member_image():
    # determinant 2 is not in SL(3,4)
    flat = [2, 0, 0, 0, 1, 0, 0, 0, 1]
    data = {"factor_index": 0, "family": "SL", "d": 3, "q": 4,
            "field_convention": "lex-least-irreducible",
            "generator_images": [flat], "generators": [[1, 0, 2]],
            "degree": 3}
    with pytest.raises(ValueError, match="determinant"):
        load_hint(data)


def test_hint_file_round_trip_and_redundant_hint_consistency():
    G = load_fixture("PSL34.grp")
    hint = load_hint_file(fixture_path("PSL34.hint.json"))
    plain = mu_fitting_free(G)
    hinted = mu_fitting_free(G, hints=[hint])
    assert plain.total == hinted.total == 21
    assert hinted.flags["hint-used"]
    assert not plain.flags["hint-used"]


def test_graph_extension_requires_hint_and_gives_double():
    G = load_fixture("PSL34_2.grp")
    with pytest.raises(HintRequired) as err:
        mu_fitting_free(G)
    partial = err.value.certificate
    assert partial.flags["unsupported-case"]
    assert partial.records[0].error is not None
    assert partial.total is None

    hint = load_hint_file(fixture_path("PSL34_2.hint.json"))
    cert = mu_fitting_free(G, hints=[hint])
    assert cert.total == 42
    assert cert.records[0].rule == "row 11"
    assert cert.records[0].outer_index == 2


def test_sp_hint_end_to_end():
    # PSp(4,4) extended by its field automorphism on 85 points, with the
    # hint pi(U) -> U: A = PSp(4,4).2 lies in PGammaSp, so mu is 85.
    # Sp(4,4) has a trivial center, so each transported matrix is the
    # exact image: the Frobenius on coordinates squares the entries of
    # every standard generator.  The frame fixes each image only up to a
    # scalar; the one multiple of order 2 is the exact one.
    from mindeg.fflinalg import frobenius, matrix
    G, data = pgammasp44_with_hint()
    hint = load_hint(data)
    cert = mu_fitting_free(G, hints=[hint])
    assert cert.total == 85
    assert [(r.rule, r.outer_index) for r in cert.records] == [
        ("default (A inside PGammaSp)", 2)]
    factors = socle_fitting_free(G).factors
    aut, = induced_aut_group(G, factors, 0, hint).matrix_auts
    fld = hint.generator_images[0].field
    assert aut.images == [
        matrix(fld, [[frobenius(fld, x, 1) for x in row] for row in U.rows])
        for U in hint.generator_images]


@pytest.mark.parametrize("q", [3, 5])
def test_hinted_graph_extension_of_psl3q(q):
    # PSL(3,q).2 of graph type on points plus lines, with its hint: row
    # 11 gives 2 (q^2 + q + 1).  For odd q a transported root element is
    # no involution, so an image formed as its inverse is caught here.
    G, gens, L = psl3_graph_extension(q)
    cert = mu_fitting_free(G, hints=[load_hint(hint_data("SL", 3, q, gens,
                                                         L))])
    assert (cert.total, cert.records[0].rule) == (2 * (q * q + q + 1),
                                                  "row 11")


def test_matched_block_refuses_an_element_outside_the_first_block():
    # Alt(5) acting diagonally on 1-5 and 6-10 is 3-transitive on 1-5 with
    # base 1, 2, 3, so the sift of (1 2) + 1 ends at the element of Alt(5)
    # that agrees with (1 2) on the base, which differs from it on 4 and 5
    from mindeg.pipeline import _matched_block
    X = build_group(10, [P("(1 2 3)(6 7 8)", 10),
                         P("(1 2 3 4 5)(6 7 8 9 10)", 10)])
    assert _matched_block(X, P("(1 2 3)", 5), "") == P("(1 2 3)", 5)
    ok, h = X.contains(P("(1 2)", 10))
    assert not ok and h.images[:3] == (1, 0, 2)
    with pytest.raises(ValueError, match="outside"):
        _matched_block(X, P("(1 2)", 5), "outside")


def test_mu_reads_the_socle_order_off_its_factors(monkeypatch):
    # Soc(G) is the direct product of its factors, so |Soc(G)| is the
    # product of their orders, and no chain is built for the socle's
    # generators (8 chains, where reading |Soc(G)| off a chain made 9)
    G = load_fixture("A5xA6.grp")
    G.order()
    builds = _count_chain_builds(monkeypatch)
    cert = mu_fitting_free(G)
    assert (cert.socle_order, cert.total) == (60 * 360, 11)
    assert len(builds) == 8


def test_hint_transport_rebuilds_each_matrix_with_two_products(monkeypatch):
    # one outer generator, and 18 standard generators of SL(3,4) whose
    # conjugates are rebuilt from their projective images: one product
    # solves the frame and the lift forms V^p for p = 2 (36 on the
    # fixture, counted wherever the run calls multiply)
    import mindeg.autlift
    import mindeg.fflinalg
    import mindeg.pipeline
    G = load_fixture("PSL34_2.grp")
    hint = load_hint_file(fixture_path("PSL34_2.hint.json"))
    calls = []
    original = mindeg.fflinalg.multiply

    def counted(a, b):
        calls.append(None)
        return original(a, b)

    for module in (mindeg.fflinalg, mindeg.autlift, mindeg.pipeline):
        monkeypatch.setattr(module, "multiply", counted)
    assert mu_fitting_free(G, hints=[hint]).total == 42
    assert len(calls) <= 36


def _relabelled_with_hint(name, rng):
    """The fixture with its points relabelled by a random sigma and its
    generators reshuffled, and its hint with the generators conjugated by
    the same sigma."""
    G = load_fixture(f"{name}.grp")
    hint = load_hint_file(fixture_path(f"{name}.hint.json"))
    images = list(range(G.degree))
    rng.shuffle(images)
    sigma = Permutation(tuple(images))
    gens = [conjugate(g, sigma) for g in G.generators]
    rng.shuffle(gens)
    hint.generators = [conjugate(h, sigma) for h in hint.generators]
    return PermGroup(G.degree, gens), hint


@pytest.mark.parametrize("name,mu,rule,lifts", [
    ("PSL34_2", 42, "row 11", 1), ("PSL34", 21, "default", 0),
], ids=["PSL34_2", "PSL34"])
def test_hint_transport_lifts_only_the_outer_generators(monkeypatch, name, mu,
                                                        rule, lifts):
    # S1 x C_G(S1) induces Inn(S1), so only generators of N_G(S1) outside
    # it are lifted: one for |A / S1| = 2 and none for |A / S1| = 1,
    # wherever the outer generator sits among G's generators
    calls = []
    original = mindeg.pipeline.lift_psl_aut

    def counted(lam):
        calls.append(lam)
        return original(lam)

    monkeypatch.setattr(mindeg.pipeline, "lift_psl_aut", counted)
    rng = random.Random(29)
    inputs = [(load_fixture(f"{name}.grp"),
               load_hint_file(fixture_path(f"{name}.hint.json")))]
    inputs += [_relabelled_with_hint(name, rng) for _ in range(5)]
    positions = set()
    for G, hint in inputs:
        calls.clear()
        cert = mu_fitting_free(G, hints=[hint])
        assert (cert.total, cert.records[0].rule) == (mu, rule)
        assert len(calls) == lifts
        S1 = socle_fitting_free(G).factors[0]
        positions.update(i for i, g in enumerate(G.generators)
                         if not S1.member(g))
    assert len(positions) == (5 if lifts else 0)


@pytest.mark.parametrize("make", [
    lambda: alt(5), lambda: load_fixture("S6.grp"),
    lambda: load_fixture("PSL34.grp"),
], ids=["A5", "S6", "PSL34"])
def test_one_factor_block_keeps_g_and_its_chain(monkeypatch, make):
    # N_G(S1) = G for the one factor of a block: G serves with its own
    # verified chain, and the only chain built is the trivial C_G(S1)'s
    G = make()
    dec = socle_fitting_free(G)
    builds = _count_chain_builds(monkeypatch)
    data = induced_aut_group(G, dec.factors, 0)
    assert data.normalizer is G
    assert [H.order() for H in builds] == [1]
    assert data.order == G.order()


# --- induced automorphism group ------------------------------------------------


def test_induced_aut_group_orders():
    # N_G(S1) is G for a one-factor block; in A5 wr Z2 it is the point
    # stabilizer A5 x A5, whose generators each enlarge the group of those
    # before them
    for make, expected in ((lambda: alt(5), 60), (lambda: sym(5), 120),
                           (a5wrz2, 60)):
        G = make()
        dec = socle_fitting_free(G)
        factors = [dec.factors[i] for i in dec.minimal_normals[0]]
        for k, S in enumerate(factors):
            data = induced_aut_group(G, factors, k)
            assert data.S1 is S
            assert data.order == expected
            assert data.order % data.order_S == 0
            NG = data.normalizer
            assert (NG is G) == (len(factors) == 1)
            assert NG.order() == G.order() // len(factors)
            if NG is not G:
                assert not any(
                    build_group(G.degree, NG.generators[:i]).member(g)
                    for i, g in enumerate(NG.generators))


# --- dispatch table ------------------------------------------------------------


def _fake_data(order_A, order_S, matrix_auts=None):
    triv = build_group(1, [])
    return InducedAutData(order=order_A, order_S=order_S, S1=triv,
                          normalizer=triv, centralizer=triv,
                          matrix_auts=matrix_auts)


@pytest.mark.parametrize("name,idx,expected,rule", [
    (SimpleName("Alt", (6,)), 4, 10, "row 1"),
    (SimpleName("Sporadic", ("M12",)), 2, 24, "row 3"),
    (SimpleName("Sporadic", ("ON",)), 2, 245520, "row 4"),
    (SimpleName("PSU", (3, 5)), 3, 126, "row 5"),
    (SimpleName("POmegaPlus", (8, 2)), 3, 360, "row 6"),
    (SimpleName("POmegaPlus", (8, 3)), 3, 3240, "row 7"),
    (SimpleName("POmegaPlus", (8, 3)), 12, 3360, "row 8"),
    (SimpleName("ExcLie", ("G2", 3)), 2, 702, "row 9"),
    (SimpleName("Sporadic", ("M12",)), 1, 12, "default"),
    (SimpleName("Alt", (7,)), 2, 7, "default"),
])
def test_dispatch_rows_by_index(name, idx, expected, rule):
    n = mu_simple(name) if name.family != "ExcLie" else None
    order_S = 1
    data = _fake_data(idx * order_S, order_S)
    mu, tag = dispatch_table(name, data)
    assert mu == expected
    assert tag == rule


def test_dispatch_omega_plus_8_4_scales_by_three():
    name = SimpleName("POmegaPlus", (8, 4))
    mu, tag = dispatch_table(name, _fake_data(3, 1))
    assert mu == 3 * mu_simple(name)
    assert tag == "row 10"


def test_dispatch_triality_case_unsupported():
    with pytest.raises(UnsupportedCase):
        dispatch_table(SimpleName("POmegaPlus", (8, 3)), _fake_data(2, 1))


def test_dispatch_graph_rows_need_hints():
    with pytest.raises(HintRequired):
        dispatch_table(SimpleName("PSL", (3, 4)), _fake_data(2, 1))
    with pytest.raises(HintRequired):
        dispatch_table(SimpleName("PSp", (4, 4)), _fake_data(2, 1))
    with pytest.raises(HintRequired):
        dispatch_table(SimpleName("POmegaPlus", (10, 3)), _fake_data(2, 1))


def test_dispatch_row_13_value():
    # with a hinted graph-type generator the value is (3^d-1)(3^{d-1}+1)/2
    from mindeg.autlift import MatrixAut
    from mindeg.fflinalg import standard_generators, invert

    name = SimpleName("POmegaPlus", (10, 3))
    field, L = standard_generators("OmegaPlus", 10, 3)
    # a similitude that scales the form by the non-square 2 has a graph part
    from mindeg.fflinalg import matrix, multiply
    rows = [[0] * 10 for _ in range(10)]
    for i in range(10):
        rows[i][i] = 2 if i < 5 else 1
    g = matrix(field, rows)
    gi = invert(g)
    alpha = MatrixAut("OmegaPlus", L,
                      [multiply(multiply(g, U), gi) for U in L])
    mu, tag = dispatch_table(name, _fake_data(2, 1, matrix_auts=[alpha]))
    assert mu == (3 ** 5 - 1) * (3 ** 4 + 1) // 2
    assert tag == "row 13"


def test_dispatch_exceptional_lie_rows_unsupported():
    for name in (SimpleName("ExcLie", ("G2", 9)),
                 SimpleName("ExcLie", ("F4", 2)),
                 SimpleName("ExcLie", ("E6", 2))):
        with pytest.raises(UnsupportedCase):
            dispatch_table(name, _fake_data(2, 1))


# --- small quotients -----------------------------------------------------------


def _mu_quotient(Q, bound=ORACLE_LIMIT):
    return mu_oracle(list_elements(Q, bound=bound), limit=bound)[0]


def test_mu_small_quotient_examples():
    S4 = sym(4)
    V4 = build_group(4, [P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)])
    assert _mu_quotient(QuotientGroup(S4, V4)) == 3
    assert _mu_quotient(QuotientGroup(S4, S4)) == 0
    S5 = sym(5)
    triv = build_group(5, [])
    assert _mu_quotient(QuotientGroup(S5, triv)) == 5


def test_mu_small_quotient_respects_bound():
    S5 = sym(5)
    triv = build_group(5, [])
    with pytest.raises(LimitExceededError):
        _mu_quotient(QuotientGroup(S5, triv), bound=60)

import pytest

import mindeg.oracle
from mindeg.bsgs import build_group
from mindeg.errors import DegreeCheckFailed, LimitExceededError
from mindeg.oracle import core, is_faithful_collection, mu_oracle
from mindeg.perm import parse_permutation
from mindeg.smallgroup import from_direct_factors, list_elements


def P(text, n):
    return parse_permutation(text, n)


def cayley(degree, texts, bound=2000):
    return list_elements(build_group(degree, [P(t, degree) for t in texts]), bound)


def sym4():
    return cayley(4, ["(1 2)", "(1 2 3 4)"])


def test_core_examples():
    S4 = sym4()
    d8 = [i for i, g in enumerate(S4.elements)
          if all(g.images[x] in (0, 1) or g.images[x] in (2, 3) for x in (0, 1))
          and {g.images[0], g.images[1]} in ({0, 1}, {2, 3})]
    assert len(d8) == 8
    klein = core(S4, d8)
    assert len(klein) == 4
    assert all(S4.elements[x].is_identity() or
               sorted(len(c) for c in S4.elements[x].cycles()) == [2, 2]
               for x in klein)

    everything = list(range(24))
    assert core(S4, everything) == everything

    stab = [i for i, g in enumerate(S4.elements) if g.images[0] == 0]
    assert core(S4, stab) == [0]


def test_core_rejects_non_subgroup():
    S4 = sym4()
    four_cycle = next(i for i, g in enumerate(S4.elements)
                      if len(g.cycles()) == 1 and len(g.cycles()[0]) == 4)
    with pytest.raises(ValueError):
        core(S4, [0, four_cycle])  # not closed: misses the square
    with pytest.raises(ValueError):
        core(S4, [four_cycle])  # missing identity


def test_is_faithful_collection():
    S4 = sym4()
    assert is_faithful_collection(S4, [[0]])
    assert not is_faithful_collection(S4, [list(range(24))])
    stabs = [[i for i, g in enumerate(S4.elements) if g.images[x] == x]
             for x in range(4)]
    assert is_faithful_collection(S4, stabs)
    assert is_faithful_collection(S4, stabs[:2])  # two cores already meet trivially

    T = from_direct_factors([1])
    assert is_faithful_collection(T, [[0]])


def test_mu_trivial():
    mu, w = mu_oracle(from_direct_factors([1]))
    assert mu == 0
    assert w.subgroups == [] and w.total_degree == 0


def test_mu_z6():
    mu, w = mu_oracle(from_direct_factors([6]))
    assert mu == 5
    assert sorted(6 // len(s) for s in w.subgroups) == [2, 3]


def test_mu_klein():
    mu, _ = mu_oracle(from_direct_factors([2, 2]))
    assert mu == 4


def test_mu_q8():
    Q8 = cayley(8, ["(1 2 3 8)(4 5 6 7)", "(1 7 3 5)(2 6 8 4)"])
    assert Q8.order == 8
    mu, w = mu_oracle(Q8)
    assert mu == 8
    assert w.subgroups == [[0]]  # only the regular representation is faithful


def test_mu_sym4():
    mu, w = mu_oracle(sym4())
    assert mu == 4
    assert len(w.subgroups) == 1 and len(w.subgroups[0]) == 6


def test_mu_limit():
    with pytest.raises(LimitExceededError):
        mu_oracle(from_direct_factors([10]), limit=5)


def test_mu_abelian_examples():
    cases = {
        (8,): 8, (2, 4): 6, (2, 2, 2): 6, (12,): 7, (2, 6): 7,
        (36,): 13, (6, 6): 10, (2, 18): 13, (3, 12): 10,
        (100,): 29, (10, 10): 14, (2, 2, 3, 3): 10,
    }
    for moduli, expected in cases.items():
        mu, w = mu_oracle(from_direct_factors(moduli))
        assert mu == expected, (moduli, mu, expected)
        assert is_faithful_collection(from_direct_factors(moduli), w.subgroups)


def test_mu_witness_valid_nonabelian():
    for C in (sym4(),
              cayley(5, ["(1 2 3)", "(3 4 5)"]),     # Alt(5), order 60
              cayley(4, ["(1 2 3 4)", "(1 3)"])):    # dihedral of order 8
        mu, w = mu_oracle(C)
        assert is_faithful_collection(C, w.subgroups)
        assert sum(C.order // len(s) for s in w.subgroups) == mu
        assert w.total_degree == mu


def test_mu_alt5_and_dihedral():
    mu, _ = mu_oracle(cayley(5, ["(1 2 3)", "(3 4 5)"]))
    assert mu == 5
    mu, _ = mu_oracle(cayley(4, ["(1 2 3 4)", "(1 3)"]))
    assert mu == 4


def test_mu_at_most_natural_degree():
    for degree, texts in [(4, ["(1 2)", "(1 2 3 4)"]),
                          (5, ["(1 2 3 4 5)", "(2 3)(4 5)"]),
                          (6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)"])]:
        C = cayley(degree, texts)
        mu, _ = mu_oracle(C)
        assert mu <= degree


def test_mu_subadditive_on_products():
    pairs = [((2, 2), (3,)), ((4,), (6,)), ((2, 4), (9,))]
    for a, b in pairs:
        mu_a, _ = mu_oracle(from_direct_factors(a))
        mu_b, _ = mu_oracle(from_direct_factors(b))
        mu_ab, _ = mu_oracle(from_direct_factors(a + b))
        assert mu_ab <= mu_a + mu_b


def test_mu_oracle_checks_its_witness(monkeypatch):
    # the checks raise, so they also run under python -O
    monkeypatch.setattr(mindeg.oracle, "is_faithful_collection",
                        lambda C, Hs: False)
    with pytest.raises(DegreeCheckFailed, match="not faithful"):
        mu_oracle(sym4())

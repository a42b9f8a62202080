import math
import random
import re
from functools import lru_cache
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import pytest

from mindeg.bsgs import build_group
from mindeg.cli import parse_group_file
from mindeg.errors import UnsupportedCase
from mindeg.fflinalg import prime_power
from mindeg.oracle import mu_oracle
from mindeg.perm import Permutation
from mindeg.simpleid import (
    SimpleName, _candidates, mu_simple, name_simple, simple_order,
)
from mindeg.smallgroup import list_elements
from mindeg.socle import socle_fitting_free

from .groups import P, alt, conjugate, psl2, psl_on_plane

FIXTURES = Path(__file__).parent.parent / "src" / "mindeg" / "fixtures"


# The reference enumeration: every simple name of order at most 10^12,
# each family swept over q and then over its rank until the orders pass
# the bound.  It is independent of the inversion in ``_candidates``.
REFERENCE_BOUND = 10 ** 12

# canonical aliases: the Alt form wins; PSL(2,7) wins over PSL(3,2);
# PSp(4,3) wins over PSU(4,2)
_ALIASED_OUT = {
    ("PSL", (2, 4)), ("PSL", (2, 5)), ("PSL", (2, 9)),
    ("PSL", (3, 2)), ("PSL", (4, 2)), ("PSU", (4, 2)),
}


def _prime_powers():
    """Every prime power q = p^e, in increasing order."""
    for q in count(2):
        if prime_power(q) is not None:
            yield q


@lru_cache(maxsize=1)
def _reference_table():
    table = {}

    def emit(name):
        o = simple_order(name)
        if o > REFERENCE_BOUND:
            return False
        if (name.family, name.params) not in _ALIASED_OUT:
            table.setdefault(o, []).append(name)
        return True

    def sweep(make, keep=lambda q: True):
        any_fit = False
        for q in _prime_powers():
            if not keep(q):
                continue
            if not emit(make(q)):
                break
            any_fit = True
        return any_fit

    n = 5
    while emit(SimpleName("Alt", (n,))):
        n += 1
    d = 2
    while sweep(lambda q, d=d: SimpleName("PSL", (d, q)),
                keep=lambda q, d=d: d > 2 or q >= 4):
        d += 1
    m = 2
    while sweep(lambda q, m=m: SimpleName("PSp", (2 * m, q)),
                keep=lambda q, m=m: (m, q) != (2, 2)):
        m += 1
    # Ω(2m+1,q) for odd q, m >= 3; it is PSp(2m,q) for even q or m = 2
    m = 3
    while sweep(lambda q, m=m: SimpleName("POmega", (2 * m + 1, q)),
                keep=lambda q: q % 2 == 1):
        m += 1
    for fam in ("POmegaPlus", "POmegaMinus"):
        d = 4
        while sweep(lambda q, d=d, fam=fam: SimpleName(fam, (2 * d, q))):
            d += 1
    d = 3
    while sweep(lambda q, d=d: SimpleName("PSU", (d, q)),
                keep=lambda q, d=d: (d, q) != (3, 2)):
        d += 1
    sweep(lambda q: SimpleName("ExcLie", ("G2", q)), keep=lambda q: q >= 3)
    sweep(lambda q: SimpleName("ExcLie", ("F4", q)))
    sweep(lambda q: SimpleName("ExcLie", ("E6", q)))
    for tag in ("M11", "M12", "ON"):
        emit(SimpleName("Sporadic", (tag,)))
    return table


def test_prime_powers_match_sympy():
    factorint = pytest.importorskip("sympy").factorint
    # PSL(2, q) has order about q^3 / 2, so the reference sweeps stop below
    # this
    limit = round((2 * REFERENCE_BOUND) ** (1 / 3)) + 100
    for n in range(limit + 1):
        f = factorint(n) if n >= 2 else {}
        expected = next(iter(f.items())) if len(f) == 1 else None
        assert prime_power(n) == expected, n


def test_order_table_self_check_passes():
    """Order determines the name up to 10^12, apart from |Alt(8)| =
    |PSL(3,4)| and |PSp(2m,q)| = |Ω(2m+1,q)| (Artin 1955; Kimmerle, Lyons,
    Sandling and Teague 1990)."""
    table = _reference_table()
    assert len(table) == 1630
    collisions = {o: sorted(str(name) for name in names)
                  for o, names in table.items() if len(names) > 1}
    assert collisions == {20160: ["Alt(8)", "PSL(3,4)"],
                          4585351680: ["POmega(7,3)", "PSp(6,3)"]}
    assert simple_order(SimpleName("Alt", (5,))) == 60
    assert simple_order(SimpleName("PSL", (3, 4))) == 20160
    assert simple_order(SimpleName("Sporadic", ("M11",))) == 7920
    assert simple_order(SimpleName("Sporadic", ("M12",))) == 95040
    assert simple_order(SimpleName("ExcLie", ("G2", 3))) == 4245696
    assert simple_order(SimpleName("POmegaPlus", (8, 2))) == 174182400


def test_inversion_matches_the_reference_enumeration():
    factorint = pytest.importorskip("sympy").factorint
    for order, names in _reference_table().items():
        # a simple group of degree n has no prime divisor above n
        degree = max(factorint(order))
        assert sorted(map(str, _candidates(order, degree))) == \
            sorted(map(str, names)), order
    # beyond the reference bound
    for name in (SimpleName("Alt", (17,)), SimpleName("Alt", (40,)),
                 SimpleName("PSL", (6, 3)), SimpleName("PSU", (7, 2)),
                 SimpleName("POmegaMinus", (10, 2)),
                 SimpleName("ExcLie", ("F4", 2)),
                 SimpleName("ExcLie", ("E6", 2))):
        order = simple_order(name)
        assert order > REFERENCE_BOUND
        assert _candidates(order, max(factorint(order))) == [name]
    # the orders of PSL(2,2), PSL(2,3), PSU(3,2), PSp(4,2) and G2(2), which
    # the formulas give but which are not simple
    for order in (6, 12, 72, 720, 12096):
        assert _candidates(order, 7) == [], order


def _of_order(name, degree):
    """A stand-in group that only reports the order of the named group and
    a degree."""
    return SimpleNamespace(order=lambda: simple_order(name), degree=degree)


def test_name_simple_refuses_symplectic_orthogonal_coincidence():
    # |PSp(6,3)| = |Ω(7,3)|, and the order does not tell them apart
    with pytest.raises(UnsupportedCase,
                       match="coincides with an odd-dimensional orthogonal"
                             ".*PSp\\(6,3\\) and POmega\\(7,3\\)"):
        name_simple(_of_order(SimpleName("PSp", (6, 3)), 364))
    psp44 = SimpleName("PSp", (4, 4))
    assert name_simple(_of_order(psp44, 85)) == psp44


def test_name_simple_alt5():
    assert name_simple(alt(5)) == SimpleName("Alt", (5,))
    assert str(name_simple(alt(5))) == "Alt(5)"


def test_name_simple_psl27_degree7():
    # PSL(3,2) on the 7 nonzero vectors of F2^3 carries the canonical
    # PSL(2,7) name
    G, *_ = psl_on_plane(3, 2)
    assert G.order() == 168
    assert name_simple(G) == SimpleName("PSL", (2, 7))


def test_name_simple_20160_disambiguation():
    G, *_ = psl_on_plane(3, 4)
    assert G.order() == 20160
    assert name_simple(G) == SimpleName("PSL", (3, 4))
    assert name_simple(alt(8)) == SimpleName("Alt", (8,))


def _relabelled(G, rng):
    images = list(range(G.degree))
    rng.shuffle(images)
    sigma = Permutation(tuple(images))
    return build_group(G.degree, [conjugate(g, sigma) for g in G.generators])


def _psl34_socle_factor():
    G = parse_group_file(FIXTURES / "PSL34_2.grp").group
    factors = socle_fitting_free(G).factors
    assert [F.order() for F in factors] == [20160]
    return factors[0]


@pytest.mark.parametrize("make,expected", [
    (lambda: alt(8), SimpleName("Alt", (8,))),
    (_psl34_socle_factor, SimpleName("PSL", (3, 4))),
], ids=["Alt8", "PSL34_2-socle"])
def test_name_simple_20160_on_relabellings(make, expected):
    G = make()
    rng = random.Random(20160)
    for _ in range(2):
        assert name_simple(_relabelled(G, rng)) == expected


def test_name_simple_order_not_in_table():
    with pytest.raises(UnsupportedCase, match="order 7 at degree 7 "):
        # Z7: simple but abelian, so no entry
        name_simple(build_group(7, [P("(1 2 3 4 5 6 7)", 7)]))
    # 17 divides |Alt(17)|, so no group of degree 16 has that order
    alt17 = SimpleName("Alt", (17,))
    assert name_simple(_of_order(alt17, 17)) == alt17
    with pytest.raises(UnsupportedCase,
                       match=f"^order {simple_order(alt17)} at degree 16 "):
        name_simple(_of_order(alt17, 16))


def test_mu_simple_values():
    cases = {
        SimpleName("Alt", (7,)): 7,
        SimpleName("Alt", (5,)): 5,
        SimpleName("PSL", (3, 4)): 21,
        SimpleName("PSp", (4, 4)): 85,
        SimpleName("POmegaPlus", (8, 2)): 120,
        SimpleName("PSL", (2, 7)): 7,
        SimpleName("PSL", (2, 5)): 5,
        SimpleName("PSL", (2, 9)): 6,
        SimpleName("PSL", (2, 11)): 11,
        SimpleName("PSL", (2, 8)): 9,
        SimpleName("PSL", (2, 13)): 14,
        SimpleName("POmegaPlus", (8, 3)): 1080,
        SimpleName("POmegaPlus", (8, 4)): 5525,
        SimpleName("PSp", (4, 8)): (8 ** 4 - 1) // 7,
        SimpleName("PSU", (3, 5)): 50,
        SimpleName("Sporadic", ("M11",)): 11,
        SimpleName("Sporadic", ("M12",)): 12,
        SimpleName("Sporadic", ("ON",)): 122760,
        SimpleName("ExcLie", ("G2", 3)): 351,
        SimpleName("POmegaPlus", (10, 3)): 9801,
        SimpleName("POmegaPlus", (8, 5)): 19656,
        SimpleName("PSL", (5, 2)): 31,
        SimpleName("PSL", (2, 4)): 5,
    }
    for name, expected in cases.items():
        assert mu_simple(name) == expected, name


def test_mu_simple_unsupported():
    for name in (SimpleName("POmegaMinus", (8, 2)),
                 SimpleName("PSU", (3, 3)),
                 SimpleName("PSp", (6, 3)),
                 SimpleName("ExcLie", ("F4", 2)),
                 SimpleName("PSp", (4, 2)),
                 SimpleName("PSL", (2, 3)),
                 SimpleName("ExcLie", ("G2", 4)),
                 SimpleName("ExcLie", ("E6", 2))):
        message = f"no verified minimal degree for {name}"
        with pytest.raises(UnsupportedCase, match=f"^{re.escape(message)}$"):
            mu_simple(name)


def _primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def _supported_mu():
    out = {}
    for entries in _reference_table().values():
        for name in entries:
            try:
                out[name] = mu_simple(name)
            except UnsupportedCase:
                pass
    return out


def test_mu_simple_order_divides_mu_factorial():
    """S ≤ Sym(μ) for every supported name, so |S| divides μ!: each prime
    of |S| is at most μ, and v_p(|S|) ≤ Σ_k ⌊μ/p^k⌋ (Legendre)."""
    mus = _supported_mu()
    assert len(mus) > 1500
    primes = _primes_up_to(max(mus.values()))
    for name, mu in mus.items():
        n = simple_order(name)
        for p in primes:
            if p > mu or n == 1:
                break
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            legendre, pk = 0, p
            while pk <= mu:
                legendre += mu // pk
                pk *= p
            assert v <= legendre, (name, mu, p)
        assert n == 1, (name, mu, n)


def test_mu_simple_below_group_order():
    for name in (SimpleName("Alt", (9,)), SimpleName("PSL", (3, 4)),
                 SimpleName("PSp", (4, 4)), SimpleName("POmegaPlus", (8, 2))):
        assert mu_simple(name) <= simple_order(name)


def test_mu_simple_matches_oracle_small():
    """Every supported name of order <= 2000 agrees with the oracle."""
    small = {
        SimpleName("Alt", (5,)): alt(5),
        SimpleName("Alt", (6,)): alt(6),
        SimpleName("PSL", (2, 7)): psl2(7),
        SimpleName("PSL", (2, 8)): psl2(8),
        SimpleName("PSL", (2, 11)): psl2(11),
        SimpleName("PSL", (2, 13)): psl2(13),
    }
    for name, G in small.items():
        C = list_elements(G, bound=2000)
        mu, _ = mu_oracle(C)
        assert mu == mu_simple(name), name

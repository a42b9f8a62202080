import math
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from mindeg.bsgs import build_group
from mindeg.cli import parse_group_file
from mindeg.errors import UnsupportedCase
from mindeg.fflinalg import prime_power
from mindeg.oracle import mu_oracle
from mindeg.perm import Permutation, conjugate
from mindeg.simpleid import (
    MAX_TABLE_ORDER, SimpleName, _order_table, _prime_powers, mu_simple,
    name_simple, simple_order,
)
from mindeg.smallgroup import list_elements
from mindeg.socle import socle_fitting_free

from .groups import P, alt, psl2, psl_on_plane

FIXTURES = Path(__file__).parent.parent / "src" / "mindeg" / "fixtures"


def test_prime_powers_match_sympy():
    factorint = pytest.importorskip("sympy").factorint
    # PSL(2, q) has order about q^3 / 2, so the table sweeps stop below this
    limit = round((2 * MAX_TABLE_ORDER) ** (1 / 3)) + 100
    got = []
    for q in _prime_powers():
        if q > limit:
            break
        got.append((q, prime_power(q)[0]))
    expected = [(q, next(iter(f))) for q in range(2, limit + 1)
                if len(f := factorint(q)) == 1]
    assert got == expected


def test_order_table_self_check_passes():
    table = _order_table()
    assert len(table) > 500
    assert simple_order(SimpleName("Alt", (5,))) == 60
    assert simple_order(SimpleName("PSL", (3, 4))) == 20160
    assert simple_order(SimpleName("Sporadic", ("M12",))) == 95040
    assert simple_order(SimpleName("ExcLie", ("G2", 3))) == 4245696
    assert simple_order(SimpleName("POmegaPlus", (8, 2))) == 174182400


def _of_order(name):
    """A stand-in group that only reports the order of the named group."""
    return SimpleNamespace(order=lambda: simple_order(name))


def test_name_simple_refuses_symplectic_orthogonal_coincidence():
    # |PSp(6,3)| = |Ω(7,3)|, and only PSp(6,3) is in the table
    with pytest.raises(UnsupportedCase,
                       match="coincides with an odd-dimensional orthogonal"):
        name_simple(_of_order(SimpleName("PSp", (6, 3))))
    psp44 = SimpleName("PSp", (4, 4))
    assert name_simple(_of_order(psp44)) == psp44


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
    with pytest.raises(UnsupportedCase, match="order 7 "):
        # Z7: simple but abelian, so no entry
        name_simple(build_group(7, [P("(1 2 3 4 5 6 7)", 7)]))


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
    for entries in _order_table().values():
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

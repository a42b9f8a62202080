"""Naming non-abelian simple groups and their minimal faithful degrees.

A simple group is named by looking its order up in a generated table of
simple-group orders.  Among groups of order at most 10^12 the order
determines the group except for two classical coincidences: Alt(8) vs
PSL(3,4) at order 20160 (settled by the size of the class of an element of
order 5), and PSp(2m,q) vs the odd-dimensional orthogonal groups for odd
q, m >= 3 (reported as unsupported).  An order outside the table is
reported as unsupported too.  Simplicity is not decided here: callers name
only groups that the socle sweep (``socle.minimal_normal_under``) found
simple.

``mu_simple`` gives μ(S) with one case per family, each citing its source.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

from .bsgs import PermGroup, class_tree, conjugator
from .errors import UnsupportedCase
from .fflinalg import prime_power
from .perm import element_order, inverse, power

MAX_TABLE_ORDER = 10 ** 12

# canonical aliases: the Alt form wins; PSL(2,7) wins over PSL(3,2);
# PSp(4,3) wins over PSU(4,2)
_ALIASED_OUT = {
    ("PSL", (2, 4)), ("PSL", (2, 5)), ("PSL", (2, 9)),
    ("PSL", (3, 2)), ("PSL", (4, 2)), ("PSU", (4, 2)),
}


@dataclass(frozen=True)
class SimpleName:
    """Canonical name of a non-abelian simple group."""

    family: str
    params: tuple

    def __str__(self):
        if self.family == "Sporadic":
            return self.params[0]
        if self.family == "ExcLie":
            return f"{self.params[0]}({self.params[1]})"
        return f"{self.family}({','.join(str(x) for x in self.params)})"


def _prime_powers():
    """Every prime power q = p^e, in increasing order."""
    for q in count(2):
        if prime_power(q) is not None:
            yield q


def simple_order(name: SimpleName) -> int:
    """The order of the named simple group."""
    f, par = name.family, name.params
    if f == "Alt":
        return math.factorial(par[0]) // 2
    if f == "PSL":
        d, q = par
        o = q ** (d * (d - 1) // 2)
        for i in range(2, d + 1):
            o *= q ** i - 1
        return o // math.gcd(d, q - 1)
    if f == "PSp":
        n, q = par
        m = n // 2
        o = q ** (m * m)
        for i in range(1, m + 1):
            o *= q ** (2 * i) - 1
        return o // math.gcd(2, q - 1)
    if f in ("POmegaPlus", "POmegaMinus"):
        n, q = par
        d = n // 2
        sign = 1 if f == "POmegaPlus" else -1
        o = q ** (d * (d - 1)) * (q ** d - sign)
        for i in range(1, d):
            o *= q ** (2 * i) - 1
        return o // math.gcd(4, q ** d - sign)
    if f == "PSU":
        d, q = par
        o = q ** (d * (d - 1) // 2)
        for i in range(2, d + 1):
            o *= q ** i - (-1) ** i
        return o // math.gcd(d, q + 1)
    if f == "Sporadic":
        return {"M12": 95040, "ON": 460815505920}[par[0]]
    if f == "ExcLie":
        typ, q = par
        if typ == "G2":
            return q ** 6 * (q ** 6 - 1) * (q ** 2 - 1)
        if typ == "F4":
            return (q ** 24 * (q ** 12 - 1) * (q ** 8 - 1)
                    * (q ** 6 - 1) * (q ** 2 - 1))
        if typ == "E6":
            o = q ** 36
            for i in (12, 9, 8, 6, 5, 2):
                o *= q ** i - 1
            return o // math.gcd(3, q - 1)
    raise ValueError(f"unknown family {f!r}")


def _emit(table, name: SimpleName):
    if (name.family, name.params) in _ALIASED_OUT:
        return False
    o = simple_order(name)
    if o > MAX_TABLE_ORDER:
        return False
    table.setdefault(o, []).append(name)
    return True


@lru_cache(maxsize=1)
def _order_table() -> dict[int, list[SimpleName]]:
    table: dict[int, list[SimpleName]] = {}
    n = 5
    while _emit(table, SimpleName("Alt", (n,))):
        n += 1

    def sweep(make, q_start=2, skip=()):
        any_fit = False
        for q in _prime_powers():
            if q < q_start:
                continue
            name = make(q)
            if name.params in skip:
                continue
            if simple_order(name) > MAX_TABLE_ORDER:
                break
            _emit(table, name)
            any_fit = True
        return any_fit

    d = 2
    while sweep(lambda q, d=d: SimpleName("PSL", (d, q)),
                q_start=4 if d == 2 else 2):
        d += 1
    m = 2
    while sweep(lambda q, m=m: SimpleName("PSp", (2 * m, q)), skip={(4, 2)}):
        m += 1
    for fam in ("POmegaPlus", "POmegaMinus"):
        d = 4
        while sweep(lambda q, d=d, fam=fam: SimpleName(fam, (2 * d, q))):
            d += 1
    d = 3
    while sweep(lambda q, d=d: SimpleName("PSU", (d, q)), skip={(3, 2)}):
        d += 1
    sweep(lambda q: SimpleName("ExcLie", ("G2", q)), q_start=3)
    sweep(lambda q: SimpleName("ExcLie", ("F4", q)))
    sweep(lambda q: SimpleName("ExcLie", ("E6", q)))
    for tag in ("M12", "ON"):
        _emit(table, SimpleName("Sporadic", (tag,)))

    _self_check(table)
    return table


def _self_check(table):
    """Order lookup must be injective apart from the known 20160 pair."""
    for o, entries in table.items():
        if len(entries) == 1:
            continue
        names = sorted(str(name) for name in entries)
        assert o == 20160 and names == ["Alt(8)", "PSL(3,4)"], (
            f"unexpected order collision at {o}: {names}")


# An element of order 5 has 1344 conjugates in Alt(8) (a 5-cycle, with
# centralizer Z5 x Alt(3)) and 4032 in PSL(3,4) (centralizer Z5).
ALT8_CLASS_OF_5 = 1344


def _is_alt8(G: PermGroup) -> bool:
    """Whether G, simple of order 20160, is Alt(8) rather than PSL(3,4).

    Draws elements of G until one has order divisible by 5, powers it down
    to order 5 and grows its class under G's generators: the class closes
    at 1344 elements in Alt(8) and passes 1344 in PSL(3,4).  Only the
    running time depends on the draws.
    """
    rng = random.Random(0xD15A)
    while True:
        g = G.random_element(rng)
        o = element_order(g)
        if o % 5 == 0:
            break
    conjs = [conjugator(s, inverse(s)) for s in G.generators]
    tree = class_tree(power(g, o // 5).images, conjs, ALT8_CLASS_OF_5)
    if tree is None:
        return False
    assert len(tree) == ALT8_CLASS_OF_5, "order-5 class of a group of order 20160"
    return True


def name_simple(G: PermGroup) -> SimpleName:
    """Canonical name of a permutation group found simple by the caller."""
    order = G.order()
    entries = _order_table().get(order)
    if entries is None:
        raise UnsupportedCase(f"order {order} not in the simple-group table")
    # |PSp(2m,q)| = |Ω(2m+1,q)| for odd q; the table lists only PSp
    if any(nm.family == "PSp" and nm.params[0] >= 6 and nm.params[1] % 2
           for nm in entries):
        raise UnsupportedCase(
            f"order {order} coincides with an odd-dimensional orthogonal group")
    if len(entries) == 1:
        return entries[0]
    assert order == 20160
    alt8 = next(nm for nm in entries if nm.family == "Alt")
    psl34 = next(nm for nm in entries if nm.family == "PSL")
    return alt8 if _is_alt8(G) else psl34


# μ(S) of single groups: M12, ON and G2(3) from the ATLAS (Conway et al.
# 1985), Ω+(8,2) and PSU(3,5) from the classical degree table
_MU_CONSTANT = {
    SimpleName("POmegaPlus", (8, 2)): 120,
    SimpleName("PSU", (3, 5)): 50,
    SimpleName("Sporadic", ("M12",)): 12,
    SimpleName("Sporadic", ("ON",)): 122760,
    SimpleName("ExcLie", ("G2", 3)): 351,
}


def mu_simple(name: SimpleName) -> int:
    """μ(S): the minimal faithful permutation degree of the named group.

    The families follow the classical degree table; Alt(n) is its natural
    action.
    """
    f, par = name.family, name.params
    if name in _MU_CONSTANT:
        return _MU_CONSTANT[name]
    if f == "Alt" and par[0] >= 5:
        return par[0]
    if f == "PSL":
        d, q = par
        if d == 2 and q >= 4:
            # the exceptional degrees are also checked against the oracle
            return {5: 5, 7: 7, 9: 6, 11: 11}.get(q, q + 1)
        if d >= 3:
            return (q ** d - 1) // (q - 1)
    if f == "PSp" and par[0] == 4 and par[1] % 2 == 0 and par[1] >= 4:
        q = par[1]
        return (q ** 4 - 1) // (q - 1)
    if f == "POmegaPlus":
        n, q = par
        d = n // 2
        if q == 3 and n >= 8:
            return 3 ** (d - 1) * (3 ** d - 1) // 2
        if n == 8 and q >= 4:
            return (q ** 4 - 1) * (q ** 3 + 1) // (q - 1)
    raise UnsupportedCase(f"no verified minimal degree for {name}")

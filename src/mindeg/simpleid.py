"""Naming non-abelian simple groups and their minimal faithful degrees.

A simple group is named by inverting the order formulas, with no bound on
the order.  Its order factors over the primes up to its degree.  A group
of Lie type over F_q, q = p^e, has p-part q^N, N its number of positive
roots, so each family and rank with N dividing the exponent of p fixes q
and one order comparison decides; Alt(m) needs m!/2 = |G|; the sporadic
groups are looked up by order.  The order determines the group except for
Alt(8) vs PSL(3,4) at order 20160 (settled by the size of the class of an
element of order 5) and PSp(2m,q) vs Ω(2m+1,q) for odd q, m >= 3 (Artin
1955; Kimmerle, Lyons, Sandling and Teague 1990; reported as unsupported),
as is an order that no formula gives.  Simplicity is not decided here:
callers name only groups that the socle sweep
(``socle.minimal_normal_under``) found simple.

``mu_simple`` gives μ(S) with one case per family, each citing its source.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bsgs import PermGroup, class_tree
from .errors import UnsupportedCase
from .perm import conjugator, element_order, power


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


# orders from the ATLAS (Conway et al. 1985)
_SPORADIC_ORDER = {"M11": 7920, "M12": 95040, "ON": 460815505920}

# names the family formulas give that are not canonical: the Alt form wins
# over PSL(2,4), PSL(2,5), PSL(2,9) and PSL(4,2), PSL(2,7) over PSL(3,2),
# PSp(4,3) over PSU(4,2); PSL(2,2), PSL(2,3), PSp(4,2), PSU(3,2) and G2(2)
# are not simple
_EXCLUDED = {
    ("PSL", (2, 2)), ("PSL", (2, 3)), ("PSL", (2, 4)), ("PSL", (2, 5)),
    ("PSL", (2, 9)), ("PSL", (3, 2)), ("PSL", (4, 2)), ("PSU", (3, 2)),
    ("PSU", (4, 2)), ("PSp", (4, 2)), ("ExcLie", ("G2", 2)),
}


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
    if f in ("PSp", "POmega"):
        # |Ω(2m+1,q)| = |PSp(2m,q)| (the two families meet only for odd q)
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
        return _SPORADIC_ORDER[par[0]]
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


def _order_table() -> dict[int, list[SimpleName]]:
    """The sporadic groups by order."""
    return {o: [SimpleName("Sporadic", (tag,))]
            for tag, o in _SPORADIC_ORDER.items()}


def _lie_names(p: int, a: int):
    """Every name of Lie type in characteristic p whose order has p-part
    p^a: the p-part is q^N, N the number of positive roots."""
    def ranks(first, positive_roots):
        r = first
        while positive_roots(r) <= a:
            if a % positive_roots(r) == 0:
                yield r, p ** (a // positive_roots(r))
            r += 1

    for d, q in ranks(2, lambda d: d * (d - 1) // 2):
        yield SimpleName("PSL", (d, q))
        if d >= 3:
            yield SimpleName("PSU", (d, q))
    for m, q in ranks(2, lambda m: m * m):
        yield SimpleName("PSp", (2 * m, q))
        if m >= 3 and p > 2:
            yield SimpleName("POmega", (2 * m + 1, q))
    for d, q in ranks(4, lambda d: d * (d - 1)):
        yield SimpleName("POmegaPlus", (2 * d, q))
        yield SimpleName("POmegaMinus", (2 * d, q))
    for typ, n in (("G2", 6), ("F4", 24), ("E6", 36)):
        if a % n == 0:
            yield SimpleName("ExcLie", (typ, p ** (a // n)))


def _candidates(order: int, degree: int) -> list[SimpleName]:
    """Every canonical name of a simple group of this order, or none if a
    prime above ``degree`` divides the order."""
    names = list(_order_table().get(order, []))
    m, o = 5, 60
    while o < order:
        m += 1
        o *= m
    if o == order:
        names.append(SimpleName("Alt", (m,)))
    rest, p = order, 1
    while rest > 1:
        p += 1
        if p * p > rest:  # rest is prime
            p = rest
        if p > degree:
            return []
        a = 0
        while rest % p == 0:
            rest //= p
            a += 1
        if a:
            names += [nm for nm in _lie_names(p, a)
                      if (nm.family, nm.params) not in _EXCLUDED
                      and simple_order(nm) == order]
    return names


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
    conjs = [conjugator(s) for s in G.generators]
    tree = class_tree(power(g, o // 5).table, conjs, ALT8_CLASS_OF_5)
    if tree is None:
        return False
    assert len(tree) == ALT8_CLASS_OF_5, "order-5 class of a group of order 20160"
    return True


def name_simple(G: PermGroup) -> SimpleName:
    """Canonical name of a permutation group found simple by the caller."""
    order = G.order()
    names = _candidates(order, G.degree)
    if not names:
        raise UnsupportedCase(
            f"order {order} at degree {G.degree} is the order of no named "
            "simple group")
    if len(names) == 1:
        return names[0]
    families = sorted(nm.family for nm in names)
    if families == ["POmega", "PSp"]:
        raise UnsupportedCase(
            f"order {order} coincides with an odd-dimensional orthogonal "
            f"group: {names[0]} and {names[1]} have this order")
    assert order == 20160 and families == ["Alt", "PSL"], (
        f"unexpected order collision at {order}: {names}")
    alt8, psl34 = names
    return alt8 if _is_alt8(G) else psl34


# μ(S) of single groups: M11, M12, ON and G2(3) from the ATLAS (Conway et
# al. 1985), Ω+(8,2) and PSU(3,5) from the classical degree table
_MU_CONSTANT = {
    SimpleName("POmegaPlus", (8, 2)): 120,
    SimpleName("PSU", (3, 5)): 50,
    SimpleName("Sporadic", ("M11",)): 11,
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

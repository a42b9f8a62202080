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

μ values ship in data/mu_table.json so the entries can be diffed against
the literature; every row carries a formula id and a provenance tag.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from pathlib import Path

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


def _emit(table, name: SimpleName, ambiguous: bool = False):
    if (name.family, name.params) in _ALIASED_OUT:
        return False
    o = simple_order(name)
    if o > MAX_TABLE_ORDER:
        return False
    table.setdefault(o, []).append((name, ambiguous))
    return True


@lru_cache(maxsize=1)
def _order_table() -> dict[int, list[tuple[SimpleName, bool]]]:
    table: dict[int, list[tuple[SimpleName, bool]]] = {}
    n = 5
    while _emit(table, SimpleName("Alt", (n,))):
        n += 1

    def sweep(make, q_start=2, skip=()):
        any_fit = False
        for q in _prime_powers():
            if q < q_start:
                continue
            name, ambiguous = make(q)
            if name.params in skip:
                continue
            if simple_order(name) > MAX_TABLE_ORDER:
                break
            _emit(table, name, ambiguous)
            any_fit = True
        return any_fit

    d = 2
    while sweep(lambda q, d=d: (SimpleName("PSL", (d, q)), False),
                q_start=4 if d == 2 else 2):
        d += 1
    m = 2
    while sweep(lambda q, m=m: (SimpleName("PSp", (2 * m, q)),
                                q % 2 == 1 and m >= 3),
                skip={(4, 2)}):
        m += 1
    for fam in ("POmegaPlus", "POmegaMinus"):
        d = 4
        while sweep(lambda q, d=d, fam=fam: (SimpleName(fam, (2 * d, q)), False)):
            d += 1
    d = 3
    while sweep(lambda q, d=d: (SimpleName("PSU", (d, q)), False),
                skip={(3, 2)}):
        d += 1
    sweep(lambda q: (SimpleName("ExcLie", ("G2", q)), False), q_start=3)
    sweep(lambda q: (SimpleName("ExcLie", ("F4", q)), False))
    sweep(lambda q: (SimpleName("ExcLie", ("E6", q)), False))
    for tag in ("M12", "ON"):
        _emit(table, SimpleName("Sporadic", (tag,)))

    _self_check(table)
    return table


def _self_check(table):
    """Order lookup must be injective apart from the known 20160 pair."""
    for o, entries in table.items():
        if len(entries) == 1:
            continue
        names = sorted(str(name) for name, _ in entries)
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
    if any(amb for _, amb in entries):
        raise UnsupportedCase(
            f"order {order} coincides with an odd-dimensional orthogonal group")
    if len(entries) == 1:
        return entries[0][0]
    assert order == 20160
    alt8 = next(nm for nm, _ in entries if nm.family == "Alt")
    psl34 = next(nm for nm, _ in entries if nm.family == "PSL")
    return alt8 if _is_alt8(G) else psl34


@lru_cache(maxsize=1)
def _mu_table() -> list[dict]:
    path = Path(__file__).parent / "data" / "mu_table.json"
    entries = json.loads(path.read_text())
    for entry in entries:
        assert entry["formula"] in ("n", "psl2_exceptional", "q_plus_1",
                                    "projective_points", "const",
                                    "omega_plus_q3", "omega8_large_q")
    return entries


def _entry_matches(entry: dict, name: SimpleName) -> bool:
    if entry["family"] != name.family:
        return False
    f, par = name.family, name.params
    if f == "Alt":
        n = par[0]
        return n >= entry.get("n_min", 5)
    if f == "PSL":
        d, q = par
        if "d" in entry and d != entry["d"]:
            return False
        if d < entry.get("d_min", 2):
            return False
        if "q_in" in entry and q not in entry["q_in"]:
            return False
        if q < entry.get("q_min", 2):
            return False
        return True
    if f == "PSp":
        n, q = par
        if n != entry.get("n", n):
            return False
        p, e = prime_power(q)
        if "p" in entry and p != entry["p"]:
            return False
        return e >= entry.get("e_min", 1)
    if f == "POmegaPlus":
        n, q = par
        if "n" in entry and n != entry["n"]:
            return False
        if n < entry.get("n_min", 8):
            return False
        if "q" in entry and q != entry["q"]:
            return False
        return q >= entry.get("q_min", 2)
    if f == "PSU":
        d, q = par
        return d == entry.get("d") and q == entry.get("q")
    if f == "Sporadic":
        return par[0] == entry.get("tag")
    if f == "ExcLie":
        return par[0] == entry.get("type") and par[1] == entry.get("q")
    return False


def mu_simple(name: SimpleName) -> int:
    """μ(S): the minimal faithful permutation degree of the named group."""
    for entry in _mu_table():
        if not _entry_matches(entry, name):
            continue
        formula = entry["formula"]
        if formula == "n":
            return name.params[0]
        if formula == "psl2_exceptional":
            return entry["values"][str(name.params[1])]
        if formula == "q_plus_1":
            return name.params[1] + 1
        if formula == "projective_points":
            d, q = name.params
            return (q ** d - 1) // (q - 1)
        if formula == "omega_plus_q3":
            d = name.params[0] // 2
            return 3 ** (d - 1) * (3 ** d - 1) // 2
        if formula == "omega8_large_q":
            q = name.params[1]
            return (q ** 4 - 1) * (q ** 3 + 1) // (q - 1)
        if formula == "const":
            return entry["value"]
    raise UnsupportedCase(f"no verified minimal degree for {name}")

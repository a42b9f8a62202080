"""Permutations of a fixed finite domain.

Points are 0-based internally; cycle notation uses 1-based points.
Composition is left-to-right: (a * b) means "apply a, then b".

A permutation's image table ``table`` is ``bytes`` up to degree 256 and a
tuple of ints above.  Up to degree 256 a product is one ``bytes.translate``
through b's table padded with the fixed points n..255 (``PAD``), and an
inverse is ``bytes.maketrans``, both loops in C.  Above 256 a byte cannot
hold a point, and a product is the gather ``itemgetter(*a)(b)``.  Only
this module knows the format: other modules read ``table`` as a sequence
of ints and use it as a hashable key, and list a group's elements through
``right_closure``.  Bytes compare like tuples of ints, so sorting by
``table`` sorts by images at every degree.  ``images`` is the same table
as a tuple, for readers outside the hot loops.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, reduce
from math import lcm
from operator import index, itemgetter
from typing import Callable, Sequence

_CYCLE_RE = re.compile(r"\(([^()]*)\)")

# the identity table of Sym(256): PAD[:n] is the identity of degree n, and
# _TAIL[n] = PAD[n:] pads a table of degree n to a translation table (kept
# sliced, as a slice per product costs a third of a product at degree 21)
PAD = bytes(range(256))
_TAIL = [PAD[n:] for n in range(257)]

Table = bytes | tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Permutation:
    """An element of Sym(n), stored as an image table.

    ``Permutation(images)`` takes any sequence of ints and checks that it
    is a bijection of {0,...,n-1}.
    """

    table: Table

    def __post_init__(self):
        images = [index(x) for x in self.table]
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(n)):
            raise ValueError("images must be a bijection of {0,...,n-1}")
        _set_table(self, bytes(images) if n <= 256 else tuple(images))

    @property
    def images(self) -> tuple[int, ...]:
        """The image table as a tuple of ints."""
        return tuple(self.table)

    @property
    def degree(self) -> int:
        return len(self.table)

    def is_identity(self) -> bool:
        return self.table == _identity_table(len(self.table))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its smallest point."""
        table = self.table
        seen = [False] * len(table)
        out = []
        for start in range(len(table)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = table[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = table[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({self!s}, degree={self.degree})"


_new = object.__new__
_set_table = Permutation.table.__set__  # the slot, past the frozen check


@cache
def _identity_table(degree: int) -> Table:
    return PAD[:degree] if degree <= 256 else tuple(range(degree))


def _from_table(table: Table) -> Permutation:
    """Wrap an image table known to be a bijection, skipping validation.

    Only for tables of this module's format computed from valid
    permutations of one degree (products, inverses, listings); input from
    outside goes through Permutation().
    """
    p = _new(Permutation)
    _set_table(p, table)
    return p


def identity(degree: int) -> Permutation:
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return _from_table(_identity_table(degree))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Left-to-right product: apply a first, then b."""
    ta, tb = a.table, b.table
    n = len(ta)
    if n != len(tb):
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    if n <= 256:
        return _from_table(ta.translate(tb + _TAIL[n]))
    return _from_table(itemgetter(*ta)(tb))


def inverse(a: Permutation) -> Permutation:
    ta = a.table
    n = len(ta)
    if n <= 256:
        return _from_table(bytes.maketrans(ta, PAD[:n])[:n])
    inv = [0] * n
    for i, x in enumerate(ta):
        inv[x] = i
    return _from_table(tuple(inv))


def compose3(a: Permutation, b: Permutation, c: Permutation) -> Permutation:
    """Left-to-right product a * b * c in one pass."""
    ta, tb, tc = a.table, b.table, c.table
    n = len(ta)
    if not n == len(tb) == len(tc):
        raise ValueError(f"degree mismatch: {a.degree}, {b.degree}, {c.degree}")
    if n <= 256:
        tail = _TAIL[n]
        return _from_table(ta.translate(tb + tail).translate(tc + tail))
    return _from_table(itemgetter(*itemgetter(*ta)(tb))(tc))


def conjugator(g: Permutation) -> Callable[[Table], Table]:
    """x -> the table of g^-1 x g, on tables of g's degree."""
    pre = inverse(g).table
    n = len(pre)
    if n <= 256:
        tail = _TAIL[n]
        post = g.table + tail
        return lambda x: pre.translate(x + tail).translate(post)
    gather, post = itemgetter(*pre), g.table
    return lambda x: itemgetter(*gather(x))(post)


def right_closure(
    degree: int, generators: Sequence[Permutation]
) -> tuple[list[Permutation], list[list[int]]]:
    """The elements of <generators>, found by closing the identity under
    right multiplication by each generator, in the order found, and for the
    i-th element the indices of its products with each generator.

    For degree at most 256, where each product is one ``translate``.
    """
    if degree > 256:
        raise ValueError("right_closure needs degree at most 256")
    ident = PAD[:degree]
    pads = [g.table + _TAIL[degree] for g in generators]
    found = {ident: 0}
    queue = [ident]
    prods = []
    for x in queue:
        row = []
        for p in pads:
            y = x.translate(p)
            j = found.get(y)
            if j is None:
                j = found[y] = len(queue)
                queue.append(y)
            row.append(j)
        prods.append(row)
    return [_from_table(x) for x in queue], prods


def element_order(a: Permutation) -> int:
    return reduce(lcm, (len(c) for c in a.cycles()), 1)


def power(a: Permutation, k: int) -> Permutation:
    """a^k for k >= 0."""
    images = list(a.table)
    for cyc in a.cycles():
        for j, x in enumerate(cyc):
            images[x] = cyc[(j + k) % len(cyc)]
    return _from_table(bytes(images) if len(images) <= 256 else tuple(images))


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation with 1-based points; "()" is the identity."""
    text = text.strip()
    if degree < 1:
        raise ValueError("degree must be at least 1")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    used: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        pts = [tok for tok in re.split(r"[,\s]+", body.strip()) if tok]
        if not pts:
            continue  # "()" — empty cycle, identity contribution
        cyc = []
        for tok in pts:
            if not tok.isdigit():
                raise ValueError(f"malformed point {tok!r} in {text!r}")
            p = int(tok) - 1
            if not 0 <= p < degree:
                raise ValueError(f"point {tok} out of range 1..{degree}")
            if p in used:
                raise ValueError(f"repeated point {tok} in {text!r}")
            used.add(p)
            cyc.append(p)
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)

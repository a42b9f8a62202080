"""Permutations of a fixed finite domain.

Points are 0-based internally; cycle notation uses 1-based points.
Composition is left-to-right: (a * b) means "apply a, then b".

A product is a gather: the images of a * b are b's image table read at
a's images, ``itemgetter(*a.images)(b.images)``, so the loop over points
runs in C and the result is the same tuple at every degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, reduce
from math import lcm
from operator import itemgetter

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class Permutation:
    """An element of Sym(n), stored as an image table."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(self.images) != list(range(n)):
            raise ValueError("images must be a bijection of {0,...,n-1}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
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


@cache
def _identity_images(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def _unchecked(images: tuple[int, ...]) -> Permutation:
    """Wrap an image table known to be a bijection, skipping validation.

    Only for results computed from valid permutations of one degree
    (products, inverses); input from outside goes through Permutation().
    """
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def identity(degree: int) -> Permutation:
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return _unchecked(_identity_images(degree))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Left-to-right product: apply a first, then b."""
    if len(a.images) != len(b.images):
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    if len(a.images) == 1:  # itemgetter of one index returns a scalar
        return a
    return _unchecked(itemgetter(*a.images)(b.images))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * len(a.images)
    for i, x in enumerate(a.images):
        inv[x] = i
    return _unchecked(tuple(inv))


def compose3(a: Permutation, b: Permutation, c: Permutation) -> Permutation:
    """Left-to-right product a * b * c in one pass."""
    if not len(a.images) == len(b.images) == len(c.images):
        raise ValueError(f"degree mismatch: {a.degree}, {b.degree}, {c.degree}")
    if len(a.images) == 1:
        return a
    return _unchecked(itemgetter(*itemgetter(*a.images)(b.images))(c.images))


def element_order(a: Permutation) -> int:
    return reduce(lcm, (len(c) for c in a.cycles()), 1)


def power(a: Permutation, k: int) -> Permutation:
    """a^k for k >= 0, one cycle at a time."""
    images = list(a.images)
    for cyc in a.cycles():
        for j, x in enumerate(cyc):
            images[x] = cyc[(j + k) % len(cyc)]
    return _unchecked(tuple(images))


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
    return Permutation(tuple(images))

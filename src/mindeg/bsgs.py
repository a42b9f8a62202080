"""Stabilizer-chain engine for permutation groups.

Provides order, membership, normal closure, centralizer of a normal
subgroup, induced actions and preimages of point stabilizers under them.

The chain is grown in place by an incremental Schreier-Sims procedure.
``PermGroup.extend(g)`` sifts g through the chain; a nontrivial residue
becomes a strong generator of every level from the first down to the one
where it dropped out, and only the levels that changed are verified
again.  Building a chain installs the residue of each generator in the
same way and then verifies once from the deepest level.  Base points are
the smallest points moved by a residue.

Each level keeps its orbit as a Schreier tree ``point -> (parent,
generator index)`` (Seress, *Permutation Group Algorithms*, 2003, 4.1),
grown breadth-first in generator order; orbits only grow.  The coset
representative u with u(base) = point and its inverse are computed from
the parent's the first time they are read, and kept.
Adding a strong generator forms no products, and a sift forms only the
u^-1 of the points it meets, so an unverified chain that is only sifted
into computes few of them.  Verification, enumeration, coset
representatives and random elements fill a whole level first.  Each level also records
the Schreier pairs (orbit point, strong generator) it has checked, so a
pair is sifted once however often the level is revisited.  Verification
walks the levels bottom-up; when a Schreier generator leaves a
nontrivial residue, the residue is installed and verification restarts
at the deepest level that received it, so no deeper level is left with
unchecked pairs or a stale orbit.

``closure_has_order`` uses the same levels without verification.  When
the order of a normal subgroup containing y is known, random elements of
ncl_G(y) are sifted into an unverified chain; the product of its orbit
lengths is a lower bound on |ncl_G(y)|, so reaching the known order proves
the closure whole without checking a single Schreier pair (the known-order
test of Seress, *Permutation Group Algorithms*, 4.5).  Callers fall back
to the verified ``normal_closure`` when it gives up.

Stabilizers of group actions use exact orders as well, through one
routine: the orbit of a point x under C is grown as a Schreier tree, the
stabilizer of x has order exactly |C| / |x^C|, and Schreier generators
from the tree are added to a fresh group until that order is reached.  No
search is involved and no random element is drawn (Seress, ch. 6).
``centralizer_of_normal`` is a chain of such stabilizers in the
conjugation action, one per generator of the normal subgroup;
``preimage_of_stabilizer`` is one, in an action given by the images of
G's generators.

Other modules read a chain's orbits, point stabilizers and base only
through ``orbits``, ``point_stabilizer``, ``is_two_transitive`` and
``is_faithful_on_first``.

Before any class walk, ``centralizer_of_normal(G, H)`` tries to prove
C_G(H) = 1 from fixed points.  An element c of C_Sym(H) satisfies
H_(alpha^c) = H_alpha (Dixon and Mortimer, *Permutation Groups*, 1996,
Thm 4.2A), so alpha^c is fixed by H_alpha.  If, in each H-orbit, some
H_alpha fixes no point of supp(H) but alpha, then c fixes that alpha and,
commuting with H, its whole orbit: c fixes supp(H) pointwise.  When G
moves no point outside supp(H), such a c in G is the identity.  The first
orbit's H_alpha is read off H's chain, each further one costs one
stabilizer in the point action, and no conjugation is formed.
"""

from __future__ import annotations

import random
from collections import deque
from math import prod
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .perm import (
    Permutation, compose, compose3, conjugator, identity, inverse,
)

class _Level:
    __slots__ = ("base", "gens", "inverses", "tree", "reps", "rep_invs",
                 "points", "checked")

    def __init__(self, base: int, degree: int):
        ident = identity(degree)
        self.base = base
        self.gens: list[Permutation] = []
        self.inverses: list[Permutation] = []
        # the Schreier tree: orbit point -> (parent, generator index k), in
        # breadth-first discovery order; u(point) = u(parent) * gens[k]
        self.tree: dict = {base: None}
        # per point: u with u(base) = point and u^-1; fill() forms both for
        # every point, sifts form the u^-1 of the points they meet
        self.reps = {base: ident}
        self.rep_invs = {base: ident}
        # the orbit in sorted order, refreshed by fill()
        self.points = [base]
        # Schreier pairs (point, generator index) known to give an element
        # of the next level's group
        self.checked: set[tuple[int, int]] = set()

    def add_gen(self, g: Permutation, ginv: Permutation) -> None:
        """Append a strong generator and grow the tree breadth-first."""
        self.gens.append(g)
        self.inverses.append(ginv)
        tree = self.tree
        queue = deque()
        k = len(self.gens) - 1
        for x in list(tree):  # old points under the new generator
            y = g.table[x]
            if y not in tree:
                tree[y] = (x, k)
                queue.append(y)
        while queue:
            x = queue.popleft()
            for k, h in enumerate(self.gens):
                y = h.table[x]
                if y not in tree:
                    tree[y] = (x, k)
                    queue.append(y)

    def rep_inv(self, x) -> Permutation:
        """u(x)^-1, where u(x) sends the base to x, extended from the
        nearest ancestor of x whose u^-1 is known."""
        invs, path = self.rep_invs, []
        while x not in invs:
            path.append(x)
            x = self.tree[x][0]
        uinv = invs[x]
        for y in reversed(path):
            uinv = invs[y] = compose(self.inverses[self.tree[y][1]], uinv)
        return uinv

    def fill(self) -> None:
        """Sort the orbit into ``points`` and compute u and u^-1 of every
        orbit point, parents first."""
        tree, reps, invs = self.tree, self.reps, self.rep_invs
        if len(self.points) != len(tree):
            self.points = sorted(tree)
        if len(reps) == len(invs) == len(tree):
            return
        for y, edge in tree.items():
            if edge is not None:
                x, k = edge
                if y not in reps:
                    reps[y] = compose(reps[x], self.gens[k])
                if y not in invs:
                    invs[y] = compose(self.inverses[k], invs[x])


def _chain_order(levels) -> int:
    """Product of the orbit lengths; the order once the chain is verified."""
    return prod(len(lvl.tree) for lvl in levels)


def _smallest_moved_point(g: Permutation) -> int:
    return next(x for x, y in enumerate(g.table) if x != y)


class PermGroup:
    """A permutation group with a lazily built, extensible stabilizer chain."""

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        self.degree = degree
        self.generators = [g for g in generators if not g.is_identity()]
        for g in self.generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self._levels: Optional[list[_Level]] = None
        self._order: Optional[int] = None

    # -- chain construction -------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._build_chain()
        return self._levels

    def _sift(self, levels, g, start=0):
        """Sift g through levels[start:].

        Returns (residue, level-index). The index is the first level whose
        orbit cannot absorb the residue, or len(levels).  Only the u^-1 of
        the points met are computed.
        """
        for i in range(start, len(levels)):
            lvl = levels[i]
            x = g.table[lvl.base]
            if x == lvl.base:
                continue
            uinv = lvl.rep_invs.get(x)
            if uinv is None:
                if x not in lvl.tree:
                    return g, i
                uinv = lvl.rep_inv(x)
            g = compose(g, uinv)
        return g, len(levels)

    def _build_chain(self) -> None:
        levels: list[_Level] = []
        self._levels = levels
        for g in self.generators:
            self._install(levels, g, 0)
        self._verify(levels, len(levels) - 1)

    def extend(self, g: Permutation, bound: Optional[int] = None) -> bool:
        """Add g to the group unless it is already a member.

        Returns whether g was new; only then is it appended to
        ``generators``, and the chain is extended in place.  ``bound`` is
        the order of a group known to contain the result; verification
        stops once the chain's order reaches it.
        """
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        levels = self._chain()
        i = self._install(levels, g, 0)
        if i is None:
            return False
        self.generators.append(g)
        self._verify(levels, i, bound)
        return True

    def _verify(self, levels, i, bound: Optional[int] = None) -> None:
        """Check Schreier pairs from level i up to level 0.

        With ``bound``, the order of a group known to contain this one, the
        check stops as soon as the product of the orbit lengths reaches it:
        every strong generator lies in the group, so that product is a lower
        bound on its order (the known-order test of ``closure_has_order``),
        the group is then the whole bounding group, and each level already
        holds the true point stabilizer.  The Schreier pairs left unchecked
        all sift to the identity.
        """
        while i >= 0 and (bound is None or _chain_order(levels) < bound):
            j = self._check_level(levels, i)
            i = i - 1 if j is None else j
        self._order = _chain_order(levels)

    def _install(self, levels, g, start) -> Optional[int]:
        """Sift g from levels[start]; a nontrivial residue becomes a strong
        generator of levels 0..i.  Returns i, or None for members."""
        g, i = self._sift(levels, g, start)
        if g.is_identity():
            return None
        if i == len(levels):
            levels.append(_Level(_smallest_moved_point(g), self.degree))
        ginv = inverse(g)
        for lvl in levels[:i + 1]:
            lvl.add_gen(g, ginv)
        return i

    def _check_level(self, levels, i) -> Optional[int]:
        """Sift the unchecked Schreier generators of level i through the
        deeper levels.  Returns the deepest level that received a new strong
        generator, or None once every pair of level i checks out."""
        lvl = levels[i]
        lvl.fill()
        checked = lvl.checked
        # Points in sorted order, and all of a point's pairs before
        # descending: this order decides which residues become strong
        # generators, so changing it changes same-seed outputs.
        for x in lvl.points:
            ux = lvl.reps[x]
            failed_at = None
            for k, g in enumerate(lvl.gens):
                if (x, k) in checked:
                    continue
                checked.add((x, k))
                y = g.table[x]
                s = compose3(ux, g, lvl.rep_inv(y))
                if s.is_identity():
                    continue
                j = self._install(levels, s, i + 1)
                if j is not None and (failed_at is None or j > failed_at):
                    failed_at = j
            if failed_at is not None:
                return failed_at
        return None

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        self._chain()
        return self._order

    def member(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._sift(self._chain(), g)[0].is_identity()

    def contains(self, g: Permutation):
        """Return (g in the group, h): h is the group element that the sift
        matched to g, the one that agrees with g on every base point, or
        None when g sends a base point out of its level's orbit."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        levels = self._chain()
        res, i = self._sift(levels, g)
        if i < len(levels):
            return False, None
        if res.is_identity():
            return True, g
        # res = compose(g, h^-1) fixes every base point
        return False, compose(inverse(res), g)

    def coset_rep(self, g: Permutation) -> Permutation:
        """The canonical element of the coset {compose(k, g) : k in self}.

        Level by level, the coset element sending the base point to the
        least image is kept; the rest of the coset differs from it by the
        level's stabilizer (Seress, *Permutation Group Algorithms*, 2003).
        """
        for lvl in self._chain():
            lvl.fill()
            y = min(lvl.tree, key=g.table.__getitem__)
            if y != lvl.base:
                g = compose(lvl.reps[y], g)
        return g

    def elements(self) -> Iterator[Permutation]:
        """Iterate over all group elements via the chain."""
        levels = self._chain()
        # an element is u_{k-1} * ... * u_0 (deepest transversal applied first)
        yield from _enumerate(levels, identity(self.degree), len(levels) - 1)

    def _random_picks(self, rng: random.Random) -> list:
        """(level, orbit point) for one uniform pick per level, first
        level first: the element u_(k-1) * ... * u_0 of their transversal
        elements is uniform in the group."""
        picks = []
        for lvl in self._chain():
            lvl.fill()
            picks.append((lvl, rng.choice(lvl.points)))
        return picks

    def random_element(self, rng: random.Random) -> Permutation:
        g = identity(self.degree)
        for lvl, x in self._random_picks(rng):
            g = compose(lvl.reps[x], g)
        return g

    def random_conjugate(self, y: Permutation,
                         rng: random.Random) -> Permutation:
        """g^-1 y g for the g that ``random_element`` draws with the same
        rng calls, conjugated by one transversal element at a time from
        the cached u and u^-1, so no inverse is formed."""
        for lvl, x in reversed(self._random_picks(rng)):
            y = compose3(lvl.rep_invs[x], y, lvl.reps[x])
        return y

    def is_trivial(self) -> bool:
        return self.order() == 1

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def _enumerate(levels, start, top):
    """Yield all products start * u_{top} * ... * u_0 (deepest applied first)."""
    for lvl in levels[:top + 1]:
        lvl.fill()
    stack = [(top, start)]
    while stack:
        i, prefix = stack.pop()
        if i < 0:
            yield prefix
            continue
        for x in reversed(levels[i].points):
            stack.append((i - 1, compose(prefix, levels[i].reps[x])))


# ---------------------------------------------------------------------------
# Module-level operations


def build_group(degree: int, generators: Iterable[Permutation]) -> PermGroup:
    G = PermGroup(degree, generators)
    G._chain()
    return G


def normal_closure(G: PermGroup, seeds: Sequence[Permutation]) -> PermGroup:
    """Smallest subgroup containing the seeds and normalized by G."""
    for s in seeds:
        if not G.member(s):
            raise ValueError("seed element not in G")
    N = PermGroup(G.degree, seeds)
    pairs = [(inverse(g), g) for g in G.generators]
    changed = True
    while changed:
        changed = False
        for ginv, g in pairs:
            for s in list(N.generators):
                if N.extend(compose3(ginv, s, g)):
                    changed = True
    return N


# Consecutive sifts that leave the unverified chain unchanged before
# ``closure_has_order`` gives up.  While the chain falls short of a whole
# closure, a uniform element of the closure sifts to the identity with
# probability at most 1/2.  Over one `mu` run each (PSL34_2 with its hint,
# M12, A5wrZ2 and A7 x A7 on 14 points), calls whose closure was whole gave
# up in 0/534, 3/531, 1/41 and 0/70 cases with 8 allowed, against 129/534,
# 145/531, 10/41 and 7/70 with 2 allowed.
CLOSURE_STALE_SIFTS = 8


def closure_has_order(G: PermGroup, y: Permutation, order: int,
                      rng: random.Random) -> bool:
    """Whether ncl_G(y) is proved to have the given order.

    Precondition: y lies in a normal subgroup of G of that order.  Sifts a
    running product of random conjugates y^g into an unverified chain (no
    Schreier pairs are checked).  Distinct products of its transversal
    elements are distinct elements of ncl_G(y), so the product of the orbit
    lengths bounds |ncl_G(y)| from below; once it reaches ``order`` the
    closure is the whole normal subgroup.  False means undecided: after
    ``CLOSURE_STALE_SIFTS`` sifts in a row that do not extend the chain it
    gives up, and the closure may still be whole.
    """
    levels: list[_Level] = []  # G._install grows these, not G's chain
    x = identity(G.degree)
    stale = 0
    while stale < CLOSURE_STALE_SIFTS:
        x = compose(x, G.random_conjugate(y, rng))
        if G._install(levels, x, 0) is None:
            stale += 1
        elif _chain_order(levels) == order:
            return True
        else:
            stale = 0
    return False


def normalizes(G: PermGroup, H: PermGroup) -> bool:
    """Whether G normalizes H: each g^-1 h g of generators lies in H."""
    for g in G.generators:
        ginv = inverse(g)
        if not all(H.member(compose3(ginv, h, g)) for h in H.generators):
            return False
    return True


def moved_points(gens: Iterable[Permutation]) -> set[int]:
    """The points that some permutation in gens moves."""
    return {x for g in gens for x, y in enumerate(g.table) if x != y}


def orbits(H: PermGroup) -> list[list[int]]:
    """The orbits of H on supp(H), each in breadth-first order from its
    first point: the first level's tree, which starts at the first base
    point, then the other orbits by least point."""
    result = [list(lvl.tree) for lvl in H._chain()[:1]]
    seen = set().union(*result)
    maps = [g.table.__getitem__ for g in H.generators]
    for alpha in sorted(moved_points(H.generators)):
        if alpha not in seen:
            result.append(list(class_tree(alpha, maps)))
            seen.update(result[-1])
    return result


def point_stabilizer(H: PermGroup, alpha: int) -> PermGroup:
    """H_alpha.  For the first base point these are the strong generators
    of the second level, and no chain is built."""
    levels = H._chain()
    if levels and alpha == levels[0].base:
        return PermGroup(H.degree, levels[1].gens if len(levels) > 1 else ())
    return _stabilizer(H, alpha, [g.table.__getitem__ for g in H.generators])


def is_two_transitive(H: PermGroup) -> bool:
    """Whether H is 2-transitive on supp(H): transitive, and the stabilizer
    of the first base point has an orbit of all |supp(H)| - 1 others."""
    n = len(moved_points(H.generators))
    # a trivial stabilizer has no level; its orbits are single points
    sizes = [len(lvl.tree) for lvl in H._chain()[:2]] + [1]
    return sizes[:2] == [n, n - 1]


def is_faithful_on_first(H: PermGroup, n: int) -> bool:
    """Whether only the identity of H fixes each of the points 0..n-1.

    Base points are least moved points of residues, which are elements of
    H, so a base point n or above belongs to a nontrivial element fixing
    0..n-1; and a base below n leaves no such element but the identity.
    """
    return all(lvl.base < n for lvl in H._chain())


def _centralizer_is_trivial(G: PermGroup, H: PermGroup) -> bool:
    """Whether the fixed points of H's point stabilizers prove C_G(H) = 1.

    If c centralizes H, then H_(alpha^c) = H_alpha^c = H_alpha, so alpha^c
    is a point of supp(H) fixed by H_alpha (Dixon and Mortimer, 1996, Thm
    4.2A).  When H_alpha fixes no other point of supp(H), c fixes alpha
    and, commuting with H, its whole H-orbit.  True when that holds for one
    alpha in each H-orbit and G moves only points of supp(H): then every
    element of C_G(H) fixes every point.  False leaves the question open.
    """
    support = moved_points(H.generators)
    if not support or not moved_points(G.generators) <= support:
        return False
    return all(support - moved_points(point_stabilizer(H, o[0]).generators)
               == {o[0]} for o in orbits(H))


def centralizer_of_normal(G: PermGroup, H: PermGroup) -> PermGroup:
    """C_G(H) for H normalized by G, as a chain of exact stabilizers.

    First the fixed-point test of ``_centralizer_is_trivial``: an element
    of C_Sym(H) that fixes a point of each H-orbit fixes supp(H)
    pointwise, and G fixes everything else, so when each orbit has a point
    alpha that H_alpha alone fixes in supp(H), C_G(H) = 1 with no class
    walk.  Otherwise C_G(H) is the intersection of the stabilizers, under
    conjugation, of H's generators.  C starts as G, and each generator h
    in turn replaces C by its stabilizer in C, whose order is exactly
    |C| / |h^C|.
    """
    if not normalizes(G, H):
        raise ValueError("precondition failed: G does not normalize H")
    if _centralizer_is_trivial(G, H):
        return PermGroup(G.degree)
    C = G
    for h in H.generators:
        if C.is_trivial():
            break
        C = _stabilizer(C, h.table, [conjugator(g) for g in C.generators])
    return C


def class_tree(x, maps: Sequence[Callable],
               limit: Optional[int] = None) -> Optional[dict]:
    """The orbit of the hashable point x under the given maps, as a
    Schreier tree (a conjugacy class when the maps are conjugators).

    Maps each member to None for x itself, and otherwise to (y, k) where
    the member is maps[k](y); the keys are in breadth-first discovery
    order.  None once the orbit has more than ``limit`` members.
    """
    tree = {x: None}
    members = [x]
    for y in members:
        for k, act in enumerate(maps):
            z = act(y)
            if z not in tree:
                if len(members) == limit:
                    return None
                tree[z] = (y, k)
                members.append(z)
    return tree


def _stabilizer(C: PermGroup, x, maps: Sequence[Callable]) -> PermGroup:
    """{c in C : c fixes x}, proved whole by its order |C| / |x^C|.

    maps[k] is the action of C.generators[k] on hashable points.  In the
    orbit tree of x, the path u_y to a point y, read as a word in C's
    generators, takes x to y.  Schreier generators u_y g u_z^-1, with
    z = y^g, fix x and generate the stabilizer (Schreier's lemma); they
    are added to a fresh group until it reaches the known order, and each
    addition is verified only until then.
    """
    gens = C.generators
    tree = class_tree(x, maps)
    if len(tree) == 1:
        return C
    invs = [inverse(g) for g in gens]
    target = C.order() // len(tree)
    S = PermGroup(C.degree)
    if S.order() == target:
        return S
    ident = identity(C.degree)

    def path(y, uinv):
        # u_y, or u_y^-1, from the tree path read back from y to x
        w = ident
        while tree[y] is not None:
            y, k = tree[y]
            w = compose(w, invs[k]) if uinv else compose(gens[k], w)
        return w

    for y in tree:
        u = path(y, False)
        for g, act in zip(gens, maps):
            s = compose3(u, g, path(act(y), True))
            if S.extend(s, target) and S.order() == target:
                return S
    raise AssertionError("Schreier generators fell short of the stabilizer")


# ---------------------------------------------------------------------------
# Induced actions


def induced_action(G: PermGroup, objects: Sequence, act: Callable
                   ) -> list[Permutation]:
    """Action of G on a list of objects; act(g, obj) -> obj.

    Returns the image of each generator of G as a permutation of the
    object indices.
    """
    index = {obj: i for i, obj in enumerate(objects)}
    m = len(objects)
    images = []
    for g in G.generators:
        im = [index[act(g, obj)] for obj in objects]
        if sorted(im) != list(range(m)):
            raise ValueError("action rule is not a bijection of the objects")
        images.append(Permutation(tuple(im)))
    return images


def preimage_of_stabilizer(G: PermGroup, images: Sequence[Permutation],
                           point: int) -> PermGroup:
    """{g in G : the induced image of g fixes point}.

    ``images`` holds the image of each generator of G, as returned by
    ``induced_action``.
    """
    if len(images) != len(G.generators):
        raise ValueError("one image per generator of G required")
    return _stabilizer(G, point, [im.table.__getitem__ for im in images])

"""Small groups materialized as Cayley tables.

Covers element listing for permutation groups and small quotients G/K,
brute-force subgroup enumeration, and isomorphism search by
generator-image enumeration.  A table is built from its generator
columns, walking the Cayley graph (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005): only the products x·g of each element
x with each generator g are formed from permutations or cosets, and
every other column, and then every row, is one gather along a spanning
tree from the identity.  The cosets of a quotient are keyed by their
canonical representatives ``PermGroup.coset_rep``, and every table is
checked by one exact associativity test, Light's test over a generating
set.

The representation follows the order m, as ``perm`` does for degrees.
Each row and each column of a table, and each list of elements, is
``bytes`` up to order 256 and a tuple of ints above.  Up to 256 a gather
is one ``bytes.translate`` through a table padded to 256 bytes, the
elements of one list missing from another are one ``translate`` that
deletes them, and the sorted members of a list are two; above 256 the
same steps are ``itemgetter`` and set operations.  Past the choice of
``bytes`` or ``tuple`` by order (``CayleyGroup.pack``), only ``_at``,
``_minus``, ``_sorted``, ``_lookup``, ``_grow`` and ``_cat`` know the
format.  A subgroup is keyed by its sorted element list.

Every subgroup closure, from greedy generating sets to subgroup joins,
is the right-multiplication closure ``_join``, and every conjugacy class
of subgroups is closed by ``_conjugates``.  Subgroups are enumerated one
conjugacy class at a time (Neubüser 1960; Handbook, §10.1): only one
representative H0 per class is joined with the prime-power cyclic
subgroups, and each new join brings its whole class.  For n in N_G(H0),
<H0, c^n> = <H0, c>^n, so the cyclic subgroups of one N_G(H0)-orbit
give one class of joins, and H0 is joined with one of each orbit.  The
normalizer is read off the generators carried with H0.  The isomorphism
search drops a generator image as soon as the order of its product with
an earlier image differs from the order of the same product in the
source.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, filterfalse, product
from math import prod
from operator import getitem, index, itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .bsgs import PermGroup, normalizes
from .errors import LimitExceededError
from .fflinalg import prime_power
from .perm import PAD, _TAIL, compose, identity, right_closure

# A list of group elements (a row or column of a table, a subgroup):
# bytes up to order 256, a tuple above.
Elements = bytes | tuple[int, ...]


def _at(xs: Elements) -> Callable[[Elements], Elements]:
    """The gather seq -> (seq[x] for x in xs), packed like xs."""
    if type(xs) is bytes:
        return lambda seq: xs.translate(seq + _TAIL[len(seq)])
    if len(xs) > 1:
        return itemgetter(*xs)
    return lambda seq: tuple(seq[x] for x in xs)


def _lookup(xs: Elements):
    """A container of the elements of xs for ``in`` and ``_minus``."""
    return xs if type(xs) is bytes else frozenset(xs)


def _grow(xs: Elements):
    """A growing container of the elements of xs, for ``in``, ``_minus``
    and ``_sorted``, with its method that adds the elements of a list: a
    bytearray for bytes, a set for a tuple."""
    if type(xs) is bytes:
        seen = bytearray(xs)
        return seen, seen.extend
    seen = set(xs)
    return seen, seen.update


def _cat(parts: list[Elements]) -> Elements:
    """The lists in ``parts`` one after another."""
    if type(parts[0]) is bytes:
        return b"".join(parts)
    return tuple(chain.from_iterable(parts))


def _minus(xs: Elements, seen) -> Elements:
    """The elements of xs that are not in ``seen`` (from ``_lookup`` or
    ``_grow``), in the order of xs."""
    if type(xs) is bytes:
        return xs.translate(None, seen)
    return tuple(filterfalse(seen.__contains__, xs))


def _sorted(xs) -> Elements:
    """The distinct elements of xs (packed or from ``_grow``), ascending."""
    if isinstance(xs, (bytes, bytearray)):
        return PAD.translate(None, PAD.translate(None, xs))
    return tuple(sorted(set(xs)))


def _check_permutations(lines, m: int):
    """Raise ValueError unless every line is a permutation of range(m)."""
    ident = PAD[:m] if m <= 256 else tuple(range(m))
    if not all(_sorted(line) == ident for line in lines):
        raise ValueError("table rows/columns are not permutations")


class CayleyGroup:
    """A group of order m given by its multiplication table.

    Element 0 is the identity; ``table[i][j]`` is the product "i then j"
    (matching the left-to-right convention for permutations), and
    ``columns[j][i]`` is the same product.  ``CayleyGroup(table)`` reads
    any square table of ints (lists, int buffers, arrays) and checks that
    it is a group.
    """

    def __init__(self, table: Sequence[Sequence[int]],
                 elements: Optional[list] = None):
        m = len(table)
        pack = bytes if m <= 256 else tuple
        rows = [pack([index(x) for x in row]) for row in table]
        if not m or any(len(row) != m for row in rows):
            raise ValueError("table must be square")
        cols = [pack(col) for col in zip(*rows)]
        _check_permutations(chain(rows, cols), m)
        self._setup(rows, cols, elements)

    @classmethod
    def _from_rows(cls, rows: list, columns: list,
                   elements: Optional[list] = None) -> CayleyGroup:
        """A table from ``_table_from_columns``, its rows and columns
        packed already and permutations (that function checks them)."""
        C = object.__new__(cls)
        C._setup(rows, columns, elements)
        return C

    def _setup(self, rows, columns, elements):
        m = len(rows)
        self.order = m
        self.pack = bytes if m <= 256 else tuple
        self.everything = PAD[:m] if m <= 256 else tuple(range(m))
        self.table = rows
        self.columns = columns
        self.elements = elements
        self._validate()
        # 0 is in each row once, at the inverse
        self.inverse = self.pack([row.index(0) for row in rows])
        self._orders: Optional[list[int]] = None
        self._class_data = None

    def _validate(self):
        rows, cols, ident = self.table, self.columns, self.everything
        if rows[0] != ident or cols[0] != ident:
            raise ValueError("element 0 is not the identity")
        # Light's test: (xa)z = x(az) for all x, z and each generator a.
        # The elements a passing it are closed under products, and every
        # element is a product of the greedy generators, so it is exact.
        for a in self.generating_set():
            through_a = _at(rows[a])
            if not all(rows[xa] == through_a(row)
                       for xa, row in zip(cols[a], rows)):
                raise ValueError("table is not associative")

    def conjugation(self, n: int) -> Elements:
        """The map x -> x^n = (n^-1 x) n, as the list of images."""
        return _at(self.table[self.inverse[n]])(self.columns[n])

    def conjugates_of(self, x: int, ns: Elements) -> Iterator[int]:
        """The elements x^n = (n^-1 x) n for n in ns."""
        left = _at(_at(ns)(self.inverse))(self.columns[x])
        return map(getitem, map(self.table.__getitem__, left), ns)

    # -- cached element statistics -----------------------------------------

    def element_orders(self) -> list[int]:
        if self._orders is None:
            orders = []
            for x, col in enumerate(self.columns):
                k, y = 1, x
                while y != 0:
                    y = col[y]
                    k += 1
                orders.append(k)
            self._orders = orders
        return self._orders

    def conjugacy_data(self):
        """(class id per element = min class member, class size per element)."""
        if self._class_data is None:
            m, rows = self.order, self.table
            class_id = [-1] * m
            class_size = [0] * m
            for x in range(m):
                if class_id[x] >= 0:
                    continue
                # g^-1 x for every g, then times g
                left = _at(self.inverse)(self.columns[x])
                cls = {rows[y][g] for g, y in enumerate(left)}
                least = min(cls)
                for y in cls:
                    class_id[y] = least
                    class_size[y] = len(cls)
            self._class_data = (class_id, class_size)
        return self._class_data

    def generating_set(self) -> list[int]:
        """Greedy generating set of at most ceil(log2 m) elements."""
        gens: list[int] = []
        members = self.pack([0])
        inside = _lookup(members)
        for x in range(1, self.order):
            if x not in inside:
                gens.append(x)
                members = _join(self, members, x)
                if len(members) == self.order:
                    break
                inside = _lookup(members)
        return gens


# ---------------------------------------------------------------------------
# Construction


@dataclass
class QuotientGroup:
    """A quotient G/K with K normal in G (verified at construction)."""

    G: PermGroup
    K: PermGroup

    def __post_init__(self):
        for k in self.K.generators:
            if not self.G.member(k):
                raise ValueError("K is not a subgroup of G")
        if not normalizes(self.G, self.K):
            raise ValueError("K is not normalized by G")

    def index(self) -> int:
        return self.G.order() // self.K.order()


def list_elements(X, bound: int) -> CayleyGroup:
    """Materialize a PermGroup or small QuotientGroup as a CayleyGroup.

    A permutation group lists the identity first and then its other
    elements sorted by image bytes; a quotient lists the identity coset,
    the generators' cosets, then products of earlier representatives.
    Only the generator columns x·g are formed from permutations; the
    rest of the table comes from them (``_table_from_columns``).
    """
    if isinstance(X, PermGroup):
        return _list_perm_group(X, bound)
    if isinstance(X, QuotientGroup):
        return _list_quotient(X, bound)
    raise TypeError("expected PermGroup or QuotientGroup")


def _table_from_columns(cols: list[list[int]]) -> tuple[list, list]:
    """The rows and columns of a Cayley table from its generator columns.

    ``cols[x][k]`` is the index of x·g_k for generators g_k of the group,
    and index 0 is the identity.  A spanning tree of the Cayley graph
    from the identity reaches each z as y·g_k.  Column z of the table is
    then column y followed by right multiplication by g_k, and row z is
    row g_k followed by row y (x·z = (x·y)·g_k and z·x = y·(g_k·x)): one
    gather each.  So every row and column is a product of the generators'
    rows and columns, and when these are permutations, all are.
    """
    m = len(cols)
    pack = bytes if m <= 256 else tuple
    right = [pack(c) for c in zip(*cols)]  # right[k][x] = x·g_k
    _check_permutations(right, m)
    by_col: list = [None] * m
    by_col[0] = PAD[:m] if m <= 256 else tuple(range(m))
    queue, tree = [0], []
    for y in queue:
        for k, z in enumerate(cols[y]):
            if by_col[z] is None:
                by_col[z] = _at(by_col[y])(right[k])
                queue.append(z)
                tree.append((z, y, k))
    if None in by_col:
        raise ValueError("the generators do not reach every element")
    # row g_k: g_k·x, read off the columns
    gen_rows = [pack([col[g] for col in by_col]) for g in cols[0]]
    _check_permutations(gen_rows, m)
    through = [_at(row) for row in gen_rows]
    by_row: list = [None] * m
    by_row[0] = by_col[0]
    for z, y, k in tree:
        by_row[z] = through[k](by_row[y])
    return by_row, by_col


def _list_perm_group(G: PermGroup, bound: int) -> CayleyGroup:
    if G.order() > bound:
        raise LimitExceededError(f"group order {G.order()} exceeds bound {bound}")
    if G.degree > 256:
        raise LimitExceededError("degree above 256 not supported for listing")
    els, prods = right_closure(G.degree, G.generators)
    n = len(els)
    # the identity first, then the rest by image table
    tables = [x.table for x in els]
    order = [0] + sorted(range(1, n), key=tables.__getitem__)
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    cols = [[pos[y] for y in prods[x]] for x in order]
    return CayleyGroup._from_rows(*_table_from_columns(cols),
                                  elements=[els[i] for i in order])


def _list_quotient(Q: QuotientGroup, bound: int) -> CayleyGroup:
    n = Q.index()
    if n > bound:
        raise LimitExceededError(f"quotient order {n} exceeds bound {bound}")
    if Q.K.is_trivial():
        return _list_perm_group(Q.G, bound)
    K, gens = Q.K, Q.G.generators
    # the cosets in breadth-first order, keyed by their canonical elements,
    # each with the word in the generators that reached it
    bfs = [identity(Q.G.degree)]
    words: list[tuple[int, ...]] = [()]
    index_of = {K.coset_rep(bfs[0]).table: 0}
    cols = []
    for x, word in zip(bfs, words):
        row = []
        for k, g in enumerate(gens):
            y = compose(x, g)
            key = K.coset_rep(y).table
            j = index_of.get(key)
            if j is None:
                j = index_of[key] = len(bfs)
                bfs.append(y)
                words.append(word + (k,))
            row.append(j)
        cols.append(row)

    def times(x, y):  # the coset x·y, along the word of y
        for k in words[y]:
            x = cols[x][k]
        return x

    # representatives in listing order: the identity, the generators, then
    # products of earlier representatives until every coset has one
    reps = [bfs[0]]
    order = [0]
    pos = [-1] * n
    pos[0] = 0

    def add(c, x, y):
        if pos[c] < 0:
            pos[c] = len(order)
            order.append(c)
            reps.append(compose(x, y))

    for k, g in enumerate(gens):
        add(cols[0][k], reps[0], g)
    while len(order) < n:
        for a, b in product(range(len(order)), repeat=2):
            add(times(order[a], order[b]), reps[a], reps[b])
            if len(order) == n:
                break
    # listed element a is the coset order[a]
    cols = [[pos[y] for y in cols[c]] for c in order]
    return CayleyGroup._from_rows(*_table_from_columns(cols), elements=reps)


def from_direct_factors(moduli: Sequence[int]) -> CayleyGroup:
    """Direct product of cyclic groups Z_{n1} x ... x Z_{nk}.

    Element x has digits x_1, ..., x_k in mixed radix, the last digit
    the least significant; generator c adds 1 to digit c.
    """
    moduli = [int(n) for n in moduli]
    if not moduli or any(n < 1 for n in moduli):
        raise ValueError("moduli must be positive")
    weights = [prod(moduli[c + 1:]) for c in range(len(moduli))]
    cols = [[x + w if x // w % n < n - 1 else x - (n - 1) * w
             for n, w in zip(moduli, weights)]
            for x in range(prod(moduli))]
    return CayleyGroup._from_rows(*_table_from_columns(cols))


# ---------------------------------------------------------------------------
# Subgroup enumeration


def _cyclic_subgroups(C: CayleyGroup) -> tuple[list[int], list[int]]:
    """Cyclic subgroups of prime-power order as (generators, index).

    Ordered by size, then by the bitmask of their elements; ``index[x]``
    is the position of <x> in that order, or -1 where the order of x is
    not a prime power.  These suffice as join seeds: every subgroup is
    the join of the prime-power cyclic subgroups of its elements.
    """
    cyclic: dict[Elements, int] = {}
    key_of: list = [None] * C.order
    for g, col in enumerate(C.columns):
        members = [0]
        y = g
        while y != 0:
            members.append(y)
            y = col[y]
        if g == 0 or prime_power(len(members)) is None:
            continue
        key = key_of[g] = _sorted(C.pack(members))
        cyclic.setdefault(key, g)
    # a bitmask orders sets of one size by their elements, largest first
    order = sorted(cyclic, key=lambda key: (len(key), key[::-1]))
    position = {key: i for i, key in enumerate(order)}
    return ([cyclic[key] for key in order],
            [position.get(key, -1) for key in key_of])


def _conjugates(C: CayleyGroup, members: Sequence[int],
                gens: list[int]) -> list[Elements]:
    """The conjugacy class of a subgroup, each member as its sorted
    element list, the given subgroup first."""
    start = _sorted(C.pack([index(x) for x in members]))
    maps = [C.conjugation(g) for g in gens]
    seen = {start}
    out = [start]
    for H in out:
        conjugated = _at(H)
        for x_to_xg in maps:
            K = _sorted(conjugated(x_to_xg))
            if K not in seen:
                seen.add(K)
                out.append(K)
    return out


def all_subgroups(C: CayleyGroup) -> list[list[int]]:
    """Every subgroup of C, each as a sorted element-index list.

    Sorted by (size, elements).  Joins only from one representative per
    conjugacy class, and with one prime-power cyclic subgroup per orbit
    of its normalizer: each representative H0 is joined with the least
    cyclic subgroup c of every N_G(H0)-orbit that does not lie inside
    H0, and a join not met before has its whole class recorded and
    becomes a representative.  This is complete: every K != 1 is <H, c>
    for some H < K and some prime-power cyclic c not inside H (drop one
    generator from an irredundant generating set of prime-power
    elements), and if H = H0^g then K' = <H0, c'> = K^(g^-1) with
    c' = c^(g^-1) not inside H0.  The orbit of c' holds the c'' = c'^n
    (n in N_G(H0)) that is joined, and <H0, c''> = <H0^n, c'^n> = K'^n,
    again a conjugate of K; induct on |K|.
    """
    m = C.order
    cyc_gens, cyc_index = _cyclic_subgroups(C)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    gens = C.generating_set()
    trivial = C.pack([0])
    found = {trivial}
    # class representatives still to join: (elements, generators)
    work: list[tuple[Elements, Elements]] = [(trivial, C.pack([]))]
    while work:
        H, hgens = work.pop()
        if len(H) == m:
            continue
        inside = _lookup(H)
        # N_G(H0): the n that conjugate every generator of H0 into H0
        normalizer = C.everything
        for h in hgens:
            normalizer = C.pack(compress(normalizer, map(
                inside.__contains__, C.conjugates_of(h, normalizer))))
        done: set[int] = set()
        for i, c in enumerate(cyc_gens):
            if i in done or c in inside:
                continue
            # i is the least index of its orbit; N_G(H0) fixes H0, so
            # the whole orbit lies outside H0
            done.update(map(cyc_index.__getitem__,
                            C.conjugates_of(c, normalizer)))
            J = _join(C, H, c, divisors)
            if J not in found:
                found.update(_conjugates(C, J, gens))
                work.append((J, hgens + C.pack([c])))
    return sorted(map(list, found), key=lambda s: (len(s), s))


def _join(C: CayleyGroup, subgroup: Elements, g: int,
          divisors: Optional[list[int]] = None) -> Elements:
    """The sorted elements of <H, g>, for the elements of a subgroup H.

    Right-multiplication closure by g, in left cosets xH: a set that
    holds H and is closed under right multiplication by g and by H holds
    <H, g>.  With the group-order divisor list supplied, stops early
    once the element count rules out every proper subgroup order (the
    join must be the whole group).
    """
    m = C.order
    h = len(subgroup)
    cutoff = m + 1
    if divisors is not None:
        proper = [d for d in divisors if d < m and d % h == 0]
        cutoff = max(proper, default=h)
    rows, cols = C.table, C.columns
    coset = _at(subgroup)  # coset(rows[z]) = zH
    times_g = cols[g]
    seen, add = _grow(subgroup)
    frontier = subgroup
    while True:
        # the table column of g is a permutation, so prods are distinct
        fresh = _minus(_at(frontier)(times_g), seen)
        if not fresh:
            return _sorted(seen)
        if len(seen) + len(fresh) > cutoff:  # before forming the cosets
            return C.everything
        if h * h <= len(fresh):
            # fresh meets at least len(fresh) / h >= h cosets: form fresh·H
            # by one gather per element of H instead of one per coset
            by_fresh = _at(fresh)
            frontier = _sorted(_cat([by_fresh(cols[x]) for x in subgroup]))
            add(frontier)
        else:
            # one gather per new coset zH
            new = []
            for z in fresh:
                if z not in seen:
                    zH = coset(rows[z])
                    add(zH)
                    new.append(zH)
            frontier = _cat(new)
        if len(seen) > cutoff:
            return C.everything


# ---------------------------------------------------------------------------
# Isomorphisms


def _hom_from_gen_images(Csrc: CayleyGroup, Cdst: CayleyGroup,
                         gens: Sequence[int], images: Sequence[int]):
    """Extend gen -> image to a full map by closure; None if inconsistent.

    Checks phi(x * g) = phi(x) * phi(g) for every reached x and every g, which
    verifies the homomorphism property on the whole group.
    """
    ts, td = Csrc.table, Cdst.table
    phi = [-1] * Csrc.order
    phi[0] = 0
    queue = [0]
    while queue:
        x = queue.pop()
        fx = phi[x]
        for g, fg in zip(gens, images):
            y = ts[x][g]
            fy = td[fx][fg]
            if phi[y] < 0:
                phi[y] = fy
                queue.append(y)
            elif phi[y] != fy:
                return None
    if -1 in phi:
        return None  # gens do not generate the source
    return phi


def _candidate_images(Csrc: CayleyGroup, Cdst: CayleyGroup, g: int) -> list[int]:
    os_, od = Csrc.element_orders(), Cdst.element_orders()
    _, cs = Csrc.conjugacy_data()
    _, cd = Cdst.conjugacy_data()
    return [x for x in range(Cdst.order)
            if od[x] == os_[g] and cd[x] == cs[g]]


def isomorphism_search(C1: CayleyGroup, C2: CayleyGroup) -> Optional[list[int]]:
    """An explicit isomorphism C1 -> C2, or None.

    Tries generator images in candidate order.  An isomorphism preserves
    the order of each product g_j·g_i of generators, so an image x for g_i
    is skipped as soon as o(x_j·x) differs from o(g_j·g_i) for an earlier
    image x_j; only dead branches are cut, and the first isomorphism found
    is the one the unpruned search finds.
    """
    if C1.order != C2.order:
        return None
    o1, o2 = C1.element_orders(), C2.element_orders()
    if sorted(o1) != sorted(o2):
        return None
    gens = C1.generating_set()
    if not gens:  # trivial group
        return [0]
    cands = [_candidate_images(C1, C2, g) for g in gens]
    t1, t2 = C1.table, C2.table
    # want[i][j] = o(g_j·g_i) for j < i
    want = [[o1[t1[gj][gi]] for gj in gens[:i]]
            for i, gi in enumerate(gens)]

    def rec(i, chosen):
        if i == len(gens):
            phi = _hom_from_gen_images(C1, C2, gens, chosen)
            if phi is not None and len(set(phi)) == C1.order:
                return phi
            return None
        for x in cands[i]:
            if any(o2[t2[xj][x]] != w for xj, w in zip(chosen, want[i])):
                continue
            phi = rec(i + 1, chosen + [x])
            if phi is not None:
                return phi
        return None

    return rec(0, [])

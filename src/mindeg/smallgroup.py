"""Small groups materialized as Cayley tables.

Covers element listing for permutation groups and small quotients G/K,
brute-force subgroup enumeration, and isomorphism search by
generator-image enumeration.  A table is built from its generator
columns, walking the Cayley graph (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005): only the products x·g of each element
x with each generator g are formed from permutations or cosets, and
every other column is one gather along a spanning tree from the
identity.  The cosets of a quotient are keyed by their canonical
representatives ``PermGroup.coset_rep``, and every table is checked by
one exact associativity test, Light's test over a generating set.

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

import importlib.util
import sys
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .bsgs import PermGroup, normalizes
from .errors import LimitExceededError
from .fflinalg import prime_power
from .perm import compose, identity, right_closure


def lazy_import(name: str):
    """The module ``name``, whose code runs when an attribute is first read.

    The lazy-import recipe of the importlib documentation ("Implementing
    lazy imports"): the module is entered in ``sys.modules`` at once, so
    every later import of it gets the same object.  A module that is
    already there is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


# Cayley tables are numpy arrays, and `mu` builds one only on rare paths;
# numpy loads with the first table, not with this module.
np = lazy_import("numpy")


class CayleyGroup:
    """A group of order m given by its multiplication table.

    Element 0 is the identity; ``table[i, j]`` is the product "i then j"
    (matching the left-to-right convention for permutations).
    """

    def __init__(self, table: np.ndarray, elements: Optional[list] = None):
        table = np.asarray(table, dtype=np.int32)
        m = table.shape[0]
        if table.shape != (m, m):
            raise ValueError("table must be square")
        self.order = m
        self.table = table
        self.elements = elements
        self._validate()
        # 0 is the unique minimum of each row, located at the inverse
        self.inverse = np.argmin(self.table, axis=1).astype(np.int32)
        self._orders: Optional[np.ndarray] = None
        self._class_data = None

    def _validate(self):
        m = self.order
        t = self.table
        rng_row = np.arange(m, dtype=np.int32)
        if not (np.sort(t, axis=1) == rng_row).all() or not (np.sort(t, axis=0) == rng_row[:, None]).all():
            raise ValueError("table rows/columns are not permutations")
        if not (t[0] == rng_row).all() or not (t[:, 0] == rng_row).all():
            raise ValueError("element 0 is not the identity")
        # Light's test: (xa)z = x(az) for all x, z and each generator a.
        # The elements a passing it are closed under products, and every
        # element is a product of the greedy generators, so it is exact.
        for a in self.generating_set():
            if not (t[t[:, a]] == t[:, t[a]]).all():
                raise ValueError("table is not associative")

    # -- cached element statistics -----------------------------------------

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            m = self.order
            orders = np.empty(m, dtype=np.int64)
            t = self.table
            for x in range(m):
                k, y = 1, x
                while y != 0:
                    y = t.item(y, x)
                    k += 1
                orders[x] = k
            self._orders = orders
        return self._orders

    def conjugacy_data(self):
        """(class id per element = min class member, class size per element)."""
        if self._class_data is None:
            m, t, inv = self.order, self.table, self.inverse
            all_g = np.arange(m)
            class_id = np.full(m, -1, dtype=np.int64)
            class_size = np.zeros(m, dtype=np.int64)
            for x in range(m):
                if class_id[x] >= 0:
                    continue
                cls = np.unique(t[t[inv[all_g], x], all_g])
                class_id[cls] = cls.min()
                class_size[cls] = len(cls)
            self._class_data = (class_id, class_size)
        return self._class_data

    def generating_set(self) -> list[int]:
        """Greedy generating set of at most ceil(log2 m) elements."""
        gens: list[int] = []
        members = np.zeros(1, dtype=np.int64)
        current = np.zeros(self.order, dtype=bool)
        current[0] = True
        for x in range(1, self.order):
            if not current[x]:
                gens.append(x)
                members = _join(self.table, members, x)
                current[members] = True
                if len(members) == self.order:
                    break
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


def _table_from_columns(cols: np.ndarray) -> np.ndarray:
    """The Cayley table of a group from its generator columns.

    ``cols[x, k]`` is the index of x·g_k for generators g_k of the group,
    and index 0 is the identity.  A spanning tree of the Cayley graph
    from the identity reaches each z as y·g_k, and then column z of the
    table is column y followed by right multiplication by g_k:
    ``table[:, z] = cols[table[:, y], k]``, one gather per column.
    """
    m = cols.shape[0]
    right = np.ascontiguousarray(cols.T, dtype=np.int32)  # right[k][x] = x·g_k
    by_col = np.empty((m, m), dtype=np.int32)  # by_col[z] = table[:, z]
    by_col[0] = np.arange(m, dtype=np.int32)
    reached = [True] + [False] * (m - 1)
    queue = [0]
    nbrs = cols.tolist()
    for y in queue:
        for k, z in enumerate(nbrs[y]):
            if not reached[z]:
                reached[z] = True
                by_col[z] = right[k][by_col[y]]
                queue.append(z)
    return np.ascontiguousarray(by_col.T)


def _list_perm_group(G: PermGroup, bound: int) -> CayleyGroup:
    if G.order() > bound:
        raise LimitExceededError(f"group order {G.order()} exceeds bound {bound}")
    if G.degree > 256:
        raise LimitExceededError("degree above 256 not supported for listing")
    els, prods = right_closure(G.degree, G.generators)
    n = len(els)
    # the identity first, then the rest by image table
    tables = [x.table for x in els]
    order = np.array([0] + sorted(range(1, n), key=tables.__getitem__))
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    cols = pos[np.array(prods, dtype=np.int64).reshape(n, len(G.generators))]
    perms = [els[i] for i in order]
    return CayleyGroup(_table_from_columns(cols[order]), elements=perms)


def _list_quotient(Q: QuotientGroup, bound: int) -> CayleyGroup:
    n = Q.index()
    if n > bound:
        raise LimitExceededError(f"quotient order {n} exceeds bound {bound}")
    if Q.K.is_trivial():
        return _list_perm_group(Q.G, bound)
    # the cosets in breadth-first order, keyed by their canonical elements
    K, gens = Q.K, Q.G.generators
    bfs = [identity(Q.G.degree)]
    index = {K.coset_rep(bfs[0]).table: 0}
    cols = []
    for x in bfs:
        row = []
        for g in gens:
            y = compose(x, g)
            key = K.coset_rep(y).table
            j = index.get(key)
            if j is None:
                j = index[key] = len(bfs)
                bfs.append(y)
            row.append(j)
        cols.append(row)
    t = _table_from_columns(np.array(cols, dtype=np.int64).reshape(n, len(gens)))
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
            add(t.item(order[a], order[b]), reps[a], reps[b])
            if len(order) == n:
                break
    o = np.array(order, dtype=np.int64)
    table = np.array(pos, dtype=np.int32)[t[np.ix_(o, o)]]
    return CayleyGroup(table, elements=reps)


def from_direct_factors(moduli: Sequence[int]) -> CayleyGroup:
    """Direct product of cyclic groups Z_{n1} x ... x Z_{nk}."""
    moduli = [int(n) for n in moduli]
    if not moduli or any(n < 1 for n in moduli):
        raise ValueError("moduli must be positive")
    m = int(np.prod(moduli))
    idx = np.arange(m)
    digits = []
    rest = idx.copy()
    for n in reversed(moduli):
        digits.append(rest % n)
        rest //= n
    digits.reverse()  # digits[c] = component c of each element index
    table = np.zeros((m, m), dtype=np.int64)
    weight = 1
    for c in range(len(moduli) - 1, -1, -1):
        comp = (digits[c][:, None] + digits[c][None, :]) % moduli[c]
        table += comp * weight
        weight *= moduli[c]
    return CayleyGroup(table.astype(np.int32))


# ---------------------------------------------------------------------------
# Subgroup enumeration


def _mask_of(members: list[int]) -> int:
    """The bitmask of a list of element indices (Python ints)."""
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


def _cyclic_subgroups(C: CayleyGroup) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic subgroups of prime-power order as (generators, index).

    Ordered by (size, mask); ``index[x]`` is the position of <x> in that
    order, or -1 where the order of x is not a prime power.  These suffice
    as join seeds: every subgroup is the join of the prime-power cyclic
    subgroups of its elements.
    """
    t = C.table
    cyclic: dict[int, tuple[int, int]] = {}
    mask_of = [0] * C.order
    for g in range(1, C.order):
        members = [0]
        y = g
        while y != 0:
            members.append(y)
            y = t.item(y, g)
        if prime_power(len(members)) is None:
            continue
        mask = mask_of[g] = _mask_of(members)
        if mask not in cyclic:
            cyclic[mask] = (len(members), g)
    order = sorted(cyclic.items(), key=lambda kv: (kv[1][0], kv[0]))
    position = {mask: i for i, (mask, _) in enumerate(order)}
    index = np.array([position.get(mask, -1) for mask in mask_of],
                     dtype=np.int32)
    gens = np.array([gen for _, (_, gen) in order], dtype=np.int64)
    return gens, index


def _conjugates(C: CayleyGroup, members: np.ndarray,
                gens: list[int]) -> dict[int, np.ndarray]:
    """The conjugacy class of a subgroup, element arrays keyed by mask."""
    seen = {_mask_of(members.tolist()): members}
    frontier = [members]
    while frontier:
        new = []
        for arr in frontier:
            for g in gens:
                conj = C.table[C.table[C.inverse[g], arr], g]
                m = _mask_of(conj.tolist())
                if m not in seen:
                    seen[m] = conj
                    new.append(conj)
        frontier = new
    return seen


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
    t = C.table
    m = C.order
    cyc_gens, cyc_index = _cyclic_subgroups(C)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    gens = C.generating_set()
    full_mask = (1 << m) - 1
    everything = np.arange(m, dtype=np.int64)[:, None]
    inv = C.inverse[:, None]

    def conjugated(xs):  # [n, j] = the element x_j^n = n^-1 x_j n
        return t[t[inv, np.asarray(xs, dtype=np.int64)[None, :]], everything]

    # conj[n, i] = the index of <c_i>^n
    conj = cyc_index[conjugated(cyc_gens)]
    first = np.arange(len(cyc_gens), dtype=np.int32)
    trivial = np.zeros(1, dtype=np.int64)
    found: dict[int, np.ndarray] = {1: trivial}
    # class representatives still to join: (elements, generators)
    work: list[tuple[np.ndarray, list[int]]] = [(trivial, [])]
    while work:
        arr, hgens = work.pop()
        if len(arr) == m:
            continue
        inside = np.zeros(m, dtype=bool)
        inside[arr] = True
        # N_G(H0): the n that conjugate every generator of H0 into H0
        normalizer = inside[conjugated(hgens)].all(axis=1)
        # i is the least index of its orbit conj[N, i]; join those outside H0
        least = conj[normalizer].min(axis=0) == first
        for g in cyc_gens[least & ~inside[cyc_gens]].tolist():
            jarr = _join(t, arr, g, divisors)
            jmask = full_mask if len(jarr) == m else _mask_of(jarr.tolist())
            if jmask not in found:
                found.update(_conjugates(C, jarr, gens))
                work.append((jarr, hgens + [g]))
    return sorted((np.sort(arr).tolist() for arr in found.values()),
                  key=lambda s: (len(s), s))


def _join(t: np.ndarray, subgroup: np.ndarray, g: int,
          divisors: Optional[list[int]] = None) -> np.ndarray:
    """Elements of <H, g>, for the element array of a subgroup H.

    Right-multiplication closure by g, a left coset xH at a time: a set
    that holds H and is closed under right multiplication by g and by H
    holds <H, g>.  With the group-order divisor list supplied, stops early
    once the element count rules out every proper subgroup order (the
    join must be the whole group).
    """
    m = t.shape[0]
    h = len(subgroup)
    cutoff = m + 1
    if divisors is not None:
        proper = [d for d in divisors if d < m and d % h == 0]
        cutoff = max(proper, default=h)
    seen = np.zeros(m, dtype=bool)
    seen[subgroup] = True
    count = h
    frontier = subgroup
    while True:
        # the table column of g is a permutation, so prods are distinct
        prods = t[frontier, g]
        fresh = prods[~seen[prods]]
        if not len(fresh):
            return np.nonzero(seen)[0]
        if count + len(fresh) > cutoff:  # before forming the cosets
            return np.arange(m, dtype=np.int64)
        new = np.zeros(m, dtype=bool)
        new[t[fresh[:, None], subgroup]] = True  # the cosets zH of fresh z
        new &= ~seen
        seen |= new
        frontier = np.nonzero(new)[0]
        count += len(frontier)
        if count > cutoff:
            return np.arange(m, dtype=np.int64)


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
            y = ts.item(x, g)
            fy = td.item(fx, fg)
            if phi[y] < 0:
                phi[y] = fy
                queue.append(y)
            elif phi[y] != fy:
                return None
    if -1 in phi:
        return None  # gens do not generate the source
    return np.array(phi, dtype=np.int64)


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
    if sorted(o1.tolist()) != sorted(o2.tolist()):
        return None
    gens = C1.generating_set()
    if not gens:  # trivial group
        return [0]
    cands = [_candidate_images(C1, C2, g) for g in gens]
    t1, t2 = C1.table, C2.table
    # want[i][j] = o(g_j·g_i) for j < i
    want = [[o1[t1.item(gj, gi)] for gj in gens[:i]]
            for i, gi in enumerate(gens)]

    def rec(i, chosen):
        if i == len(gens):
            phi = _hom_from_gen_images(C1, C2, gens, chosen)
            if phi is not None and len(np.unique(phi)) == C1.order:
                return phi
            return None
        for x in cands[i]:
            if any(o2[t2.item(xj, x)] != w for xj, w in zip(chosen, want[i])):
                continue
            phi = rec(i + 1, chosen + [x])
            if phi is not None:
                return phi
        return None

    phi = rec(0, [])
    return None if phi is None else phi.tolist()

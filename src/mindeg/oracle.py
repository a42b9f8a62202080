"""Ground-truth minimal faithful permutation degree for small groups.

μ(G) is the least n with G embeddable in Sym(n).  It equals the minimum of
Σ [G:Hᵢ] over collections of subgroups whose cores intersect trivially (the
collection induces a faithful action on the disjoint union of coset spaces).
The oracle searches the normal-subgroup lattice with Dijkstra: states are
normal subgroups N, the start is G, the goal is {1}, and each subgroup
conjugacy class H contributes an edge N → N ∩ core(H) of cost [G:H].
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import index

from .errors import DegreeCheckFailed, LimitExceededError
from .fflinalg import prime_power
from .smallgroup import (
    CayleyGroup, Elements, _at, _conjugates, _hom_from_gen_images, _lookup,
    _minus, all_subgroups, from_direct_factors,
)

ORACLE_LIMIT = 2000


@dataclass
class OracleWitness:
    """A μ-attaining collection of subgroups."""

    subgroups: list[list[int]]
    total_degree: int
    core_intersection: list[int]


def _mask_of(members) -> int:
    """The bitmask of a list of element indices."""
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


def _meet(A: Elements, B: Elements) -> Elements:
    """The elements of A that lie in B, in the order of A."""
    return _minus(A, _lookup(_minus(A, _lookup(B))))


def _check_subgroup(C: CayleyGroup, members: list[int]) -> Elements:
    """The sorted distinct ``members``, packed; raises ValueError unless
    they form a subgroup."""
    if 0 not in members:
        raise ValueError("subgroup must contain the identity")
    if min(members) < 0 or max(members) >= C.order:
        raise ValueError("subgroup elements must be element indices")
    H = C.pack(sorted(set(members)))
    inside, times = _lookup(H), _at(H)
    for a in H:
        if _minus(times(C.table[a]), inside):
            raise ValueError("element set is not closed under the product")
    return H


def _core(C: CayleyGroup, H, gens: list[int]) -> Elements:
    """The sorted core of the subgroup with elements H: the meet of its
    conjugacy class."""
    members = _check_subgroup(C, [index(x) for x in H])
    return reduce(_meet, _conjugates(C, members, gens))


def core(C: CayleyGroup, H) -> list[int]:
    """The largest normal subgroup of C inside the subgroup H."""
    return list(_core(C, H, C.generating_set()))


def is_faithful_collection(C: CayleyGroup, Hs) -> bool:
    """True iff the cores of the given subgroups intersect trivially."""
    gens = C.generating_set()
    meet = C.everything
    for H in Hs:
        meet = _meet(meet, _core(C, H, gens))
    return len(meet) == 1


def _abelian_candidates(C: CayleyGroup) -> list[tuple[int, int, list[int]]]:
    """Candidate (cost, core mask, subgroup) triples for an abelian group.

    For abelian G every subgroup is normal, and any H is an intersection of
    subgroups with cyclic quotient whose indices sum to at most [G:H]
    (split G/H into cyclic factors).  A kernel with quotient Z_n is in
    turn the meet of the kernels of its prime-power parts, whose indices
    sum to at most n.  So only kernels of homomorphisms G → Z_(p^e) need
    to be considered, for each prime power p^e ‖ exp(G); the p-part of
    exp(G) is the largest order of a p-element.
    """
    gens = C.generating_set()
    orders = C.element_orders()
    parts: dict[int, int] = {}  # prime p -> the p-part of exp(G)
    for k in set(orders):
        pe = prime_power(k)
        if pe is not None:
            parts[pe[0]] = max(parts.get(pe[0], 1), k)
    out: dict[int, tuple[int, list[int]]] = {}
    for _, q in sorted(parts.items()):
        Z = from_direct_factors([q])
        zorders = Z.element_orders()
        cands = [[x for x in range(q) if orders[g] % zorders[x] == 0]
                 for g in gens]
        for images in product(*cands):
            phi = _hom_from_gen_images(C, Z, gens, images)
            if phi is None:
                continue
            kernel = [x for x, y in enumerate(phi) if y == 0]
            if len(kernel) == C.order:
                continue
            mask = _mask_of(kernel)
            cost = C.order // len(kernel)
            if mask not in out or out[mask][0] > cost:
                out[mask] = (cost, kernel)
    return [(cost, mask, sub) for mask, (cost, sub) in out.items()]


def _general_candidates(C: CayleyGroup) -> list[tuple[int, int, list[int]]]:
    """One (cost, core mask, representative subgroup) per conjugacy class."""
    gens = C.generating_set()
    out: dict[int, tuple[int, list[int]]] = {}
    visited: set[Elements] = set()
    for sub in all_subgroups(C):
        if len(sub) == C.order or C.pack(sub) in visited:
            continue
        # the core of a subgroup is the meet of its conjugacy class
        seen = _conjugates(C, sub, gens)
        visited.update(seen)
        coremask = _mask_of(reduce(_meet, seen))
        cost = C.order // len(sub)
        if coremask not in out or out[coremask][0] > cost:
            out[coremask] = (cost, sub)
    return [(cost, mask, sub) for mask, (cost, sub) in out.items()]


def _prune_dominated(cands: list[tuple[int, int, list[int]]]):
    """Drop a candidate when another has a smaller core at no larger cost."""
    cands = sorted(cands, key=lambda c: (c[0], c[1].bit_count()))
    kept: list[tuple[int, int, list[int]]] = []
    for cost, mask, sub in cands:
        if any(k_cost <= cost and k_mask & mask == k_mask
               for k_cost, k_mask, _ in kept):
            continue
        kept.append((cost, mask, sub))
    return kept


def mu_oracle(C: CayleyGroup, limit: int = ORACLE_LIMIT) -> tuple[int, OracleWitness]:
    """Exact μ(C) with a witnessing subgroup collection."""
    if C.order > limit:
        raise LimitExceededError(f"order {C.order} exceeds oracle limit {limit}")
    if C.order == 1:
        return 0, OracleWitness(subgroups=[], total_degree=0, core_intersection=[0])

    if C.table == C.columns:
        cands = _abelian_candidates(C)
    else:
        cands = _general_candidates(C)
    cands = _prune_dominated(cands)

    full = (1 << C.order) - 1
    dist: dict[int, int] = {full: 0}
    parent: dict[int, tuple[int, int]] = {}
    heap = [(0, full)]
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist.get(state, d):
            continue
        if state == 1:
            break
        for idx, (cost, cmask, _) in enumerate(cands):
            nxt = state & cmask
            if nxt == state:
                continue
            nd = d + cost
            if nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                parent[nxt] = (state, idx)
                heapq.heappush(heap, (nd, nxt))
    if 1 not in dist:
        raise DegreeCheckFailed("the oracle found no faithful collection")
    mu = dist[1]

    witness_subs = []
    node = 1
    while node != full:
        prev, idx = parent[node]
        witness_subs.append(sorted(cands[idx][2]))
        node = prev
    witness_subs.reverse()

    if len(witness_subs) > max(1, int(math.log2(C.order)) + 1):
        raise DegreeCheckFailed(
            f"the oracle's witness has {len(witness_subs)} subgroups, more "
            f"than log2 of the order {C.order} allows")
    if sum(C.order // len(s) for s in witness_subs) != mu:
        raise DegreeCheckFailed(
            f"the oracle's witness indices do not sum to mu = {mu}")
    if not is_faithful_collection(C, witness_subs):
        raise DegreeCheckFailed("the oracle's witness is not faithful")
    return mu, OracleWitness(subgroups=witness_subs, total_degree=mu,
                             core_intersection=[0])

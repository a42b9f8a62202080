"""Socle machinery for Fitting-free permutation groups.

Computes the socle by the centralizer recursion Soc(G) = N × Soc(C_G(N)),
and computes factor normalizers as point stabilizers of the induced
action on factors.  A candidate minimal normal subgroup N is first tested
for a proof of simplicity: a faithful, 2-transitive, non-affine orbit
makes N almost simple (Burnside), and a perfect almost simple group is
simple (Schreier's conjecture).  A simple normal subgroup is minimal
normal.  When that proof does not apply, a sweep over elements of N
proves N minimal (exhaustively up to order 10^4, otherwise only by
sampling) and decides whether it is simple; an N that is not is split
into its non-abelian simple factors (one conjugation orbit, so one
block).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

from .bsgs import (
    PermGroup, _smallest_moved_point, centralizer_of_normal, class_tree,
    closure_has_order, conjugator, induced_action, moved_points,
    normal_closure, preimage_of_stabilizer,
)
from .errors import NotFittingFree
from .fflinalg import prime_power
from .perm import (
    Permutation, compose, conjugate, element_order, inverse, power,
)

EXHAUSTIVE_MINIMALITY_BOUND = 10 ** 4
RANDOM_MINIMALITY_SAMPLES = 256
DEFAULT_SEED = 0x50C1E


@dataclass
class SocleDecomposition:
    """The socle of a Fitting-free group, split into simple factors."""

    socle: PermGroup
    factors: list[PermGroup]
    minimal_normals: list[list[int]]
    # whether any minimal normal subgroup was accepted from a sampled
    # sweep, without a proof of simplicity or an exhaustive sweep
    probabilistic_minimality: bool


def _class_representatives(G: PermGroup, N: PermGroup):
    """One representative per G-conjugacy class of elements of N.

    Conjugate elements share their normal closure, so the minimality sweep
    only needs class representatives.
    """
    conjs = [conjugator(g, inverse(g)) for g in G.generators]
    covered: set[tuple] = set()
    for y in N.elements():
        if y.images not in covered:
            yield y
            covered.update(class_tree(y.images, conjs))


def _prime_divisors(n: int) -> list[int]:
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


def _prime_order_samples(N: PermGroup, rng: random.Random):
    """Random elements y of N, each raised to y^(o(y)/p) for a random prime
    p dividing o(y).

    A uniform element of T x T rarely has a trivial component; its powers
    of prime order often do, so their closures split a non-minimal N.
    """
    for _ in range(RANDOM_MINIMALITY_SAMPLES):
        y = N.random_element(rng)
        o = element_order(y)
        if o > 1:
            y = power(y, o // rng.choice(_prime_divisors(o)))
        yield y


def _may_be_affine(degree: int, order: int) -> bool:
    """Whether a group of this order could act on this many points inside
    AGL(d, p): the degree is p^d and the order divides |AGL(d, p)|."""
    pe = prime_power(degree)
    if pe is None:
        return False
    p, d = pe
    agl = degree
    for i in range(d):
        agl *= degree - p ** i
    return agl % order == 0


def _second_orbit_is_rest(levels) -> bool:
    """Whether a verified chain of a group transitive on its n moved points
    has a second level with an orbit of n - 1 points: the stabilizer of
    the first base point is transitive on the rest."""
    return len(levels) > 1 and len(levels[1].tree) == len(levels[0].tree) - 1


def _faithful_two_transitive_orbit(N: PermGroup) -> bool:
    """Whether N acts faithfully, 2-transitively and not as a subgroup of
    an affine group on one of its orbits.

    For N transitive on its support, that orbit is the support, the action
    is faithful, and 2-transitivity is read off N's own chain.  Otherwise
    each orbit on whose points N could act faithfully (|N| divides
    |Delta|!) gets a chain of the restriction of N to it, whose order
    decides faithfulness.  N's own chain is read only when its first orbit
    is the whole support: the second level of an intransitive N is the
    stabilizer of a point acting on every orbit, and would make A5 x A5 on
    5 + 5 points look 2-transitive on its first orbit.
    """
    order = N.order()
    support = moved_points(N.generators)
    levels = N._chain()
    if len(levels[0].tree) == len(support):
        return (not _may_be_affine(len(support), order)
                and _second_orbit_is_rest(levels))
    maps = [g.images.__getitem__ for g in N.generators]
    seen: set[int] = set()
    for alpha in sorted(support):
        if alpha in seen:
            continue
        orbit = list(class_tree(alpha, maps))
        seen.update(orbit)
        n = len(orbit)
        if factorial(n) % order or _may_be_affine(n, order):
            continue
        index = {x: i for i, x in enumerate(orbit)}
        R = PermGroup(n, [
            Permutation(tuple(index[g.images[x]] for x in orbit))
            for g in N.generators])
        if R.order() == order and _second_orbit_is_rest(R._chain()):
            return True
    return False


def _generator_commutators(N: PermGroup):
    """The nontrivial commutators [a, b] of pairs of generators of N."""
    gens = N.generators
    for i, a in enumerate(gens):
        for b in gens[:i]:
            c = compose(inverse(compose(b, a)), compose(a, b))
            if not c.is_identity():
                yield c


def _is_perfect(N: PermGroup, rng: random.Random) -> bool:
    """Whether N = [N, N], the normal closure in N of the commutators of
    its generators.

    ``closure_has_order`` usually proves the closure of the first
    nontrivial commutator whole; when it gives up, the verified closure of
    all of them decides.
    """
    first = next(_generator_commutators(N), None)
    if first is None:
        return False
    return (closure_has_order(N, first, N.order(), rng)
            or normal_closure(N, list(_generator_commutators(N))).order()
            == N.order())


def minimal_normal_under(G: PermGroup, C: PermGroup,
                         seed: int = DEFAULT_SEED
                         ) -> tuple[PermGroup, bool, bool]:
    """A minimal normal subgroup N of G inside the normal subgroup C.

    Starts from the normal closure of the nontrivial generator of C with
    the smallest moved point, so the choice among several minimal normal
    subgroups is reproducible, and descends: whenever the closure of some
    element of the candidate is a proper nontrivial normal subgroup, it
    replaces the candidate.  Returns N, whether its minimality was only
    sampled, and whether N was found simple (proved exactly when
    minimality is).

    Each candidate N, the first closure and each one it descends to, is
    first tested for a proof that it is simple.  N is simple when it has
    an orbit Delta with |Delta| >= 2 such that
      1. N acts faithfully on Delta;
      2. N is 2-transitive on Delta;
      3. the action is not affine: |Delta| is not a prime power p^d, or |N|
         does not divide |AGL(d, p)|;
      4. N is perfect.
    By Burnside's theorem (Dixon and Mortimer, *Permutation Groups*, 1996,
    Thm 4.1B) a 2-transitive group is affine or almost simple, so by 1-3
    N is almost simple with socle T.  N/T lies in Out(T), which is solvable
    (Schreier's conjecture, a consequence of the classification), and N
    is perfect, so N = T.  A simple normal subgroup of G is minimal normal,
    so N is returned with no sweep.  The proof draws from its own
    generator, so a candidate it does not prove gets the same sweep as
    without it.

    Otherwise the sweep certifies minimality exhaustively for candidates
    of order at most 10^4, and otherwise by random sampling.

    ncl_N(y) lies in ncl_G(y), so each swept y is closed under N first: a
    closure that is all of N proves both that y does not split N under G
    and that it does not split N itself, and one sweep proves N minimal
    normal and simple.  At the first y whose N-closure is proper but whose
    G-closure is N, N is not simple, and later elements are closed under
    G only.  Most closures are whole; ``closure_has_order`` proves that
    without a verified chain, and draws from its own generator so that the
    sweep's draws, and with them N, do not depend on how often it is
    called.
    """
    if C.is_trivial():
        raise ValueError("C must be nontrivial")
    rng = random.Random(seed)
    closure_rng = random.Random(seed + 1)
    proof_rng = random.Random(seed + 2)
    start = min((g for g in C.generators if not g.is_identity()),
                key=lambda g: (_smallest_moved_point(g), g.images))
    N = normal_closure(G, [start])
    while True:
        if (_faithful_two_transitive_orbit(N)
                and _is_perfect(N, proof_rng)):
            return N, False, True
        sampled = N.order() > EXHAUSTIVE_MINIMALITY_BOUND
        simple = True
        sweep = (_prime_order_samples(N, rng) if sampled
                 else _class_representatives(G, N))
        for y in sweep:
            if y.is_identity():
                continue
            if simple:
                if (closure_has_order(N, y, N.order(), closure_rng)
                        or normal_closure(N, [y]).order() == N.order()):
                    continue
                simple = False
            if closure_has_order(G, y, N.order(), closure_rng):
                continue
            M = normal_closure(G, [y])
            if 1 < M.order() < N.order():
                N = M
                break
        else:
            return N, sampled, simple


def _is_abelian(H: PermGroup) -> bool:
    return next(_generator_commutators(H), None) is None


def _centralizer_recursion(G: PermGroup, seed: int):
    """Soc(G) = N × Soc(C_G(N)), unrolled.

    Adjoins a minimal normal subgroup N of G inside C, the centralizer of
    the product so far, and narrows C to C_C(N) until it is trivial.
    Returns the minimal normal subgroups found, each with whether it was
    found simple, and whether the minimality of any of them was only
    sampled.  Any abelian one proves G is not Fitting-free.
    """
    parts: list[tuple[PermGroup, bool]] = []
    sampled = False
    C = G
    while True:
        N, s, simple = minimal_normal_under(G, C, seed)
        if _is_abelian(N):
            raise NotFittingFree("abelian minimal normal subgroup found")
        sampled |= s
        parts.append((N, simple))
        # N = C proved simple and non-abelian: C_C(N) = Z(N) = 1
        if simple and not s and N.order() == C.order():
            return parts, sampled
        C = centralizer_of_normal(C, N)
        if C.is_trivial():
            return parts, sampled


def socle_fitting_free(G: PermGroup,
                       seed: int = DEFAULT_SEED) -> SocleDecomposition:
    """Socle decomposition of G, certifying that G is Fitting-free.

    Each minimal normal subgroup found simple is its own factor; any other
    is split into its simple factors here, once.  The factors of one
    minimal normal subgroup form one block; callers pass ``factors`` on
    instead of splitting again.
    """
    if G.is_trivial():
        raise ValueError("G must be nontrivial")
    parts, sampled = _centralizer_recursion(G, seed)
    factors: list[PermGroup] = []
    blocks: list[list[int]] = []
    for N, simple in parts:
        split = [N] if simple else simple_factors(N)
        blocks.append(list(range(len(factors), len(factors) + len(split))))
        factors += split
    socle = parts[0][0] if len(parts) == 1 else PermGroup(
        G.degree, [g for N, _ in parts for g in N.generators])
    return SocleDecomposition(socle=socle, factors=factors,
                              minimal_normals=blocks,
                              probabilistic_minimality=sampled)


def simple_factors(N: PermGroup) -> list[PermGroup]:
    """The simple factors of N, a direct product of non-abelian simple
    groups such as a minimal normal subgroup."""
    return [F for F, _ in _centralizer_recursion(N, DEFAULT_SEED)[0]]


def _factor_image(g: Permutation, i: int, factors: list[PermGroup]) -> int:
    """Index j with factors[i]^g = factors[j].

    S_i^g lies in S_j when every conjugated generator does, and equal
    orders then make the two equal.
    """
    Si = factors[i]
    conj_gens = [conjugate(s, g) for s in Si.generators]
    for j, Sj in enumerate(factors):
        if (Sj.order() == Si.order()
                and all(Sj.member(c) for c in conj_gens)):
            return j
    raise AssertionError("conjugate of a socle factor matches no factor")


def normalizer_of_factor(G: PermGroup, factors: list[PermGroup],
                         index: int) -> PermGroup:
    """N_G(factors[index]): a point stabilizer in the induced action of G
    on the factors of one block."""
    images = induced_action(G, list(range(len(factors))),
                            lambda g, i: _factor_image(g, i, factors))
    return preimage_of_stabilizer(G, images, index)

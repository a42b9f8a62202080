"""Socle machinery for Fitting-free permutation groups.

Computes the socle by the centralizer recursion Soc(G) = N × Soc(C_G(N)),
and computes factor normalizers as point stabilizers of the induced
action on factors.  A candidate minimal normal subgroup N is first tested
by one walk over its orbits, with two conclusions.  The restriction R of
N to an orbit is simple when it is 2-transitive, not affine (the orbit
length is not a prime power p^d, or |R| does not divide |AGL(d, p)|, or
4 does not divide |R| / |Delta|) and perfect: it is almost simple
(Burnside), and a perfect almost simple group is simple (Schreier's
conjecture).  A simple R with |R| = |N| proves N simple, and a simple
normal subgroup is minimal normal.  An intransitive N whose restriction
to every orbit is simple is a direct product T_1 x ... x T_k of simple
groups; its factors are generated by the cuts of N's generators to
classes of linked orbits and checked by their orders, and each orbit of G
on them is a minimal normal subgroup (Dixon and Mortimer 1996, ch. 4).
When the walk proves neither, a sweep over elements of N proves N minimal
(exhaustively up to order 10^4, otherwise only by sampling) and decides
whether it is simple; an N that is not is split into its non-abelian
simple factors (one conjugation orbit, so one block).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial, prod

from .bsgs import (
    PermGroup, centralizer_of_normal, class_tree, closure_has_order,
    induced_action, is_two_transitive, moved_points,
    normal_closure, orbits, preimage_of_stabilizer,
)
from .errors import NotFittingFree
from .fflinalg import prime_power
from .perm import (
    Permutation, compose, compose3, conjugator, element_order, inverse,
    power,
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
    conjs = [conjugator(g) for g in G.generators]
    covered = set()
    for y in N.elements():
        if y.table not in covered:
            yield y
            covered.update(class_tree(y.table, conjs))


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
    """Whether a perfect group of this order could act faithfully and
    2-transitively on this many points inside AGL(d, p): the degree is
    p^d, the order divides |AGL(d, p)|, and 4 divides the order of a point
    stabilizer.

    Such a group is V.N_alpha with V its translations, so N_alpha is
    perfect and, for degree >= 3, nontrivial.  It then has a non-abelian
    simple quotient, whose order 4 divides: it is even (Feit-Thompson),
    and a cyclic Sylow 2-subgroup would give it a normal 2-complement
    (Burnside).
    """
    pe = prime_power(degree)
    if pe is None:
        return False
    p, d = pe
    agl = degree
    for i in range(d):
        agl *= degree - p ** i
    return agl % order == 0 and (order // degree) % 4 == 0


def _restriction(N: PermGroup, points: list[int]) -> PermGroup:
    """N acting on an N-invariant list of points, relabelled by position."""
    index = {x: i for i, x in enumerate(points)}
    return PermGroup(len(points), [
        Permutation([index[g.table[x]] for x in points])
        for g in N.generators])


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


def _cut(g: Permutation, points: list[int]) -> Permutation:
    """g on the points, the identity elsewhere."""
    images = list(range(g.degree))
    for x in points:
        images[x] = g.table[x]
    return Permutation(images)


def _linked_classes(N: PermGroup, orbs: list[list[int]],
                    orders: list[int]) -> list[tuple[list[int], int]]:
    """The orbits of N grouped into classes of linked orbits, each as its
    points and |N^Delta| for its orbits Delta, in order of least point.

    When every N^Delta is simple, N is a subdirect product of them, so a
    direct product T_1 x ... x T_k of non-abelian simple groups, and N acts
    on each orbit through one T_i (Dixon and Mortimer 1996, ch. 4).  Two
    orbits are linked when it is the same T_i, that is when
    |N^(Delta u Delta')| = |N^Delta'|; when the |N^Delta| multiply to |N|,
    no two are.
    """
    unlinked = prod(orders) == N.order()
    classes: list[list[int]] = []
    for i, orbit in enumerate(orbs):
        for c in classes:
            j = c[0]
            if (not unlinked and orders[j] == orders[i]
                    and _restriction(N, orbs[j] + orbit).order()
                    == orders[j]):
                c.append(i)
                break
        else:
            classes.append([i])
    return sorted([([x for i in c for x in orbs[i]], orders[c[0]])
                   for c in classes], key=lambda c: min(c[0]))


def _cut_factors(N: PermGroup, classes: list[tuple[list[int], int]]
                 ) -> list[PermGroup] | None:
    """The groups F_U generated by the cuts to U of N's generators, one per
    class (U, order), when each has the given order and their orders
    multiply to |N|; otherwise None.

    The classes partition supp(N), so each generator of N is the product
    of its cuts and N lies in the direct product of the F_U: |N| =
    prod |F_U| makes the two equal, and with it puts every cut in N.
    Restriction to an orbit Delta in U maps F_U onto N^Delta, an
    isomorphism when the orders agree.
    """
    factors = []
    for points, order in classes:
        F = PermGroup(N.degree,
                      dict.fromkeys(_cut(g, points) for g in N.generators))
        if F.order() != order:
            return None
        factors.append(F)
    if prod(F.order() for F in factors) != N.order():
        return None
    return factors


def _orbit_blocks(G: PermGroup, N: PermGroup, rng: random.Random
                  ) -> list[list[PermGroup]] | None:
    """The minimal normal subgroups of G inside N, as lists of their
    simple factors, when one walk over N's orbits proves N simple or a
    direct product T_1 x ... x T_k of non-abelian simple groups; otherwise
    None.

    On each orbit Delta, the restriction R of N is proved simple when it
    is 2-transitive, not affine and perfect.  R is N itself only when N is
    transitive: the point stabilizers in an intransitive N act on every
    orbit, and would make A5 x A5 on 5 + 5 points look 2-transitive on
    its first orbit.  A simple N acts faithfully on each of its orbits,
    the kernel being a proper normal subgroup, so the first proved R with
    |R| = |N| returns [[N]].  When every restriction of an intransitive N
    is proved, ``_cut_factors`` checks the classes of ``_linked_classes``,
    so a wrong grouping is refused, not trusted.  G permutes the factors
    of N as it permutes their supports, and each G-orbit of factors is a
    minimal normal subgroup of G.  Factors and blocks come in order of
    least moved point.  Once the split is ruled out, only an orbit on
    which N may act faithfully (|N| divides |Delta|!) and not as an affine
    group is tried.  A restriction with |R| = |N| that is not perfect ends
    the walk: N is then isomorphic to R, so no orbit can prove it.
    """
    order = N.order()
    orbs = orbits(N)
    orders: list[int] | None = [] if len(orbs) > 1 else None
    for orbit in orbs:
        n = len(orbit)
        if orders is None and (factorial(n) % order
                               or _may_be_affine(n, order)):
            continue
        R = N if len(orbs) == 1 else _restriction(N, orbit)
        if not (is_two_transitive(R) and not _may_be_affine(n, R.order())):
            orders = None
        elif not _is_perfect(R, rng):
            if R.order() == order:  # N is isomorphic to R, so not perfect
                return None
            orders = None
        elif R.order() == order:
            return [[N]]
        elif orders is not None:
            orders.append(R.order())
    if orders is None:
        return None
    classes = _linked_classes(N, orbs, orders)
    factors = _cut_factors(N, classes)
    if factors is None:
        return None
    class_of = {x: i for i, (points, _) in enumerate(classes)
                for x in points}
    maps = [im.table.__getitem__ for im in induced_action(
        G, range(len(classes)),
        lambda g, i: class_of[g.table[classes[i][0][0]]])]
    blocks, seen = [], set()
    for i in range(len(classes)):
        if i not in seen:
            block = sorted(class_tree(i, maps))
            seen.update(block)
            blocks.append([factors[j] for j in block])
    return blocks


def minimal_normal_under(G: PermGroup, C: PermGroup,
                         seed: int = DEFAULT_SEED
                         ) -> tuple[PermGroup, bool,
                                    list[list[PermGroup]] | None]:
    """Minimal normal subgroups of G inside the normal subgroup C.

    Starts from the normal closure of the nontrivial generator of C with
    the smallest moved point, so the choice among several minimal normal
    subgroups is reproducible, and descends: whenever the closure of some
    element of the candidate is a proper nontrivial normal subgroup, it
    replaces the candidate.  Returns a normal subgroup N of G, whether its
    minimality was only sampled, and the minimal normal subgroups of G
    whose product is N, each as the list of its simple factors: [[N]] when
    N was found simple (proved exactly when minimality is), None when N is
    minimal normal but was found not simple and is left to split.

    Each candidate N, the first closure and each one it descends to, is
    first tested by one walk over its orbits (``_orbit_blocks``, orbits
    from ``bsgs.orbits`` and restrictions from stabilizer chains: Seress,
    *Permutation Group Algorithms*, 2003, ch. 5-6).  The restriction R of
    N to an orbit Delta with |Delta| >= 2 is simple when
      1. R is 2-transitive on Delta;
      2. the action is not affine: |Delta| is not a prime power p^d, or |R|
         does not divide |AGL(d, p)|, or 4 does not divide |R| / |Delta|
         (with 4, an affine R has a perfect point stabilizer, whose
         order 4 divides: see ``_may_be_affine``);
      3. R is perfect.
    By Burnside's theorem (Dixon and Mortimer, *Permutation Groups*, 1996,
    Thm 4.1B) a 2-transitive group is affine or almost simple, so by 1-2
    R is almost simple with socle T.  R/T lies in Out(T), which is
    solvable (Schreier's conjecture, a consequence of the classification),
    and R is perfect, so R = T.  The walk has two conclusions.  A simple R
    with |R| = |N| is N acting faithfully, so N is simple, hence minimal
    normal, and is returned with no sweep.  When N is intransitive and
    every R is simple, N is a subdirect product of simple groups, so a
    direct product of some of them (Dixon and Mortimer 1996, ch. 4), found
    as the groups generated by the cuts of N's generators to classes of
    linked orbits and checked by their orders.  G permutes these factors,
    each G-orbit of them is a minimal normal subgroup, and all are
    returned at once, in order of least moved point, with no sweep.  The
    walk draws from its own generator, so a candidate it does not prove
    gets the same sweep as without it.

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
                key=lambda g: (min(moved_points([g])), g.table))
    N = normal_closure(G, [start])
    while True:
        blocks = _orbit_blocks(G, N, proof_rng)
        if blocks is not None:
            return N, False, blocks
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
            return N, sampled, [[N]] if simple else None


def _is_abelian(H: PermGroup) -> bool:
    return next(_generator_commutators(H), None) is None


def _centralizer_recursion(G: PermGroup, seed: int):
    """Soc(G) = N × Soc(C_G(N)), unrolled.

    Adjoins the product N of the minimal normal subgroups of G that
    ``minimal_normal_under`` finds inside C, the centralizer of the
    product so far, and narrows C to C_C(N) until it is trivial.  Returns
    each N found with its blocks of simple factors (None when N is one
    minimal normal subgroup left to split), and whether the minimality of
    any of them was only sampled.  Any abelian N proves G is not
    Fitting-free.
    """
    parts: list[tuple[PermGroup, list[list[PermGroup]] | None]] = []
    sampled = False
    C = G
    while True:
        N, s, blocks = minimal_normal_under(G, C, seed)
        if _is_abelian(N):
            raise NotFittingFree("abelian minimal normal subgroup found")
        sampled |= s
        parts.append((N, blocks))
        # N = C proved a product of non-abelian simple groups:
        # C_C(N) = Z(N) = 1
        if blocks is not None and not s and N.order() == C.order():
            return parts, sampled
        C = centralizer_of_normal(C, N)
        if C.is_trivial():
            return parts, sampled


def socle_fitting_free(G: PermGroup,
                       seed: int = DEFAULT_SEED) -> SocleDecomposition:
    """Socle decomposition of G, certifying that G is Fitting-free.

    Each minimal normal subgroup comes with its simple factors, unless a
    sweep found it not simple; that one is split here, once.  The factors
    of one minimal normal subgroup form one block; callers pass
    ``factors`` on instead of splitting again.  The trivial group is its
    own socle, with no factors.
    """
    if G.is_trivial():
        return SocleDecomposition(socle=G, factors=[], minimal_normals=[],
                                  probabilistic_minimality=False)
    parts, sampled = _centralizer_recursion(G, seed)
    factors: list[PermGroup] = []
    blocks: list[list[int]] = []
    for N, found in parts:
        for split in found if found is not None else [simple_factors(N)]:
            blocks.append(list(range(len(factors),
                                     len(factors) + len(split))))
            factors += split
    socle = parts[0][0] if len(parts) == 1 else PermGroup(
        G.degree, [g for N, _ in parts for g in N.generators])
    return SocleDecomposition(socle=socle, factors=factors,
                              minimal_normals=blocks,
                              probabilistic_minimality=sampled)


def simple_factors(N: PermGroup) -> list[PermGroup]:
    """The simple factors of N, a direct product of non-abelian simple
    groups such as a minimal normal subgroup."""
    return [F for M, found in _centralizer_recursion(N, DEFAULT_SEED)[0]
            for block in found or [[M]] for F in block]


def _factor_image(g: Permutation, i: int, factors: list[PermGroup]) -> int:
    """Index j with factors[i]^g = factors[j].

    G permutes the factors of a block, and two distinct factors meet
    trivially, so the one factor that holds s^g, for one nontrivial s in
    factors[i], is factors[i]^g.
    """
    s = factors[i].generators[0]
    c = compose3(inverse(g), s, g)
    return next(j for j, Sj in enumerate(factors) if Sj.member(c))


def normalizer_of_factor(G: PermGroup, factors: list[PermGroup],
                         index: int) -> PermGroup:
    """N_G(factors[index]): a point stabilizer in the induced action of G
    on the factors of one block, whose generators each enlarge the group
    of those before them.  G normalizes a block, so the one factor of a
    one-factor block has N_G(S1) = G, and no action is induced."""
    if len(factors) == 1:
        return G
    images = induced_action(G, list(range(len(factors))),
                            lambda g, i: _factor_image(g, i, factors))
    return preimage_of_stabilizer(G, images, index)

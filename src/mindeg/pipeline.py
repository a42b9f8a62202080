"""Minimal faithful degree of Fitting-free permutation groups.

For each minimal normal subgroup N_i of G the almost-simple group
A = N_G(S1)/C_G(S1) (S1 a simple factor of N_i) decides mu(G, N_i) through
a dispatch table of exceptional cases; the answer is the weighted sum
mu(G) = sum l_i * mu(G, N_i) over the minimal normal subgroups.

Cases that hinge on recognizing a graph automorphism need an explicit
isomorphism between the factor and its standard matrix copy; those arrive
as recognition hints (JSON) and are transported to matrix automorphisms.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import product as iproduct
from math import factorial
from typing import Optional

from .autlift import (
    MatrixAut, ProjectiveAut, lift_omega_aut, lift_psl_aut, subgroup_in_gamma,
)
from .bsgs import (
    PermGroup, build_group, centralizer_of_normal, evaluate_word, moved_points,
)
from .errors import DegreeCheckFailed, HintRequired, UnsupportedCase
from .fflinalg import (
    FFMatrix, determinant, form_matrix, identity_matrix, invert, matrix,
    multiply, preserves_form, standard_generators,
)
from .oracle import ORACLE_LIMIT
from .perm import Permutation, compose, conjugate, identity, inverse
from .simpleid import SimpleName, mu_simple, name_simple
from .smallgroup import QuotientGroup, isomorphism_search, list_elements
from .socle import DEFAULT_SEED, normalizer_of_factor, socle_fitting_free

FIELD_CONVENTION = "lex-least-irreducible"


# ---------------------------------------------------------------------------
# Projective permutation actions of the standard matrix copies


def projective_points(fld, d: int) -> list[tuple]:
    """Projective-point representatives: first nonzero coordinate is 1."""
    pts = []
    for v in iproduct(fld.elements(), repeat=d):
        nz = next((x for x in v if x), None)
        if nz == 1:
            pts.append(v)
    return pts


def matrix_to_projective_perm(U: FFMatrix, pts: list[tuple],
                              index: dict) -> Permutation:
    """The permutation induced by U on normalized projective points."""
    fld = U.field
    images = []
    for v in pts:
        w = []
        for row in U.rows:
            acc = 0
            for x, y in zip(row, v):
                acc = fld.add(acc, fld.mul(x, y))
            w.append(acc)
        nz = next(x for x in w if x)
        iv = fld.inv(nz)
        images.append(index[tuple(fld.mul(iv, x) for x in w)])
    return Permutation(tuple(images))


def projective_action(family: str, d: int, q: int):
    """(field, L, projection pi of the standard copy onto permutations)."""
    fld, L = standard_generators(family, d, q)
    pts = projective_points(fld, d)
    index = {v: i for i, v in enumerate(pts)}

    def pi(U: FFMatrix) -> Permutation:
        return matrix_to_projective_perm(U, pts, index)

    return fld, L, pi


# ---------------------------------------------------------------------------
# Recognition hints


@dataclass
class RecognitionHint:
    """An isomorphism from a socle factor to its standard matrix copy.

    generators are permutations generating the factor; generator_images are
    matrix representatives (modulo the center) of their images.
    """

    factor_index: int
    degree: int  # of the permutation generators
    family: str  # matrix-cover family: "SL", "Sp", "OmegaPlus"
    d: int
    q: int
    generator_images: list[FFMatrix]
    generators: list[Permutation]


def load_hint(data: dict) -> RecognitionHint:
    """Parse and statically validate a hint dictionary (see hint JSON docs)."""
    for key in ("factor_index", "family", "d", "q", "field_convention",
                "generator_images", "generators", "degree"):
        if key not in data:
            raise ValueError(f"hint is missing the {key!r} field")
    if data["field_convention"] != FIELD_CONVENTION:
        raise ValueError(
            f"unsupported field convention {data['field_convention']!r}")
    family, d, q = data["family"], int(data["d"]), int(data["q"])
    fld, _ = standard_generators(family, d, q)
    images = []
    for flat in data["generator_images"]:
        if len(flat) != d * d:
            raise ValueError("generator image has wrong length")
        rows = [list(flat[r * d:(r + 1) * d]) for r in range(d)]
        images.append(matrix(fld, rows))
    _check_membership(family, d, q, images)
    degree = int(data["degree"])
    gens = [Permutation(tuple(img)) for img in data["generators"]]
    if any(g.degree != degree for g in gens):
        raise ValueError("hint generator degree mismatch")
    # PermGroup drops identity generators, which would shift hint words
    if any(g.is_identity() for g in gens):
        raise ValueError("hint generator is the identity")
    return RecognitionHint(factor_index=int(data["factor_index"]),
                           degree=degree, family=family, d=d, q=q,
                           generator_images=images, generators=gens)


def load_hint_file(path: str) -> RecognitionHint:
    with open(path, "r", encoding="utf-8") as fh:
        return load_hint(json.load(fh))


def _check_membership(family: str, d: int, q: int,
                      images: list[FFMatrix]) -> None:
    if family in ("SL", "OmegaPlus"):
        for M in images:
            if determinant(M) != 1:
                raise ValueError("hint image is not in the standard copy "
                                 "(determinant is not 1)")
    if family in ("Sp", "OmegaPlus"):
        X = form_matrix(family, d, q)
        for M in images:
            if not preserves_form(M, X):
                raise ValueError("hint image does not preserve the form")


# ---------------------------------------------------------------------------
# The almost-simple group A = N_G(S1) / C_G(S1)


@dataclass
class InducedAutData:
    """A = N_G(S1)/C_G(S1) together with its generator automorphisms."""

    order: int
    order_S: int
    S1: PermGroup
    normalizer: PermGroup
    centralizer: PermGroup
    matrix_auts: Optional[list[MatrixAut]] = None  # present when hinted

    @property
    def outer_index(self) -> int:
        return self.order // self.order_S


def induced_aut_group(G: PermGroup, factors: list[PermGroup], index: int,
                      hint: Optional[RecognitionHint] = None) -> InducedAutData:
    """A = N_G(S1)/C_G(S1) with its generator conjugation automorphisms,
    for S1 = factors[index].

    ``factors`` are the simple factors of one minimal normal subgroup, as
    split by ``socle_fitting_free``.  With a hint, each
    conjugation automorphism C_g is transported to a matrix automorphism of
    the standard copy via Iso o C_g o Iso^{-1}, evaluated through word
    decompositions.  Words from one chain share their nodes, so all words
    evaluated over the same images share one memo.
    """
    S1 = factors[index]
    # keep only generators that enlarge N_G(S1): each costs a class walk in
    # the centralizer and, with a hint, a lift; for a one-factor block
    # N_G(S1) is G with all of its generators
    NG = PermGroup(G.degree)
    for g in normalizer_of_factor(G, factors, index).generators:
        NG.extend(g)
    CG = centralizer_of_normal(NG, S1)
    order_A = NG.order() // CG.order()
    data = InducedAutData(order=order_A, order_S=S1.order(), S1=S1,
                          normalizer=NG, centralizer=CG)
    if hint is None:
        return data

    hint_gens = hint.generators
    if len(hint_gens) != len(hint.generator_images):
        raise ValueError("hint image count does not match generator count")
    for g in hint_gens:
        if not S1.member(g):
            raise ValueError("hint generator is not in the factor")
    hint_group = build_group(S1.degree, hint_gens)
    if hint_group.order() != S1.order():
        raise ValueError("hint generators do not generate the factor")

    fld, L, pi = projective_action(hint.family, hint.d, hint.q)
    mats = hint.generator_images
    pi_mats = [pi(M) for M in mats]
    Gstd = build_group(pi_mats[0].degree, pi_mats)
    if Gstd.order() != hint_group.order():
        raise ValueError("hint images do not generate the standard copy "
                         "(order mismatch)")
    # both projections of the diagonal group D = <h_i + pi(M_i)> are onto;
    # equal orders make them injective, so h_i -> pi(M_i) is an isomorphism
    n = S1.degree
    D = build_group(n + Gstd.degree, [
        Permutation(h.images + tuple(n + x for x in m.images))
        for h, m in zip(hint_gens, pi_mats)])
    if D.order() != hint_group.order():
        raise ValueError("hint images do not define an isomorphism from "
                         "the factor")

    # preimages of the standard generators: decompose pi(U) in the copy
    # generated by the hint images, replay the word over the hint perms
    preimages = []
    gen_invs = [inverse(h) for h in hint_gens]
    memo: dict = {}
    for U in L:
        ok, word = Gstd.contains(pi(U))
        assert ok, "standard generator missing from the hinted copy"
        preimages.append(evaluate_word(word, hint_gens, gen_invs, compose,
                                       identity(S1.degree), memo))

    inverses = [invert(M) for M in mats]
    one = identity_matrix(fld, hint.d)
    memo = {}
    matrix_auts = []
    for g in NG.generators:
        reps = []
        for s in preimages:
            c = conjugate(s, g)
            ok, word = hint_group.contains(c)
            assert ok, "conjugate left the factor"
            reps.append(evaluate_word(word, mats, inverses, multiply, one,
                                      memo))
        lam = ProjectiveAut(hint.family, hint.d, hint.q, tuple(reps))
        if hint.family == "SL":
            matrix_auts.append(lift_psl_aut(lam))
        elif hint.family == "OmegaPlus":
            matrix_auts.append(lift_omega_aut(lam))
        else:  # Sp(4, 2^e): trivial center, representatives are exact
            matrix_auts.append(MatrixAut("Sp", L, reps))
    data.matrix_auts = matrix_auts
    return data


# ---------------------------------------------------------------------------
# Dispatch table


def _embeds_in_sym6(data: InducedAutData) -> bool:
    """Whether A embeds into Sym(6) (decides the Alt(6) table row).

    A contains a copy of Alt(6), so |A| is 360, 720 or 1440.  An order-720
    subgroup of Sym(6) is Sym(6) itself, so only the middle case needs an
    isomorphism search.
    """
    if data.order > 720:
        return False
    if data.order == 360:  # A is Alt(6) itself
        return True
    A = list_elements(QuotientGroup(data.normalizer, data.centralizer),
                      bound=ORACLE_LIMIT)
    s6_perm = build_group(6, [Permutation((1, 0, 2, 3, 4, 5)),
                              Permutation((1, 2, 3, 4, 5, 0))])
    S6 = list_elements(s6_perm, bound=ORACLE_LIMIT)
    return isomorphism_search(A, S6) is not None


def _graph_part_present(data: InducedAutData, condition: str) -> bool:
    """Whether some generator automorphism has a graph part (for OmegaPlus:
    fails the orthogonal form test)."""
    if data.matrix_auts is None:
        raise HintRequired(
            f"deciding the {condition} condition needs a recognition "
            "hint for this factor")
    return not subgroup_in_gamma(data.matrix_auts)


def dispatch_table(name: SimpleName, data: InducedAutData):
    """(mu(G,N), rule tag) for the almost-simple group A over the factor S.

    Rows are tried in the table order; when no exceptional row applies the
    default mu(G,N) = mu(S) is returned.
    """
    idx = data.outer_index
    f, par = name.family, name.params

    if f == "Alt" and par[0] == 6:
        if not _embeds_in_sym6(data):
            return 10, "row 1"
        return mu_simple(name), "default (A embeds in Sym(6))"
    if f == "PSL" and par == (2, 7) and idx == 2:
        return 8, "row 2"
    if f == "Sporadic" and par[0] == "M12" and idx == 2:
        return 2 * mu_simple(name), "row 3"
    if f == "Sporadic" and par[0] == "ON" and idx == 2:
        return 2 * mu_simple(name), "row 4"
    if f == "PSU" and par == (3, 5) and idx % 3 == 0:
        # a diagonal outer automorphism puts A outside every conjugate of
        # the field-extension subgroup
        return 126, "row 5"
    if f == "POmegaPlus" and par == (8, 2) and idx % 3 == 0:
        return 3 * mu_simple(name), "row 6"
    if f == "POmegaPlus" and par == (8, 3):
        if idx % 12 == 0:
            return 3360, "row 8"
        if idx % 3 == 0:
            return 3 * mu_simple(name), "row 7"
        if idx > 1:
            raise UnsupportedCase(
                "POmegaPlus(8,3) with 3 not dividing |A/S| needs the "
                "triality conjugacy check in Aut(POmegaPlus(8,3)) "
                f"(|A/S| = {idx})")
    if f == "ExcLie" and par[0] == "G2" and par[1] == 3 and idx == 2:
        return 2 * mu_simple(name), "row 9"
    if f == "POmegaPlus" and par[0] == 8 and par[1] >= 4 and idx % 3 == 0:
        return 3 * mu_simple(name), "row 10"
    if (f == "PSL" and par[0] >= 3 and par not in ((3, 2), (4, 2))
            and idx > 1):
        if _graph_part_present(data, "graph-automorphism"):
            return 2 * mu_simple(name), "row 11"
        return mu_simple(name), "default (A inside PGammaL)"
    if f == "PSp" and par[0] == 4 and par[1] % 2 == 0 and idx > 1:
        if _graph_part_present(data, "graph-automorphism"):
            return 2 * mu_simple(name), "row 12"
        return mu_simple(name), "default (A inside PGammaSp)"
    if f == "POmegaPlus" and par[1] == 3 and par[0] > 8 and idx % 3 != 0 \
            and idx > 1:
        if _graph_part_present(data, "orthogonal form"):
            d = par[0] // 2
            return (3 ** d - 1) * (3 ** (d - 1) + 1) // 2, "row 13"
        return mu_simple(name), "default (A inside PO+)"
    if f == "ExcLie":
        typ, q = par
        if (typ == "G2" and q > 3) or typ in ("F4", "E6"):
            raise UnsupportedCase(
                f"automorphism analysis for {name} is out of scope "
                "(table rows 14-16)")
    return mu_simple(name), "default"


# ---------------------------------------------------------------------------
# Certificates and the top-level computation


@dataclass
class MinimalNormalRecord:
    length: int                 # number of factors in the orbit
    factor_name: Optional[str]
    order_A: Optional[int]
    outer_index: Optional[int]
    rule: Optional[str]
    mu: Optional[int]
    error: Optional[str] = None


@dataclass
class MuCertificate:
    group_order: int
    socle_order: int
    factor_orders: list[int]
    minimal_normal_blocks: list[list[int]]
    records: list[MinimalNormalRecord] = field(default_factory=list)
    total: Optional[int] = None
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def mu_fitting_free(G: PermGroup,
                    hints: Optional[list[RecognitionHint]] = None,
                    seed: int = DEFAULT_SEED) -> MuCertificate:
    """mu(G) with a full certificate; G must be Fitting-free.

    The trivial group embeds in Sym(0): its total is 0, with an empty socle
    and no records.  Raises ValueError for a hint of another degree than
    G's, one that names no factor, or two that name one block.  Raises
    HintRequired/UnsupportedCase with the partial certificate attached
    (``error.certificate``) when some minimal normal subgroup cannot be
    dispatched.
    """
    hints = hints or []
    dec = socle_fitting_free(G, seed)
    for h in hints:
        if h.degree != G.degree:
            raise ValueError(
                f"hint degree mismatch: the hint for factor_index "
                f"{h.factor_index} has degree {h.degree}, G has degree "
                f"{G.degree}")
        if not 0 <= h.factor_index < len(dec.factors):
            raise ValueError(
                f"hint factor_index {h.factor_index} names no factor: the "
                f"socle has {len(dec.factors)} simple factor(s)")
    for i, block in enumerate(dec.minimal_normals):
        named = [h.factor_index for h in hints if h.factor_index in block]
        if len(named) > 1:
            raise ValueError(
                f"{len(named)} hints name minimal normal block {i} (factors "
                f"{', '.join(map(str, block))}): factor_index "
                f"{', '.join(map(str, named))}; give one hint per block")
    cert = MuCertificate(
        group_order=G.order(),
        socle_order=dec.socle.order(),
        factor_orders=[F.order() for F in dec.factors],
        minimal_normal_blocks=dec.minimal_normals,
        flags={"probabilistic-minimality": dec.probabilistic_minimality,
               "hint-used": False, "unsupported-case": False},
    )
    failure: Optional[Exception] = None
    total = 0
    for orbit in dec.minimal_normals:
        hint = next((h for h in hints if h.factor_index in orbit), None)
        # the hinted factor serves as S1 (conjugation transports the hint
        # across the orbit)
        k = orbit.index(hint.factor_index) if hint is not None else 0
        factors = [dec.factors[i] for i in orbit]
        record = MinimalNormalRecord(length=len(orbit), factor_name=None,
                                     order_A=None, outer_index=None,
                                     rule=None, mu=None)
        cert.records.append(record)
        try:
            name = name_simple(factors[k])
            record.factor_name = str(name)
            data = induced_aut_group(G, factors, k, hint)
            if hint is not None:
                cert.flags["hint-used"] = True
            record.order_A = data.order
            record.outer_index = data.outer_index
            mu, rule = dispatch_table(name, data)
            record.mu = mu
            record.rule = rule
            total += len(orbit) * mu
        except (HintRequired, UnsupportedCase) as exc:
            record.error = str(exc)
            cert.flags["unsupported-case"] = True
            if failure is None:
                failure = exc
    if failure is not None:
        failure.certificate = cert
        raise failure
    _check_degree(G, total)
    cert.total = total
    return cert


def _check_degree(G: PermGroup, mu: int) -> None:
    """Raise DegreeCheckFailed unless mu passes two necessary conditions.

    G acts faithfully on the points it moves, so mu is at most their
    number; and G embeds in Sym(mu), so |G| divides mu!.
    """
    moved = len(moved_points(G.generators))
    if mu > moved:
        raise DegreeCheckFailed(
            f"computed mu = {mu} exceeds the {moved} points that G moves")
    if factorial(mu) % G.order():
        raise DegreeCheckFailed(
            f"computed mu = {mu} is impossible: |G| = {G.order()} does not "
            f"divide {mu}!")

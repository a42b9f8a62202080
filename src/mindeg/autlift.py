"""Lifting projective automorphisms to matrix covers and classifying them.

A projective automorphism (given by its action on the projections of the
standard generating set L) is lifted to the matrix cover image by image:
``order_p_multiple`` picks the unique scalar multiple of each image whose
order is the characteristic, for every family.  Classification then
searches the field exponent t' and graph flag t'' for the unique pair
making the twisted map inner-or-diagonal, which is decided by the matrix
commutation solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fflinalg import (
    FFMatrix, MatrixAut, form_matrix, frobenius, identity_matrix, invert,
    matrix, multiply, scalar_multiply, solve_commutation,
    standard_generators, transpose,
)

_EXCLUDED_PSL = {(3, 2), (4, 2)}


@dataclass(frozen=True)
class ProjectiveAut:
    """An automorphism of a projective group, by generator images.

    ``images[i]`` is any scalar multiple of a matrix in the image coset
    lambda(U_i Z) of the i-th standard generator of the matrix cover.
    """

    family: str  # matrix-cover family: "SL", "Sp", "OmegaPlus"
    d: int       # matrix dimension
    q: int
    images: tuple


@dataclass
class AutClassification:
    """Decomposition type of a matrix-cover automorphism.

    t_prime in [1, e] is the Frobenius exponent (t_prime = e means no
    field part); t_doubleprime is the graph flag.  in_gamma is true when
    the automorphism has no graph part.
    """

    t_prime: int
    t_doubleprime: int
    witness_F: Optional[FFMatrix]
    in_gamma: bool


def order_p_multiple(V: FFMatrix) -> FFMatrix:
    """The unique scalar multiple of V whose order is the characteristic p.

    V^p = cI when V is a projective element of order p.  Then (lambda V)^p
    = lambda^p c I, and y -> y^p is a bijection of F_q^* with inverse
    y -> y^(q/p), so lambda = c^(-q/p) is the only multiple of order p.
    """
    field = V.field
    I = identity_matrix(field, V.nrows)
    P = V
    for _ in range(field.p - 1):
        P = multiply(P, V)
    c = P.rows[0][0]
    if (not c or P != scalar_multiply(c, I)
            or V == scalar_multiply(V.rows[0][0], I)):
        raise ValueError("image coset contains no element of order p; "
                         "the input is not an automorphism")
    return scalar_multiply(field.pow(field.inv(c), field.q // field.p), V)


def _lift(lam: ProjectiveAut, L: list[FFMatrix]) -> MatrixAut:
    if len(lam.images) != len(L):
        raise ValueError("one image per standard generator required")
    return MatrixAut(lam.family, L, [order_p_multiple(V) for V in lam.images])


def lift_psl_aut(lam: ProjectiveAut) -> MatrixAut:
    """Lift an automorphism of PSL(d,q), d >= 3, to SL(d,q).

    The scalar multiples of each image contain exactly one element of
    order p (the characteristic); that element is alpha(U).  Excluded:
    (d,q) in {(3,2), (4,2)} where the uniqueness fails.
    """
    if lam.family != "SL":
        raise ValueError("expected an SL-cover automorphism")
    if lam.d < 3:
        raise ValueError("lifting requires d >= 3")
    if (lam.d, lam.q) in _EXCLUDED_PSL:
        raise ValueError(f"(d,q) = ({lam.d},{lam.q}) is excluded")
    _, L = standard_generators("SL", lam.d, lam.q)
    return _lift(lam, L)


def lift_omega_aut(lam: ProjectiveAut) -> MatrixAut:
    """Lift an automorphism of POmega+(2d,3), 2d >= 8, to Omega+(2d,3).

    Z = {I, -I}, and of each image's multiples V and -V exactly one has
    order 3.
    """
    if lam.family != "OmegaPlus":
        raise ValueError("expected an OmegaPlus-cover automorphism")
    if lam.d < 8:
        raise ValueError("lifting requires matrix size 2d >= 8")
    _, L = standard_generators("OmegaPlus", lam.d, lam.q)
    return _lift(lam, L)


def sp_graph_permutation(q: int) -> list[int]:
    """The graph automorphism of Sp(4, 2^e) as a permutation of L.

    Short root elements map to the dual long root elements with the same
    parameter; long root elements map to short ones with the parameter
    squared (so the square of the map is the Frobenius).  Index layout
    matches standard_generators("Sp", 4, q).
    """
    field, L = standard_generators("Sp", 4, q)

    def idx_short(off: int, beta: int) -> int:
        # off: 0 = x_{e1-e2}, 1 = x_{e2-e1}, 2 = x_{e1+e2}, 3 = x_{-e1-e2}
        return (beta - 1) * 4 + off

    def idx_long(i: int, neg: int, beta: int) -> int:
        # x_{2e_i} (neg = 0) or x_{-2e_i} (neg = 1)
        return 4 * (q - 1) + (i - 1) * 2 * (q - 1) + (beta - 1) * 2 + neg

    perm = [None] * len(L)
    for beta in range(1, q):
        sq = field.mul(beta, beta)
        perm[idx_short(0, beta)] = idx_long(2, 0, beta)
        perm[idx_short(1, beta)] = idx_long(2, 1, beta)
        perm[idx_short(2, beta)] = idx_long(1, 0, beta)
        perm[idx_short(3, beta)] = idx_long(1, 1, beta)
        perm[idx_long(2, 0, beta)] = idx_short(0, sq)
        perm[idx_long(2, 1, beta)] = idx_short(1, sq)
        perm[idx_long(1, 0, beta)] = idx_short(2, sq)
        perm[idx_long(1, 1, beta)] = idx_short(3, sq)
    assert sorted(perm) == list(range(len(L)))
    return perm


def _frobenius_matrix(U: FFMatrix, t: int) -> FFMatrix:
    field = U.field
    return matrix(field, [[frobenius(field, x, t) for x in row]
                          for row in U.rows])


def classify_aut(alpha: MatrixAut) -> AutClassification:
    """The unique (t', t'') with alpha o f^{-t'} o g^{-t''} inner-or-diagonal.

    For the OmegaPlus family the commutation system is always solvable and
    the graph question becomes the form test F X F^t = c X with c a square.
    """
    L = alpha.gens
    field = L[0].field
    e = field.e

    if alpha.family == "OmegaPlus":
        F = solve_commutation(L, alpha.images)
        assert F is not None, "OmegaPlus commutation system must be solvable"
        X = form_matrix("OmegaPlus", L[0].nrows, field.q)
        M = multiply(multiply(F, X), transpose(F))
        c = next(M.rows[r][k]
                 for r in range(X.nrows) for k in range(X.ncols)
                 if X.rows[r][k])
        if M != scalar_multiply(c, X):
            raise ValueError("F does not scale the form; not an automorphism")
        # c = 2 is a non-square in F_3, so no rescaling of F fixes the form
        in_gamma = (c == 1)
        return AutClassification(t_prime=e, t_doubleprime=0 if in_gamma else 1,
                                 witness_F=F, in_gamma=in_gamma)

    index = {U.rows: i for i, U in enumerate(L)}
    if alpha.family == "Sp":
        graph = sp_graph_permutation(field.q)
    elif alpha.family == "SL":
        graph = [index[transpose(invert(U)).rows] for U in L]
    else:
        raise ValueError(f"unknown family {alpha.family!r}")
    # preimages of L under no graph part (t'' = 0) and under the graph map
    graph_inv = [0] * len(L)
    for i, j in enumerate(graph):
        graph_inv[j] = i

    passing = []
    for t2, preimage in enumerate((range(len(L)), graph_inv)):
        for t1 in range(1, e + 1):
            images = []
            for j in preimage:
                W = _frobenius_matrix(L[j], (e - t1) % e)
                images.append(alpha.images[index[W.rows]])
            F = solve_commutation(L, images)
            if F is not None:
                passing.append(AutClassification(
                    t_prime=t1, t_doubleprime=t2, witness_F=F,
                    in_gamma=(t2 == 0)))
    if not passing:
        raise ValueError("no (t', t'') pair passes; not an automorphism")
    assert len(passing) == 1, "classification must be unique"
    return passing[0]


def subgroup_in_gamma(generator_auts: list[MatrixAut]) -> bool:
    """True iff no generator automorphism carries a graph part."""
    return all(classify_aut(a).in_gamma for a in generator_auts)

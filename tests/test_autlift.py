import random

import pytest

from mindeg.autlift import (
    ProjectiveAut, classify_aut, lift_omega_aut, lift_psl_aut,
    order_p_multiple, sp_graph_permutation, subgroup_in_gamma,
)
from mindeg.fflinalg import (
    MatrixAut, determinant, form_matrix, frobenius, identity_matrix, invert,
    matrix, multiply, preserves_form, scalar_multiply, solve_commutation,
    standard_generators, transpose,
)

from .groups import center_scalars


def random_word_element(L, rng, length=10):
    field = L[0].field
    g = identity_matrix(field, L[0].nrows)
    for _ in range(length):
        g = multiply(g, L[rng.randrange(len(L))])
    return g


def projective_equal(A, B, scalars):
    """AZ = BZ: the quotient-difference A B^{-1} must be a central scalar."""
    D = multiply(A, invert(B))
    return any(D == scalar_multiply(c, identity_matrix(D.field, D.nrows))
               for c in scalars)


def conj_aut(family, L, g):
    gi = invert(g)
    return MatrixAut(family, L, [multiply(multiply(g, U), gi) for U in L])


def frob_aut(family, L, t=1):
    field = L[0].field
    return MatrixAut(family, L, [
        matrix(field, [[frobenius(field, x, t) for x in row] for row in U.rows])
        for U in L])


# --- lifting -----------------------------------------------------------------


def test_lift_psl_identity():
    field, L = standard_generators("SL", 3, 4)
    lam = ProjectiveAut("SL", 3, 4, tuple(L))
    alpha = lift_psl_aut(lam)
    assert alpha.images == L


def test_lift_psl_recovers_inner_aut_from_scaled_cosets():
    field, L = standard_generators("SL", 3, 4)
    rng = random.Random(7)
    g = random_word_element(L, rng)
    expected = conj_aut("SL", L, g).images
    scalars = center_scalars("SL", 3, field)
    assert len(scalars) == 3  # |Z(SL(3,4))| = gcd(3, 3)
    # hand the lift arbitrary coset representatives
    reps = [scalar_multiply(scalars[i % len(scalars)], V)
            for i, V in enumerate(expected)]
    alpha = lift_psl_aut(ProjectiveAut("SL", 3, 4, tuple(reps)))
    assert alpha.images == expected


def test_lift_psl_round_trip_projectively():
    field, L = standard_generators("SL", 3, 4)
    scalars = center_scalars("SL", 3, field)
    rng = random.Random(11)
    g = random_word_element(L, rng)
    reps = conj_aut("SL", L, g).images
    alpha = lift_psl_aut(ProjectiveAut("SL", 3, 4, tuple(reps)))
    for V, W in zip(alpha.images, reps):
        assert projective_equal(V, W, scalars)


def test_lift_psl_is_multiplicative_on_inner_auts():
    field, L = standard_generators("SL", 3, 4)
    rng = random.Random(23)
    g1 = random_word_element(L, rng)
    g2 = random_word_element(L, rng)
    a1 = lift_psl_aut(ProjectiveAut("SL", 3, 4, tuple(conj_aut("SL", L, g1).images)))
    a12 = lift_psl_aut(ProjectiveAut(
        "SL", 3, 4, tuple(conj_aut("SL", L, multiply(g1, g2)).images)))
    g1i = invert(g1)
    for U, V in zip(conj_aut("SL", L, g2).images, a12.images):
        # (conj g1) o (conj g2) applied to U
        assert multiply(multiply(g1, U), g1i) == V


def test_lift_psl_rejects_bad_input():
    field, L = standard_generators("SL", 3, 4)
    with pytest.raises(ValueError):
        lift_psl_aut(ProjectiveAut("Sp", 3, 4, tuple(L)))
    with pytest.raises(ValueError):
        lift_psl_aut(ProjectiveAut("SL", 2, 4, tuple(L)))
    with pytest.raises(ValueError):
        lift_psl_aut(ProjectiveAut("SL", 3, 2, tuple(L)))
    with pytest.raises(ValueError):
        lift_psl_aut(ProjectiveAut("SL", 4, 2, tuple(L)))
    # an image coset with no order-2 element signals a non-automorphism
    bad = [identity_matrix(field, 3)] + list(L[1:])
    with pytest.raises(ValueError):
        lift_psl_aut(ProjectiveAut("SL", 3, 4, tuple(bad)))


def test_lift_omega_identity_and_inner():
    field, L = standard_generators("OmegaPlus", 8, 3)
    assert center_scalars("OmegaPlus", 8, field) == [1, 2]
    lam = ProjectiveAut("OmegaPlus", 8, 3, tuple(L))
    assert lift_omega_aut(lam).images == L

    rng = random.Random(3)
    g = random_word_element(L, rng, length=6)
    expected = conj_aut("OmegaPlus", L, g).images
    reps = [scalar_multiply(2, V) if i % 2 else V
            for i, V in enumerate(expected)]
    alpha = lift_omega_aut(ProjectiveAut("OmegaPlus", 8, 3, tuple(reps)))
    assert alpha.images == expected


def test_lift_omega_rejects_small_dimension():
    field, L = standard_generators("OmegaPlus", 8, 3)
    with pytest.raises(ValueError):
        lift_omega_aut(ProjectiveAut("OmegaPlus", 6, 3, tuple(L)))
    with pytest.raises(ValueError):
        lift_omega_aut(ProjectiveAut("SL", 8, 3, tuple(L)))


# --- the order-p lift, on every family ------------------------------------------


def _power(V, k):
    P = V
    for _ in range(k - 1):
        P = multiply(P, V)
    return P


@pytest.mark.parametrize("family,d,q", [("SL", 3, 3), ("SL", 3, 4),
                                        ("Sp", 4, 4), ("OmegaPlus", 8, 3)])
def test_order_p_multiple_is_the_one_multiple_of_order_p(family, d, q):
    field, L = standard_generators(family, d, q)
    I = identity_matrix(field, d)
    g = random_word_element(L, random.Random(41), length=6)
    for U in conj_aut(family, L, g).images:
        multiples = [scalar_multiply(c, U) for c in range(1, q)]
        assert [W for W in multiples
                if W != I and _power(W, field.p) == I] == [U]
        assert all(order_p_multiple(W) == U for W in multiples)
    # a scalar has order 1 in every multiple; diag(x, 1, .., 1, 1/x) for
    # the primitive x = 2 of F_3 and F_4 has a non-scalar p-th power
    diag = matrix(field, [[(2 if i == 0 else field.inv(2) if i == d - 1
                            else 1) if i == j else 0 for j in range(d)]
                          for i in range(d)])
    for V in (I, diag):
        with pytest.raises(ValueError, match="no element of order p"):
            order_p_multiple(V)


def test_lift_psl_accepts_representatives_outside_sl():
    # -U has determinant -1 in SL(3,3), whose center is trivial; -U has
    # order 6, and its order-3 multiple U is in SL, as an element of
    # order p has det^p = 1 and p does not divide q - 1
    field, L = standard_generators("SL", 3, 3)
    reps = [scalar_multiply(2, U) for U in L]
    assert {determinant(V) for V in reps} == {2}
    alpha = lift_psl_aut(ProjectiveAut("SL", 3, 3, tuple(reps)))
    assert alpha.images == L


# --- inner-or-diagonal test ----------------------------------------------------
# An automorphism is inner-or-diagonal iff F U F^{-1} = alpha(U) on L has a
# solution F.


def test_is_inner_or_diagonal_identity():
    _, L = standard_generators("SL", 3, 3)
    F = solve_commutation(L, list(L))
    assert F is not None
    field = F.field
    assert F == scalar_multiply(F.rows[0][0], identity_matrix(field, 3))


def test_is_inner_or_diagonal_inner():
    _, L = standard_generators("SL", 3, 3)
    rng = random.Random(5)
    g = random_word_element(L, rng)
    alpha = conj_aut("SL", L, g)
    F = solve_commutation(alpha.gens, alpha.images)
    assert F is not None
    # F is proportional to g
    field = F.field
    lam = None
    for r in range(3):
        for c in range(3):
            if g.rows[r][c]:
                ratio = field.mul(F.rows[r][c], field.inv(g.rows[r][c]))
                lam = ratio if lam is None else lam
                assert ratio == lam
            else:
                assert F.rows[r][c] == 0


def test_is_inner_or_diagonal_graph_fails():
    _, L = standard_generators("SL", 3, 3)
    alpha = MatrixAut("SL", L, [transpose(invert(U)) for U in L])
    assert solve_commutation(alpha.gens, alpha.images) is None


# --- classification ------------------------------------------------------------


def test_classify_frobenius_on_sl34():
    _, L = standard_generators("SL", 3, 4)
    cls = classify_aut(frob_aut("SL", L))
    assert (cls.t_prime, cls.t_doubleprime) == (1, 0)
    assert cls.in_gamma


def test_classify_graph_on_sl33():
    _, L = standard_generators("SL", 3, 3)
    alpha = MatrixAut("SL", L, [transpose(invert(U)) for U in L])
    cls = classify_aut(alpha)
    assert cls.t_doubleprime == 1
    assert not cls.in_gamma


def test_classify_inner_on_sl34():
    _, L = standard_generators("SL", 3, 4)
    rng = random.Random(13)
    cls = classify_aut(conj_aut("SL", L, random_word_element(L, rng)))
    assert (cls.t_prime, cls.t_doubleprime) == (L[0].field.e, 0)
    assert cls.in_gamma and cls.witness_F is not None


def test_classify_sp_identity_frobenius_and_graph():
    field, L = standard_generators("Sp", 4, 4)
    ident = MatrixAut("Sp", L, list(L))
    cls = classify_aut(ident)
    assert (cls.t_prime, cls.t_doubleprime) == (2, 0)

    cls = classify_aut(frob_aut("Sp", L))
    assert (cls.t_prime, cls.t_doubleprime) == (1, 0)

    perm = sp_graph_permutation(4)
    graph = MatrixAut("Sp", L, [L[perm[i]] for i in range(len(L))])
    cls = classify_aut(graph)
    assert cls.t_doubleprime == 1
    assert not cls.in_gamma


def test_sp_graph_permutation_squares_to_frobenius():
    field, L = standard_generators("Sp", 4, 4)
    perm = sp_graph_permutation(4)
    for i, U in enumerate(L):
        twice = L[perm[perm[i]]]
        frob = matrix(field, [[frobenius(field, x, 1) for x in row]
                              for row in U.rows])
        assert twice == frob


def test_sp_graph_permutation_respects_relations():
    # L_i -> L_perm(i) extends to an automorphism iff the diagonal group
    # <pi(L_i) + pi(L_perm(i))> has the order of the group: then both its
    # projections are injective.  Swapping two images breaks it.
    from mindeg.bsgs import build_group
    from mindeg.perm import Permutation
    from mindeg.pipeline import projective_action

    _, L, pi, _ = projective_action("Sp", 4, 4)
    perms = [pi(U) for U in L]
    n = perms[0].degree
    order = build_group(n, perms).order()

    def diagonal_order(perm):
        return build_group(2 * n, [
            Permutation(perms[i].images + tuple(n + y for y in
                                                perms[j].images))
            for i, j in enumerate(perm)]).order()

    perm = sp_graph_permutation(4)
    assert diagonal_order(perm) == order == 979200
    perm[0], perm[1] = perm[1], perm[0]
    assert diagonal_order(perm) == order ** 2


def test_classify_omega_inner():
    field, L = standard_generators("OmegaPlus", 8, 3)
    rng = random.Random(17)
    g = random_word_element(L, rng, length=6)
    cls = classify_aut(conj_aut("OmegaPlus", L, g))
    assert cls.in_gamma
    X = form_matrix("OmegaPlus", 8, 3)
    F = cls.witness_F
    assert multiply(multiply(F, X), transpose(F)) == X


def test_classify_omega_similitude_is_outside_gamma():
    field, L = standard_generators("OmegaPlus", 8, 3)
    # diag(2,2,2,2,1,1,1,1) multiplies the hyperbolic form by the
    # non-square 2, so the conjugation it induces has a graph part
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = 2 if i < 4 else 1
    g = matrix(field, rows)
    X = form_matrix("OmegaPlus", 8, 3)
    assert multiply(multiply(g, X), transpose(g)) == scalar_multiply(2, X)
    alpha = conj_aut("OmegaPlus", L, g)
    for U in alpha.images:
        assert preserves_form(U, X)
    cls = classify_aut(alpha)
    assert not cls.in_gamma
    assert cls.t_doubleprime == 1


def test_subgroup_in_gamma():
    _, L = standard_generators("SL", 3, 4)
    rng = random.Random(29)
    inner = conj_aut("SL", L, random_word_element(L, rng))
    frob = frob_aut("SL", L)
    graph = MatrixAut("SL", L, [transpose(invert(U)) for U in L])
    assert subgroup_in_gamma([inner, frob])
    assert not subgroup_in_gamma([inner, graph])

import pytest

from mindeg.bsgs import build_group
from mindeg.fflinalg import (
    Field, commutation_space, determinant, form_matrix, frobenius,
    identity_matrix, invert, matrix, multiply, nullspace, preserves_form,
    scalar_multiply, solve_commutation, standard_generators, transpose,
)
from mindeg.perm import Permutation


def test_make_field_basic():
    F2 = Field(2, 1)
    assert (F2.p, F2.e, F2.q) == (2, 1, 2)
    F4 = Field(2, 2)
    assert F4.modulus == (1, 1)  # x^2 + x + 1
    with pytest.raises(ValueError):
        Field(4, 1)
    with pytest.raises(ValueError):
        Field(2, 17)  # 2^17 > 2^16


def test_field_axioms_small():
    for (p, e) in [(2, 2), (3, 2), (5, 1), (2, 3)]:
        F = Field(p, e)
        els = list(F.elements())
        for a in els:
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els[:4]:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("p,e", [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2)])
def test_sub_inverts_add(p, e):
    # prime fields, characteristic 2 and odd prime powers each take their
    # own branch of Field.sub
    F = Field(p, e)
    els = list(F.elements())
    for a in els:
        for b in els:
            assert F.add(F.sub(a, b), b) == a
            assert F.sub(a, b) == F.add(a, F.neg(b))


def test_frobenius():
    F4 = Field(2, 2)
    for x in F4.elements():
        assert frobenius(F4, x, F4.e) == x
    # x^2 = x + 1 modulo x^2 + x + 1; codes: x is 2, x+1 is 3
    assert frobenius(F4, 2, 1) == 3
    F2 = Field(2, 1)
    assert all(frobenius(F2, x, t) == x for x in (0, 1) for t in range(3))
    F9 = Field(3, 2)
    for x in F9.elements():
        assert frobenius(F9, frobenius(F9, x, 1), 1) == x


def test_matrix_arithmetic():
    F3 = Field(3, 1)
    I = identity_matrix(F3, 3)
    assert determinant(I) == 1
    A = matrix(F3, [[1, 2, 0], [0, 1, 1], [1, 0, 2]])
    assert multiply(A, invert(A)) == I
    assert transpose(transpose(A)) == A
    singular = matrix(F3, [[1, 1], [2, 2]])
    assert determinant(singular) == 0
    with pytest.raises(ValueError):
        invert(singular)


def test_determinant_multiplicative():
    F4 = Field(2, 2)
    A = matrix(F4, [[2, 1], [1, 1]])
    B = matrix(F4, [[1, 3], [0, 2]])
    assert determinant(multiply(A, B)) == F4.mul(determinant(A), determinant(B))


def test_nullspace_examples():
    F3 = Field(3, 1)
    assert nullspace(F3, identity_matrix(F3, 3).rows, 3) == []
    assert len(nullspace(F3, [[0, 0], [0, 0]], 2)) == 2
    basis = nullspace(F3, [[1, 1], [2, 2]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v != [0, 0] and (v[0] + v[1]) % 3 == 0


def test_nullspace_nonprime_field():
    F4 = Field(2, 2)
    A = matrix(F4, [[1, 2, 3], [0, 0, 0]])
    basis = nullspace(F4, A.rows, A.ncols)
    assert len(basis) == 2
    for v in basis:
        for row in A.rows:
            acc = 0
            for x, y in zip(row, v):
                acc = F4.add(acc, F4.mul(x, y))
            assert acc == 0


def brute_matrix_closure(gens):
    seen = {identity_matrix(gens[0].field, gens[0].nrows)}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = multiply(a, g)
                if b not in seen:
                    seen.add(b)
                    new.append(b)
        frontier = new
    return seen


def test_sl_generator_counts_and_orders():
    _, L = standard_generators("SL", 2, 2)
    assert len(L) == 2  # (q-1) d (d-1)
    field, L = standard_generators("SL", 3, 4)
    assert len(L) == 3 * 3 * 2 - 0 == 18
    I = identity_matrix(field, 3)
    for U in L:
        assert determinant(U) == 1
        assert multiply(U, U) == I  # char 2: order 2


def test_sl2_closure_orders():
    for q in (2, 3, 4, 5):
        _, L = standard_generators("SL", 2, q)
        assert len(brute_matrix_closure(L)) == q * (q * q - 1)


def test_sl_invalid_params():
    with pytest.raises(ValueError):
        standard_generators("SL", 1, 5)
    with pytest.raises(ValueError):
        standard_generators("Sp", 4, 2)  # needs e >= 2
    with pytest.raises(ValueError):
        standard_generators("Sp", 6, 4)
    with pytest.raises(ValueError):
        standard_generators("OmegaPlus", 8, 5)
    with pytest.raises(ValueError):
        standard_generators("OmegaPlus", 6, 3)
    with pytest.raises(ValueError):
        standard_generators("SU", 3, 3)


def mat_to_perm(U, vectors, index):
    F = U.field
    images = []
    for v in vectors:
        w = tuple(
            _dot(F, row, v) for row in U.rows
        )
        images.append(index[w])
    return Permutation(tuple(images))


def _dot(F, row, v):
    acc = 0
    for x, y in zip(row, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def test_sp44_form_order_and_group_order():
    field, L = standard_generators("Sp", 4, 4)
    X = form_matrix("Sp", 4, 4)
    I = identity_matrix(field, 4)
    assert len(L) == 8 * 3  # 8 root-subgroup positions, q-1 = 3 each
    for U in L:
        assert preserves_form(U, X)
        assert multiply(U, U) == I
        assert determinant(U) == 1
    # order check through the permutation action on nonzero vectors
    from itertools import product as iproduct
    vectors = [v for v in iproduct(range(4), repeat=4) if any(v)]
    index = {v: i for i, v in enumerate(vectors)}
    perms = [mat_to_perm(U, vectors, index) for U in L]
    G = build_group(len(vectors), perms)
    assert G.order() == 4 ** 4 * (4 ** 2 - 1) * (4 ** 4 - 1)  # |Sp(4,4)| = 979200


def test_omega_plus_8_3_generators():
    field, L = standard_generators("OmegaPlus", 8, 3)
    X = form_matrix("OmegaPlus", 8, 3)
    I = identity_matrix(field, 8)
    assert len(L) == 6 * 4 * 2  # pairs i<j, 4 root directions, beta in {1,2}
    for U in L:
        assert preserves_form(U, X)
        assert multiply(multiply(U, U), U) == I
        assert determinant(U) == 1
    assert len({U.rows for U in L}) == len(L)


def test_form_matrices():
    X = form_matrix("Sp", 4, 4)
    assert X.rows == ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    X3 = form_matrix("OmegaPlus", 8, 3)
    assert transpose(X3) == X3
    assert all(X3.rows[i][(i + 4) % 8] == 1 for i in range(8))


def test_solve_commutation_identity_is_scalar():
    _, L = standard_generators("SL", 3, 3)
    basis = commutation_space(L, L)
    assert len(basis) == 1
    F = solve_commutation(L, L)
    field = F.field
    lam = F.rows[0][0]
    assert lam != 0
    assert F == scalar_multiply(lam, identity_matrix(field, 3))


def test_solve_commutation_recovers_conjugator():
    field, L = standard_generators("SL", 3, 3)
    F0 = matrix(field, [[1, 2, 0], [0, 1, 1], [1, 0, 2]])
    assert determinant(F0) != 0
    F0i = invert(F0)
    images = [multiply(multiply(F0, U), F0i) for U in L]
    F = solve_commutation(L, images)
    assert F is not None
    # F must be a scalar multiple of F0
    ratio = None
    for r in range(3):
        for c in range(3):
            if F0.rows[r][c]:
                lam = field.mul(F.rows[r][c], field.inv(F0.rows[r][c]))
                ratio = lam if ratio is None else ratio
                assert lam == ratio
            else:
                assert F.rows[r][c] == 0


def test_solve_commutation_graph_aut_has_no_solution():
    _, L = standard_generators("SL", 3, 3)
    images = [transpose(invert(U)) for U in L]
    assert solve_commutation(L, images) is None


def test_solve_commutation_validates_input():
    _, L = standard_generators("SL", 2, 3)
    with pytest.raises(ValueError):
        solve_commutation(L, L[:-1])
    with pytest.raises(ValueError):
        solve_commutation([], [])

"""Finite fields F_{p^e}, dense matrices, and the classical generator sets.

Field elements are encoded as integers in [0, p^e): the base-p digits of the
code are the polynomial coefficients, constant term first.  The modulus is
the lexicographically least irreducible monic polynomial of degree e
(coefficients compared from the highest degree down), so element codes are
reproducible across systems that adopt the same convention.

One Gauss-Jordan routine, ``_eliminate``, serves inverses, determinants
and nullspaces over every field, in pure Python; the module never imports
numpy.  ``prime_power`` is the package's one prime-power test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

MAX_FIELD_SIZE = 1 << 16


def prime_power(n: int):
    """(p, e) with n = p^e for a prime p, or None (also for n < 2)."""
    if n < 2:
        return None
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


class Field:
    """Arithmetic in F_{p^e} via exp/log tables over a fixed modulus."""

    def __init__(self, p: int, e: int):
        if prime_power(p) != (p, 1):
            raise ValueError(f"{p} is not prime")
        if e < 1 or p ** e > MAX_FIELD_SIZE:
            raise ValueError("field size out of range")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = self._least_irreducible()
        self._build_log_tables()

    # -- polynomial helpers on digit lists (constant term first) -----------

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return out

    def _code(self, digits) -> int:
        x = 0
        for c in reversed(digits):
            x = x * self.p + c
        return x

    def _poly_mul_mod(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * e)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce by the monic modulus
        for k in range(2 * e - 1, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(e):
                    prod[k - e + i] = (prod[k - e + i] - c * self.modulus[i]) % p
        return self._code(prod[:e])

    def _least_irreducible(self) -> tuple[int, ...]:
        """Coefficients c_0..c_{e-1} of the monic modulus x^e + Σ c_i x^i."""
        p, e = self.p, self.e
        if e == 1:
            return (0,)
        low_monics = []
        for deg in range(1, e // 2 + 1):
            for tail in product(range(p), repeat=deg):
                low_monics.append(tail[::-1] + (1,) + (0,) * (e - deg - 1))

        def divides(div, mod_coeffs):
            # trial division of x^e + mod_coeffs by the monic polynomial div
            rem = list(mod_coeffs) + [1]
            ddeg = max(i for i, c in enumerate(div) if c)
            for k in range(e, ddeg - 1, -1):
                c = rem[k]
                if c:
                    for i in range(ddeg + 1):
                        rem[k - ddeg + i] = (rem[k - ddeg + i] - c * div[i]) % p
            return all(c == 0 for c in rem[:ddeg])

        for high in product(range(p), repeat=e):  # (c_{e-1}, ..., c_0) lex
            coeffs = high[::-1]
            if not any(divides(d, coeffs) for d in low_monics):
                return coeffs
        raise AssertionError("no irreducible polynomial found")

    def _build_log_tables(self):
        q = self.q
        for g in range(2, q) if q > 2 else [1]:
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._poly_mul_mod(x, g)
                if len(exp) > q:
                    raise AssertionError("modulus is not irreducible")
            if len(exp) == q - 1:
                self._exp = exp
                self._log = [0] * q
                for k, v in enumerate(exp):
                    self._log[v] = k
                return
        if q == 2:
            self._exp = [1]
            self._log = [0, 0]
            return
        raise AssertionError("no multiplicative generator found")

    # -- element arithmetic -------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        return self._code([(a + b) % self.p
                           for a, b in zip(self._digits(x), self._digits(y))])

    def neg(self, x: int) -> int:
        if self.e == 1:
            return (-x) % self.p
        if self.p == 2:
            return x
        return self._code([(-a) % self.p for a in self._digits(x)])

    def sub(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x - y) % self.p
        if self.p == 2:
            return x ^ y
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self._exp[(-self._log[x]) % (self.q - 1)]

    def pow(self, x: int, k: int) -> int:
        if x == 0:
            return 0 if k else 1
        return self._exp[(self._log[x] * k) % (self.q - 1)]

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.e) == (other.p, other.e)

    def __repr__(self):
        return f"F_{self.q}" if self.e > 1 else f"F_{self.p}"


def frobenius(field: Field, x: int, t: int) -> int:
    """The field automorphism x -> x^{p^t}."""
    return field.pow(x, field.p ** (t % field.e))


@dataclass(frozen=True)
class FFMatrix:
    """A dense matrix over a finite field; entries are field codes."""

    field: Field
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("bad matrix shape")
        if any(not (0 <= x < self.field.q) for r in self.rows for x in r):
            raise ValueError("entry out of field range")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __eq__(self, other):
        return (isinstance(other, FFMatrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.rows))


def matrix(field: Field, rows) -> FFMatrix:
    return FFMatrix(field, tuple(tuple(int(x) for x in r) for r in rows))


def identity_matrix(field: Field, n: int) -> FFMatrix:
    return matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def multiply(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    if a.field != b.field or a.ncols != b.nrows:
        raise ValueError("dimension or field mismatch")
    F = a.field
    bt = list(zip(*b.rows))
    out = []
    for row in a.rows:
        orow = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = F.add(acc, F.mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return FFMatrix(a.field, tuple(out))


def transpose(a: FFMatrix) -> FFMatrix:
    return FFMatrix(a.field, tuple(zip(*a.rows)))


def scalar_multiply(c: int, a: FFMatrix) -> FFMatrix:
    F = a.field
    return FFMatrix(F, tuple(tuple(F.mul(c, x) for x in r) for r in a.rows))


def _eliminate(field: Field, rows: list[list[int]]):
    """In-place reduced row echelon form.

    Returns the pivot columns and the signed product of the pivots, which
    is the determinant when the rows form a nonsingular square matrix.
    """
    F = field
    n, m = len(rows), len(rows[0])
    pivots = []
    det = 1
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = F.neg(det)
        det = F.mul(det, rows[r][c])
        iv = F.inv(rows[r][c])
        rows[r] = [F.mul(iv, x) for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots, det


def determinant(a: FFMatrix) -> int:
    if a.nrows != a.ncols:
        raise ValueError("determinant needs a square matrix")
    pivots, det = _eliminate(a.field, [list(r) for r in a.rows])
    return det if len(pivots) == a.nrows else 0


def invert(a: FFMatrix) -> FFMatrix:
    if a.nrows != a.ncols:
        raise ValueError("inverse needs a square matrix")
    F = a.field
    n = a.nrows
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(a.rows)]
    pivots, _ = _eliminate(F, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return matrix(F, [row[n:] for row in aug])


def nullspace(field: Field, rows, ncols: int) -> list[list[int]]:
    """Deterministic basis of the right nullspace {v : a·v = 0} of the
    matrix a with these rows of field codes (nonempty, not re-validated).

    One basis vector per free column of the reduced row echelon form, with
    a 1 there; the form is unique, so the basis depends only on a.
    """
    rows = [list(r) for r in rows]
    pivots, _ = _eliminate(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][fc])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Classical groups: standard generators and invariant forms
#
# For Sp(4,q) and OmegaPlus(2d,q) the basis is e_1, ..., e_d, e_{-1}, ..., e_{-d}
# with e_i at position i-1 and e_{-i} at position d+i-1.


def _neg_pos(i: int, d: int) -> int:
    return d + i - 1


def _unit_plus(field: Field, n: int, terms) -> FFMatrix:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for r, c, v in terms:
        rows[r][c] = field.add(rows[r][c], v % field.q if field.e == 1 else v)
    return matrix(field, rows)


def standard_generators(family: str, d: int, q: int) -> tuple[Field, list[FFMatrix]]:
    """The generating set L of unipotent elements for the given family.

    Families: "SL" (SL(d,q), d >= 2), "Sp" (Sp(4,2^e), e >= 2, d must be 4),
    "OmegaPlus" (Omega+(2d,3), matrix size 2d >= 8, q must be 3).
    Every member of L has order p.
    """
    if family == "SL":
        if d < 2:
            raise ValueError("SL needs dimension >= 2")
        field = _field_of_order(q)
        gens = []
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                for beta in range(1, q):
                    gens.append(_unit_plus(field, d, [(i, j, beta)]))
        return field, gens

    if family == "Sp":
        if d != 4:
            raise ValueError("only Sp(4, 2^e) is supported")
        field = _field_of_order(q)
        if field.p != 2 or field.e < 2:
            raise ValueError("Sp needs q = 2^e with e >= 2")
        h = 2  # half dimension
        gens = []
        pairs = [(1, 2)]
        for i, j in pairs:
            pi, pj = i - 1, j - 1
            ni, nj = _neg_pos(i, h), _neg_pos(j, h)
            for beta in range(1, q):
                gens.append(_unit_plus(field, 4, [(pi, pj, beta), (nj, ni, beta)]))
                gens.append(_unit_plus(field, 4, [(pj, pi, beta), (ni, nj, beta)]))
                gens.append(_unit_plus(field, 4, [(pi, nj, beta), (pj, ni, beta)]))
                gens.append(_unit_plus(field, 4, [(nj, pi, beta), (ni, pj, beta)]))
        for i in range(1, h + 1):
            pi, ni = i - 1, _neg_pos(i, h)
            for beta in range(1, q):
                gens.append(_unit_plus(field, 4, [(pi, ni, beta)]))
                gens.append(_unit_plus(field, 4, [(ni, pi, beta)]))
        return field, gens

    if family == "OmegaPlus":
        if q != 3:
            raise ValueError("only Omega+(2d, 3) is supported")
        if d < 8 or d % 2 != 0:
            raise ValueError("Omega+ needs even matrix size 2d >= 8")
        field = Field(3, 1)
        h = d // 2
        gens = []
        for i in range(1, h + 1):
            for j in range(i + 1, h + 1):
                pi, pj = i - 1, j - 1
                ni, nj = _neg_pos(i, h), _neg_pos(j, h)
                for beta in (1, 2):
                    nb = (-beta) % 3
                    gens.append(_unit_plus(field, d, [(pi, pj, beta), (nj, ni, nb)]))
                    gens.append(_unit_plus(field, d, [(pj, pi, beta), (ni, nj, nb)]))
                    gens.append(_unit_plus(field, d, [(pi, nj, beta), (pj, ni, nb)]))
                    gens.append(_unit_plus(field, d, [(nj, pi, beta), (ni, pj, nb)]))
        return field, gens

    raise ValueError(f"unknown family {family!r}")


def _field_of_order(q: int) -> Field:
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    return Field(*pe)


def form_matrix(family: str, d: int, q: int) -> FFMatrix:
    """The invariant bilinear form preserved by the family's generators."""
    if family == "Sp":
        if d != 4:
            raise ValueError("only Sp(4, 2^e) is supported")
        field = _field_of_order(q)
        h = 2
        rows = [[0] * 4 for _ in range(4)]
        for i in range(h):
            rows[i][h + i] = 1
            rows[h + i][i] = field.neg(1)
        return matrix(field, rows)
    if family == "OmegaPlus":
        if q != 3:
            raise ValueError("only Omega+(2d, 3) is supported")
        field = Field(3, 1)
        h = d // 2
        rows = [[0] * d for _ in range(d)]
        for i in range(h):
            rows[i][h + i] = 1
            rows[h + i][i] = 1
        return matrix(field, rows)
    raise ValueError(f"no invariant form for family {family!r}")


def preserves_form(t: FFMatrix, x: FFMatrix) -> bool:
    return multiply(multiply(transpose(t), x), t) == x


@dataclass
class MatrixAut:
    """An automorphism given by its images on the standard generators."""

    family: str
    gens: list[FFMatrix]
    images: list[FFMatrix]

    def __post_init__(self):
        if len(self.gens) != len(self.images):
            raise ValueError("generator/image length mismatch")


def commutation_space(gens: list[FFMatrix], images: list[FFMatrix]) -> list[FFMatrix]:
    """Basis of the space of matrices F with F·U_j = α(U_j)·F for all j."""
    if not gens or len(gens) != len(images):
        raise ValueError("need equal-length nonempty generator/image lists")
    field = gens[0].field
    n = gens[0].nrows
    for m in gens + images:
        if m.field != field or m.nrows != n or m.ncols != n:
            raise ValueError("all matrices must be square of equal size")

    rows = []
    for U, Up in zip(gens, images):
        cols = list(zip(*U.rows))
        neg_rows = [[field.neg(x) for x in row] for row in Up.rows]
        for r in range(n):
            for c in range(n):
                # entry (r, c) of F·U − U′·F: column c of U on row r of F,
                # minus row r of U′ on column c of F; both meet at F[r][c]
                row = [0] * (n * n)
                row[r * n:(r + 1) * n] = cols[c]
                row[c::n] = neg_rows[r]
                row[r * n + c] = field.sub(U.rows[c][c], Up.rows[r][r])
                rows.append(row)
    basis = nullspace(field, rows, n * n)
    return [matrix(field, [v[i * n:(i + 1) * n] for i in range(n)]) for v in basis]


def solve_commutation(gens: list[FFMatrix], images: list[FFMatrix]):
    """A nonzero F with F·U_j = α(U_j)·F for all j, or None.

    When the natural module is irreducible on both sides, any nonzero
    solution is invertible (Schur); this is asserted on return.
    """
    basis = commutation_space(gens, images)
    if not basis:
        return None
    F = basis[0]
    assert determinant(F) != 0, "Schur guarantee violated: nonzero solution is singular"
    return F

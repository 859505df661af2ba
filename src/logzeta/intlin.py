"""Exact integer linear algebra kernel.

Vectors are tuples of Python ints, matrices are tuples of row tuples.
Everything is arbitrary precision and every transformation returns its
unimodular witness, so callers can verify the defining equations by plain
multiplication.  Conventions used throughout the package:

* Hermite normal form is column style: ``H = A @ U`` with ``U`` unimodular,
  pivots positive, zeros to the right of each pivot and entries to the left
  of a pivot reduced into ``[0, pivot)``.
* Smith normal form is two sided: ``S = U @ A @ V`` with nonnegative
  diagonal entries satisfying ``d_1 | d_2 | ...``, from one pivot loop over
  the diagonal and a divisibility fix-up of neighbouring entries.
* Rank, determinant, rational solve and inverse all read one fraction-free
  Gauss-Jordan elimination in integers; rationals appear only in the values
  ``solve_rational`` and ``inverse_rational`` return.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Optional, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def vec(entries: Sequence[int]) -> Vec:
    return tuple(int(x) for x in entries)


def mat(rows: Sequence[Sequence[int]]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def zero_vec(n: int) -> Vec:
    return (0,) * n


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(k: int, v: Vec) -> Vec:
    return tuple([k * a for a in v])


def dot(u: Vec, v: Vec) -> int:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(mul, u, v))


def is_zero_vec(v: Vec) -> bool:
    return not any(v)


def content_primitive(v: Vec) -> tuple[int, Vec]:
    """Return ``(g, p)`` with ``g = gcd(v) >= 0`` and ``v = g * p``.

    For the zero vector ``g = 0`` and ``p = v``; otherwise ``p`` is primitive.
    The sign convention keeps ``p`` parallel (not anti-parallel) to ``v``.
    """
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    if g == 0:
        return 0, v
    return g, tuple(a // g for a in v)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in a)


def transpose(a: Mat) -> Mat:
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def from_columns(cols: Sequence[Vec]) -> Mat:
    return transpose(mat(cols))


def columns(a: Mat) -> list[Vec]:
    return list(transpose(a))


def _swap_cols(rows: list[list[int]], i: int, j: int) -> None:
    for r in rows:
        r[i], r[j] = r[j], r[i]


def _addmul_col(rows: list[list[int]], dst: int, src: int, k: int) -> None:
    for r in rows:
        r[dst] += k * r[src]


def _negate_col(rows: list[list[int]], i: int) -> None:
    for r in rows:
        r[i] = -r[i]


def hermite_normal_form(a: Mat) -> tuple[Mat, Mat]:
    """Column-style Hermite normal form ``(H, U)`` with ``H = A @ U``."""
    m = len(a)
    n = len(a[0]) if a else 0
    h = [list(r) for r in a]
    u = [list(r) for r in identity(n)]
    pivot_col = 0
    for row in range(m):
        if pivot_col >= n:
            break
        # Clear row entries to the right of the pivot column by gcd steps.
        while True:
            nz = [j for j in range(pivot_col, n) if h[row][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(h[row][j]))
            if j0 != pivot_col:
                _swap_cols(h, pivot_col, j0)
                _swap_cols(u, pivot_col, j0)
            if h[row][pivot_col] < 0:
                _negate_col(h, pivot_col)
                _negate_col(u, pivot_col)
            done = True
            for j in range(pivot_col + 1, n):
                q = h[row][j] // h[row][pivot_col]
                if q:
                    _addmul_col(h, j, pivot_col, -q)
                    _addmul_col(u, j, pivot_col, -q)
                if h[row][j] != 0:
                    done = False
            if done:
                break
        if h[row][pivot_col] != 0:
            p = h[row][pivot_col]
            for j in range(pivot_col):
                q = h[row][j] // p  # floor division: leaves residue in [0, p)
                if q:
                    _addmul_col(h, j, pivot_col, -q)
                    _addmul_col(u, j, pivot_col, -q)
            pivot_col += 1
    return mat(h), mat(u)


def _min_nonzero_pos(rows: list[list[int]], k: int) -> Optional[tuple[int, int]]:
    best = None
    for i in range(k, len(rows)):
        for j in range(k, len(rows[0])):
            if rows[i][j] != 0 and (best is None or abs(rows[i][j]) < abs(rows[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(a: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form ``(S, U, V)`` with ``S = U @ A @ V`` diagonal.

    Diagonal entries are nonnegative and each divides the next.  At each
    diagonal place ``k`` one loop moves a smallest nonzero of the block below
    and right of ``(k, k)`` there and reduces row ``k`` and column ``k`` by
    it, until both are clear; while one is not, the block holds a nonzero,
    so the loop always finds a pivot.  The divisibility fix-up then mends
    neighbouring diagonal entries that do not divide each other.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    s = [list(r) for r in a]
    u = [list(r) for r in identity(m)]
    v = [list(r) for r in identity(n)]

    def swap_rows(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def addmul_row(dst: int, src: int, k: int) -> None:
        s[dst] = [x + k * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def negate_row(i: int) -> None:
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    for k in range(min(m, n)):
        pos = _min_nonzero_pos(s, k)
        while pos is not None:
            i, j = pos
            if i != k:
                swap_rows(k, i)
            if j != k:
                _swap_cols(s, k, j)
                _swap_cols(v, k, j)
            for i in range(k + 1, m):
                q = s[i][k] // s[k][k]
                if q:
                    addmul_row(i, k, -q)
            for j in range(k + 1, n):
                q = s[k][j] // s[k][k]
                if q:
                    _addmul_col(s, j, k, -q)
                    _addmul_col(v, j, k, -q)
            pos = _min_nonzero_pos(s, k) if any(r[k] for r in s[k + 1 :]) or any(s[k][k + 1 :]) else None
        if s[k][k] < 0:
            negate_row(k)

    # Divisibility fix-up d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            di, dj = s[i][i], s[i + 1][i + 1]
            if di != 0 and dj % di != 0:
                _addmul_col(s, i, i + 1, 1)
                _addmul_col(v, i, i + 1, 1)
                # Re-diagonalize the 2x2 block with row/column gcd steps.
                while s[i + 1][i] != 0:
                    if abs(s[i + 1][i]) <= abs(s[i][i]) or s[i][i] == 0:
                        swap_rows(i, i + 1)
                    q = s[i + 1][i] // s[i][i]
                    addmul_row(i + 1, i, -q)
                for j in (i, i + 1):
                    if s[j][j] < 0:
                        negate_row(j)
                q = s[i][i + 1] // s[i][i] if s[i][i] else 0
                if s[i][i]:
                    _addmul_col(s, i + 1, i, -q)
                    _addmul_col(v, i + 1, i, -q)
                changed = True
    return mat(s), mat(u), mat(v)


def solve_integer(a: Mat, b: Vec) -> Optional[Vec]:
    """A particular integer solution of ``A x = b``, or None."""
    if len(b) != len(a):
        raise ValueError("dimension mismatch")
    if not a or not a[0]:
        return () if is_zero_vec(b) else None
    s, u, v = smith_normal_form(a)
    c = mat_vec(u, b)
    n = len(a[0])
    y = [0] * n
    for i in range(len(a)):
        d = s[i][i] if i < min(len(s), n) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    x = mat_vec(v, tuple(y))
    if mat_vec(a, x) != tuple(b):
        return None
    return x


def _gauss_jordan(
    a: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination with pivots in the first ``ncols`` columns.

    Each pivot ``p`` at row ``r``, column ``c`` applies the Bareiss update
    ``row_i = (p * row_i - row_i[c] * row_r) // prev`` to every other row,
    ``prev`` being the previous pivot (1 at first).  Every entry stays a
    minor of ``A`` (Bareiss, Math. Comp. 22, 1968), so each division is
    exact.  Returns ``(rows, pivots, d, sign)``: the reduced rows equal ``d``
    times the reduced row echelon form of ``A``; pivot ``k`` sits at row
    ``k``, column ``pivots[k]``; ``d`` is the last pivot (1 when there is
    none) and ``sign`` that of the row permutation.  Rows past the rank are
    zero in the first ``ncols`` columns.
    """
    rows = [list(r) for r in a]
    pivots: list[int] = []
    d, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        pivot_row = rows[r]
        p = pivot_row[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        d = p
        pivots.append(c)
    return rows, pivots, d, sign


def solve_rational(a: Mat, b: Vec) -> Optional[tuple[Fraction, ...]]:
    """A particular rational solution of ``A x = b``, or None.

    The solution is the reduced row echelon one: zero off the pivot columns.
    """
    n = len(a[0]) if a else 0
    rows, pivots, d, _ = _gauss_jordan([[*row, b[i]] for i, row in enumerate(a)], n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[n], d)
    return tuple(x)


def scaled_inverse(a: Mat) -> tuple[Mat, int]:
    """``(B, d)`` with ``A @ B = d * I`` and ``d = |det A| > 0``.

    ``B`` is the adjugate up to sign, so ``A^{-1} = B / d`` and the columns
    of ``B`` point the same way as those of ``A^{-1}``.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("square matrix required")
    augmented = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(a)]
    rows, pivots, d, _ = _gauss_jordan(augmented, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    s = 1 if d > 0 else -1
    return tuple(tuple(s * x for x in row[n:]) for row in rows), abs(d)


def inverse_rational(a: Mat) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square matrix over the rationals."""
    b, d = scaled_inverse(a)
    return tuple(tuple(Fraction(x, d) for x in row) for row in b)


def rank(a: Mat) -> int:
    """Rational rank: the number of pivots of the fraction-free elimination."""
    return len(_gauss_jordan(a, len(a[0]) if a else 0)[1])


def det(a: Mat) -> int:
    """Determinant of a square integer matrix: the signed last pivot."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("square matrix required")
    _, pivots, d, sign = _gauss_jordan(a, n)
    return sign * d if len(pivots) == n else 0


def kernel_basis(a: Mat) -> list[Vec]:
    """Basis of the saturated integer kernel {x in Z^n : A x = 0}."""
    if not a or not a[0]:
        n = len(a[0]) if a else 0
        return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    s, _, v = smith_normal_form(a)
    n = len(a[0])
    cols = columns(v)
    out = []
    for j in range(n):
        d = s[j][j] if j < min(len(s), n) else 0
        if d == 0:
            out.append(cols[j])
    return out


def span_lattice(vectors: Sequence[Vec], n: int) -> tuple[list[Vec], Mat, Mat]:
    """Coordinates of the saturated span lattice ``span_Q(vectors) ∩ Z^n``.

    Returns ``(basis, proj, annihilator)``, all read off one Smith normal
    form ``S = U @ A @ V`` of the matrix ``A`` with the vectors as columns:

    * ``basis``: ``r`` vectors spanning the lattice, the first ``r`` columns
      of ``U^{-1}`` (column ``i`` of ``A @ V`` is ``s_ii`` times column ``i``);
    * ``proj``: the first ``r`` rows of ``U``; a lattice point ``v`` has
      coordinates ``proj @ v``, so ``proj @ basis`` is the identity;
    * ``annihilator``: the other ``n - r`` rows of ``U``, a basis of the
      integer functionals vanishing on the span.
    """
    if not vectors:
        return [], (), identity(n)
    a = from_columns(list(vectors))
    s, u, v = smith_normal_form(a)
    r = sum(1 for i in range(min(len(s), len(s[0]))) if s[i][i] != 0)
    vcols = columns(v)
    basis = [tuple(dot(row, vcols[i]) // s[i][i] for row in a) for i in range(r)]
    return basis, u[:r], u[r:]


def saturation_basis(vectors: Sequence[Vec], n: int) -> list[Vec]:
    """Basis of the saturation of the span of ``vectors`` inside Z^n.

    Returns ``r`` integer vectors spanning ``span_Q(vectors) ∩ Z^n``.
    """
    return span_lattice(vectors, n)[0]

"""Dense Gauss-Jordan, products and Kronecker products on plain lists of
rows, one field operation per entry: the independent oracle the package's
elimination engine (``hbv.linalg``) and its integer-row TQFT maps are
compared against.  Each function reads its ``SparseMatrix`` operands once
as dense rows (``data``) and computes on those lists alone; a matrix
result is wrapped back into a ``SparseMatrix`` only so that it compares
with the package's.  No elimination or product code is shared with what it
checks."""

from hbv.linalg import LinalgError, SparseMatrix


def _rref_rows(f, e, ncols):
    """Reduce the dense rows ``e`` in place to reduced row echelon form and
    return the pivot columns.  Pivots are found leftmost column first,
    searching rows top to bottom, so the result is canonical."""
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(e)):
            if not f.is_zero(e[i][c]):
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            e[r], e[sel] = e[sel], e[r]
        inv = f.inv(e[r][c])
        if inv != f.one:
            e[r] = [f.mul(inv, v) for v in e[r]]
        for i in range(len(e)):
            if i == r:
                continue
            coef = e[i][c]
            if f.is_zero(coef):
                continue
            row_r = e[r]
            row_i = e[i]
            for j in range(c, ncols):
                if not f.is_zero(row_r[j]):
                    row_i[j] = f.sub(row_i[j], f.mul(coef, row_r[j]))
        pivots.append(c)
        r += 1
        if r == len(e):
            break
    return pivots


def rref(m: SparseMatrix):
    """Reduced row echelon form, returned as ``(echelon, pivot_cols, rank)``."""
    f = m.field
    e = m.data
    pivots = _rref_rows(f, e, m.ncols)
    return SparseMatrix.from_dense(f, m.nrows, m.ncols, e), pivots, len(pivots)


def rank(m: SparseMatrix) -> int:
    return len(_rref_rows(m.field, m.data, m.ncols))


def kernel_basis(m: SparseMatrix):
    """Basis of the null space as dense lists, one vector per free column,
    in increasing free-column order (deterministic)."""
    f = m.field
    e = m.data
    pivots = _rref_rows(f, e, m.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    out = []
    for c in free:
        v = [f.zero] * m.ncols
        v[c] = f.one
        for r, pc in enumerate(pivots):
            coef = e[r][c]
            if not f.is_zero(coef):
                v[pc] = f.neg(coef)
        out.append(v)
    return out


def determinant(m: SparseMatrix):
    """Determinant by elimination with row-swap tracking."""
    if m.nrows != m.ncols:
        raise LinalgError("determinant of non-square matrix")
    f = m.field
    e = m.data
    n = m.nrows
    det = f.one
    for c in range(n):
        sel = None
        for i in range(c, n):
            if not f.is_zero(e[i][c]):
                sel = i
                break
        if sel is None:
            return f.zero
        if sel != c:
            e[c], e[sel] = e[sel], e[c]
            det = f.neg(det)
        piv = e[c][c]
        det = f.mul(det, piv)
        inv = f.inv(piv)
        for i in range(c + 1, n):
            coef = f.mul(e[i][c], inv)
            if f.is_zero(coef):
                continue
            for j in range(c, n):
                e[i][j] = f.sub(e[i][j], f.mul(coef, e[c][j]))
    return det


def inverse(m: SparseMatrix) -> SparseMatrix:
    if m.nrows != m.ncols:
        raise LinalgError("inverse of non-square matrix")
    f = m.field
    n = m.nrows
    aug = [row + [f.one if j == i else f.zero for j in range(n)]
           for i, row in enumerate(m.data)]
    pivots = _rref_rows(f, aug, 2 * n)
    if pivots != list(range(n)):
        raise LinalgError("matrix is singular")
    return SparseMatrix.from_dense(f, n, n, [row[n:] for row in aug])


def product(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a b by the triple loop, one field multiply-add per pair of nonzero
    entries that meet."""
    f = a.field
    out = [[f.zero] * b.ncols for _ in range(a.nrows)]
    bdata = b.data
    for ra, acc in zip(a.data, out):
        for x, rb in zip(ra, bdata):
            if f.is_zero(x):
                continue
            for j, y in enumerate(rb):
                if not f.is_zero(y):
                    acc[j] = f.add(acc[j], f.mul(x, y))
    return SparseMatrix.from_dense(f, a.nrows, b.ncols, out)


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The Kronecker product a (x) b: entry (i1*b.nrows + i2, j1*b.ncols + j2)
    is a[i1][j1] * b[i2][j2]."""
    f = a.field
    out = [[f.zero] * (a.ncols * b.ncols) for _ in range(a.nrows * b.nrows)]
    bdata = b.data
    for i1, ra in enumerate(a.data):
        for i2, rb in enumerate(bdata):
            row = out[i1 * b.nrows + i2]
            for j1, x in enumerate(ra):
                for j2, y in enumerate(rb):
                    row[j1 * b.ncols + j2] = f.mul(x, y)
    return SparseMatrix.from_dense(f, a.nrows * b.nrows, a.ncols * b.ncols, out)

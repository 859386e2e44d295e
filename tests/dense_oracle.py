"""Dense Gauss-Jordan, products and Kronecker products on ``Matrix`` rows,
one field operation per entry: the independent oracle the package's
elimination engine (``hbv.linalg``) and its integer-row TQFT maps are
compared against.  No elimination or product code is shared with what it
checks."""

from hbv.linalg import LinalgError, Matrix


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns ``(echelon, pivot_cols, rank)``.  Pivots are found leftmost
    column first, searching rows top to bottom, so the result is canonical.
    """
    f = m.field
    e = Matrix(f, m.nrows, m.ncols, m.data)
    pivots = []
    r = 0
    for c in range(e.ncols):
        sel = None
        for i in range(r, e.nrows):
            if not f.is_zero(e.data[i][c]):
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            e.data[r], e.data[sel] = e.data[sel], e.data[r]
        inv = f.inv(e.data[r][c])
        if inv != f.one:
            e.data[r] = [f.mul(inv, v) for v in e.data[r]]
        for i in range(e.nrows):
            if i == r:
                continue
            coef = e.data[i][c]
            if f.is_zero(coef):
                continue
            row_r = e.data[r]
            row_i = e.data[i]
            for j in range(c, e.ncols):
                if not f.is_zero(row_r[j]):
                    row_i[j] = f.sub(row_i[j], f.mul(coef, row_r[j]))
        pivots.append(c)
        r += 1
        if r == e.nrows:
            break
    return e, pivots, r


def rank(m: Matrix) -> int:
    return rref(m)[2]


def kernel_basis(m: Matrix):
    """Basis of the null space, one vector per free column, in increasing
    free-column order (deterministic)."""
    f = m.field
    e, pivots, _ = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    out = []
    for c in free:
        v = [f.zero] * m.ncols
        v[c] = f.one
        for r, pc in enumerate(pivots):
            coef = e.data[r][c]
            if not f.is_zero(coef):
                v[pc] = f.neg(coef)
        out.append(v)
    return out


def determinant(m: Matrix):
    """Determinant by elimination with row-swap tracking."""
    if m.nrows != m.ncols:
        raise LinalgError("determinant of non-square matrix")
    f = m.field
    e = Matrix(f, m.nrows, m.ncols, m.data)
    n = m.nrows
    det = f.one
    for c in range(n):
        sel = None
        for i in range(c, n):
            if not f.is_zero(e.data[i][c]):
                sel = i
                break
        if sel is None:
            return f.zero
        if sel != c:
            e.data[c], e.data[sel] = e.data[sel], e.data[c]
            det = f.neg(det)
        piv = e.data[c][c]
        det = f.mul(det, piv)
        inv = f.inv(piv)
        for i in range(c + 1, n):
            coef = f.mul(e.data[i][c], inv)
            if f.is_zero(coef):
                continue
            for j in range(c, n):
                e.data[i][j] = f.sub(e.data[i][j], f.mul(coef, e.data[c][j]))
    return det


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise LinalgError("inverse of non-square matrix")
    f = m.field
    n = m.nrows
    ident = Matrix.identity(f, n)
    aug = Matrix(f, n, 2 * n, [list(m.data[i]) + ident.data[i] for i in range(n)])
    e, pivots, r = rref(aug)
    if r < n or pivots != list(range(n)):
        raise LinalgError("matrix is singular")
    return Matrix(f, n, n, [row[n:] for row in e.data])


def product(a: Matrix, b: Matrix) -> Matrix:
    """a b by the triple loop, one field multiply-add per pair of nonzero
    entries that meet."""
    f = a.field
    out = Matrix(f, a.nrows, b.ncols)
    for ra, acc in zip(a.data, out.data):
        for x, rb in zip(ra, b.data):
            if f.is_zero(x):
                continue
            for j, y in enumerate(rb):
                if not f.is_zero(y):
                    acc[j] = f.add(acc[j], f.mul(x, y))
    return out


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product a (x) b: entry (i1*b.nrows + i2, j1*b.ncols + j2)
    is a[i1][j1] * b[i2][j2]."""
    f = a.field
    out = Matrix(f, a.nrows * b.nrows, a.ncols * b.ncols)
    for i1, ra in enumerate(a.data):
        for i2, rb in enumerate(b.data):
            row = out.data[i1 * b.nrows + i2]
            for j1, x in enumerate(ra):
                for j2, y in enumerate(rb):
                    row[j1 * b.ncols + j2] = f.mul(x, y)
    return out

"""Exact linear algebra kernel: dense matrices, echelon forms, sparse rank
engines, and cohomology of cochain complexes.

Two representations coexist.  ``Matrix`` is the dense row-major contract type
used by all small structural computations (pairings, antipodes, TQFT maps).
``SparseMatrix`` holds differentials of bar-type complexes, whose dimensions
at the top truncation degree rule out dense storage; rank and kernel engines
on it are exact over both Q and F_p.

Arithmetic.  Differentials are built (``sum_terms``) and checked
(``Complex``) by the same code for F_2, F_p and Q: plain sums of exact
representatives (ints; Fractions only for non-integral rationals), mapped
into the field as each entry is stored, or tested once per product column.

Elimination.  One forward echelon per arithmetic, pivoting on the largest
column index (empirically near fill-free on bar differentials), serves both
rank and kernel: ``_echelon_fp`` over F_p and the fraction-free
``_echelon_q`` over Q.  Rank over F_2 uses bitset rows instead.  The sparse
kernel basis equals, vector for vector, the one the dense leftmost-pivot
``rref`` gives, since the reduced kernel basis is unique.  ``EchelonStore``
pivots on the smallest column, because the cohomology representatives it
selects, and so every coordinate in a report, depend on that rule.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import RationalField


class LinalgError(ValueError):
    pass


class WindowError(LinalgError):
    """Degree outside a complex's stored window."""


class SquareZeroError(LinalgError):
    """A complex with d^{n+1} o d^n != 0: a broken internal invariant.
    ``column`` is the first column of C^n the composite does not kill."""

    def __init__(self, degree, column):
        super().__init__(f"d^{degree + 1} o d^{degree} != 0 at column {column}")
        self.degree = degree
        self.column = column


def sum_terms(f, terms, start: dict | None = None) -> dict:
    """The sparse vector over ``f`` summing ``(key, c)`` terms, each ``c`` an
    exact representative of a field element (the element itself will do):
    an int, or a Fraction for a non-integral rational.  Terms are added
    with plain ``+`` and each running sum is mapped into the field by
    ``f.of_int`` as it is stored: one field call per term, where a field
    accumulation makes a multiply, an add and a zero test.  Keys keep the order of their first term, except that a key whose running
    sum vanishes drops out (and comes back at the end if a later term hits
    it): the order a loop of field additions that drops zeros leaves.

    ``start``, a dict of nonzero field elements, is summed into in place and
    returned; the result is the one its items would give as the first
    terms."""
    of_int = f.of_int
    out: dict = {} if start is None else start
    for key, c in terms:
        if key in out:
            c += out[key]
        c = of_int(c)
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# dense matrices


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, nrows, ncols, data=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if data is None:
            z = field.zero
            self.data = [[z] * ncols for _ in range(nrows)]
        else:
            if len(data) != nrows or any(len(r) != ncols for r in data):
                raise LinalgError("matrix data shape mismatch")
            self.data = [list(r) for r in data]

    @classmethod
    def from_rows(cls, field, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(field, nrows, ncols, rows)

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij, v):
        self.data[ij[0]][ij[1]] = v

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [self.data[i][j] for i in range(self.nrows)]

    def copy(self):
        return Matrix(self.field, self.nrows, self.ncols, self.data)

    def transpose(self):
        return Matrix(
            self.field,
            self.ncols,
            self.nrows,
            [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
        )

    def is_zero(self):
        f = self.field
        return all(f.is_zero(v) for row in self.data for v in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise LinalgError("matrix product shape mismatch")
        is_zero, add, mul = f.is_zero, f.add, f.mul
        # each row of other as its nonzero (j, b) pairs, collected once
        other_rows = [[(j, b) for j, b in enumerate(rk) if not is_zero(b)]
                      for rk in other.data]
        out = Matrix(f, self.nrows, other.ncols)
        for ri, oi in zip(self.data, out.data):
            for a, rk in zip(ri, other_rows):
                if not rk or is_zero(a):
                    continue
                for j, b in rk:
                    oi[j] = add(oi[j], mul(a, b))
        return out

    def apply(self, vec):
        """Matrix times column vector (a list)."""
        f = self.field
        if len(vec) != self.ncols:
            raise LinalgError("vector length mismatch")
        out = []
        for i in range(self.nrows):
            s = f.zero
            ri = self.data[i]
            for j, v in enumerate(vec):
                if not f.is_zero(v) and not f.is_zero(ri[j]):
                    s = f.add(s, f.mul(ri[j], v))
            out.append(s)
        return out

    def __add__(self, other):
        f = self.field
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise LinalgError("matrix sum shape mismatch")
        return Matrix(
            f,
            self.nrows,
            self.ncols,
            [
                [f.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other):
        f = self.field
        return self + other.scale(f.neg(f.one))

    def scale(self, c):
        f = self.field
        return Matrix(
            f, self.nrows, self.ncols, [[f.mul(c, v) for v in r] for r in self.data]
        )

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product a (x) b: entry (i1*b.nrows + i2, j1*b.ncols + j2)
    is a[i1][j1] * b[i2][j2]."""
    f = a.field
    is_zero, mul = f.is_zero, f.mul
    b_rows = [[(j2, w) for j2, w in enumerate(row) if not is_zero(w)]
              for row in b.data]
    out = Matrix(f, a.nrows * b.nrows, a.ncols * b.ncols)
    for i1, arow in enumerate(a.data):
        for j1, v in enumerate(arow):
            if is_zero(v):
                continue
            base = j1 * b.ncols
            for i2, brow in enumerate(b_rows):
                orow = out.data[i1 * b.nrows + i2]
                for j2, w in brow:
                    orow[base + j2] = mul(v, w)
    return out


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns ``(echelon, pivot_cols, rank)``.  Pivots are found leftmost
    column first, searching rows top to bottom, so the result is canonical.
    """
    f = m.field
    e = m.copy()
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


def solve(m: Matrix, b):
    """One solution of ``m x = b`` or None.  Deterministic (free vars = 0)."""
    f = m.field
    aug = Matrix(
        f,
        m.nrows,
        m.ncols + 1,
        [list(m.data[i]) + [b[i]] for i in range(m.nrows)],
    )
    e, pivots, r = rref(aug)
    if m.ncols in pivots:
        return None
    x = [f.zero] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = e.data[i][m.ncols]
    return x


def determinant(m: Matrix):
    """Determinant by fraction-free-ish elimination with row-swap tracking."""
    if m.nrows != m.ncols:
        raise LinalgError("determinant of non-square matrix")
    f = m.field
    e = m.copy()
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


# ---------------------------------------------------------------------------
# sparse matrices


class SparseMatrix:
    """Row-sparse exact matrix: ``rows[i]`` maps column index -> nonzero scalar."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @classmethod
    def from_matrix(cls, m: Matrix) -> "SparseMatrix":
        f = m.field
        rows = [
            {j: v for j, v in enumerate(r) if not f.is_zero(v)} for r in m.data
        ]
        return cls(f, m.nrows, m.ncols, rows)

    def columns(self):
        """Column-oriented copy: list of dicts row -> value."""
        cols = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return cols

    def apply_sparse(self, vec: dict, colview=None) -> dict:
        """self @ vec for a sparse column vector {index: value}."""
        f = self.field
        out: dict = {}
        if colview is None:
            colview = self.columns()
        for j, v in vec.items():
            for i, a in colview[j].items():
                s = f.add(out.get(i, f.zero), f.mul(a, v))
                if f.is_zero(s):
                    out.pop(i, None)
                else:
                    out[i] = s
        return out

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def __repr__(self):
        return f"SparseMatrix({self.field}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _rank_rows_f2(rows) -> int:
    """Rank over F_2 with bitset rows; pivot = highest set bit."""
    ech: dict[int, int] = {}
    rk = 0
    for r in rows:
        cur = 0
        for c, v in r.items():
            if v & 1:
                cur |= 1 << c
        while cur:
            p = cur.bit_length() - 1
            er = ech.get(p)
            if er is None:
                ech[p] = cur
                rk += 1
                break
            cur ^= er
    return rk


def _echelon_fp(rows, p) -> dict:
    """Forward echelon over F_p, dict rows, max-column pivot: returns
    ``{pivot: row}`` with every row scaled to pivot entry 1."""
    ech: dict[int, dict] = {}
    for r in rows:
        cur = {c: v % p for c, v in r.items() if v % p}
        while cur:
            pc = max(cur)
            er = ech.get(pc)
            if er is None:
                inv = pow(cur[pc], -1, p)
                if inv != 1:
                    cur = {c: (v * inv) % p for c, v in cur.items()}
                ech[pc] = cur
                break
            coef = cur.pop(pc)
            for c, v in er.items():
                if c == pc:
                    continue
                nv = (cur.get(c, 0) - coef * v) % p
                if nv:
                    cur[c] = nv
                else:
                    cur.pop(c, None)
    return ech


def _strip_content(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _echelon_q(rows) -> dict:
    """Forward echelon over Q, max-column pivot: returns ``{pivot: row}``
    with integer rows, each a nonzero multiple of the row the same
    elimination over Fractions would store.  Rows are scaled to integer
    vectors and updated by fraction-free cross-multiplication, so there is
    no Fraction churn in the loop.  Against a pivot of +-1 the row is reduced
    in place without scaling, and its content is left for the next non-unit
    step to strip."""
    ech: dict[int, dict] = {}
    for r in rows:
        dens = 1
        for v in r.values():
            d = v.denominator
            dens = dens * d // gcd(dens, d)
        cur = _strip_content(
            {c: int(v * dens) for c, v in r.items() if v}
        )
        while cur:
            pc = max(cur)
            er = ech.get(pc)
            if er is None:
                ech[pc] = cur
                break
            a = cur.pop(pc)
            b = er[pc]
            if b == 1 or b == -1:
                a *= b   # cur - (a/b) er, and 1/b = b
                for c, v in er.items():
                    if c == pc:
                        continue
                    nv = cur.get(c, 0) - a * v
                    if nv:
                        cur[c] = nv
                    else:
                        cur.pop(c, None)
                continue
            new = {c: b * v for c, v in cur.items()}
            for c, v in er.items():
                if c == pc:
                    continue
                nv = new.get(c, 0) - a * v
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            cur = _strip_content(new)
    return ech


def _echelon(f, rows) -> dict:
    """Max-column forward echelon over the field ``f``: ``{pivot: row}``,
    every row a field vector with pivot entry 1."""
    if isinstance(f, RationalField):
        return {pc: {c: Fraction(v, row[pc]) for c, v in row.items()}
                for pc, row in _echelon_q(rows).items()}
    return _echelon_fp(rows, f.char)


def sparse_rank(sm: SparseMatrix) -> int:
    """Exact rank by max-column forward elimination over all rows at once.
    A row is only ever reduced by a stored row holding its pivot column, so
    rows that share no column never meet: splitting the matrix into blocks
    of connected columns first would make the same eliminations."""
    f = sm.field
    if isinstance(f, RationalField):
        return len(_echelon_q(sm.rows))
    if f.char == 2:
        return _rank_rows_f2(sm.rows)
    return len(_echelon_fp(sm.rows, f.char))


def sparse_kernel_basis(sm: SparseMatrix):
    """Kernel basis as sparse dicts, one per free column in increasing order;
    identical vector-for-vector to ``kernel_basis`` on the dense form.

    The canonical (leftmost-pivot RREF) kernel basis is computed without the
    slow leftmost elimination: the max-column echelon parameterizes the
    kernel, and re-reducing the kernel vectors with the same echelon, then
    back-eliminating, yields the unique basis whose vectors carry 1 on their
    own free column and 0 on every other free column, which is exactly the
    RREF kernel basis.
    """
    f = sm.field
    p = f.char
    ech = _echelon(f, sm.rows)
    raw = []
    for c in range(sm.ncols):
        if c in ech:
            continue
        vec = {c: f.one}
        # rows have support at columns <= pivot: solve in increasing order
        for pc in sorted(p for p in ech if p > c):
            row = ech[pc]
            s = f.zero
            for cc, v in row.items():
                if cc == pc:
                    continue
                x = vec.get(cc)
                if x is not None:
                    s = f.add(s, f.mul(v, x))
            if not f.is_zero(s):
                vec[pc] = f.neg(s)
        raw.append(vec)
    kech = _echelon(f, raw)
    pivs = sorted(kech, reverse=True)
    for pc in pivs:
        prow = kech[pc]
        for qc in pivs:
            if qc <= pc:
                continue
            row = kech[qc]
            coef = row.pop(pc, None)
            if coef is None:
                continue
            for c, v in prow.items():
                if c == pc:
                    continue
                s = row.get(c, 0) - coef * v
                if p:
                    s %= p
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
    return [kech[pc] for pc in sorted(kech)]


class EchelonStore:
    """Incremental echelon store over sparse vectors.

    Every stored row has its pivot at its minimal column and pivot value 1,
    and distinct rows have distinct pivots.  Reducing a vector in the span of
    the store therefore terminates at zero, which makes membership tests and
    coordinate extraction exact.  Rows may carry an integer tag; ``reduce``
    reports the coefficient used against each tagged row.
    """

    def __init__(self, field):
        self.field = field
        self.ech: dict[int, dict] = {}
        self.tags: dict[int, int] = {}

    def reduce(self, vec: dict, track: bool = False):
        """``vec`` minus its components along the stored rows, pivot by pivot
        from the smallest column, and (with ``track``) the coefficient taken
        against each tagged row.  The row updates are inlined, as in the
        ``_echelon_*`` engines: reduced mod p over F_p, plain Fractions
        over Q."""
        p = self.field.char
        ech = self.ech
        cur = dict(vec)
        coeffs: dict[int, object] = {}
        while cur:
            pc = min(cur)
            er = ech.get(pc)
            if er is None:
                break
            coef = cur.pop(pc)
            if track and self.tags[pc] >= 0:
                # pivots come in increasing order, so each tag is met once
                coeffs[self.tags[pc]] = coef
            for c, v in er.items():
                if c == pc:
                    continue
                s = cur.get(c, 0) - coef * v
                if p:
                    s %= p
                if s:
                    cur[c] = s
                else:
                    cur.pop(c, None)
        return cur, coeffs

    def insert(self, vec: dict, tag: int = -1):
        """Reduce and, if independent of the store, add.  Returns the stored
        (reduced, normalized) row, or None if dependent."""
        f = self.field
        cur, _ = self.reduce(vec)
        if not cur:
            return None
        pc = min(cur)
        inv = f.inv(cur[pc])
        if inv != f.one:
            cur = {c: f.mul(inv, v) for c, v in cur.items()}
        self.ech[pc] = cur
        self.tags[pc] = tag
        return cur

    def __len__(self):
        return len(self.ech)


# ---------------------------------------------------------------------------
# complexes


def _integer_columns(sm: SparseMatrix):
    """The columns of ``c * sm`` as flat ``[row, value, row, value, ...]``
    lists of ints, where ``c`` is the lcm of the entries' denominators: 1
    over F_p, whose entries are ints, and over Q unless an entry is not
    integral."""
    c = 1
    for row in sm.rows:
        for v in row.values():
            if v.denominator != 1:
                c = lcm(c, v.denominator)
    cols: list = [[] for _ in range(sm.ncols)]
    for i, row in enumerate(sm.rows):
        for j, v in row.items():
            col = cols[j]
            col.append(i)
            col.append(v.numerator if c == 1 else (c * v).numerator)
    return cols


class CohomologyData:
    """Cohomology of a complex at one degree with a chosen basis.

    ``representatives`` are sparse cocycle vectors whose classes form the
    basis; ``project`` maps any cocycle to its coordinates in that basis,
    deciding equality of classes by coboundary membership, never by
    representative equality.
    """

    def __init__(self, field, representatives, store):
        self.field = field
        self.dim = len(representatives)
        self.representatives = representatives
        self._store = store

    def project(self, vec: dict):
        f = self.field
        residual, coeffs = self._store.reduce(vec, track=True)
        if residual:
            raise LinalgError("vector is not a cocycle modulo the image")
        return [coeffs.get(i, f.zero) for i in range(self.dim)]


class Complex:
    """A cochain complex on a closed degree window.

    ``dims[n]`` is the dimension of the degree-n term; ``diffs[n]`` the
    sparse matrix of d^n : C^n -> C^{n+1}.  Degrees outside the window are
    treated as zero.

    ``d^{n+1} o d^n = 0`` is checked at construction, for every adjacent
    pair, in plain integer arithmetic: each differential is turned once into
    integer column lists, which serve as the right factor of its pair with
    the next differential and the left factor of its pair with the previous
    one, and each column of the product is summed exactly and tested once.
    This is exact over every field.  Over F_p the entries are integer
    representatives and reduction mod p is a ring map, so a column vanishes
    over F_p iff its integer sums are 0 mod p.  Over Q each matrix is first
    multiplied by the lcm of its denominators (1 unless an entry is not
    integral); a nonzero scalar on either factor changes neither which
    columns of the product vanish nor the first that does not.  A failure
    raises ``SquareZeroError`` naming that first column.
    """

    def __init__(self, field, dims: dict, diffs: dict, check: bool = True):
        self.field = field
        self.dims = dict(dims)
        self.diffs = dict(diffs)
        if not self.dims:
            raise LinalgError("empty complex")
        self.lo = min(self.dims)
        self.hi = max(self.dims)
        for n, d in self.diffs.items():
            if d.ncols != self.dims.get(n, 0) or d.nrows != self.dims.get(n + 1, 0):
                raise LinalgError(f"differential d^{n} shape mismatch")
        if check:
            self._check_square_zero()
        self._cohomology_cache: dict[int, CohomologyData] = {}
        self._rank_cache: dict[int, int] = {}
        self._columns: dict[int, list] = {}

    def _check_square_zero(self):
        p = self.field.char
        right_n, right = None, None
        for n in sorted(self.diffs):
            if n + 1 not in self.diffs:
                continue
            if right_n != n:
                right = _integer_columns(self.diffs[n])
            left = _integer_columns(self.diffs[n + 1])
            for j, col in enumerate(right):
                acc: dict = {}
                it = iter(col)
                for i, a in zip(it, it):
                    lt = iter(left[i])
                    for k, b in zip(lt, lt):
                        acc[k] = acc.get(k, 0) + a * b
                if any(x % p for x in acc.values()) if p else any(acc.values()):
                    raise SquareZeroError(n, j)
            # the columns of d^{n+1} are the right factor of the next pair
            right_n, right = n + 1, left

    def dim(self, n) -> int:
        return self.dims.get(n, 0)

    def differential(self, n) -> SparseMatrix:
        if n in self.diffs:
            return self.diffs[n]
        return SparseMatrix(self.field, self.dims.get(n + 1, 0), self.dims.get(n, 0))

    def columns(self, n) -> list:
        """The column view of d^n (``SparseMatrix.columns``), built on first
        use and kept: nothing mutates a differential once it is built."""
        if n not in self._columns:
            self._columns[n] = self.differential(n).columns()
        return self._columns[n]

    def apply(self, n, vec: dict) -> dict:
        """d^n applied to a sparse vector, through the kept column view."""
        return self.differential(n).apply_sparse(vec, self.columns(n))

    def rank_d(self, n) -> int:
        if n not in self._rank_cache:
            self._rank_cache[n] = (
                sparse_rank(self.diffs[n]) if n in self.diffs else 0
            )
        return self._rank_cache[n]

    def cohomology_dim(self, n) -> int:
        """dim H^n via ranks only (no representative machinery)."""
        if not (self.lo <= n <= self.hi):
            raise WindowError(f"degree {n} outside window [{self.lo}, {self.hi}]")
        return self.dims.get(n, 0) - self.rank_d(n) - self.rank_d(n - 1)

    def cohomology_at(self, n) -> CohomologyData:
        """Cohomology at degree n with deterministic representatives."""
        if not (self.lo <= n <= self.hi):
            raise WindowError(f"degree {n} outside window [{self.lo}, {self.hi}]")
        if n in self._cohomology_cache:
            return self._cohomology_cache[n]
        f = self.field
        if n in self.diffs:
            kernel = sparse_kernel_basis(self.diffs[n])
        else:
            kernel = [{i: f.one} for i in range(self.dims.get(n, 0))]
        store = EchelonStore(f)
        if n - 1 in self.diffs:
            for col in self.columns(n - 1):
                if col:
                    store.insert(col)
        reps = []
        for vec in kernel:
            stored = store.insert(vec, tag=len(reps))
            if stored is not None:
                reps.append(dict(stored))
        data = CohomologyData(f, reps, store)
        self._cohomology_cache[n] = data
        return data

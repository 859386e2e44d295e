"""Exact linear algebra kernel: dense matrices, echelon forms, sparse rank
engines, and cohomology of cochain complexes.

Two representations coexist.  ``Matrix`` is the dense row-major contract type
used by all small structural computations (pairings, antipodes, TQFT maps).
A structure map or linear system is built from its terms by
``Matrix.from_terms``, which sums them with ``sum_terms``.  Products,
matrix-vector products (``apply``) and Kronecker products run on integer
views (``_integer_view``): each operand is read once as its nonzero
entries, integers with one scale per matrix, so they cost one int
operation per pair of nonzero entries that meet, and each nonzero result
becomes a field element once.  ``SparseMatrix`` holds differentials of
bar-type complexes, whose dimensions at the top truncation degree rule out
dense storage; rank and kernel engines on it are exact over both Q and F_p.

Arithmetic.  Over F_p every stored entry is a reduced int.  Over Q a
``Matrix`` entry, a cochain value and every vector the engines hand out
(``apply_sparse``, kernel bases, cohomology representatives,
``CohomologyData.project`` coordinates) is a Fraction,
never an int, which a report renders differently.  A sparse operator over Q
(bar, group-cochain and rotation differentials) instead stores exact
integer representatives: an int where the entry is integral, a Fraction
only where it is not.  Differentials are built (``sum_terms`` into
``operator_ring``) and checked (``Complex``) by the same code for F_2, F_p
and Q: plain sums of exact representatives, mapped into the ring as each
entry is stored, or tested once per product column.  The ``d o d = 0``
check and the rank read one integer column view of a differential,
``_transpose``, which takes integral rows as they are.  A view of anything
holding a Fraction, dense or sparse, scales by the lcm of the denominators
(``_denominator_lcm``) and reads numerators, so no Fraction is made until a
result leaves the engine.

Elimination.  One forward echelon per arithmetic, pivoting on the largest
index (empirically near fill-free on bar differentials), serves both rank
and kernel: ``_echelon_f2`` on bitsets (ints) over F_2, ``_echelon_fp``
over F_p and the fraction-free ``_echelon_q`` over Q, which takes integer
vectors; ``_integer_vectors`` scales Q vectors to them by reading
numerators.  ``sparse_rank`` eliminates the side with fewer vectors
(LaMacchia-Odlyzko): over F_p and Q the columns of a tall matrix, so of
every bar differential, built once as integer vectors and fed in ascending
order, and the rows of a square or wide one.  Over F_2 it eliminates the
rows, since a bitset costs its length.  The kernel path always eliminates
rows.  The sparse kernel basis is one algorithm on every field (reduce the
echelon, read the kernel off it, reduce again: ``_reduce_f2`` on bitsets,
``_reduce`` on dict rows).  It equals, vector for vector, the one the dense
leftmost-pivot ``rref`` gives, since the reduced kernel basis is unique,
and its keys are in ascending order on every field.  ``EchelonStore``
pivots on the smallest column, because the cohomology representatives it
selects, and so every coordinate in a report, depend on that rule; over F_2
it too keeps bitset rows, and hands vectors back with ascending keys.
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
    with plain ``+`` and each running sum is mapped into ``f`` by
    ``f.of_int`` as it is stored: one call per term, where a field
    accumulation makes a multiply, an add and a zero test.  ``f`` is a field
    (over Q every stored value is then a Fraction) or an ``operator_ring``
    (over Q an int wherever the value is integral).  Keys keep the
    order of their first term, except that a key whose running sum vanishes
    drops out (and comes back at the end if a later term hits it): the
    order a loop of field additions that drops zeros leaves.

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


class _IntegralQ:
    """Q as a sparse operator stores it (``operator_ring``)."""

    @staticmethod
    def of_int(c):
        """The representative an int or a rational is stored as: an int
        where it is integral (1/4 + 3/4 is stored as 1), else the Fraction."""
        if type(c) is int:
            return c
        return c.numerator if c.denominator == 1 else c


_INTEGRAL_Q = _IntegralQ()


def operator_ring(f):
    """What a sparse operator over the field ``f`` accumulates its entries
    in with ``sum_terms``: ``f`` itself over F_p, and over Q its exact
    integer representatives, an int for an integral entry and a Fraction
    only for another.  The engines read integral rows as they are
    (``_transpose``), and every vector they hand out is made of field
    elements again."""
    return f if f.char else _INTEGRAL_Q


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
    def _adopt(cls, field, nrows, ncols, data):
        """The matrix whose rows are ``data``, taken as they are: fresh lists
        of ``ncols`` field elements, ``nrows`` of them, that no one else
        holds.  No copy and no shape check, unlike the constructor."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.data = field, nrows, ncols, data
        return m

    @classmethod
    def from_rows(cls, field, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(field, nrows, ncols, rows)

    @classmethod
    def from_terms(cls, field, nrows, ncols, terms):
        """The ``nrows`` x ``ncols`` matrix summing ``((i, j), c)`` terms with
        ``sum_terms``.  An entry that no term reaches, or whose terms cancel,
        is the field's shared ``zero``."""
        z = field.zero
        data = [[z] * ncols for _ in range(nrows)]
        for (i, j), c in sum_terms(field, terms).items():
            data[i][j] = c
        return cls._adopt(field, nrows, ncols, data)

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

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
        """The product on integer views (``_integer_view``): plain int sums,
        one multiply-add per pair of nonzero entries that meet, each nonzero
        sum mapped into the field once."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise LinalgError("matrix product shape mismatch")
        f = self.field
        arows, ca = _integer_view(self)
        brows, cb = _integer_view(other)
        to_field, z = _to_field(f, ca * cb), f.zero
        n = other.ncols
        data = []
        for ra in arows:
            acc = [0] * n
            for k, x in ra:
                for j, y in brows[k]:
                    acc[j] += x * y
            data.append([to_field(s) if s else z for s in acc])
        return Matrix._adopt(f, self.nrows, n, data)

    def apply(self, vec):
        """Matrix times column vector (a list): the product with ``vec`` as a
        one-column matrix, so on the integer views of ``__mul__``."""
        if len(vec) != self.ncols:
            raise LinalgError("vector length mismatch")
        column = Matrix._adopt(self.field, self.ncols, 1, [[v] for v in vec])
        return [row[0] for row in (self * column).data]

    def scale(self, c):
        f = self.field
        return Matrix(
            f, self.nrows, self.ncols, [[f.mul(c, v) for v in r] for r in self.data]
        )

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product a (x) b: entry (i1*b.nrows + i2, j1*b.ncols + j2)
    is a[i1][j1] * b[i2][j2].  Made on integer views, as ``Matrix.__mul__``:
    one int product and one field element per pair of nonzero entries."""
    f = a.field
    arows, ca = _integer_view(a)
    brows, cb = _integer_view(b)
    to_field, z = _to_field(f, ca * cb), f.zero
    bn = b.ncols
    n = a.ncols * bn
    data = []
    for ra in arows:
        for rb in brows:
            orow = [z] * n
            for j1, x in ra:
                base = j1 * bn
                for j2, y in rb:
                    orow[base + j2] = to_field(x * y)
            data.append(orow)
    return Matrix._adopt(f, a.nrows * b.nrows, n, data)


def _integer_view(m: Matrix):
    """``m`` read once as ``(rows, c)``: ``rows[i]`` lists ``(j, n)`` for each
    nonzero ``m[i][j]``, with ``n`` an int and ``m = rows / c``.  Over Q,
    ``c`` is the lcm of the denominators (``_denominator_lcm``) and ``n`` the
    numerator times ``c`` over the denominator, both read in one call, so no
    Fraction is made; over F_p ``c`` is 1 and ``n`` the entry itself.  A zero
    is skipped by its value; the identity test against the field's shared
    ``zero`` only saves reading it."""
    if m.field.char:
        return [[(j, v) for j, v in enumerate(row) if v] for row in m.data], 1
    z = m.field.zero
    rows, dens = [], []
    for row in m.data:
        r = []
        for j, v in enumerate(row):
            if v is not z:
                n, d = v.as_integer_ratio()
                if n:
                    r.append((j, n))
                    if d != 1:
                        dens.append(d)
        rows.append(r)
    c = _denominator_lcm(dens)
    if c != 1:
        rows = [[(j, n * (c // row[j].denominator)) for j, n in r]
                for r, row in zip(rows, m.data)]
    return rows, c


def _to_field(f, c):
    """The map from a nonzero int ``s`` to the element ``s / c`` of ``f``:
    ``s % p`` over F_p (where ``c`` is 1), and a Fraction over Q, since a
    stored Q entry is never an int (a report renders the two differently)."""
    p = f.char
    if p:
        return p.__rmod__
    if c == 1:
        return Fraction
    return lambda s: Fraction(s, c)


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
    """Row-sparse exact matrix: ``rows[i]`` maps column index -> nonzero scalar.

    Over F_p the scalars are reduced ints.  Over Q they are the exact
    representatives of ``operator_ring`` for the operators the package
    builds (ints where integral), and Fractions for a matrix made from a
    dense one (``from_matrix``); the engines take either."""

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
        if colview is None:
            colview = self.columns()
        # the vector's value first: Fraction * int is Fraction's own
        # method, int * Fraction a failed int method and then a fallback
        return sum_terms(self.field, ((i, v * a) for j, v in vec.items()
                                      for i, a in colview[j].items()))

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def __repr__(self):
        return f"SparseMatrix({self.field}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _f2_bits(row: dict) -> int:
    """A sparse vector over F_2 as a bitset: bit c is entry c."""
    bits = 0
    for c, v in row.items():
        if v & 1:
            bits |= 1 << c
    return bits


def _f2_support(bits: int) -> list:
    """The set bits of ``bits``, ascending.  ``str.find`` scans the binary
    digits, so the Python loop runs once per set bit, not once per bit."""
    digits = bin(bits)
    top = len(digits) - 1
    out = []
    i = digits.find("1", 2)
    while i != -1:
        out.append(top - i)
        i = digits.find("1", i + 1)
    out.reverse()
    return out


def _f2_dict(bits: int) -> dict:
    """A bitset as a sparse vector over F_2, keys ascending."""
    return dict.fromkeys(_f2_support(bits), 1)


def _echelon_f2(rows) -> dict:
    """Forward echelon over F_2 of bitset rows, max-column pivot: returns
    ``{pivot: bits}``."""
    ech: dict[int, int] = {}
    for cur in rows:
        while cur:
            pc = cur.bit_length() - 1
            er = ech.get(pc)
            if er is None:
                ech[pc] = cur
                break
            cur ^= er
    return ech


def _reduce_f2(ech: dict) -> dict:
    """The reduced form of a max-column F_2 echelon: the same pivots, and no
    row has a bit at another row's pivot.  Rows are reduced in increasing
    pivot order, so the rows they are reduced by are already reduced, and
    each pivot bit is cleared with one XOR."""
    pivots = 0
    for pc in ech:
        pivots |= 1 << pc
    out: dict[int, int] = {}
    for pc in sorted(ech):
        row = ech[pc]
        hit = (row & pivots) ^ (1 << pc)
        while hit:
            q = hit.bit_length() - 1
            row ^= out[q]
            hit ^= 1 << q
        out[pc] = row
    return out


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
    """Forward echelon over Q of integer vectors (``_integer_vectors``,
    ``_transpose``), max-index pivot: returns ``{pivot: row}`` with integer rows, each a
    nonzero multiple of the row the same elimination over Fractions would
    store.  Rows are updated by fraction-free cross-multiplication, so there
    is no Fraction churn in the loop.  Against a pivot of +-1 the row is
    reduced in place without scaling, and its content is left for the next
    non-unit step to strip.  The rows are the engine's own: one may be
    reduced in place and stored."""
    ech: dict[int, dict] = {}
    for r in rows:
        cur = _strip_content(r)
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


def _reduce(f, ech: dict) -> dict:
    """The reduced form of a max-column echelon over F_p or Q from
    ``_echelon``, made in place: the same pivots, and no row has an entry at
    another row's pivot.  As in ``_reduce_f2``, rows are reduced in
    increasing pivot order, so the rows they are reduced by are already
    reduced and hold no pivot column but their own."""
    p = f.char
    for pc in sorted(ech):
        row = ech[pc]
        for q in [c for c in row if c != pc and c in ech]:
            coef = row.pop(q)
            for c, v in ech[q].items():
                if c == q:
                    continue
                s = row.get(c, 0) - coef * v
                if p:
                    s %= p
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
    return ech


def _echelon(f, rows) -> dict:
    """Max-column forward echelon over the field ``f``: ``{pivot: row}``,
    every row a field vector with pivot entry 1."""
    if isinstance(f, RationalField):
        return {pc: {c: Fraction(v, row[pc]) for c, v in row.items()}
                for pc, row in _echelon_q(_integer_vectors(rows)).items()}
    return _echelon_fp(rows, f.char)


def _denominator_lcm(dens) -> int:
    """The lcm of the denominators ``dens`` (ints, one per rational): the
    least ``c`` that makes each of those rationals integral times ``c``."""
    c = 1
    for d in dens:
        if d != 1:
            c = lcm(c, d)
    return c


def _integer_vectors(vecs):
    """The sparse vectors ``vecs`` over Q (dicts of Fractions, of ints, or
    of both) times ``c``, the lcm of all their denominators
    (``_denominator_lcm``), as fresh dicts of ints, one at a time.  Each
    entry is read off its numerator, so no Fraction is made; ``c`` is 1
    unless an entry is not integral.  ``vecs`` is read twice, so it must not
    be an iterator.  The copies are the engine's own (``_echelon_q`` reduces
    in place); ``_transpose``, which copies anyway, reads integral vectors
    without them.  Over F_p the entries are ints already, and callers read
    the vectors as they are."""
    c = _denominator_lcm(v.denominator for vec in vecs for v in vec.values())
    if c == 1:
        for vec in vecs:
            yield {k: v.numerator for k, v in vec.items()}
    else:
        for vec in vecs:
            yield {k: v.numerator * (c // v.denominator) for k, v in vec.items()}


def _transpose(sm: SparseMatrix) -> list:
    """The columns of ``sm`` as dicts ``row -> int``, built in one pass over
    its rows.  Rows of ints (every operator over F_p, and each one over Q
    with integral entries, ``operator_ring``) are read as they are; over Q a
    matrix holding any Fraction gives the columns of ``c * sm``, as in
    ``_integer_vectors``.  The one integer column view: the column-side
    rank and the ``d o d = 0`` check of ``Complex`` both read it."""
    rows = sm.rows
    if not sm.field.char and not _all_ints(rows):
        rows = _integer_vectors(rows)
    cols: list = [{} for _ in range(sm.ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _all_ints(rows) -> bool:
    """Whether every entry of the sparse vectors ``rows`` is an int."""
    types = set()
    for row in rows:
        types.update(map(type, row.values()))
    return types <= {int}


def _handed_out(vecs: list):
    """The items of ``vecs`` in order, each dropped from the list as it is
    handed out, so that the consumer alone decides how long it lives."""
    for j, vec in enumerate(vecs):
        vecs[j] = None
        yield vec


def sparse_rank(sm: SparseMatrix) -> int:
    """Exact rank by max-index forward elimination of the side with fewer
    vectors: over F_p and Q the columns when there are fewer of them than
    rows (every bar and group-cochain differential, whose nrows =
    (m-1) * ncols), the rows otherwise.  Columns are built once, as integer
    vectors, and fed to the engine in ascending order, each released once
    it is consumed; that order and the max-index pivot keep elimination
    near fill-free here.  Over F_2 the rows are eliminated whatever the
    shape: a bitset costs its length, not its support, so bitset columns of
    a tall matrix are the larger vectors.  A vector is only ever reduced by
    a stored one holding its pivot index, so vectors that share no index
    never meet: splitting the matrix into blocks first would make the same
    eliminations."""
    p = sm.field.char
    if p == 2:
        return len(_echelon_f2(map(_f2_bits, sm.rows)))
    if sm.ncols < sm.nrows:
        vecs = _handed_out(_transpose(sm))
    else:
        vecs = sm.rows if p else _integer_vectors(sm.rows)
    return len(_echelon_fp(vecs, p) if p else _echelon_q(vecs))


def sparse_kernel_basis(sm: SparseMatrix):
    """Kernel basis as sparse dicts, one per free column in increasing order;
    identical vector-for-vector to ``kernel_basis`` on the dense form, with
    ascending keys on every field.

    The canonical (leftmost-pivot RREF) kernel basis is computed without the
    slow leftmost elimination, by one algorithm on every field: the
    max-column echelon is fully reduced, each free column's raw kernel
    vector is read off its rows, and the max-column echelon of those
    vectors, fully reduced, is the unique basis whose vectors carry 1 on
    their own free column and 0 on every other free column: exactly the
    RREF kernel basis.  Over F_2 the steps run on bitsets, over F_p and Q on
    dict rows.
    """
    f = sm.field
    if f.char == 2:
        ech = _reduce_f2(_echelon_f2(map(_f2_bits, sm.rows)))
        # free column c: e_c plus every pivot whose reduced row has bit c
        raw = {c: 1 << c for c in range(sm.ncols) if c not in ech}
        for pc, row in ech.items():
            for c in _f2_support(row ^ (1 << pc)):
                raw[c] |= 1 << pc
        kech = _reduce_f2(_echelon_f2(raw.values()))
        return [_f2_dict(kech[pc]) for pc in sorted(kech)]
    ech = _reduce(f, _echelon(f, sm.rows))
    # free column c: e_c minus each pivot's reduced-row entry at c
    raw = {c: {c: f.one} for c in range(sm.ncols) if c not in ech}
    for pc in sorted(ech):
        for c, v in ech[pc].items():
            if c != pc:
                raw[c][pc] = f.neg(v)
    kech = _reduce(f, _echelon(f, raw.values()))
    return [dict(sorted(kech[pc].items())) for pc in sorted(kech)]


class EchelonStore:
    """Incremental echelon store over sparse vectors.

    Every stored row has its pivot at its minimal column and pivot value 1,
    and distinct rows have distinct pivots.  Reducing a vector in the span of
    the store therefore terminates at zero, which makes membership tests and
    coordinate extraction exact.  Rows may carry an integer tag; ``reduce``
    reports the coefficient used against each tagged row.

    Over F_2 the rows are kept as bitsets (``ech`` maps pivot to int), under
    the same rule; the vectors handed back are dicts with ascending keys.
    """

    def __init__(self, field):
        self.field = field
        self.ech: dict[int, dict | int] = {}
        self.tags: dict[int, int] = {}

    def _reduce_bits(self, bits: int, track: bool):
        """``reduce`` on a bitset: each step clears the lowest bit with the
        row stored there, whose coefficient is 1."""
        ech, tags = self.ech, self.tags
        coeffs: dict[int, int] = {}
        while bits:
            pc = (bits & -bits).bit_length() - 1
            er = ech.get(pc)
            if er is None:
                break
            bits ^= er
            if track and tags[pc] >= 0:
                coeffs[tags[pc]] = 1
        return bits, coeffs

    def reduce(self, vec: dict, track: bool = False):
        """``vec`` minus its components along the stored rows, pivot by pivot
        from the smallest column, and (with ``track``) the coefficient taken
        against each tagged row.  The row updates are inlined, as in the
        ``_echelon_*`` engines: reduced mod p over F_p, plain Fractions
        over Q, and by XOR of bitsets over F_2."""
        p = self.field.char
        if p == 2:
            bits, coeffs = self._reduce_bits(_f2_bits(vec), track)
            return (_f2_dict(bits) if bits else {}), coeffs
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
        if f.char == 2:
            bits, _ = self._reduce_bits(_f2_bits(vec), False)
            if not bits:
                return None
            pc = (bits & -bits).bit_length() - 1
            self.ech[pc] = bits
            self.tags[pc] = tag
            return _f2_dict(bits)
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
    pair, in plain integer arithmetic, on the integer column view the rank
    reads too (``_transpose``): each differential's columns are built once
    and serve as the right factor of its pair with the next differential
    and the left factor of its pair with the previous one, and each column
    of the product is summed exactly and tested once.
    This is exact over every field.  Over F_p the entries are integer
    representatives and reduction mod p is a ring map, so a column vanishes
    over F_p iff its integer sums are 0 mod p.  Over Q each matrix is first
    multiplied by the lcm of its denominators (1 unless an entry is not
    integral); a nonzero scalar on either factor changes neither which
    columns of the product vanish nor the first that does not.  A failure
    raises ``SquareZeroError`` naming that first column.
    """

    def __init__(self, field, dims: dict, diffs: dict):
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
                right = _transpose(self.diffs[n])
            left = _transpose(self.diffs[n + 1])
            for j, col in enumerate(right):
                acc: dict = {}
                for i, a in col.items():
                    for k, b in left[i].items():
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

"""Exact linear algebra kernel: one sparse matrix type, echelon forms, rank
engines, and cohomology of cochain complexes.

One matrix type.  ``SparseMatrix`` holds a matrix as rows, dicts of its
nonzero entries: the differentials of bar-type complexes, whose dimensions
at the top truncation degree rule out dense storage, and the small
structure maps alike (pairings, antipodes, the systems for the centre and
the integrals, the maps of the Connes sequence).  A structure map or linear
system is built from its terms by ``SparseMatrix.from_terms``, which sums
them with ``sum_terms``.  Products run on integer rows (``_integer_rows``):
each operand is read once as dicts of ints with one scale per matrix, which
``_row_product`` combines at one int operation per pair of nonzero entries
that meet; each nonzero result becomes a field element once
(``_field_rows``).  A TQFT map (``cobordism.TQFTMap``) is read from its
terms straight into integer rows with one denominator in lowest terms, and
stays in that form through evaluation, composition, tensor products
(``_row_kron``) and comparison; it becomes a ``SparseMatrix`` only when it
is read.  ``SparseMatrix.data`` writes a matrix out as dense rows of field
elements, for a report or a caller that reads it entry by entry.

Arithmetic.  Over F_p every stored entry is a reduced int.  Over Q an
entry of a structure map, a cochain value and every vector the engines
hand out (``apply_sparse``, kernel bases, cohomology representatives,
``CohomologyData.project`` coordinates) is a Fraction, never an int, which
a report renders differently.  A sparse operator over Q
(bar, group-cochain and rotation differentials) instead stores exact
integer representatives: an int where the entry is integral, a Fraction
only where it is not.  Differentials are built (``sum_terms`` into
``operator_ring``) and checked (``Complex``) by the same code for F_2, F_p
and Q: plain sums of exact representatives, mapped into the ring as each
entry is stored, or tested once per product column.  The ``d o d = 0``
check and the rank read the same entries of a differential: over F_2 and
F_3 both as bitsets or bitset pairs, over every other field the rank as
integer rows or columns (``_transpose``) and the check as per-column key
lists (``_CheckFactor``).  One reader, ``_integer_rows``, turns exact
rationals into ints for every engine and product: rows of ints are
taken as they are, and rows holding a Fraction are scaled by the lcm of
their denominators, so no Fraction is made until a result leaves the
engine.

The ``d o d = 0`` check (``Complex``).  Over F_2 and F_3, d^{n+1} d^n is
taken row by row on the rank's bitsets (bitset pairs): each row of d^n is
packed once, and row k of the product sums the packed rows that row k of
d^{n+1} names.  Over Q and F_p, p >= 5, each column first tries a
certificate that can only accept: its terms, read as balanced integer
lifts, are all +-1 and cancel in pairs, which sorting and comparing their
keys decides; any other column is summed exactly in ints.  Both name the
first nonzero column of the product.  ``Complex.mixed_total`` certifies
the total complex of a mixed complex the same way, from B d + d B = 0 and
B B = 0.

Elimination.  One forward echelon per arithmetic, pivoting on the largest
index (empirically near fill-free on bar differentials), serves both rank
and kernel: ``_echelon_f2`` on bitsets (ints) over F_2, ``_echelon_f3`` on
bitset pairs over F_3 (bit c of the first int set where entry c is 1, of
the second where it is 2: addition is seven bitwise operations and
negation swaps the pair; Boothby-Bradshaw), ``_echelon_fp`` on dict rows
over every other F_p, and the fraction-free ``_echelon_q`` over Q, which
takes integer vectors (``_integer_rows``).  ``sparse_rank`` eliminates the
side with fewer vectors (LaMacchia-Odlyzko) over F_p, p > 3, and Q: the
columns of a tall matrix, so of every bar differential, built once as
integer vectors and fed in ascending order, and the rows of a square or
wide one.  Over F_2 and F_3 it eliminates the rows, since a bitset costs
its length.  The kernel path always eliminates rows.  The sparse kernel
basis is one algorithm on every field (reduce the echelon, read the kernel
off it, reduce again: ``_reduce_f2`` on bitsets, ``_reduce_f3`` on bitset
pairs, ``_reduce`` on dict rows).  It equals, vector for vector, the basis
a leftmost-pivot Gauss-Jordan elimination gives, since the reduced kernel
basis is unique, and its keys are in ascending order on every field.  The
small maps take the same engine: ``rank`` and ``inverse`` feed their rows
to ``_echelon`` (``inverse`` with one tag column per row); the tests keep a
dense Gauss-Jordan and a determinant as the independent oracle they are
checked against.
``EchelonStore`` pivots on the smallest column, because the cohomology
representatives it selects, and so every coordinate in a report, depend on
that rule; over F_2 it too keeps bitset rows, and hands vectors back with
ascending keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import or_, xor


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
    (``_integer_rows``), and every vector they hand out is made of field
    elements again."""
    return f if f.char else _INTEGRAL_Q


# ---------------------------------------------------------------------------
# matrices


class SparseMatrix:
    """Row-sparse exact matrix: ``rows[i]`` maps column index -> nonzero scalar.

    Over F_p the scalars are reduced ints.  Over Q they are the exact
    representatives of ``operator_ring`` for the operators the package
    builds (ints where integral), and Fractions for every other matrix
    (``from_terms``, ``from_dense``, products and inverses); the engines
    take either, and ``data`` writes both out as Fractions."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @classmethod
    def from_terms(cls, field, nrows, ncols, terms):
        """The ``nrows`` x ``ncols`` matrix summing ``((i, j), c)`` terms with
        ``sum_terms``."""
        rows = [{} for _ in range(nrows)]
        for (i, j), c in sum_terms(field, terms).items():
            rows[i][j] = c
        return cls(field, nrows, ncols, rows)

    @classmethod
    def from_dense(cls, field, nrows, ncols, data):
        """The matrix of ``data``, ``nrows`` lists of ``ncols`` entries each,
        keeping its nonzero entries as they are; an entry that is the
        field's shared ``zero`` is dropped untested."""
        if len(data) != nrows or any(len(r) != ncols for r in data):
            raise LinalgError("matrix data shape mismatch")
        z, is_zero = field.zero, field.is_zero
        return cls(field, nrows, ncols,
                   [{j: v for j, v in enumerate(r) if v is not z and not is_zero(v)}
                    for r in data])

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{i: field.one} for i in range(n)])

    @property
    def data(self) -> list:
        """The matrix written out as fresh dense rows of field elements:
        over Q every stored entry as a Fraction, and every absent one the
        field's shared ``zero``.  For a report, or a caller that reads the
        matrix entry by entry."""
        f = self.field
        of_int = f.of_int
        out = [[f.zero] * self.ncols for _ in range(self.nrows)]
        for dense, row in zip(out, self.rows):
            for j, v in row.items():
                dense[j] = of_int(v)
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.field, self.ncols, self.nrows,
                            _transpose(self.rows, self.ncols))

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __mul__(self, other):
        """The product on integer rows (``_integer_rows``) by
        ``_row_product``: plain int sums, one multiply-add per pair of
        nonzero entries that meet, each nonzero sum mapped into the field
        once."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise LinalgError("matrix product shape mismatch")
        f = self.field
        arows, ca = _integer_rows(self.rows, f.char)
        brows, cb = _integer_rows(other.rows, f.char)
        return SparseMatrix(f, self.nrows, other.ncols, _field_rows(
            f, _row_product(arows, brows, f.char), ca * cb))

    def columns(self):
        """Column-oriented copy: list of dicts row -> value."""
        return _transpose(self.rows, self.ncols)

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


# The benchmark's tracer (perfbench/tracing.py) wraps ``Matrix.__mul__`` and
# ``Matrix.__eq__`` by this name, and this alias exists only for those
# entries; it goes when the tracer is rewritten (ROADMAP item 6).
Matrix = SparseMatrix


def _integer_rows(rows, p):
    """The sparse vectors ``rows`` over F_p (``p`` prime) or Q (``p`` = 0)
    as ``(vecs, c)``: integer vectors with ``rows = vecs / c``, the one
    reader of exact rationals as ints.  Over F_p, and over Q when every
    entry is an int, ``vecs`` is ``rows`` itself and ``c`` is 1: nothing is
    copied and no entry is read, only each entry's type tested.  Otherwise
    ``c`` is the lcm of the denominators and ``vecs`` are fresh dicts, each
    entry read once as a ratio of ints, so ``(vecs, c)`` is in lowest terms
    (``_lowest_terms``).  ``rows`` is read twice, so it must not be an
    iterator."""
    if not p:
        types = set()
        for row in rows:
            types.update(map(type, row.values()))
        if not types <= {int}:
            ratios = [{j: v.as_integer_ratio() for j, v in row.items()}
                      for row in rows]
            c = lcm(*{d for r in ratios for _, d in r.values()})
            return [{j: n * (c // d) for j, (n, d) in r.items()}
                    for r in ratios], c
    return rows, 1


def _field_rows(field, rows, c) -> list:
    """The integer rows ``rows / c`` (reduced mod p over F_p, where ``c``
    is 1) as fresh rows of field elements: over Q each entry a Fraction,
    never an int, which a report renders differently."""
    if field.char:
        return [dict(row) for row in rows]
    return [{j: Fraction(n, c) for j, n in row.items()} for row in rows]


def _row_product(arows, brows, p) -> list:
    """The rows of the product of two matrices given as integer rows (dicts
    ``column -> int``, as ``_integer_rows`` reads them): plain int sums,
    reduced mod ``p`` over F_p (``p`` = 0 over Q), zeros dropped.  A
    product of rows ``rows / c`` carries the product of their scales."""
    out = []
    for ra in arows:
        acc: dict = {}
        get = acc.get
        for k, x in ra.items():
            for j, y in brows[k].items():
                acc[j] = get(j, 0) + x * y
        if p:
            out.append({j: r for j, s in acc.items() if (r := s % p)})
        else:
            out.append({j: s for j, s in acc.items() if s})
    return out


def _row_kron(arows, brows, bn, p) -> list:
    """The rows of the Kronecker product of two matrices given as integer
    rows, ``bn`` the number of columns of the second: one product per pair
    of nonzero entries, reduced mod ``p`` over F_p, where it stays nonzero
    as ``p`` is prime."""
    out = []
    for ra in arows:
        pairs = [(j1 * bn, x) for j1, x in ra.items()]
        for rb in brows:
            if p:
                out.append({base + j2: x * y % p for base, x in pairs
                            for j2, y in rb.items()})
            else:
                out.append({base + j2: x * y for base, x in pairs
                            for j2, y in rb.items()})
    return out


def _lowest_terms(rows, c):
    """Integer rows ``rows / c`` over Q, ``c`` positive, as ``(rows, c)``
    with gcd(c, every entry) = 1: the one form of each rational matrix, so
    that two are equal iff their rows and ``c`` are."""
    g = c
    for row in rows:
        g = gcd(g, *row.values())
        if g == 1:
            return rows, c
    return [{j: n // g for j, n in row.items()} for row in rows], c // g


def rank(m: SparseMatrix) -> int:
    """The pivot count of the max-column echelon (``_echelon``) of the rows.
    Unlike ``sparse_rank``, whose every result the benchmark's traced
    fingerprint lists, it serves the small maps of the Connes sequence."""
    return len(_echelon(m.field, m.rows))


def inverse(m: SparseMatrix) -> SparseMatrix:
    """m^{-1} from the max-column echelon (``_echelon``) of the rows
    (e_i | m_i) of the n x n matrix ``m``, tags in columns 0..n-1 and ``m``
    in n..2n-1.  Each stored row is a combination of input rows, so its tag
    part t and its ``m`` part u satisfy t m = u: a pivot in a tag column
    (u = 0) means ``m`` is singular, and otherwise, reduced, the row with
    pivot n + k is (row k of m^{-1} | e_k)."""
    if m.nrows != m.ncols:
        raise LinalgError("inverse of non-square matrix")
    n = m.nrows
    f = m.field
    ech = _echelon(f, [{i: f.one} | {n + j: v for j, v in row.items()}
                       for i, row in enumerate(m.rows)])
    if min(ech, default=n) < n:
        raise LinalgError("matrix is singular")
    ech = _reduce(f, ech)
    return SparseMatrix(f, n, n, [{c: v for c, v in ech[n + k].items() if c < n}
                                  for k in range(n)])


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


def _f3_bits(row: dict) -> tuple:
    """A sparse vector over F_3 as a bitset pair ``(ones, twos)``: bit c of
    ``ones`` (``twos``) is set where entry c is 1 (2)."""
    ones = twos = 0
    for c, v in row.items():
        v %= 3
        if v == 1:
            ones |= 1 << c
        elif v:
            twos |= 1 << c
    return ones, twos


def _f3_dict(pair) -> dict:
    """A bitset pair as a sparse vector over F_3, keys ascending."""
    ones, twos = pair
    out = dict.fromkeys(_f2_support(ones), 1)
    out.update(dict.fromkeys(_f2_support(twos), 2))
    return dict(sorted(out.items()))


# Over F_3 a vector is a bitset pair, and the sum (s1, s2) of (a1, a2) and
# (b1, b2) is exact mod 3 in seven bitwise operations:
#     t = (a1 | b2) ^ (a2 | b1),  s1 = (a2 | b2) ^ t,  s2 = (a1 | b1) ^ t.
# Negation swaps the pair, so a - b is a + (b2, b1).  The engines inline it.


def _echelon_f3(rows) -> dict:
    """Forward echelon over F_3 of bitset pairs (``_f3_bits``), max-column
    pivot: returns ``{pivot: (ones, twos)}`` with every pivot entry 1.  The
    pair's two bit lengths give the pivot and its entry, since no bit is
    set in both."""
    ech: dict[int, tuple] = {}
    for ones, twos in rows:
        while True:
            lo, lt = ones.bit_length(), twos.bit_length()
            if lo == lt:
                break   # both 0
            pc = (lo if lo > lt else lt) - 1
            er = ech.get(pc)
            if er is None:
                # a pivot entry 2 is scaled by 2 = -1: the pair swapped
                ech[pc] = (ones, twos) if lo > lt else (twos, ones)
                break
            # entry 1: subtract er, i.e. add it negated; entry 2: add er
            b2, b1 = er if lo > lt else er[::-1]
            t = (ones | b2) ^ (twos | b1)
            ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
    return ech


def _reduce_f3(ech: dict) -> dict:
    """The reduced form of a max-column F_3 echelon, as ``_reduce_f2`` makes
    it over F_2: rows in increasing pivot order, each reduced by the already
    reduced rows at its other pivots.  Such a row has no entry at any pivot
    but its own, so the entries of the row being reduced at its pivots are
    read once, before it changes."""
    pivots = 0
    for pc in ech:
        pivots |= 1 << pc
    out: dict[int, tuple] = {}
    for pc in sorted(ech):
        ones, twos = ech[pc]
        minus = _f2_support((ones & pivots) ^ (1 << pc))
        plus = _f2_support(twos & pivots)
        for q in minus:   # entry 1: subtract out[q]
            b2, b1 = out[q]
            t = (ones | b2) ^ (twos | b1)
            ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
        for q in plus:    # entry 2: add out[q]
            b1, b2 = out[q]
            t = (ones | b2) ^ (twos | b1)
            ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
        out[pc] = (ones, twos)
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
    """Forward echelon over Q of integer vectors (``_integer_rows``),
    max-index pivot: returns ``{pivot: row}`` with integer rows, each a
    nonzero multiple of the row the same elimination over Fractions would
    store.  Rows are updated by fraction-free cross-multiplication, so there
    is no Fraction churn in the loop.  Against a pivot of +-1 the row is
    reduced in place without scaling, and its content is left for the next
    non-unit step to strip.  Each input vector is copied once and only the
    copy is reduced and stored, so the caller's vectors are left as they
    are."""
    ech: dict[int, dict] = {}
    for r in rows:
        cur = _strip_content(dict(r))
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
    if f.char:
        return _echelon_fp(rows, f.char)
    vecs, _ = _integer_rows(rows, 0)
    return {pc: {c: Fraction(v, row[pc]) for c, v in row.items()}
            for pc, row in _echelon_q(vecs).items()}


def _transpose(rows, ncols) -> list:
    """The columns of the matrix with sparse ``rows`` and ``ncols`` columns,
    as dicts ``row -> value``, built in one pass over the rows: the column
    view of ``SparseMatrix.columns``, and over integer rows
    (``_integer_rows``) the integer column view the column-side rank
    reads."""
    cols: list = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _handed_out(vecs: list):
    """The items of ``vecs`` in order, each dropped from the list as it is
    handed out, so that the consumer alone decides how long it lives."""
    for j, vec in enumerate(vecs):
        vecs[j] = None
        yield vec


def sparse_rank(sm: SparseMatrix) -> int:
    """Exact rank by max-index forward elimination, one engine per
    arithmetic: bitsets over F_2, bitset pairs over F_3, dict rows over
    every other F_p and fraction-free integer rows over Q.  Bitsets and
    bitset pairs are the rows, whatever the shape: a bitset costs its
    length, not its support, so bitset columns of a tall matrix are the
    longer vectors, and their echelon keeps up to rank of them.  Over F_3
    such columns were up to twice as fast as the rows on bar
    differentials, but took three to five times the memory on the order-8
    groups at N = 4 and on S3 at N = 5 (``BENCH_f3_bits.json``).
    Dict rows and integer rows eliminate the side with fewer vectors: the
    columns when there are fewer of them than rows (every bar and
    group-cochain differential, whose nrows = (m-1) * ncols), the rows
    otherwise.  Columns are built once, as integer vectors, and fed to the
    engine in ascending order, each released once it is consumed; that
    order and the max-index pivot keep elimination near fill-free here.  A
    vector is only ever reduced by a stored one holding its pivot index, so
    vectors that share no index never meet: splitting the matrix into
    blocks first would make the same eliminations."""
    p = sm.field.char
    if p == 2:
        return len(_echelon_f2(map(_f2_bits, sm.rows)))
    if p == 3:
        return len(_echelon_f3(map(_f3_bits, sm.rows)))
    vecs, _ = _integer_rows(sm.rows, p)
    if sm.ncols < sm.nrows:
        vecs = _handed_out(_transpose(vecs, sm.ncols))
    return len(_echelon_fp(vecs, p) if p else _echelon_q(vecs))


def sparse_kernel_basis(sm: SparseMatrix):
    """Kernel basis as sparse dicts, one per free column in increasing order,
    with ascending keys on every field.

    The canonical (leftmost-pivot RREF) kernel basis is computed without the
    slow leftmost elimination, by one algorithm on every field: the
    max-column echelon is fully reduced, each free column's raw kernel
    vector is read off its rows, and the max-column echelon of those
    vectors, fully reduced, is the unique basis whose vectors carry 1 on
    their own free column and 0 on every other free column: exactly the
    RREF kernel basis.  The steps run on the field's own engine: bitsets
    over F_2, bitset pairs over F_3, dict rows over every other F_p, and
    over Q the fraction-free echelon (``_echelon``) reduced as Fraction
    rows.  Over F_p the values are the reduced ints 1 .. p-1 whichever
    engine ran.
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
    if f.char == 3:
        ech = _reduce_f3(_echelon_f3(map(_f3_bits, sm.rows)))
        # free column c: e_c minus each pivot's reduced-row entry at c, so
        # a pivot whose row has 1 (2) at c puts 2 (1) at the pivot
        raw = {c: [1 << c, 0] for c in range(sm.ncols) if c not in ech}
        for pc, (ones, twos) in ech.items():
            bit = 1 << pc
            for c in _f2_support(ones ^ bit):
                raw[c][1] |= bit
            for c in _f2_support(twos):
                raw[c][0] |= bit
        kech = _reduce_f3(_echelon_f3(raw.values()))
        return [_f3_dict(kech[pc]) for pc in sorted(kech)]
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


class _CheckFactor:
    """The columns of a sparse matrix times ``scale`` (the lcm of its
    denominators, 1 unless an entry over Q is not an int), read in one pass
    over its rows: ``plus[j]`` and ``minus[j]`` list the rows of column j
    whose entry has balanced lift +1 and -1, ``other`` maps each column
    holding any other entry to its ``(row, int)`` pairs.  The check reads
    it over Q and F_p, p >= 5 (over F_2 and F_3 it reads ``_BitRows``).
    Over Q an entry 2 (-2) is listed twice in ``plus`` (``minus``), as the
    two unit terms it sums, which keeps every sum the same; over F_p a
    stored 2 lifts to +2 and stays in ``other``, so its column is summed."""

    __slots__ = ("scale", "plus", "minus", "other")

    def __init__(self, sm: SparseMatrix):
        self.scale = 1
        self._read(sm.rows, sm.field.char, sm.ncols)
        if not sm.field.char and any(type(v) is not int for pairs in
                                     self.other.values() for _, v in pairs):
            rows, self.scale = _integer_rows(sm.rows, 0)
            self._read(rows, 0, sm.ncols)

    def _read(self, rows, p, ncols):
        self.plus = plus = [[] for _ in range(ncols)]
        self.minus = minus = [[] for _ in range(ncols)]
        self.other = other = {}
        minus_one = p - 1 if p else -1
        for i, row in enumerate(rows):
            for j, v in row.items():
                if v == 1:
                    plus[j].append(i)
                elif v == minus_one:
                    minus[j].append(i)
                elif v == 2 and not p:
                    plus[j] += (i, i)
                elif v == -2 and not p:
                    minus[j] += (i, i)
                else:
                    other.setdefault(j, []).append((i, v))

    def column(self, j) -> list:
        """Column j as ``(row, lift)`` pairs, other entries as stored."""
        return ([(i, 1) for i in self.plus[j]]
                + [(i, -1) for i in self.minus[j]] + self.other.get(j, []))


def _cancels(j, terms) -> bool:
    """The certificate (``Complex``) for column j of the sum of the products
    ``left @ right`` over ``terms``.  False decides nothing."""
    flat = chain.from_iterable
    pos: list = []
    neg: list = []
    for right, left, _ in terms:
        if j in right.other:
            return False
        rp, rm = right.plus[j], right.minus[j]
        lo = left.other
        if lo and not (lo.keys().isdisjoint(rp) and lo.keys().isdisjoint(rm)):
            return False
        lp, lm = left.plus.__getitem__, left.minus.__getitem__
        pos += flat(map(lp, rp))
        pos += flat(map(lm, rm))
        neg += flat(map(lm, rp))
        neg += flat(map(lp, rm))
    pos.sort()
    neg.sort()
    return pos == neg


def _column_sum_nonzero(p, j, terms) -> bool:
    """Whether column j of the sum of ``weight * left @ right`` over
    ``terms``, summed exactly in ints on the lifts, is nonzero over F_p
    (over Q for p = 0)."""
    acc: dict = {}
    for right, left, weight in terms:
        for i, a in right.column(j):
            a *= weight
            for k, b in left.column(i):
                acc[k] = acc.get(k, 0) + a * b
    return any(x % p for x in acc.values()) if p else any(acc.values())


class _BitRows:
    """A factor of the check over F_2 or F_3 (``Complex``): a left factor's
    rows are read as stored, a right factor's rows are packed once, on
    first use, by ``_f2_bits`` or ``_f3_bits``."""

    __slots__ = ("rows", "_bits")

    def __init__(self, sm: SparseMatrix):
        self.rows = sm.rows
        self._bits = None

    def bits(self, p) -> list:
        if self._bits is None:
            self._bits = list(map(_f2_bits if p == 2 else _f3_bits, self.rows))
        return self._bits


def _check_factor(sm: SparseMatrix):
    """A matrix as ``_first_failing_column`` reads it on its field."""
    return _BitRows(sm) if sm.field.char in (2, 3) else _CheckFactor(sm)


def _f2_product_rows(bits, rows):
    """The rows of (left rows ``rows``) @ (right packed rows ``bits``)."""
    get = bits.__getitem__
    for row in rows:
        yield reduce(xor, map(get, row), 0)


def _f3_product_rows(bits, rows):
    """``_f2_product_rows`` over F_3: an entry 2 adds the pair swapped."""
    for row in rows:
        ones = twos = 0
        for i, v in row.items():
            if v == 1:
                b1, b2 = bits[i]
            else:
                b2, b1 = bits[i]
            t = (ones | b2) ^ (twos | b1)
            ones, twos = (twos | b2) ^ t, (ones | b1) ^ t
        yield ones, twos


def _f3_add(a, b):
    """The sum of two bitset pairs over F_3."""
    t = (a[0] | b[1]) ^ (a[1] | b[0])
    return (a[1] | b[1]) ^ t, (a[0] | b[0]) ^ t


def _nonzero_columns(p, products) -> int:
    """The columns at which the sum of the products ``left @ right`` over
    ``products``, ``(right, left)`` ``_BitRows`` pairs whose left factors
    have as many rows, is nonzero over F_p, p = 2 or 3, as a bitset: the OR
    of the rows of the sum, taken row by row."""
    product_rows, add = ((_f2_product_rows, xor) if p == 2
                         else (_f3_product_rows, _f3_add))
    sums = [product_rows(right.bits(p), left.rows) for right, left in products]
    rows = sums[0]
    for more in sums[1:]:
        rows = map(add, rows, more)
    if p == 3:
        rows = (ones | twos for ones, twos in rows)
    return reduce(or_, rows, 0)


def _first_failing_column(p, ncols, sums):
    """The first column j < ``ncols`` at which one of ``sums``, each a list
    of ``(right, left)`` ``_check_factor`` pairs standing for the sum of the
    products ``left @ right``, is nonzero; None if there is none.  Over F_2
    and F_3 that is the lowest set bit of the sums' nonzero columns.  A
    product of integer views carries the scale ``right.scale * left.scale``,
    so the products of one sum are weighted to the lcm of their scales, and
    the certificate runs only where they agree."""
    if p in (2, 3):
        fail = 0
        for products in sums:
            fail |= _nonzero_columns(p, products)
        return (fail & -fail).bit_length() - 1 if fail else None
    prepared = []
    for products in sums:
        scales = [right.scale * left.scale for right, left in products]
        top = lcm(*scales)
        prepared.append(([(right, left, top // s)
                          for (right, left), s in zip(products, scales)],
                         top == min(scales)))
    for j in range(ncols):
        for terms, certify in prepared:
            if not (certify and _cancels(j, terms)) \
                    and _column_sum_nonzero(p, j, terms):
                return j
    return None


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
    pair, on the entries the rank reads too.  Over F_2 and F_3 the product
    is taken row by row (``_nonzero_columns``): each row of d^n is packed
    once (``_BitRows``), each row of d^{n+1} is read as stored and never
    transposed, and a product row costs one XOR (F_2) or one pair addition
    (F_3, the pair swapped for an entry 2) per entry.  Over Q and F_p,
    p >= 5, each column first tries a certificate that can only accept
    (``_cancels``): when every term is a product of two entries whose
    balanced integer lifts (over F_p, v - p when v > p/2) are +-1, the
    column vanishes if the sorted keys of its +1 terms equal those of its
    -1 terms.  The per-column row lists of each differential
    (``_CheckFactor``) are built once and joined with list extends.  A
    column the certificate does not clear (a non-unit entry, such as a
    stored 2 over F_5) is summed exactly in ints (``_column_sum_nonzero``),
    and that sum alone decides.  Over F_p reduction mod p is a ring map, so
    a column vanishes over F_p iff its integer sums are 0 mod p.  Over Q
    each matrix is first multiplied by the lcm of its denominators; a
    nonzero scalar on either factor changes neither which columns of the
    product vanish nor the first that does not.  A failure raises
    ``SquareZeroError`` naming that first column, on either path: on the
    rows it is the lowest set bit of the OR of every product row.

    ``mixed_total`` builds the total complex of a mixed complex from its
    parts and certifies it from the mixed-complex identities instead.
    """

    def __init__(self, field, dims: dict, diffs: dict):
        self._setup(field, dims, diffs)
        self._check_square_zero()

    def _setup(self, field, dims: dict, diffs: dict):
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
                right = _check_factor(self.diffs[n])
            left = _check_factor(self.diffs[n + 1])
            j = _first_failing_column(p, self.diffs[n].ncols, [[(right, left)]])
            if j is not None:
                raise SquareZeroError(n, j)
            # d^{n+1} is the right factor of the next pair
            right_n, right = n + 1, left

    @classmethod
    def mixed_total(cls, bar: "Complex", rotations: dict) -> "Complex":
        """The truncated total complex Tot^n = C^n (+) Tot^{n-2} of the
        mixed complex (C, d, B), n = 0 .. N+1: ``bar`` is C on degrees
        0 .. N+1, certified by its own construction, and ``rotations[n]``
        is B_n : C^n -> C^{n-1}, n = 1 .. N.  The coordinates of C^n come
        first.  Row by row, d_tot^n lists the rows of d^n, then one row per
        coordinate of Tot^{n-1}: the row of d_tot^{n-2} with its columns
        shifted by dim C^n, followed by the row of B_n where B_n has one.

        On the summand C^m, d_tot^{n+1} d_tot^n is d^{m+1} d^m into
        C^{m+2}, B_{m+1} d^m + d^{m-1} B_m into C^m and B_{m-1} B_m into
        C^{m-2}.  So only the last two are checked on C^n, n = 0 .. N-1,
        on the path ``Complex`` takes for the field (row by row over F_2
        and F_3, column by column otherwise).  A column of C^m fails in
        every Tot^n that holds it, first in Tot^m, where C^m comes first,
        so the first failing (m, column) is what the check of ``Complex``
        names on the assembled d_tot."""
        field = bar.field
        N = max(bar.diffs)
        for n in range(1, N + 1):
            b = rotations[n]
            if (b.nrows, b.ncols) != (bar.dim(n - 1), bar.dim(n)):
                raise LinalgError(f"rotation B_{n} shape mismatch")
        p = field.char
        dv: dict = {}
        bv: dict = {}
        for n in range(N):
            dv[n] = _check_factor(bar.diffs[n])
            bv[n + 1] = _check_factor(rotations[n + 1])
            dv.pop(n - 2, None)
            bv.pop(n - 2, None)
            mixed = [(dv[n], bv[n + 1])]
            if n >= 1:
                mixed.append((bv[n], dv[n - 1]))
            sums = [mixed, [(bv[n], bv[n - 1])]] if n >= 2 else [mixed]
            j = _first_failing_column(p, bar.dim(n), sums)
            if j is not None:
                raise SquareZeroError(n, j)

        cdim = bar.dim
        dims = {-2: 0, -1: 0}
        for n in range(N + 2):
            dims[n] = cdim(n) + dims[n - 2]
        # d_tot^{-2} and d_tot^{-1} start from Tot = 0: no columns
        rows = {-2: [], -1: [{} for _ in range(dims[0])]}
        for n in range(N + 1):
            b_rows = rotations[n].rows if n else []
            rows[n] = list(bar.diffs[n].rows)
            off = cdim(n)
            for r, lower in enumerate(rows[n - 2]):
                row = {c + off: v for c, v in lower.items()}
                if r < len(b_rows):
                    row.update(b_rows[r])
                rows[n].append(row)
        cx = cls.__new__(cls)
        cx._setup(field, {n: dims[n] for n in range(N + 2)},
                  {n: SparseMatrix(field, dims[n + 1], dims[n], rows[n])
                   for n in range(N + 1)})
        return cx

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

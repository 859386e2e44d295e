import random

from fractions import Fraction
from math import gcd

import pytest

from hbv.fields import QQ, GF, field_by_name, FieldError
from hbv.linalg import (
    CohomologyData,
    Complex,
    EchelonStore,
    LinalgError,
    SparseMatrix,
    SquareZeroError,
    WindowError,
    inverse,
    rank,
    sparse_kernel_basis,
    sparse_rank,
    sum_terms,
)
from hbv.linalg import (_echelon, _echelon_f3, _f3_bits, _f3_dict,
                        _field_rows, _integer_rows, _reduce, _reduce_f3,
                        _row_kron)

import dense_oracle as oracle


def dense(field, data):
    """The matrix of the dense rows ``data``, its shape read off them."""
    return SparseMatrix.from_dense(field, len(data), len(data[0]) if data else 0,
                                   data)


def M(field, rows):
    return dense(field, [[field.parse(v) for v in r] for r in rows])


def dense_kernel(m):
    """``sparse_kernel_basis`` written out as dense lists, every absent
    entry the field's shared ``zero``."""
    z = m.field.zero
    return [[vec.get(c, z) for c in range(m.ncols)]
            for vec in sparse_kernel_basis(m)]


# -- fields -------------------------------------------------------------------

def test_field_parsing():
    assert field_by_name("Q") is QQ
    assert field_by_name("F5").char == 5
    with pytest.raises(FieldError):
        field_by_name("F6")
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert GF(7).parse("3/2") == (3 * pow(2, -1, 7)) % 7


# -- the dense oracle's rref ------------------------------------------------

def test_rref_identity():
    e, pivots, r = oracle.rref(SparseMatrix.identity(QQ, 2))
    assert e == SparseMatrix.identity(QQ, 2)
    assert pivots == [0, 1] and r == 2


def test_rref_zero():
    e, pivots, r = oracle.rref(SparseMatrix(QQ, 3, 2))
    assert e.is_zero() and pivots == [] and r == 0


def test_rref_rank_one():
    # [[2,4],[1,2]] over Q -> [[1,2],[0,0]], pivots [0], rank 1
    e, pivots, r = oracle.rref(M(QQ, [["2", "4"], ["1", "2"]]))
    assert e == M(QQ, [["1", "2"], ["0", "0"]])
    assert pivots == [0] and r == 1


def test_rref_idempotent():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(25):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = dense(
                field,
                [[field.of_int(rng.randint(-3, 3)) for _ in range(nc)]
                 for _ in range(nr)],
            )
            e1, p1, r1 = oracle.rref(m)
            e2, p2, r2 = oracle.rref(e1)
            assert (e1, p1, r1) == (e2, p2, r2)


# -- kernels ------------------------------------------------------------------

def test_kernel_identity_empty():
    assert sparse_kernel_basis(SparseMatrix.identity(QQ, 3)) == []


def test_kernel_zero_standard_basis():
    f = GF(3)
    ker = dense_kernel(SparseMatrix(f, 4, 4))
    assert len(ker) == 4
    for i, v in enumerate(ker):
        assert v[i] == 1 and sum(1 for x in v if x) == 1


def test_kernel_f2_line():
    f = GF(2)
    ker = dense_kernel(M(f, [["1", "1"]]))
    assert ker == [[1, 1]]


def test_rank_nullity_random():
    rng = random.Random(5)
    for field in (QQ, GF(2), GF(3)):
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = dense(
                field,
                [[field.of_int(rng.randint(-4, 4)) for _ in range(nc)]
                 for _ in range(nr)],
            )
            assert rank(m) + len(sparse_kernel_basis(m)) == nc


def test_solve_and_inverse():
    m = M(QQ, [["1", "2"], ["3", "5"]])
    assert m * inverse(m) == SparseMatrix.identity(QQ, 2)
    with pytest.raises(LinalgError):
        inverse(M(QQ, [["1", "2"], ["2", "4"]]))


def test_determinant():
    # the package has no determinant; the dense oracle's serves the
    # determinant-line identity of acceptance criterion 7
    assert oracle.determinant(M(QQ, [["2", "0"], ["0", "3"]])) == Fraction(6)
    assert oracle.determinant(M(QQ, [["0", "1"], ["1", "0"]])) == Fraction(-1)
    assert oracle.determinant(M(QQ, [["1", "2"], ["2", "4"]])) == 0


def _typed(value):
    """A result with every entry paired with its type: ints, Fractions and
    lists of them, or a matrix's stored rows."""
    if isinstance(value, SparseMatrix):
        return [{j: (type(v), v) for j, v in row.items()} for row in value.rows]
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


def _outcome(fn, m):
    try:
        return _typed(fn(m))
    except LinalgError as err:
        return str(err)


def test_dense_functions_match_the_oracle():
    # rank, the kernel basis and inverse run on the max-column echelon;
    # the oracle is Gauss-Jordan on dense rows.  Square matrices half the
    # time, one in three made singular by a repeated row, and empty shapes
    # included
    rng = random.Random(97)
    entries = {QQ: [Fraction(0)] * 4 + [Fraction(a, b) for a in (-2, -1, 1, 3)
                                        for b in (1, 1, 2, 3)]}
    pairs = [(rank, oracle.rank), (dense_kernel, oracle.kernel_basis),
             (inverse, oracle.inverse)]
    messages = set()
    for field in (QQ, GF(2), GF(3), GF(5)):
        drawn = entries.get(field) or [field.of_int(v) for v in (0, 0, 0, 1, -1, 2)]
        shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
        shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(150)]
        for nr, nc in shapes:
            if nc != nr and rng.random() < 0.5:
                nc = nr
            data = [[rng.choice(drawn) for _ in range(nc)] for _ in range(nr)]
            if nr > 1 and rng.random() < 1 / 3:
                data[-1] = list(data[0])
            m = SparseMatrix.from_dense(field, nr, nc, data)
            for fn, reference in pairs:
                got = _outcome(fn, m)
                assert got == _outcome(reference, m), (fn.__name__, field, data)
                if type(got) is str:
                    messages.add(got)
            assert m.data == data
    assert messages == {"matrix is singular", "inverse of non-square matrix"}


def random_sparse(rng, field, nrows, ncols, entry=None):
    """Entries mostly zero, with one all-zero row and column when there is
    room for one.  ``entry(rng)`` draws a nonzero candidate; by default an
    integer in -5..5."""
    zero_row = rng.randrange(nrows) if nrows > 1 else None
    zero_col = rng.randrange(ncols) if ncols > 1 else None
    data = [[field.zero] * ncols for _ in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            if i != zero_row and j != zero_col and rng.random() < 0.4:
                data[i][j] = (entry(rng) if entry
                              else field.of_int(rng.randint(-5, 5)))
    return SparseMatrix.from_dense(field, nrows, ncols, data)


def mixed_fraction(rng):
    """A rational a/b with b in 1..6: the dense kernels' lcm scale is then
    rarely 1.  a = 0 gives a zero Fraction that is not the field's shared
    ``zero`` object."""
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


# (field, entry drawer): Q with integral and with mixed non-integral
# entries, and prime fields
DENSE_CASES = [(QQ, None), (QQ, mixed_fraction), (GF(2), None), (GF(3), None),
               (GF(5), None)]


def assert_field_result(out, operands, snapshots):
    """Every stored entry a nonzero field element, within the shape (a
    Fraction over Q, never an int; a reduced int over F_p), the operands'
    rows unchanged, and the result's rows fresh dicts of their own."""
    f = out.field
    assert len(out.rows) == out.nrows
    for row in out.rows:
        for j, v in row.items():
            assert 0 <= j < out.ncols and v
            if f.char:
                assert type(v) is int and 0 < v < f.char
            else:
                assert type(v) is Fraction
    assert [[list(r.items()) for r in m.rows] for m in operands] == snapshots
    operand_rows = {id(r) for m in operands for r in m.rows}
    assert len({id(r) for r in out.rows} | operand_rows) == out.nrows + len(operand_rows)


def test_product_matches_triple_loop():
    rng = random.Random(23)
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7))
               for _ in range(30)]
    for field, entry in DENSE_CASES:
        for n, k, m in shapes:
            a = random_sparse(rng, field, n, k, entry)
            b = random_sparse(rng, field, k, m, entry)
            snapshots = [[list(r.items()) for r in x.rows] for x in (a, b)]
            prod = a * b
            assert (prod.nrows, prod.ncols) == (n, m)
            assert prod == oracle.product(a, b)
            assert_field_result(prod, (a, b), snapshots)
    with pytest.raises(LinalgError):
        SparseMatrix(QQ, 2, 3) * SparseMatrix(QQ, 2, 3)


def row_kron(a, b):
    """a (x) b on integer rows (``_row_kron``), as ``TQFTMap.tensor``
    makes it, read back as field elements as ``TQFTMap.matrix`` reads it."""
    f = a.field
    arows, ca = _integer_rows(a.rows, f.char)
    brows, cb = _integer_rows(b.rows, f.char)
    return SparseMatrix(f, a.nrows * b.nrows, a.ncols * b.ncols, _field_rows(
        f, _row_kron(arows, brows, b.ncols, f.char), ca * cb))


def test_kron_entries():
    rng = random.Random(31)
    shapes = [((0, 2), (2, 3)), ((2, 0), (3, 2)), ((2, 3), (0, 2)),
              ((3, 2), (2, 0)), ((0, 0), (0, 0))]
    for field, entry in DENSE_CASES:
        pairs = shapes + [((rng.randint(1, 3), rng.randint(1, 3)),
                           (rng.randint(1, 3), rng.randint(1, 3)))
                          for _ in range(10)]
        for (n1, m1), (n2, m2) in pairs:
            a = random_sparse(rng, field, n1, m1, entry)
            b = random_sparse(rng, field, n2, m2, entry)
            snapshots = [[list(r.items()) for r in x.rows] for x in (a, b)]
            k = row_kron(a, b)
            assert (k.nrows, k.ncols) == (a.nrows * b.nrows, a.ncols * b.ncols)
            kd, ad, bd = k.data, a.data, b.data
            for i1 in range(a.nrows):
                for j1 in range(a.ncols):
                    for i2 in range(b.nrows):
                        for j2 in range(b.ncols):
                            assert (kd[i1 * b.nrows + i2][j1 * b.ncols + j2]
                                    == field.mul(ad[i1][j1], bd[i2][j2]))
            assert k == oracle.kron(a, b)
            assert_field_result(k, (a, b), snapshots)


def _random_int_rows(rng, p, nrows, ncols):
    """Sparse rows of nonzero ints: reduced mod ``p`` over F_p, in -5..5
    over Q (``p`` = 0)."""
    values = range(1, p) if p else [v for v in range(-5, 6) if v]
    return [{j: rng.choice(values) for j in range(ncols) if rng.random() < 0.4}
            for _ in range(nrows)]


def test_integer_rows_contract():
    # over F_p, and over Q when every entry is an int, the rows themselves;
    # over Q rows holding a Fraction (an integral one included) become
    # fresh integer rows, rows = vecs / c in lowest terms
    rng = random.Random(41)
    for field in (GF(2), GF(3), QQ):
        p = field.char
        for rows in ([], [{}, {}]):
            vecs, c = _integer_rows(rows, p)
            assert vecs is rows and c == 1
        for _ in range(30):
            rows = _random_int_rows(rng, p, rng.randint(1, 6), rng.randint(1, 6))
            vecs, c = _integer_rows(rows, p)
            assert vecs is rows and c == 1
    assert _integer_rows([{0: Fraction(4, 2)}], 0) == ([{0: 2}], 1)
    for _ in range(30):
        rows = _random_int_rows(rng, 0, rng.randint(1, 6), rng.randint(1, 6))
        rows.append({0: Fraction(2 * rng.randint(1, 5), 2)})
        for row in rows:
            for j in row:
                if rng.random() < 0.3:
                    row[j] = Fraction(row[j], rng.randint(1, 6))
        snapshot = [dict(row) for row in rows]
        vecs, c = _integer_rows(rows, 0)
        assert rows == snapshot
        assert not {id(v) for v in vecs} & {id(row) for row in rows}
        assert all(type(n) is int for vec in vecs for n in vec.values())
        assert [list(vec.items()) for vec in vecs] == [
            [(j, v * c) for j, v in row.items()] for row in rows]
        assert gcd(c, *(n for vec in vecs for n in vec.values())) == 1


# -- sparse engines agree with dense ------------------------------------------

def assert_kernels_agree(sm):
    """The sparse kernel basis equals the dense one vector for vector, with
    ascending keys, and leaves the matrix's rows as they were; over Q every
    entry is a ``Fraction`` (an ``int`` would render differently in a
    report).  Over F_p and Q each vector also equals the all-pivot scan's
    in value and type."""
    field = sm.field
    rows = [list(r.items()) for r in sm.rows]
    dense_k = oracle.kernel_basis(sm)
    sparse_k = sparse_kernel_basis(sm)
    assert [list(r.items()) for r in sm.rows] == rows
    assert len(dense_k) == len(sparse_k)
    for dv, sv in zip(dense_k, sparse_k):
        assert dv == [sv.get(i, field.zero) for i in range(sm.ncols)]
        assert list(sv) == sorted(sv)
        if field is QQ:
            assert all(type(v) is Fraction for v in sv.values())
    if field.char != 2:
        assert_kernel_order_pinned(sm, sparse_k)
    return dense_k


def _kernel_all_pivot_scan(sm):
    """The F_p/Q kernel basis by an earlier rule of ``sparse_kernel_basis``:
    the back-substitution of each free column c scans every pivot above c
    in increasing order, and the kernel echelon is back-eliminated in
    decreasing pivot order.  The reference for values and types."""
    f = sm.field
    p = f.char
    ech = _echelon(f, sm.rows)
    raw = []
    for c in range(sm.ncols):
        if c in ech:
            continue
        vec = {c: f.one}
        for pc in sorted(q for q in ech if q > c):
            s = f.zero
            for cc, v in ech[pc].items():
                if cc != pc and cc in vec:
                    s = f.add(s, f.mul(v, vec[cc]))
            if not f.is_zero(s):
                vec[pc] = f.neg(s)
        raw.append(vec)
    kech = _echelon(f, raw)
    pivs = sorted(kech, reverse=True)
    for pc in pivs:
        for qc in pivs:
            if qc <= pc:
                continue
            row = kech[qc]
            coef = row.pop(pc, None)
            if coef is None:
                continue
            for c, v in kech[pc].items():
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


def assert_kernel_order_pinned(sm, kernel=None):
    """Every kernel vector equals the all-pivot scan's in value and type,
    and its keys are ascending."""
    kernel = sparse_kernel_basis(sm) if kernel is None else kernel
    def typed(k):
        return [{c: (type(v), v) for c, v in vec.items()} for vec in k]
    assert typed(kernel) == typed(_kernel_all_pivot_scan(sm))
    assert all(list(vec) == sorted(vec) for vec in kernel)


RATIONALS = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
RATIONALS += [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]


def _random_rows(rng, field, nr, nc):
    if field is QQ:
        return [[rng.choice(RATIONALS) for _ in range(nc)] for _ in range(nr)]
    return [[field.of_int(rng.randint(-2, 2)) for _ in range(nc)]
            for _ in range(nr)]


def _interleaved_block_diagonal(field, blocks):
    """The block-diagonal matrix of ``blocks`` with their rows and their
    columns dealt out in turn, so that no block holds a contiguous range and
    the blocks' columns alternate in every row order."""
    row_ids = sorted((r, b) for b, blk in enumerate(blocks) for r in range(len(blk)))
    col_ids = sorted((c, b) for b, blk in enumerate(blocks)
                     for c in range(len(blk[0])))
    col_at = {key: k for k, key in enumerate(col_ids)}
    data = [[field.zero] * len(col_ids) for _ in row_ids]
    for k, (r, b) in enumerate(row_ids):
        for c, v in enumerate(blocks[b][r]):
            data[k][col_at[c, b]] = v
    return dense(field, data)


def test_from_dense_drops_every_zero_and_keeps_every_nonzero():
    # the field's shared zero is dropped untested; any other zero (a
    # separately made Fraction(0), a stored 0 or multiple of p over F_p) is
    # tested and dropped too, and every nonzero entry is kept as it is
    rng = random.Random(5)
    cases = [(QQ, [Fraction(0), Fraction(0, 7)], [Fraction(1), Fraction(-2, 3)]),
             (GF(3), [0, 3, -6], [1, 2]),
             (GF(2), [0, 2], [1])]
    assert not any(z is QQ.zero for z in cases[0][1])
    for field, zeros, nonzeros in cases:
        drawn = [field.zero] + zeros + nonzeros
        for _ in range(20):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            data = [[rng.choice(drawn) for _ in range(nc)] for _ in range(nr)]
            rows = SparseMatrix.from_dense(field, nr, nc, data).rows
            want = [{j: v for j, v in enumerate(r)
                     if any(v is x for x in nonzeros)} for r in data]
            assert rows == want
            assert all(v is data[i][j] for i, r in enumerate(rows)
                       for j, v in r.items())


def test_sparse_matches_dense():
    rng = random.Random(17)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(30):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            sm = dense(field, _random_rows(rng, field, nr, nc))
            assert sparse_rank(sm) == oracle.rank(sm)
            assert_kernels_agree(sm)
    # blocks sharing no column, interleaved: the rank is the sum of theirs
    for field in (QQ, GF(2), GF(3)):
        for _ in range(20):
            blocks = [dense(field, _random_rows(
                          rng, field, rng.randint(1, 5), rng.randint(1, 5)))
                      for _ in range(rng.randint(2, 4))]
            sm = _interleaved_block_diagonal(field, [b.data for b in blocks])
            assert sparse_rank(sm) == oracle.rank(sm) == sum(
                oracle.rank(b) for b in blocks)
            assert_kernels_agree(sm)


def test_reduce_matches_rref_of_reversed_columns():
    # the reduced max-column echelon is the leftmost-pivot RREF with the
    # column order reversed, on dict rows and over GF(3) on bitset pairs
    # too; rows drawn as combinations of a few generators, so that rows
    # meet other rows' pivots and need reducing
    rng = random.Random(89)
    reduced = 0
    for field in (GF(3), GF(5), QQ):
        if field is QQ:
            entries = [Fraction(v) for v in (0, 0, 1, -1, 2)] + [Fraction(1, 2)]
        else:
            entries = [field.of_int(v) for v in (0, 0, 1, 2, -1)]
        for _ in range(60):
            nc = rng.randint(1, 9)
            gens = [[rng.choice(entries) for _ in range(nc)]
                    for _ in range(rng.randint(1, 5))]
            data = []
            for _ in range(rng.randint(1, 8)):
                row = [field.zero] * nc
                for g in gens:
                    c = rng.choice(entries)
                    row = [field.add(a, field.mul(c, b)) for a, b in zip(row, g)]
                data.append(row)
            sm = dense(field, data)
            ech = _echelon(field, sm.rows)
            reduced += sum(c != pc and c in ech
                           for pc, row in ech.items() for c in row)
            got = _reduce(field, ech)
            e, pivots, r = oracle.rref(dense(field, [row[::-1] for row in data]))
            want = {nc - 1 - pc: {nc - 1 - j: v for j, v in e.rows[k].items()}
                    for k, pc in enumerate(pivots)}
            assert len(got) == r
            assert got == want
            if field.char == 3:
                bits = _reduce_f3(_echelon_f3(map(_f3_bits, sm.rows)))
                assert {pc: _f3_dict(pair) for pc, pair in bits.items()} == want
            if field is QQ:
                assert all(type(v) is Fraction
                           for row in got.values() for v in row.values())
    assert reduced >= 100, reduced


@pytest.mark.parametrize("name, field, gens", [
    ("Z3", QQ, None), ("Z3", GF(3), None), ("ext3", QQ, [3]), ("ext35", QQ, [3, 5]),
    ("Z2", GF(2), None), ("S3", GF(2), None), ("Z3", GF(5), None),
])
@pytest.mark.parametrize("coeff", ["self", "dual"])
def test_sparse_kernel_matches_dense_on_bar_differentials(name, field, gens, coeff):
    # and the rank, from the columns over F_p and Q, is the dense one
    from hbv.algebra import exterior_algebra, group_algebra
    from hbv.groups import preset
    from hbv.hochschild import BarComplex

    alg = (group_algebra(preset(name), field) if gens is None
           else exterior_algebra(gens, field))
    bar = BarComplex(alg, coeff, 3)
    for n in sorted(bar.complex.diffs):
        d = bar.complex.differential(n)
        assert sparse_rank(d) == d.ncols - len(assert_kernels_agree(d))


def test_sparse_kernel_with_empty_rows_and_columns():
    # mostly-zero matrices with an all-zero row and column: free columns
    # whose back-substitution reaches no pivot, and pivots reached late
    rng = random.Random(73)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(40):
            sm = random_sparse(rng, field, rng.randint(1, 9), rng.randint(1, 9))
            assert_kernels_agree(sm)


@pytest.mark.parametrize("name, field", [("S3", GF(3)), ("Z4", QQ), ("Z6", GF(5))])
@pytest.mark.parametrize("coeff", ["self", "dual"])
def test_kernel_order_pinned_on_larger_bar_differentials(name, field, coeff):
    # beyond the reach of the dense oracle: the all-pivot scan alone
    from hbv.algebra import group_algebra
    from hbv.groups import preset
    from hbv.hochschild import BarComplex

    bar = BarComplex(group_algebra(preset(name), field), coeff, 3)
    for n in sorted(bar.complex.diffs):
        assert_kernel_order_pinned(bar.complex.differential(n))


class _DictEchelonStore:
    """The dict rule ``EchelonStore`` keeps over F_p and Q, and kept over F_2
    before its rows became bitsets: the reference for the F_2 store."""

    def __init__(self, field):
        self.field = field
        self.ech = {}
        self.tags = {}

    def reduce(self, vec, track=False):
        p = self.field.char
        cur = dict(vec)
        coeffs = {}
        while cur:
            pc = min(cur)
            er = self.ech.get(pc)
            if er is None:
                break
            coef = cur.pop(pc)
            if track and self.tags[pc] >= 0:
                coeffs[self.tags[pc]] = coef
            for c, v in er.items():
                if c != pc:
                    s = (cur.get(c, 0) - coef * v) % p
                    if s:
                        cur[c] = s
                    else:
                        cur.pop(c, None)
        return cur, coeffs

    def insert(self, vec, tag=-1):
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


def _project_or_raise(data, vec):
    try:
        return data.project(vec)
    except LinalgError as err:
        return str(err)


def _f2_sum(vecs):
    out = {}
    for vec in vecs:
        for c in vec:
            if c in out:
                del out[c]
            else:
                out[c] = 1
    return out


def _fill_stores(f, boundaries, kernel):
    """As ``Complex.cohomology_at``: untagged boundaries, then kernel vectors
    tagged by the number of representatives so far, into the bitset store
    and the dict reference side by side; every insert must agree."""
    store, ref = EchelonStore(f), _DictEchelonStore(f)
    reps, ref_reps = [], []
    for vec, tagged in [(v, False) for v in boundaries] + [(v, True) for v in kernel]:
        got = store.insert(vec, tag=len(reps) if tagged else -1)
        want = ref.insert(vec, tag=len(ref_reps) if tagged else -1)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want and list(got) == sorted(got)
            if tagged:
                reps.append(dict(got))
                ref_reps.append(dict(want))
        assert len(store) == len(ref)
    return CohomologyData(f, reps, store), CohomologyData(f, ref_reps, ref)


def test_f2_echelon_store_matches_dict_rule():
    # seeded random F_2 vectors, with zero vectors and vectors dependent on
    # earlier ones, inserted as boundaries and as tagged kernel vectors;
    # then projections of spanned and of unspanned vectors
    rng = random.Random(79)
    f = GF(2)
    outcomes = {"stored": 0, "dependent": 0, "projected": 0, "raised": 0}
    for _ in range(60):
        ncols = rng.randint(1, 40)

        def draw(pool):
            kind = rng.random()
            if kind < 0.1:
                return {}
            if kind < 0.4 and pool:
                return _f2_sum(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            return {c: 1 for c in rng.sample(range(ncols), rng.randint(1, min(6, ncols)))}

        boundaries, kernel = [], []
        for _ in range(rng.randint(0, 8)):
            boundaries.append(draw(boundaries))
        for _ in range(rng.randint(0, 10)):
            kernel.append(draw(boundaries + kernel))
        data, ref = _fill_stores(f, boundaries, kernel)
        outcomes["stored"] += len(ref._store)
        outcomes["dependent"] += len(boundaries) + len(kernel) - len(ref._store)
        assert data.representatives == ref.representatives
        for _ in range(10):
            vec = draw(boundaries + kernel) if rng.random() < 0.7 else draw([])
            got, want = _project_or_raise(data, vec), _project_or_raise(ref, vec)
            assert got == want
            outcomes["raised" if isinstance(want, str) else "projected"] += 1
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("name", ["Z4", "S3"])
@pytest.mark.parametrize("coeff", ["self", "dual"])
def test_f2_cohomology_representatives_match_dict_rule(name, coeff):
    from hbv.algebra import group_algebra
    from hbv.groups import preset
    from hbv.hochschild import BarComplex

    f = GF(2)
    cx = BarComplex(group_algebra(preset(name), f), coeff, 3).complex
    rng = random.Random(83)
    for n in range(4):
        data = cx.cohomology_at(n)
        boundaries = cx.differential(n - 1).columns()
        _, ref = _fill_stores(f, [c for c in boundaries if c],
                              sparse_kernel_basis(cx.differential(n)))
        assert data.representatives == ref.representatives
        assert all(list(r) == sorted(r) for r in data.representatives)
        for _ in range(10):
            vec = _f2_sum(rng.sample(data.representatives,
                                     rng.randint(0, len(data.representatives))))
            if boundaries:
                vec = _f2_sum([vec, rng.choice(boundaries)])
            assert data.project(vec) == ref.project(vec)


def test_rank_q_unit_and_nonunit_pivots():
    # dependent rows over a few generators with mostly +-1 entries, as in bar
    # differentials, so elimination meets unit and non-unit pivots and must
    # reduce the dependent rows exactly to zero
    rng = random.Random(43)
    for _ in range(60):
        nc = rng.randint(2, 10)
        gens = [[Fraction(rng.choice([0, 0, 1, -1, 1, -1, 2]), rng.choice([1, 1, 1, 2]))
                 for _ in range(nc)] for _ in range(rng.randint(1, 6))]
        rows = []
        for _ in range(rng.randint(1, 12)):
            coefs = [rng.choice([0, 1, -1]) for _ in gens]
            rows.append([sum((c * g[j] for c, g in zip(coefs, gens)), Fraction(0))
                         for j in range(nc)])
        m = dense(QQ, rows)
        assert sparse_rank(m) == oracle.rank(m)


def _low_rank(rng, field, nr, nc):
    """A random nr x nc matrix of rank at most k, as the product of random
    nr x k and k x nc factors, k drawn up to one past the smaller side;
    over Q with non-integral entries."""
    k = rng.randint(0, min(nr, nc) + 1)
    return (SparseMatrix.from_dense(field, nr, k, _random_rows(rng, field, nr, k))
            * SparseMatrix.from_dense(field, k, nc, _random_rows(rng, field, k, nc)))


def _fed_vectors(monkeypatch):
    """The list to which every engine call appends the number of vectors
    it is fed."""
    from hbv import linalg

    fed = []
    for name in ("_echelon_f2", "_echelon_f3", "_echelon_fp", "_echelon_q"):
        def spy(vecs, *args, engine=getattr(linalg, name)):
            vecs = list(vecs)
            fed.append(len(vecs))
            return engine(vecs, *args)
        monkeypatch.setattr(linalg, name, spy)
    return fed


RANK_SHAPES = [(9, 3), (7, 5), (3, 9), (5, 7), (6, 6), (1, 1), (0, 4), (4, 0),
               (0, 0), (12, 4)]


def test_sparse_rank_eliminates_the_smaller_side(monkeypatch):
    # over F_p, p > 3, and Q tall matrices are ranked from their columns,
    # square and wide ones from their rows; over F_2 and F_3 (bitsets and
    # bitset pairs) always from the rows.  Either way the rank is the dense
    # one: on a matrix and its transpose, entries non-integral over Q, the
    # matrix's rows left as they were
    fed = _fed_vectors(monkeypatch)
    rng = random.Random(211)
    for field in (GF(2), GF(3), GF(5), QQ):
        for nr, nc in RANK_SHAPES:
            for _ in range(8):
                sm = _low_rank(rng, field, nr, nc)
                t = sm.transpose()
                rows = [list(r.items()) for r in sm.rows]
                fed.clear()
                assert sparse_rank(sm) == sparse_rank(t) == oracle.rank(sm)
                assert fed == ([nr, nc] if field.char in (2, 3)
                               else [min(nr, nc)] * 2)
                assert [list(r.items()) for r in sm.rows] == rows


# -- complexes ----------------------------------------------------------------

def test_cohomology_exact_middle():
    # 0 -> F -> F -> 0 with the identity: middle cohomology 0
    cx = Complex(
        QQ, {0: 1, 1: 1},
        {0: SparseMatrix.identity(QQ, 1)},
    )
    assert cx.cohomology_dim(1) == 0
    assert cx.cohomology_dim(0) == 0


def test_cohomology_zero_differentials():
    cx = Complex(QQ, {0: 3, 1: 2}, {})
    assert cx.cohomology_dim(0) == 3
    assert cx.cohomology_dim(1) == 2


def test_cohomology_rank_nullity_by_hand():
    # F^2 -(0)-> F^2 -([[1,0],[0,0]])-> F^2 : middle dimension 1
    z = SparseMatrix(QQ, 2, 2)
    d1 = SparseMatrix(QQ, 2, 2, [{0: Fraction(1)}, {}])
    cx = Complex(QQ, {0: 2, 1: 2, 2: 2}, {0: z, 1: d1})
    assert cx.cohomology_dim(1) == 1
    data = cx.cohomology_at(1)
    assert data.dim == 1
    assert data.project(data.representatives[0]) == [Fraction(1)]


def test_window_error():
    cx = Complex(QQ, {0: 1, 1: 1}, {})
    with pytest.raises(WindowError):
        cx.cohomology_at(5)


def test_square_zero_enforced():
    bad = SparseMatrix.identity(QQ, 1)
    with pytest.raises(LinalgError):
        Complex(QQ, {0: 1, 1: 1, 2: 1}, {0: bad, 1: bad})


def _square_zero_oracle(diffs):
    """The column-by-column reference rule on the differentials ``diffs``
    (degree -> SparseMatrix): the first (degree n, column j) at which
    d^{n+1} applied to column j of d^n is nonzero, or None."""
    for n in sorted(diffs):
        d2 = diffs.get(n + 1)
        if d2 is None:
            continue
        colview = d2.columns()
        for j, col in enumerate(diffs[n].columns()):
            if d2.apply_sparse(col, colview=colview):
                return n, j
    return None


def _random_chain(rng, field, dims, entries, coefs):
    """Dense d^0, d^1, ... with d^{n+1} d^n = 0: d^0 is random, each next
    differential combines vectors of the previous one's left kernel."""
    mats = []
    for n in range(len(dims) - 1):
        rows, cols = dims[n + 1], dims[n]
        if n == 0:
            data = [[rng.choice(entries) if rng.random() < 0.5 else field.zero
                     for _ in range(cols)] for _ in range(rows)]
        else:
            left = dense_kernel(mats[-1].transpose())
            data = []
            for _ in range(rows):
                row = [field.zero] * cols
                for y in left:
                    c = rng.choice(coefs)
                    row = [field.add(a, field.mul(c, b)) for a, b in zip(row, y)]
                data.append(row)
        mats.append(SparseMatrix.from_dense(field, rows, cols, data))
    return mats


def _structured_complexes():
    """(label, field, dims, diffs) of the complexes the package builds, at
    truncation N = 3: the self and dual bar complexes, the group-cochain
    complex of each group, and the rotations B_N, ..., B_1 read as the
    differentials of a complex (B o B = 0)."""
    from hbv.algebra import exterior_algebra, group_algebra
    from hbv.groups import preset
    from hbv.hochschild import (BarComplex, connes_b_dual_matrix,
                                group_cochain_complex)

    N = 3
    out = []
    for source, field in (("Z3", GF(3)), ("S3", GF(2)), ("Z6", GF(3)),
                          ("Z6", QQ), ("S3", QQ), ((3, 5), QQ)):
        group = isinstance(source, str)
        alg = (group_algebra(preset(source), field) if group
               else exterior_algebra(list(source), field))
        for coeff in ("self", "dual"):
            cx = BarComplex(alg, coeff, N).complex
            out.append((f"{source} {coeff}", field, cx.dims, cx.diffs))
        dual = BarComplex(alg, "dual", N)
        out.append((f"{source} rotations", field,
                    {k: dual.complex.dim(N - k) for k in range(N + 1)},
                    {k: connes_b_dual_matrix(dual, N - k) for k in range(N)}))
        if group:
            cx = group_cochain_complex(preset(source), field, N)
            out.append((f"{source} group cochains", field, cx.dims, cx.diffs))
    return out


def _mutated(rng, field, diffs, kind):
    """``diffs`` with one entry of a random nonempty row of a random
    differential changed by ``kind``: "flip" negates it, "drop" removes it,
    "two" sets it to 2.  The other matrices and rows are shared."""
    n = rng.choice([k for k, d in diffs.items() if d.nnz()])
    d = diffs[n]
    i = rng.choice([r for r, row in enumerate(d.rows) if row])
    row = dict(d.rows[i])
    c = rng.choice(sorted(row))
    if kind == "drop":
        del row[c]
    else:
        row[c] = field.neg(row[c]) if kind == "flip" else field.of_int(2)
    rows = list(d.rows)
    rows[i] = row
    out = dict(diffs)
    out[n] = SparseMatrix(field, d.nrows, d.ncols, rows)
    return out


def _assert_matches_oracle(field, dims, diffs):
    """``Complex`` on ``diffs`` gives the oracle's verdict and witness;
    returns that witness."""
    want = _square_zero_oracle(diffs)
    if want is None:
        Complex(field, dims, diffs)
        return None
    with pytest.raises(SquareZeroError) as err:
        Complex(field, dims, diffs)
    assert (err.value.degree, err.value.column) == want
    assert str(err.value) == (
        f"d^{want[0] + 1} o d^{want[0]} != 0 at column {want[1]}")
    return want


def test_square_zero_check_matches_column_oracle(monkeypatch):
    # seeded chains d^0, d^1, d^2 with d o d = 0, half of them with one
    # entry knocked off, and the bar, group-cochain and rotation complexes,
    # clean and with one entry flipped, dropped or set to 2; the check must
    # give the oracle's verdict and witness (degree, column)
    import hbv.linalg as linalg

    # each column the check reads: cleared by the certificate, or summed
    # exactly to zero or to nonzero
    paths = {"certified": 0, "exact zero": 0, "exact nonzero": 0}
    cancels, column_sum = linalg._cancels, linalg._column_sum_nonzero

    def counted_cancels(p, j, terms):
        ok = cancels(p, j, terms)
        paths["certified"] += ok
        return ok

    def counted_sum(p, j, terms):
        nonzero = column_sum(p, j, terms)
        paths["exact nonzero" if nonzero else "exact zero"] += 1
        return nonzero

    monkeypatch.setattr(linalg, "_cancels", counted_cancels)
    monkeypatch.setattr(linalg, "_column_sum_nonzero", counted_sum)

    rng = random.Random(59)
    halves = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3)]
    cases = {"pass": 0, "fail": 0, "vanishes only mod p": 0}
    for field in (QQ, GF(2), GF(3), GF(5)):
        if field is QQ:
            entries = [Fraction(v) for v in (1, -1, 2, -2)] + halves
            coefs = [Fraction(v) for v in (0, 1, -1, 2)] + halves
        else:
            entries = [field.of_int(v) for v in range(1, field.char)]
            coefs = [field.of_int(v) for v in range(field.char)]
        for _ in range(60):
            dims = [rng.randint(1, 5) for _ in range(4)]
            mats = _random_chain(rng, field, dims, entries, coefs)
            if rng.random() < 0.5:
                k = rng.randrange(len(mats))
                m = mats[k]
                i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
                data = m.data
                data[i][j] = field.add(data[i][j], rng.choice(entries))
                mats[k] = SparseMatrix.from_dense(field, m.nrows, m.ncols, data)
            diffs = dict(enumerate(mats))
            if _assert_matches_oracle(field, dict(enumerate(dims)), diffs) is None:
                cases["pass"] += 1
                if field.char and any(
                        sum(a * b for a, b in zip(row, col))
                        for d1, d2 in zip(mats, mats[1:])
                        for row in d2.data for col in zip(*d1.data)):
                    cases["vanishes only mod p"] += 1
            else:
                cases["fail"] += 1
    assert min(cases.values()) >= 20, cases

    structured = {"pass": 0, "fail": 0}
    clean_paths = {}
    for label, field, dims, diffs in _structured_complexes():
        before = dict(paths)
        assert _assert_matches_oracle(field, dims, diffs) is None, label
        clean_paths[label, str(field)] = {k: paths[k] - before[k] for k in paths}
        structured["pass"] += 1
        kinds = ["drop"] + (["flip"] if field.char != 2 else []) \
            + (["two"] if field.char not in (2, 3) else [])
        for kind in kinds:
            for _ in range(2):
                bad = _mutated(rng, field, diffs, kind)
                structured["pass" if _assert_matches_oracle(field, dims, bad)
                           is None else "fail"] += 1
    assert structured["fail"] >= 40 and structured["pass"] >= 19, structured
    assert min(paths.values()) >= 100, paths
    # Z6's bar differentials store entries 2: over Q each joins the
    # certificate as two unit terms, so every column clears; over F_3 a
    # stored 2 is read as -1 and the 66 columns holding one are summed
    for coeff in ("self", "dual"):
        assert clean_paths[f"Z6 {coeff}", "Q"] == {
            "certified": 186, "exact zero": 0, "exact nonzero": 0}
        assert clean_paths[f"Z6 {coeff}", "F3"] == {
            "certified": 120, "exact zero": 66, "exact nonzero": 0}


def _accumulate(f, d, key, value):
    """The field-arithmetic accumulation ``sum_terms`` replaced:
    ``d[key] += value``, dropping the key at zero."""
    s = f.add(d.get(key, f.zero), value)
    if f.is_zero(s):
        d.pop(key, None)
    else:
        d[key] = s


def test_sum_terms_matches_field_accumulation():
    # value, type and key order of a loop of field additions, with keys
    # that vanish and come back
    rng = random.Random(61)
    for field in (QQ, GF(2), GF(3), GF(5)):
        lifts = [-2, -1, 1, 2, 3]
        if field is QQ:
            lifts += [Fraction(1, 2), Fraction(-1, 3)]
        for _ in range(200):
            terms = [(rng.randrange(4), rng.choice(lifts))
                     for _ in range(rng.randint(0, 12))]
            want: dict = {}
            for key, c in terms:
                _accumulate(field, want, key, field.of_int(c))
            got = sum_terms(field, terms)
            assert list(got.items()) == list(want.items())
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


def _apply_field_loop(sm, vec, colview):
    """``apply_sparse`` by the loop of field operations it replaced: the
    reference for values, types and key order."""
    f = sm.field
    out: dict = {}
    for j, v in vec.items():
        for i, a in colview[j].items():
            _accumulate(f, out, i, f.mul(a, v))
    return out


def test_apply_sparse_matches_field_loop():
    # random matrices and vectors over F_2, F_3 and Q with few distinct
    # entries, so that sums cancel and keys drop out
    rng = random.Random(97)
    cancelled = 0
    for field in (GF(2), GF(3), QQ):
        if field is QQ:
            entries = [Fraction(v) for v in (1, -1, 2, -2)] + [Fraction(1, 2)]
        else:
            entries = [field.of_int(v) for v in range(1, field.char)]
        for _ in range(100):
            nr, nc = rng.randint(1, 4), rng.randint(1, 8)
            rows = [{j: rng.choice(entries) for j in range(nc)
                     if rng.random() < 0.6} for _ in range(nr)]
            sm = SparseMatrix(field, nr, nc, rows)
            colview = sm.columns()
            vec = {j: rng.choice(entries)
                   for j in rng.sample(range(nc), rng.randint(0, nc))}
            want = _apply_field_loop(sm, vec, colview)
            for got in (sm.apply_sparse(vec), sm.apply_sparse(vec, colview)):
                assert ([(i, type(v), v) for i, v in got.items()]
                        == [(i, type(v), v) for i, v in want.items()])
            hit = {i for j in vec for i in colview[j]}
            cancelled += len(hit - set(want))
    assert cancelled >= 50, cancelled


def test_cohomology_dim_invariant_under_conjugation():
    # conjugate a small known complex by random invertible matrices
    rng = random.Random(3)
    from hbv.groups import preset
    from hbv.algebra import group_algebra
    from hbv.hochschild import BarComplex

    bar = BarComplex(group_algebra(preset("Z2"), GF(2)), "self", 3)
    base_dims = [bar.complex.cohomology_dim(n) for n in range(3)]
    for n in (1, 2):
        dim_n = bar.complex.dim(n)
        f = GF(2)
        while True:
            m = dense(
                f,
                [[f.of_int(rng.randint(0, 1)) for _ in range(dim_n)]
                 for _ in range(dim_n)],
            )
            try:
                minv = inverse(m)
                break
            except LinalgError:
                continue
        diffs = {}
        for k in range(3):
            mat = bar.complex.differential(k)
            if k == n:
                mat = mat * minv
            if k == n - 1:
                mat = m * mat
            diffs[k] = mat
        cx = Complex(f, dict(bar.complex.dims), diffs)
        assert [cx.cohomology_dim(j) for j in range(3)] == base_dims


def test_column_view_kept_per_degree(monkeypatch):
    # Complex.columns and Complex.apply read one kept view per degree; they
    # must equal a fresh SparseMatrix.columns and apply_sparse entry for
    # entry and in key order, and no degree's view may be built twice,
    # cohomology_at included
    rng = random.Random(67)
    fresh_columns = SparseMatrix.columns
    built = []

    def counting(sm):
        built.append(sm)
        return fresh_columns(sm)

    for field in (QQ, GF(2), GF(3)):
        if field is QQ:
            entries = [Fraction(v) for v in (1, -1, 2, Fraction(1, 2))]
        else:
            entries = [field.of_int(v) for v in range(1, field.char)]
        coefs = [field.zero] + entries
        for _ in range(10):
            dims = [rng.randint(1, 5) for _ in range(4)]
            mats = _random_chain(rng, field, dims, entries, coefs)
            cx = Complex(field, dict(enumerate(dims)), dict(enumerate(mats)))
            degrees = range(-1, len(dims))
            vecs = {n: [{j: rng.choice(entries) for j in range(cx.dim(n))
                         if rng.random() < 0.6} for _ in range(4)]
                    for n in degrees}
            want_cols = {n: [list(c.items()) for c in cx.differential(n).columns()]
                         for n in degrees}
            want_apply = {n: [list(cx.differential(n).apply_sparse(v).items())
                              for v in vecs[n]] for n in degrees}
            monkeypatch.setattr(SparseMatrix, "columns", counting)
            built.clear()
            for _ in range(2):
                for n in degrees:
                    assert [list(c.items()) for c in cx.columns(n)] == want_cols[n]
                    assert cx.columns(n) is cx.columns(n)
                    assert [list(cx.apply(n, v).items())
                            for v in vecs[n]] == want_apply[n]
                for n in range(len(dims)):
                    cx.cohomology_at(n)
            assert len(built) == len(degrees)
            assert len({id(sm) for sm in built}) == len(degrees)
            monkeypatch.undo()

import random

from fractions import Fraction

import pytest

from hbv.fields import QQ, GF, field_by_name, FieldError
from hbv.linalg import (
    Complex,
    LinalgError,
    Matrix,
    SparseMatrix,
    SquareZeroError,
    WindowError,
    determinant,
    inverse,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    sparse_kernel_basis,
    sparse_rank,
    sum_terms,
)


def M(field, rows):
    return Matrix.from_rows(field, [[field.parse(v) for v in r] for r in rows])


# -- fields -------------------------------------------------------------------

def test_field_parsing():
    assert field_by_name("Q") is QQ
    assert field_by_name("F5").char == 5
    with pytest.raises(FieldError):
        field_by_name("F6")
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert GF(7).parse("3/2") == (3 * pow(2, -1, 7)) % 7


# -- rref ---------------------------------------------------------------------

def test_rref_identity():
    e, pivots, r = rref(Matrix.identity(QQ, 2))
    assert e == Matrix.identity(QQ, 2)
    assert pivots == [0, 1] and r == 2


def test_rref_zero():
    e, pivots, r = rref(Matrix(QQ, 3, 2))
    assert e.is_zero() and pivots == [] and r == 0


def test_rref_rank_one():
    # [[2,4],[1,2]] over Q -> [[1,2],[0,0]], pivots [0], rank 1
    e, pivots, r = rref(M(QQ, [["2", "4"], ["1", "2"]]))
    assert e == M(QQ, [["1", "2"], ["0", "0"]])
    assert pivots == [0] and r == 1


def test_rref_idempotent():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(25):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix.from_rows(
                field,
                [[field.of_int(rng.randint(-3, 3)) for _ in range(nc)]
                 for _ in range(nr)],
            )
            e1, p1, r1 = rref(m)
            e2, p2, r2 = rref(e1)
            assert (e1, p1, r1) == (e2, p2, r2)


# -- kernels ------------------------------------------------------------------

def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_zero_standard_basis():
    f = GF(3)
    ker = kernel_basis(Matrix(f, 4, 4))
    assert len(ker) == 4
    for i, v in enumerate(ker):
        assert v[i] == 1 and sum(1 for x in v if x) == 1


def test_kernel_f2_line():
    f = GF(2)
    ker = kernel_basis(M(f, [["1", "1"]]))
    assert ker == [[1, 1]]


def test_rank_nullity_random():
    rng = random.Random(5)
    for field in (QQ, GF(2), GF(3)):
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = Matrix.from_rows(
                field,
                [[field.of_int(rng.randint(-4, 4)) for _ in range(nc)]
                 for _ in range(nr)],
            )
            assert rank(m) + len(kernel_basis(m)) == nc


def test_solve_and_inverse():
    m = M(QQ, [["1", "2"], ["3", "5"]])
    b = [QQ.parse("1"), QQ.parse("0")]
    x = solve(m, b)
    assert m.apply(x) == b
    assert m * inverse(m) == Matrix.identity(QQ, 2)
    with pytest.raises(LinalgError):
        inverse(M(QQ, [["1", "2"], ["2", "4"]]))


def test_determinant():
    assert determinant(M(QQ, [["2", "0"], ["0", "3"]])) == Fraction(6)
    assert determinant(M(QQ, [["0", "1"], ["1", "0"]])) == Fraction(-1)
    assert determinant(M(QQ, [["1", "2"], ["2", "4"]])) == 0


def random_sparse(rng, field, nrows, ncols):
    """Entries mostly zero, with one all-zero row and column when there is
    room for one."""
    zero_row = rng.randrange(nrows) if nrows > 1 else None
    zero_col = rng.randrange(ncols) if ncols > 1 else None
    out = Matrix(field, nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if i != zero_row and j != zero_col and rng.random() < 0.4:
                out.data[i][j] = field.of_int(rng.randint(-5, 5))
    return out


def naive_product(a, b):
    f = a.field
    out = Matrix(f, a.nrows, b.ncols)
    for i in range(a.nrows):
        for j in range(b.ncols):
            s = f.zero
            for k in range(a.ncols):
                s = f.add(s, f.mul(a.data[i][k], b.data[k][j]))
            out.data[i][j] = s
    return out


def test_product_matches_triple_loop():
    rng = random.Random(23)
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7))
               for _ in range(30)]
    for field in (QQ, GF(2), GF(3)):
        for n, k, m in shapes:
            a = random_sparse(rng, field, n, k)
            b = random_sparse(rng, field, k, m)
            prod = a * b
            assert (prod.nrows, prod.ncols) == (n, m)
            assert prod == naive_product(a, b)
    with pytest.raises(LinalgError):
        Matrix(QQ, 2, 3) * Matrix(QQ, 2, 3)


def test_kron_entries():
    rng = random.Random(31)
    for field in (QQ, GF(3)):
        for _ in range(10):
            a = random_sparse(rng, field, rng.randint(0, 3), rng.randint(1, 3))
            b = random_sparse(rng, field, rng.randint(1, 3), rng.randint(0, 3))
            k = kron(a, b)
            assert (k.nrows, k.ncols) == (a.nrows * b.nrows, a.ncols * b.ncols)
            for i1 in range(a.nrows):
                for j1 in range(a.ncols):
                    for i2 in range(b.nrows):
                        for j2 in range(b.ncols):
                            assert (k.data[i1 * b.nrows + i2][j1 * b.ncols + j2]
                                    == field.mul(a.data[i1][j1], b.data[i2][j2]))


# -- sparse engines agree with dense ------------------------------------------

def _dense(sm):
    m = Matrix(sm.field, sm.nrows, sm.ncols)
    for i, row in enumerate(sm.rows):
        for j, v in row.items():
            m.data[i][j] = v
    return m


def assert_kernels_agree(sm):
    """The sparse kernel basis equals the dense one vector for vector; over
    Q every entry is a ``Fraction`` (an ``int`` would render differently in
    a report)."""
    field = sm.field
    dense_k = kernel_basis(_dense(sm))
    sparse_k = sparse_kernel_basis(sm)
    assert len(dense_k) == len(sparse_k)
    for dv, sv in zip(dense_k, sparse_k):
        assert dv == [sv.get(i, field.zero) for i in range(sm.ncols)]
        if field is QQ:
            assert all(type(v) is Fraction for v in sv.values())


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
    return Matrix.from_rows(field, data)


def test_sparse_matches_dense():
    rng = random.Random(17)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(30):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = Matrix.from_rows(field, _random_rows(rng, field, nr, nc))
            sm = SparseMatrix.from_matrix(m)
            assert sparse_rank(sm) == rank(m)
            assert_kernels_agree(sm)
    # blocks sharing no column, interleaved: the rank is the sum of theirs
    for field in (QQ, GF(2), GF(3)):
        for _ in range(20):
            blocks = [Matrix.from_rows(field, _random_rows(
                          rng, field, rng.randint(1, 5), rng.randint(1, 5)))
                      for _ in range(rng.randint(2, 4))]
            m = _interleaved_block_diagonal(field, [b.data for b in blocks])
            sm = SparseMatrix.from_matrix(m)
            assert sparse_rank(sm) == rank(m) == sum(rank(b) for b in blocks)
            assert_kernels_agree(sm)


@pytest.mark.parametrize("name, field, gens", [
    ("Z3", QQ, None), ("Z3", GF(3), None), ("ext3", QQ, [3]), ("ext35", QQ, [3, 5]),
])
@pytest.mark.parametrize("coeff", ["self", "dual"])
def test_sparse_kernel_matches_dense_on_bar_differentials(name, field, gens, coeff):
    from hbv.algebra import exterior_algebra, group_algebra
    from hbv.groups import preset
    from hbv.hochschild import BarComplex

    alg = (group_algebra(preset(name), field) if gens is None
           else exterior_algebra(gens, field))
    bar = BarComplex(alg, coeff, 3)
    for n in sorted(bar.complex.diffs):
        assert_kernels_agree(bar.complex.differential(n))


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
        m = Matrix.from_rows(QQ, rows)
        assert sparse_rank(SparseMatrix.from_matrix(m)) == rank(m)


# -- complexes ----------------------------------------------------------------

def _two_term(field, mat):
    d = SparseMatrix.from_matrix(mat)
    return Complex(field, {0: mat.ncols, 1: mat.nrows}, {0: d})


def test_cohomology_exact_middle():
    # 0 -> F -> F -> 0 with the identity: middle cohomology 0
    cx = Complex(
        QQ, {0: 1, 1: 1},
        {0: SparseMatrix.from_matrix(Matrix.identity(QQ, 1))},
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
    bad = SparseMatrix.from_matrix(Matrix.identity(QQ, 1))
    with pytest.raises(LinalgError):
        Complex(QQ, {0: 1, 1: 1, 2: 1}, {0: bad, 1: bad})


def _square_zero_oracle(cx):
    """The column-by-column reference rule: the first
    (degree n, column j) at which d^{n+1} applied to column j of d^n is
    nonzero, or None."""
    for n in sorted(cx.diffs):
        d2 = cx.diffs.get(n + 1)
        if d2 is None:
            continue
        colview = d2.columns()
        for j, col in enumerate(cx.diffs[n].columns()):
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
            left = kernel_basis(mats[-1].transpose())
            data = []
            for _ in range(rows):
                row = [field.zero] * cols
                for y in left:
                    c = rng.choice(coefs)
                    row = [field.add(a, field.mul(c, b)) for a, b in zip(row, y)]
                data.append(row)
        mats.append(Matrix(field, rows, cols, data))
    return mats


def test_square_zero_check_matches_column_oracle():
    # seeded chains d^0, d^1, d^2 with d o d = 0, half of them with one
    # entry knocked off; the integer check must give the oracle's verdict
    # and witness (degree, column)
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
                m = rng.choice(mats)
                i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
                m.data[i][j] = field.add(m.data[i][j], rng.choice(entries))
            diffs = {n: SparseMatrix.from_matrix(m) for n, m in enumerate(mats)}
            cx_dims = dict(enumerate(dims))
            want = _square_zero_oracle(Complex(field, cx_dims, diffs, check=False))
            if want is None:
                Complex(field, cx_dims, diffs)
                cases["pass"] += 1
                if field.char and any(
                        sum(a * b for a, b in zip(row, col))
                        for d1, d2 in zip(mats, mats[1:])
                        for row in d2.data for col in zip(*d1.data)):
                    cases["vanishes only mod p"] += 1
            else:
                with pytest.raises(SquareZeroError) as err:
                    Complex(field, cx_dims, diffs)
                assert (err.value.degree, err.value.column) == want
                assert str(err.value) == (
                    f"d^{want[0] + 1} o d^{want[0]} != 0 at column {want[1]}")
                cases["fail"] += 1
    assert min(cases.values()) >= 20, cases


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
            m = Matrix.from_rows(
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
            mat = _dense(bar.complex.differential(k))
            if k == n:
                mat = mat * minv
            if k == n - 1:
                mat = m * mat
            diffs[k] = SparseMatrix.from_matrix(mat)
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
            cx = Complex(field, dict(enumerate(dims)),
                         {n: SparseMatrix.from_matrix(m) for n, m in enumerate(mats)})
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

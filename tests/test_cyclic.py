import random
from fractions import Fraction

import pytest

from hbv.fields import QQ, GF
from hbv.groups import preset
from hbv.algebra import exterior_algebra, group_algebra, group_frobenius
from hbv.cyclic import (
    CyclicCohomology,
    StringBracket,
    connes_maps,
    cyclic_cohomology,
    trace_space_dim,
)
from hbv.linalg import Complex, SparseMatrix, SquareZeroError
from hbv.hochschild import (
    BarComplex,
    CohomologyClass,
    HochschildCohomology,
    connes_b_dual,
    connes_b_dual_matrix,
)


def test_hc0_is_trace_space():
    # HC^0 = functionals vanishing on commutators, computed two ways
    for name, field in (("S3", QQ), ("Z3", GF(3)), ("Q8", GF(2))):
        alg = group_algebra(preset(name), field)
        hc = CyclicCohomology(alg, 3)
        assert hc.dim(0) == trace_space_dim(alg)


def test_hc0_q_s3_is_class_functions():
    alg = group_algebra(preset("S3"), QQ)
    assert CyclicCohomology(alg, 3).dim(0) == 3


def test_total_differential_squares_to_zero():
    # asserted at construction; instantiate a graded-free and a modular case
    CyclicCohomology(group_algebra(preset("Z2"), GF(2)), 4)
    CyclicCohomology(group_algebra(preset("Z4"), GF(2)), 3)


def test_staircase_dimensions():
    alg = group_algebra(preset("Z2"), GF(2))
    hc = CyclicCohomology(alg, 4)
    # dim Tot^n = sum over k of dim C^{n-2k}
    bar_dims = [2, 2, 2, 2, 2, 2]
    for n in range(5):
        expected = sum(bar_dims[n - 2 * k] for k in range(n // 2 + 1))
        assert hc.total.complex.dim(n) == expected


def _column_layout(bar, n):
    """(k, cochain degree, offset, dim) of each column C^{n-2k} of Tot^n,
    the columns stacked in increasing k."""
    out, off = [], 0
    for k in range(n // 2 + 1):
        d = bar.complex.dim(n - 2 * k)
        out.append((k, n - 2 * k, off, d))
        off += d
    return out


def _block_total_differential(bar, n, rotations):
    """Rows of d_tot^n assembled block by block: column k of Tot^{n+1}
    receives the Hochschild differential of column k of Tot^n, then the
    rotation image of column k-1 (``rotations[m]`` is B_m)."""
    src_off = {k: off for k, _, off, _ in _column_layout(bar, n)}
    dst = _column_layout(bar, n + 1)
    rows = [{} for _ in range(sum(d for *_, d in dst))]
    for k, m, off, d in dst:
        blocks = []
        if k in src_off and m >= 1:
            blocks.append((bar.complex.differential(m - 1), src_off[k]))
        if k - 1 in src_off:
            blocks.append((rotations[m + 1], src_off[k - 1]))
        for mat, o in blocks:
            for r in range(d):
                for c, v in mat.rows[r].items():
                    rows[off + r][o + c] = v
    return rows


def _rotations(bar, N):
    """B_1 .. B_N of a dual bar complex, by degree."""
    return {m: connes_b_dual_matrix(bar, m) for m in range(1, N + 1)}


def _column_shift(bar, n, vec):
    """S : Tot^n -> Tot^{n+2}, column k moved to column k+1."""
    dst = {k: off for k, _, off, _ in _column_layout(bar, n + 2)}
    return {dst[k + 1] + c - off: v
            for k, _, off, d in _column_layout(bar, n)
            for c, v in vec.items() if off <= c < off + d}


def test_total_differential_matches_block_layout():
    # the recursive layout Tot^n = C^n + Tot^{n-2} against the column-block
    # assembly: same shape, entries and row key order at every degree
    cases = [(group_algebra(preset("Z2"), GF(2)), 4),
             (group_algebra(preset("Z3"), GF(3)), 4),
             (group_algebra(preset("S3"), QQ), 3),
             (exterior_algebra([3, 5], QQ), 4)]
    for alg, N in cases:
        hc = CyclicCohomology(alg, N)
        tot = hc.total
        rotations = _rotations(tot.bar, N)
        for n in range(N + 1):
            want = _block_total_differential(tot.bar, n, rotations)
            d = tot.complex.differential(n)
            assert (d.nrows, d.ncols) == (len(want), tot.complex.dim(n))
            assert tot.complex.dim(n) == sum(c[3] for c in _column_layout(tot.bar, n))
            assert [list(r.items()) for r in d.rows] == \
                [list(r.items()) for r in want]
        for n in range(N - 1):
            for x in hc.classes(n):
                shifted = _column_shift(tot.bar, n, x.representative)
                s = hc.periodicity(x)
                assert s.representative == shifted
                assert s.coords == hc.project(n + 2, shifted).coords


def _mutated_rotations(rng, field, rotations, n, kind):
    """``rotations`` with one entry of B_n changed by ``kind``: "flip"
    negates an entry of a random nonempty row, "drop" removes it, "plus
    one" adds 1 to it, and "fill" sets an entry of a random empty row to 1.
    A change in row i of B_n reaches B_{n-1} B_n through column i of
    B_{n-1}, which is zero where row i of B_n is not, so only "fill" can
    break B B = 0."""
    b = rotations[n]
    i = rng.choice([r for r, row in enumerate(b.rows)
                    if bool(row) != (kind == "fill")])
    row = dict(b.rows[i])
    c = rng.randrange(b.ncols) if kind == "fill" else rng.choice(sorted(row))
    if kind == "fill":
        row[c] = field.one
    elif kind == "drop":
        del row[c]
    elif kind == "flip":
        row[c] = field.neg(row[c])
    else:
        row[c] = field.add(row[c], field.one)
        if not row[c]:
            del row[c]
    rows = list(b.rows)
    rows[i] = row
    return {**rotations, n: SparseMatrix(field, b.nrows, b.ncols, rows)}


def _scaled(m, c):
    """The sparse matrix ``c * m``."""
    return SparseMatrix(m.field, m.nrows, m.ncols,
                        [{k: v * c for k, v in row.items()} for row in m.rows])


def test_total_complex_certificate_matches_generic_check():
    # Complex.mixed_total checks only B d + d B = 0 and B B = 0, relying on
    # the bar complex's own d o d = 0; on B with one entry mutated its
    # verdict and (degree, column) must be those of the generic check on
    # the assembled total differentials.  Each B also runs over the bar
    # complex with its differentials replaced by zero, where B d + d B = 0
    # holds whatever B is, so that only B B = 0 can fail, and over Q over
    # the bar complex with each C^n rescaled, where B d and d B carry
    # different scales.  Both must also name the column oracle's witness,
    # over F_2 and F_3 (the row path) as over F_5 and Q (the column path).
    from types import SimpleNamespace

    from test_linalg import _square_zero_oracle

    rng = random.Random(71)
    cases = [(group_algebra(preset("Z3"), GF(3)),
              ("flip", "drop", "plus one", "fill")),
             (group_algebra(preset("Z4"), GF(2)), ("drop", "fill")),
             (group_algebra(preset("S3"), QQ), ("flip", "drop", "fill")),
             (exterior_algebra([3, 5], QQ), ("flip", "drop", "fill")),
             (group_algebra(preset("Z3"), GF(5)),
              ("flip", "drop", "plus one", "fill")),
             (group_algebra(preset("Z4"), GF(3)),
              ("flip", "drop", "plus one", "fill"))]
    N = 4
    outcomes = {}
    for alg, kinds in cases:
        f = alg.field
        bar = BarComplex(alg, "dual", N)
        clean = _rotations(bar, N)
        zero_d = Complex(f, bar.complex.dims, {
            n: SparseMatrix(f, d.nrows, d.ncols)
            for n, d in bar.complex.diffs.items()})
        bases = [("bar", bar.complex, clean), ("zero d", zero_d, clean)]
        if not f.char:
            # C^n times p_n with p_{n+1} / p_n = r_n = 1/(n+2): d^n becomes
            # r_n d^n and B_n becomes B_n / r_{n-1}
            r = {n: Fraction(1, n + 2) for n in range(-1, N + 1)}
            bases.append(("rescaled", Complex(f, bar.complex.dims, {
                n: _scaled(d, r[n]) for n, d in bar.complex.diffs.items()}),
                {n: _scaled(b, 1 / r[n - 1]) for n, b in clean.items()}))
        dims = {n: sum(c[3] for c in _column_layout(bar, n))
                for n in range(N + 2)}
        for label, base, base_rotations in bases:
            Complex.mixed_total(base, base_rotations)
            for n in range(1, N + 1):
                for kind in kinds:
                    rotations = _mutated_rotations(rng, f, base_rotations, n,
                                                   kind)
                    diffs = {m: SparseMatrix(f, dims[m + 1], dims[m],
                                             _block_total_differential(
                                                 SimpleNamespace(complex=base),
                                                 m, rotations))
                             for m in range(N + 1)}
                    want = _square_zero_oracle(diffs)
                    expected = None if want is None else (want, (
                        f"d^{want[0] + 1} o d^{want[0]} != 0 "
                        f"at column {want[1]}"))
                    for check in (
                            lambda: Complex(f, dims, diffs),
                            lambda: Complex.mixed_total(base, rotations)):
                        try:
                            check()
                            got = None
                        except SquareZeroError as err:
                            got = (err.degree, err.column), str(err)
                        assert got == expected, (alg, label, n, kind)
                    key = label, "pass" if want is None else "fail"
                    outcomes[key] = outcomes.get(key, 0) + 1
    assert len(outcomes) == 6 and min(outcomes.values()) >= 3, outcomes


def test_connes_sequence_f2_z2():
    alg = group_algebra(preset("Z2"), GF(2))
    res = connes_maps(alg, 4)
    assert res["report"].all_ok()


def test_connes_sequence_f3_z3():
    alg = group_algebra(preset("Z3"), GF(3))
    res = connes_maps(alg, 4)
    assert res["report"].all_ok()


def test_rotation_check_fails_on_a_negated_rotation(monkeypatch):
    # I o connecting is a product of the suite's own matrices; the rotation
    # it is compared with comes from the cochain-level B, so a wrong B must
    # show (over F_3: over F_2 a negation changes nothing)
    import hbv.cyclic as cyclic

    alg = group_algebra(preset("Z3"), GF(3))
    name = "I o connecting = rotation at degree 1"

    def verdict():
        report = connes_maps(alg, 4)["report"]
        return {check: ok for check, ok, _ in report.checks}[name]

    assert verdict()
    b = cyclic.connes_b_dual
    minus_one = alg.field.neg(alg.field.one)
    monkeypatch.setattr(cyclic, "connes_b_dual", lambda c: b(c).scaled(minus_one))
    assert not verdict()


def test_connecting_vanishes_on_semisimple_positive_degrees():
    alg = group_algebra(preset("S3"), QQ)
    hh = HochschildCohomology(alg, "dual", 4)
    # HH^{>0} = 0 forces the connecting map to vanish there
    for n in range(1, 3):
        assert hh.dim(n) == 0


def test_rotation_factors_through_connecting():
    # I o connecting agrees with the rotation operator on classes
    alg = group_algebra(preset("Z3"), GF(3))
    hc = CyclicCohomology(alg, 4)
    hh = HochschildCohomology(alg, "dual", 4)
    for n in range(1, 3):
        for x in hh.classes(n):
            via_sequence = hc.to_hochschild(hc.connecting(x, hh), hh)
            direct = hh.project(connes_b_dual(x.representative))
            assert via_sequence.coords == direct.coords


def test_connecting_independent_of_representative():
    alg = group_algebra(preset("Z2"), GF(2))
    hc = CyclicCohomology(alg, 4)
    hh = HochschildCohomology(alg, "dual", 4)
    bar = hh.bar
    f = alg.field
    for n in (1, 2):
        for x in hh.classes(n):
            base = hc.connecting(x, hh).coords
            # perturb the representative by a coboundary
            dprev = bar.complex.differential(n - 1)
            for j in range(bar.complex.dim(n - 1)):
                col = {i: r[j] for i, r in enumerate(dprev.rows) if j in r}
                if not col:
                    continue
                pert = bar.vec_to_cochain(
                    n,
                    _vec_add(f, bar.cochain_to_vec(x.representative), col),
                )
                x2 = CohomologyClass(hh, n, x.coords, pert)
                assert hc.connecting(x2, hh).coords == base
                break


def _vec_add(f, a, b):
    out = dict(a)
    for k, v in b.items():
        s = f.add(out.get(k, f.zero), v)
        if f.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def test_string_bracket_zero_in_negative_target():
    # x, y in HC^0, d = 0: target degree -1: the zero class
    alg = group_algebra(preset("Z2"), GF(2))
    sb = StringBracket(alg, group_frobenius(alg), 4)
    for x in sb.hc.classes(0):
        for y in sb.hc.classes(0):
            assert sb.bracket(x, y).degree == -1


def test_string_bracket_antisymmetry_jacobi_f2_z2():
    alg = group_algebra(preset("Z2"), GF(2))
    sb = StringBracket(alg, group_frobenius(alg), 4)
    assert sb.antisymmetry_jacobi_check().all_ok()


def test_string_bracket_morphism_f2_z2():
    alg = group_algebra(preset("Z2"), GF(2))
    sb = StringBracket(alg, group_frobenius(alg), 4)
    assert sb.morphism_check().all_ok()


def test_string_bracket_morphism_f3_z3():
    alg = group_algebra(preset("Z3"), GF(3))
    sb = StringBracket(alg, group_frobenius(alg), 3)
    assert sb.morphism_check().all_ok()
    assert sb.antisymmetry_jacobi_check().all_ok()


def test_string_bracket_with_unit_image_vanishes():
    # if D(I(x)) is the unit class, {x, y} = +-connecting(I(y)) = 0 by exactness
    for name, field in (("Z2", GF(2)), ("Z3", GF(3))):
        alg = group_algebra(preset(name), field)
        sb = StringBracket(alg, group_frobenius(alg), 4)
        one = sb.bv.hh.unit_class()
        units = [x for x in sb.hc.classes(0)
                 if sb.bv.duality(sb.hc.to_hochschild(x, sb.bv.hh_dual)).coords
                 == one.coords]
        assert units
        W = sb.certified()
        for x in units:
            for ny in range(W + 1):
                for y in sb.hc.classes(ny):
                    br = sb.bracket(x, y)
                    assert br.degree < 0 or br.is_zero()


def test_morphism_check_vacuous_for_semisimple():
    alg = group_algebra(preset("S3"), QQ)
    sb = StringBracket(alg, group_frobenius(alg), 3)
    assert sb.morphism_check().all_ok()


def test_string_bracket_nonzero_somewhere():
    alg = group_algebra(preset("Z2"), GF(2))
    sb = StringBracket(alg, group_frobenius(alg), 4)
    W = sb.certified()
    found = False
    for nx in range(W + 1):
        for ny in range(W + 1 - nx):
            for x in sb.hc.classes(nx):
                for y in sb.hc.classes(ny):
                    br = sb.bracket(x, y)
                    if br.degree >= 0 and not br.is_zero():
                        found = True
    assert found


def _string_bracket_names(dims, W, d):
    """The check names of both ``StringBracket`` suites in the order their
    hand-nested loops wrote them, from the dimensions of HC^0 .. HC^W."""
    anti, jacobi, morphism = [], [], []
    for nx in range(W + 1):
        for ny in range(W + 1 - nx):
            if nx + ny:
                at = [f"at ({nx},{ny}) basis ({i},{j})"
                      for i in range(dims[nx]) for j in range(dims[ny])]
                anti += ["antisymmetry " + a for a in at]
                morphism += ["morphism " + a for a in at]
            for nz in range(W + 1 - nx - ny):
                # one check per triple whose inner bracket {y, z} has degree >= 0
                if nx + ny + nz >= 2 * (1 + d) and ny + nz:
                    jacobi += ([f"jacobi at ({nx},{ny},{nz})"]
                               * (dims[nx] * dims[ny] * dims[nz]))
    return anti + jacobi, morphism


@pytest.mark.parametrize("name, p, counts",
                         [("Z2", 2, (47, 17)), ("Z3", 3, (112, 31))])
def test_string_bracket_check_names(name, p, counts):
    alg = group_algebra(preset(name), GF(p))
    sb = StringBracket(alg, group_frobenius(alg), 4)
    W = sb.certified()
    aj = [check for check, _, _ in sb.antisymmetry_jacobi_check().checks]
    mo = [check for check, _, _ in sb.morphism_check().checks]
    dims = [sb.hc.dim(n) for n in range(W + 1)]
    assert (aj, mo) == _string_bracket_names(dims, W, sb.pairing_shift)
    assert (len(aj), len(mo)) == counts


def test_cyclic_cohomology_table():
    alg = group_algebra(preset("Z3"), GF(3))
    table = cyclic_cohomology(alg, 4)
    assert [n for n, _, _ in table] == list(range(5))
    assert all(dim == len(classes) for _, dim, classes in table)


# -- the bracket memo ---------------------------------------------------------

MEMO_CASES = (("Z4", GF(2), 5), ("Z3", GF(3), 6))


def _string_bracket(name, field, n):
    alg = group_algebra(preset(name), field)
    return StringBracket(alg, group_frobenius(alg), n)


def _snapshot(cls):
    return cls.degree, list(cls.coords), list(cls.representative.items())


def _basis_pairs(sb):
    W = sb.certified()
    for nx in range(W + 1):
        for ny in range(W + 1 - nx):
            for x in sb.hc.classes(nx):
                for y in sb.hc.classes(ny):
                    yield x, y


def _nested_pairs(sb):
    """Pairs shaped like the Jacobi check's nested brackets: (z, {x, y})
    and ({x, y}, z) on basis classes, wherever {x, y} is in degree >= 0
    and the outer bracket stays in the certified window."""
    W = sb.certified()
    for x, y in _basis_pairs(sb):
        inner = sb.bracket(x, y)
        if inner.degree < 0:
            continue
        for nz in range(W + 1 - x.degree - y.degree):
            for z in sb.hc.classes(nz):
                yield z, inner
                yield inner, z


def _bracket_from_parts(sb, x, y):
    """{x, y} = (-1)^{|x| - d} connecting(I(x) u I(y)) composed from the
    parts of ``sb``, past any memo."""
    f = sb.alg.field
    hh = sb.bv.hh_dual
    u = sb.bv.duality(sb.hc.to_hochschild(x, hh))
    v = sb.bv.duality(sb.hc.to_hochschild(y, hh))
    out = sb.hc.connecting(sb.bv.duality_inv(sb.bv.cup_classes(u, v)), hh)
    if (x.degree - sb.pairing_shift) % 2:
        return (out.degree, [f.neg(c) for c in out.coords],
                [(k, f.neg(c)) for k, c in out.representative.items()])
    return _snapshot(out)


def test_bracket_memo_matches_fresh_instance():
    # the memo is filled by the suites, then every basis pair and every
    # nested pair must read what the parts of a fresh instance compose to
    # from scratch: degree, coordinates and representative with its key
    # order
    for name, field, n in MEMO_CASES:
        sb = _string_bracket(name, field, n)
        sb.antisymmetry_jacobi_check()
        sb.morphism_check()
        fresh = _string_bracket(name, field, n)
        pairs = list(_basis_pairs(sb))
        nested = list(_nested_pairs(sb))
        assert nested
        for x, y in pairs + nested:
            assert _snapshot(sb.bracket(x, y)) == _bracket_from_parts(fresh, x, y)


def test_bracket_memo_hands_out_copies():
    for name, field, n in MEMO_CASES:
        sb = _string_bracket(name, field, n)
        f = field
        seen = 0
        for x, y in _basis_pairs(sb):
            first = sb.bracket(x, y)
            if first.degree < 0 or first.is_zero():
                continue
            want = _snapshot(first)
            first.coords[0] = f.add(first.coords[0], f.one)
            first.representative[next(iter(first.representative))] = f.zero
            first.representative[-1] = f.one
            again = sb.bracket(x, y)
            assert _snapshot(again) == want
            again.coords.clear()
            again.representative.clear()
            assert _snapshot(sb.bracket(x, y)) == want
            seen += 1
        assert seen


def test_bracket_memo_computes_each_representative(monkeypatch):
    # two representatives of one class, differing by a coboundary of the
    # total complex, are two computations; repeating either is none
    for name, field, n in MEMO_CASES:
        sb = _string_bracket(name, field, n)
        computed = []
        connecting = sb.hc.connecting
        monkeypatch.setattr(sb.hc, "connecting",
                            lambda cls, hh: computed.append(1) or connecting(cls, hh))
        x, y = next((x, y) for x in sb.hc.classes(2) for y in sb.hc.classes(1)
                    if not sb.bracket(x, y).is_zero())
        base = len(computed)
        # d_tot^0 vanishes on these commutative algebras; d_tot^1 does not
        col = next(c for c in sb.hc.total.complex.columns(1) if c)
        x2 = CohomologyClass(sb.hc, 2, list(x.coords),
                             _vec_add(field, x.representative, col))
        assert x2.representative != x.representative
        assert sb.hc.project(2, x2.representative).coords == x.coords
        counts = []
        for args in ((x, y), (x2, y), (x2, y), (y, x2), (y, x), (y, x2)):
            sb.bracket(*args)
            counts.append(len(computed) - base)
        assert counts == [0, 1, 1, 2, 3, 3]
        assert sb.bracket(x2, y).coords == sb.bracket(x, y).coords
        assert sb.bracket(y, x2).coords == sb.bracket(y, x).coords
        monkeypatch.undo()

import json

from fractions import Fraction
from itertools import product

import pytest

from hbv.fields import QQ, GF
from hbv.groups import preset
from hbv.algebra import (
    AlgebraError,
    FDAlgebra,
    FrobeniusStructure,
    HopfData,
    ModelError,
    PreconditionError,
    algebra_from_json,
    algebra_to_json,
    class_algebra,
    dual_left_integrals,
    exterior_algebra,
    find_integrals,
    frobenius_from_integral,
    group_algebra,
    group_frobenius,
    is_invertible_element,
    lambda_L,
    lie_pairing,
    load_algebra,
    matrix_algebra,
    s_square_conjugator,
    sweedler_algebra,
    trace_pairing,
)
from hbv.algebra import _commutation_kernel
from hbv.cyclic import trace_space_dim
from hbv.linalg import SparseMatrix, rank

import dense_oracle as oracle


# -- group algebras -------------------------------------------------------------

def test_z2_f2_antipode_identity():
    a = group_algebra(preset("Z2"), GF(2))
    assert a.dim == 2
    assert a.hopf.antipode == SparseMatrix.identity(GF(2), 2)


def test_s3_center_dimension():
    a = group_algebra(preset("S3"), QQ)
    assert a.dim == 6
    assert a.center_dim() == 3


def test_z3_f3_local():
    f = GF(3)
    a = group_algebra(preset("Z3"), f)
    g_minus_1 = [f.sub(x, y) for x, y in zip(a.basis_vector(1), a.basis_vector(0))]
    cube = a.mul_vec(a.mul_vec(g_minus_1, g_minus_1), g_minus_1)
    assert all(f.is_zero(c) for c in cube)


def test_group_algebra_hopf_axioms_all_presets():
    for name in ("Z2", "Z3", "Z4", "Z6", "S3", "D4", "Q8"):
        for field in (QQ, GF(2), GF(3)):
            a = group_algebra(preset(name), field)
            assert a.hopf is not None  # axioms asserted at construction


# -- exterior algebras ------------------------------------------------------------

def test_exterior_x3_dims():
    a = exterior_algebra([3], QQ)
    assert a.graded_dims() == {0: 1, 3: 1}
    assert a.top_degree() == 3


def test_exterior_x3x5_dims():
    a = exterior_algebra([3, 5], QQ)
    dims = [a.graded_dims().get(d, 0) for d in range(9)]
    assert dims == [1, 0, 0, 1, 0, 1, 0, 0, 1]
    assert a.top_degree() == 8


def test_exterior_square_zero():
    a = exterior_algebra([1], QQ)
    i = a.names.index("x1")
    assert a.mul_basis(i, i) == {}


def test_exterior_anticommutes():
    a = exterior_algebra([3, 5], QQ)
    i3, i5 = a.names.index("x3"), a.names.index("x5")
    top = a.names.index("x3x5")
    assert a.mul_basis(i3, i5) == {top: Fraction(1)}
    assert a.mul_basis(i5, i3) == {top: Fraction(-1)}


def test_exterior_rejections():
    with pytest.raises(ModelError):
        exterior_algebra([2], QQ)
    with pytest.raises(ModelError):
        exterior_algebra([3], GF(2))
    with pytest.raises(ModelError):
        exterior_algebra([], QQ)


# -- integrals ---------------------------------------------------------------------

def test_group_algebra_integrals_are_full_sum():
    for name in ("Z2", "Z3", "Z4", "Z6", "S3", "D4", "Q8"):
        for field in (QQ, GF(2), GF(3)):
            a = group_algebra(preset(name), field)
            left, right, unimodular = find_integrals(a)
            assert unimodular
            assert len(left) == 1 and len(right) == 1
            ones = [field.one] * a.dim
            lm = a.left_mult_matrix(left[0])
            # the integral is a scalar multiple of the sum of all elements
            nz = [c for c in left[0] if not field.is_zero(c)]
            assert len(nz) == a.dim and len(set(map(str, nz))) == 1
            del lm, ones


def test_exterior_integral_is_top_class():
    a = exterior_algebra([3], QQ)
    left, right, unimodular = find_integrals(a)
    assert unimodular and len(left) == 1
    top = a.names.index("x3")
    assert [i for i, c in enumerate(left[0]) if c] == [top]


def test_sweedler_not_unimodular():
    a = sweedler_algebra()
    left, right, unimodular = find_integrals(a)
    assert not unimodular
    assert len(left) == 1 and len(right) == 1
    span = {tuple(map(str, left[0])), tuple(map(str, right[0]))}
    assert len(span) == 2


# -- Frobenius forms -----------------------------------------------------------------

def test_group_frobenius_flags():
    a = group_algebra(preset("S3"), QQ)
    fs = group_frobenius(a)
    assert fs.nondegenerate
    assert fs.frobenius_identity
    assert fs.symmetric
    assert fs.degree == 0


def test_frobenius_from_integral_group_case():
    # lam = delta_1, u = 1: beta(g, h) = [gh = 1]
    a = group_algebra(preset("Z3"), QQ)
    lam = [QQ.one if i == a.group.identity else QQ.zero for i in range(a.dim)]
    fs = frobenius_from_integral(a, lam, list(a.unit))
    assert fs.pairing == group_frobenius(a).pairing
    assert fs.symmetric and fs.nondegenerate


def test_frobenius_from_integral_precondition():
    a = group_algebra(preset("Z3"), QQ)
    bad = [QQ.one] * a.dim  # not a left integral of the dual
    with pytest.raises(PreconditionError):
        frobenius_from_integral(a, bad, list(a.unit))


def test_sweedler_frobenius_not_symmetric():
    a = sweedler_algebra()
    lam = dual_left_integrals(a)[0]
    u = s_square_conjugator(a)
    assert u is not None
    fs = frobenius_from_integral(a, lam, u)
    assert fs.nondegenerate
    assert fs.frobenius_identity
    assert not fs.symmetric


def test_frobenius_from_integral_exterior_example():
    # lam = dual of the top generator, u = 1: the degree pairing
    a = exterior_algebra([3], QQ)
    one, x3 = a.names.index("1"), a.names.index("x3")
    lam = [QQ.zero] * a.dim
    lam[x3] = QQ.one
    fs = frobenius_from_integral(a, lam, list(a.unit))
    assert fs.pairing.data[one][x3] == 1
    assert fs.pairing.data[x3][one] == 1
    assert fs.pairing.data[one][one] == 0
    assert fs.pairing.data[x3][x3] == 0


def test_unimodular_with_conjugator_gives_symmetric_form():
    # executable direction of the symmetric-iff-unimodular theorem
    cases = [group_algebra(preset(n), f)
             for n in ("Z2", "Z3", "Z4", "Z6", "S3", "D4", "Q8")
             for f in (QQ, GF(3))]
    cases += [exterior_algebra([3], QQ), exterior_algebra([3, 5], QQ)]
    for alg in cases:
        _, _, unimodular = find_integrals(alg)
        u = s_square_conjugator(alg)
        if not (unimodular and u is not None):
            continue
        lam = dual_left_integrals(alg)[0]
        fs = frobenius_from_integral(alg, lam, u)
        assert fs.symmetric and fs.nondegenerate, alg


def test_zero_pairing_degenerate():
    a = group_algebra(preset("Z2"), QQ)
    fs = FrobeniusStructure(a, SparseMatrix(QQ, 2, 2))
    assert not fs.nondegenerate and fs.copairing is None
    assert fs.degree == 0 and fs.frobenius_identity and fs.symmetric
    assert fs.failures == [("degenerate",)]


def test_matrix_algebra_trace_pairing():
    a = matrix_algebra(2, QQ)
    fs = FrobeniusStructure(a, trace_pairing(a, 2))
    assert fs.nondegenerate and fs.frobenius_identity and fs.symmetric


# The witnesses of a bad pairing, pinned exactly: their order is the check
# order (homogeneity, nondegeneracy, Frobenius identity, symmetry), basis
# triples and pairs in lexicographic order, 20 witnesses at most.

def test_identity_pairing_z3_frobenius_witnesses():
    # <g, h> = [g = h]: <a, bc> = [a = bc] and <ab, c> = [ab = c] differ
    # on 12 of the 27 triples
    a = group_algebra(preset("Z3"), QQ)
    fs = FrobeniusStructure(a, SparseMatrix.identity(QQ, 3))
    assert fs.nondegenerate and fs.copairing == SparseMatrix.identity(QQ, 3)
    assert fs.degree == 0 and fs.symmetric and not fs.frobenius_identity
    assert fs.failures == [
        ("frobenius", "e", "g1", "g1"), ("frobenius", "e", "g1", "g2"),
        ("frobenius", "e", "g2", "g1"), ("frobenius", "e", "g2", "g2"),
        ("frobenius", "g1", "g1", "e"), ("frobenius", "g1", "g1", "g2"),
        ("frobenius", "g1", "g2", "e"), ("frobenius", "g1", "g2", "g2"),
        ("frobenius", "g2", "g1", "e"), ("frobenius", "g2", "g1", "g1"),
        ("frobenius", "g2", "g2", "e"), ("frobenius", "g2", "g2", "g1"),
    ]


def test_identity_pairing_z6_witness_cap():
    # more than 20 triples fail; the list stops at the 20th
    a = group_algebra(preset("Z6"), QQ)
    fs = FrobeniusStructure(a, SparseMatrix.identity(QQ, 6))
    assert not fs.frobenius_identity and fs.symmetric
    assert len(fs.failures) == 20
    assert fs.failures[:2] == [("frobenius", "e", "g1", "g1"),
                               ("frobenius", "e", "g1", "g5")]
    assert fs.failures[-2:] == [("frobenius", "g2", "g2", "e"),
                                ("frobenius", "g2", "g2", "g4")]


def test_identity_pairing_exterior_inhomogeneous():
    # <1, 1> = <x3, x3> = 1 pairs degrees 0 and 6, and graded symmetry
    # needs <x3, x3> = -<x3, x3> for the odd x3
    a = exterior_algebra([3], QQ)
    fs = FrobeniusStructure(a, SparseMatrix.identity(QQ, 2))
    assert fs.degree is None and fs.nondegenerate
    assert not fs.frobenius_identity and not fs.symmetric
    assert fs.failures == [
        ("inhomogeneous-pairing",),
        ("frobenius", "1", "x3", "x3"), ("frobenius", "x3", "x3", "1"),
        ("symmetry", "x3", "x3"),
    ]


def test_exterior_lie_pairing():
    a = exterior_algebra([3], QQ)
    fs = lie_pairing(a)
    assert fs.degree == -3
    one, x3 = a.names.index("1"), a.names.index("x3")
    assert fs.pairing.data[one][x3] == 1
    assert fs.pairing.data[x3][one] == 1
    assert fs.pairing.data[one][one] == 0
    assert fs.pairing.data[x3][x3] == 0


def test_exterior_lie_pairing_koszul():
    a = exterior_algebra([3, 5], QQ)
    fs = lie_pairing(a)
    assert fs.degree == -8
    i3, i5 = a.names.index("x3"), a.names.index("x5")
    assert fs.pairing.data[i3][i5] == 1
    assert fs.pairing.data[i5][i3] == -1  # graded symmetry: odd.odd
    assert fs.symmetric and fs.nondegenerate


def test_lie_pairing_multiplication_injective():
    # a -> a . eta is injective: the pairing matrix has full rank
    a = exterior_algebra([3, 5], QQ)
    fs = lie_pairing(a)
    assert rank(fs.pairing) == 4


def test_lie_pairing_needs_one_dimensional_top():
    a = group_algebra(preset("Z2"), QQ)  # ungraded: top degree 0 is 2-dim
    with pytest.raises(ModelError):
        lie_pairing(a)


# -- lambda_L ---------------------------------------------------------------------

def test_lambda_L_z2_identity():
    a = group_algebra(preset("Z2"), QQ)
    assert lambda_L(a) == SparseMatrix.identity(QQ, 2)


def test_lambda_L_z3_swaps():
    a = group_algebra(preset("Z3"), QQ)
    lam = lambda_L(a)
    g = a.group
    for j, col in enumerate(lam.transpose().data):
        assert [i for i, c in enumerate(col) if c] == [g.inv[j]]


def test_lambda_L_s3_bimodule():
    # construction verifies the bimodule identity on all 6^3 triples
    lam = lambda_L(group_algebra(preset("S3"), QQ))
    assert rank(lam) == 6


# -- serialization -------------------------------------------------------------------

def test_algebra_json_roundtrip(tmp_path):
    a = group_algebra(preset("S3"), GF(3))
    obj = algebra_to_json(a)
    b = algebra_from_json(json.loads(json.dumps(obj)))
    assert b.names == a.names and b.mult == a.mult
    assert b.hopf is not None
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    c = load_algebra(path)
    assert c.dim == 6


def test_structure_constant_validation():
    f = QQ
    with pytest.raises(AlgebraError) as err:
        # non-associative: e*e = e, e*x = x, x*e = x, x*x = e ... with a 3rd
        FDAlgebra(
            f, ["e", "x", "y"], [0, 0, 0],
            {
                (0, 0): {0: f.one}, (0, 1): {1: f.one}, (0, 2): {2: f.one},
                (1, 0): {1: f.one}, (2, 0): {2: f.one},
                (1, 1): {2: f.one}, (1, 2): {0: f.one},
                (2, 1): {1: f.one}, (2, 2): {1: f.one},
            },
            [f.one, f.zero, f.zero],
        )
    # the first failing triple in lexicographic order
    assert type(err.value) is AlgebraError
    assert str(err.value) == "associativity fails at (x, x, x)"


# the group law of Z2 = {e, g}, over any field
Z2_MULT = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}


@pytest.mark.parametrize("names, degrees, mult, unit, message", [
    (["1", "x"], [0, 1], {**Z2_MULT, (1, 1): {1: 1}}, [1, 0],
     "product x*x breaks the grading"),
    (["e", "g"], [0, 0], Z2_MULT, [0, 1],
     "unit axiom fails at basis element e"),
    (["e", "g"], [0, 0], {**Z2_MULT, (0, 1): {3: 1}}, [1, 0],
     "product entry (0, 1) -> [3] indexes outside the basis 0..1"),
])
def test_algebra_axiom_messages(names, degrees, mult, unit, message):
    with pytest.raises(AlgebraError) as err:
        FDAlgebra(QQ, names, degrees, mult, unit)
    assert type(err.value) is AlgebraError
    assert str(err.value) == message


@pytest.mark.parametrize("coproduct, counit, message", [
    # F2[Z2] = {e, g1}; Delta(e) = e (x) e, Delta(g1) = g1 (x) g1, eps = (1, 1)
    # and S = 1 is the Hopf structure each input breaks
    ({1: {(1, 0): 1}}, [0, 0], "coassociativity fails at g1"),
    ({}, [0, 0], "counit axiom fails at e"),
    ({0: {(0, 1): 1, (1, 0): 1}, 1: {(1, 1): 1}}, [0, 1],
     "coproduct of the unit is not 1 (x) 1"),
    ({0: {(0, 0): 1}, 1: {(0, 1): 1, (1, 0): 1}}, [1, 0],
     "bialgebra compatibility fails at (g1, g1)"),
    # Delta is an algebra map, since (1 (x) g + g (x) 1 + g (x) g)^2 = 1 (x) 1
    # in characteristic 2, but eps(g1 g1) = 1 and eps(g1)^2 = 0
    ({0: {(0, 0): 1}, 1: {(0, 1): 1, (1, 0): 1, (1, 1): 1}}, [1, 0],
     "counit is not multiplicative"),
    # the Hopf structure with S = 0
    ({0: {(0, 0): 1}, 1: {(1, 1): 1}}, [1, 1], "antipode axiom fails at e"),
    ({0: {(0, 2): 1}}, [1, 1],
     "coproduct entry 0 -> [(0, 2)] indexes outside the basis 0..1"),
    ({0: {(0, 0): 1}, 1: {(1, 1): 1}}, [1],
     "counit or antipode size does not match the basis"),
])
def test_hopf_axiom_messages(coproduct, counit, message):
    f = GF(2)
    alg = group_algebra(preset("Z2"), f)
    with pytest.raises(AlgebraError) as err:
        HopfData(alg, coproduct, counit, SparseMatrix(f, 2, 2))
    assert type(err.value) is AlgebraError
    assert str(err.value) == message


def test_hopf_grading_message():
    f = GF(3)
    alg = exterior_algebra([1], f)
    with pytest.raises(AlgebraError) as err:
        # Delta(x1) = x1 (x) x1 has degree 2
        HopfData(alg, {1: {(1, 1): 1}}, [1, 0], SparseMatrix(f, 2, 2))
    assert type(err.value) is AlgebraError
    assert str(err.value) == "coproduct breaks the grading"


# -- dense builders against the field-operation loops they replaced ------------


def _square(f, data):
    """The square matrix of the dense rows ``data``."""
    return SparseMatrix.from_dense(f, len(data), len(data), data)


def _zeros(f, n):
    return [[f.zero] * n for _ in range(n)]


def _left_mult_loop(alg, vec):
    f = alg.field
    m = _zeros(f, alg.dim)
    for i, a in enumerate(vec):
        if f.is_zero(a):
            continue
        for j in range(alg.dim):
            for k, c in alg.mul_basis(i, j).items():
                m[k][j] = f.add(m[k][j], f.mul(a, c))
    return _square(f, m)


def _right_mult_loop(alg, vec):
    f = alg.field
    m = _zeros(f, alg.dim)
    for j, b in enumerate(vec):
        if f.is_zero(b):
            continue
        for i in range(alg.dim):
            for k, c in alg.mul_basis(i, j).items():
                m[k][i] = f.add(m[k][i], f.mul(b, c))
    return _square(f, m)


def _apply_loop(m, vec):
    f = m.field
    out = []
    for row in m.data:
        s = f.zero
        for j, v in enumerate(vec):
            if not f.is_zero(v) and not f.is_zero(row[j]):
                s = f.add(s, f.mul(row[j], v))
        out.append(s)
    return out


def _commutation_rows(alg, pairs):
    """The rows of x . u - u . y = 0, block after block, by field loops."""
    f = alg.field
    rows = []
    for x, y in pairs:
        l, r = _left_mult_loop(alg, x), _right_mult_loop(alg, y)
        for a, b in zip(l.data, r.data):
            rows.append([f.sub(s, t) for s, t in zip(a, b)])
    return rows


def _integral_rows(alg, side):
    """find_integrals' rows: e_h . u - eps(h) u (``side`` 0) or
    u . e_h - eps(h) u (``side`` 1)."""
    f = alg.field
    eps = alg.hopf.counit
    loop = _left_mult_loop if side == 0 else _right_mult_loop
    rows = []
    for h in range(alg.dim):
        m = loop(alg, alg.basis_vector(h))
        for i in range(alg.dim):
            row = list(m.data[i])
            row[i] = f.sub(row[i], eps[h])
            rows.append(row)
    return rows


def _dual_integral_rows(alg):
    f = alg.field
    cop = alg.hopf.coproduct
    rows = []
    for i in range(alg.dim):
        for h in range(alg.dim):
            row = [f.zero] * alg.dim
            for (j, k), c in cop.get(h, {}).items():
                if j == i:
                    row[k] = f.add(row[k], c)
            row[h] = f.sub(row[h], alg.unit[i])
            rows.append(row)
    return rows


def _trace_rows(alg):
    f = alg.field
    rows = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            row = [f.zero] * alg.dim
            for k, c in alg.mul_basis(i, j).items():
                row[k] = f.add(row[k], c)
            for k, c in alg.mul_basis(j, i).items():
                row[k] = f.sub(row[k], c)
            rows.append(row)
    return rows


def _conjugator_loop(alg, space):
    """s_square_conjugator's sweep of ``space``: basis vectors, then prefix
    sums by field additions; the first invertible element."""
    f = alg.field
    candidates = list(space)
    acc = None
    for v in space:
        acc = v if acc is None else [f.add(a, b) for a, b in zip(acc, v)]
        candidates.append(list(acc))
    return next((u for u in candidates if is_invertible_element(alg, u)), None)


def _pairing_loop(alg, lam, u):
    f = alg.field
    pairing = _zeros(f, alg.dim)
    for i in range(alg.dim):
        for j in range(alg.dim):
            vec = [f.zero] * alg.dim
            for k, c in alg.mul_basis(i, j).items():
                vec[k] = c
            vec = alg.mul_vec(vec, u)
            pairing[i][j] = f.of_int(sum(c * l for c, l in zip(vec, lam)))
    return _square(f, pairing)


def _oracle_algebras():
    for g in ("Z2", "Z3", "S3", "Z4", "D4", "Q8"):
        for f in (QQ, GF(2), GF(3), GF(5)):
            yield group_algebra(preset(g), f)
    for gens in ((1,), (3,), (3, 5), (1, 3)):
        for f in (QQ, GF(3)):
            yield exterior_algebra(list(gens), f)
    yield sweedler_algebra()
    yield matrix_algebra(2, QQ)
    yield matrix_algebra(3, QQ)
    for g in ("S3", "D4"):
        yield class_algebra(preset(g), QQ)[0]


def _entries(x):
    """The entries of a list of vectors, or the stored entries of a matrix
    as ``(row, column, value)``."""
    if isinstance(x, SparseMatrix):
        return sorted((i, j, v) for i, row in enumerate(x.rows)
                      for j, v in row.items())
    return [v for row in x for v in (row if isinstance(row, list) else [row])]


def _same(got, want, f):
    """Equal shapes, values and entry types; over Q every entry a
    Fraction.  A list's every zero is the field's shared zero, and a matrix
    stores no zero."""
    if isinstance(got, SparseMatrix):
        assert got == want
        flat = [v for _, _, v in _entries(got)]
        assert all(flat)
        assert [type(v) for v in flat] == [type(v) for _, _, v in _entries(want)]
    else:
        assert got == want
        flat = _entries(got)
        assert [type(v) for v in flat] == [type(v) for v in _entries(want)]
        assert all(v is f.zero for v in flat if not v)
    if not f.char:
        assert all(type(v) is Fraction for v in flat)


def test_structure_matrices_match_field_loops():
    # the antipode, lambda_L and the pairings are built from their terms
    # (``SparseMatrix.from_terms``); each equals a zero matrix filled in by
    # field operations, and over Q stores only Fractions
    for f in (QQ, GF(2), GF(3), GF(5)):
        for name in ("Z3", "S3", "Q8"):
            g = preset(name)
            alg = group_algebra(g, f)
            inv, pairing = _zeros(f, g.order), _zeros(f, g.order)
            for j in range(g.order):
                inv[g.inv[j]][j] = f.one
                pairing[j][g.inv[j]] = f.one
            _same(alg.hopf.antipode, _square(f, inv), f)
            _same(lambda_L(alg), _square(f, inv), f)
            _same(group_frobenius(alg).pairing, _square(f, pairing), f)
    for f in (QQ, GF(5)):
        for name in ("S3", "D4"):
            g = preset(name)
            alg, frob = class_algebra(g, f)
            pairing = _zeros(f, alg.dim)
            for (i, j), row in alg.mult.items():
                if alg.unit_index in row:
                    pairing[i][j] = f.div(row[alg.unit_index], f.of_int(g.order))
            _same(frob.pairing, _square(f, pairing), f)
    for f in (QQ, GF(3)):
        for gens in ([3], [3, 5], [1, 3]):
            alg = exterior_algebra(gens, f)
            top = alg.degrees.index(alg.top_degree())
            pairing = _zeros(f, alg.dim)
            for i, j in product(range(alg.dim), repeat=2):
                pairing[i][j] = alg.mul_basis(i, j).get(top, f.zero)
            _same(lie_pairing(alg).pairing, _square(f, pairing), f)
        for n in (2, 3):
            alg = matrix_algebra(n, f)
            pairing = _zeros(f, alg.dim)
            for i, j in product(range(alg.dim), repeat=2):
                for a in range(n):
                    c = alg.mul_basis(i, j).get(a * n + a, f.zero)
                    pairing[i][j] = f.add(pairing[i][j], c)
            _same(trace_pairing(alg, n), _square(f, pairing), f)


def test_dense_builders_match_field_loops():
    pairings = 0
    for alg in _oracle_algebras():
        f = alg.field
        d = alg.dim
        e = [alg.basis_vector(h) for h in range(d)]
        dense = [f.of_int(3 * i + 2) for i in range(d)]
        for vec in e + [dense]:
            _same(alg.left_mult_matrix(vec), _left_mult_loop(alg, vec), f)
            _same(alg.right_mult_matrix(vec), _right_mult_loop(alg, vec), f)
        m = alg.left_mult_matrix(dense)
        for vec in e + [dense, [f.zero] * d]:
            column = SparseMatrix.from_dense(f, d, 1, [[v] for v in vec])
            _same(m * column, SparseMatrix.from_dense(
                f, d, 1, [[v] for v in _apply_loop(m, vec)]), f)

        def kernel(rows):
            return oracle.kernel_basis(SparseMatrix.from_dense(f, len(rows), d, rows))

        center = kernel(_commutation_rows(alg, list(zip(e, e))))
        _same(_commutation_kernel(alg, list(zip(e, e))), center, f)
        assert alg.center_dim() == len(center)
        assert trace_space_dim(alg) == len(kernel(_trace_rows(alg)))
        if alg.hopf is None:
            continue
        left, right, unimodular = find_integrals(alg)
        lrows, rrows = _integral_rows(alg, 0), _integral_rows(alg, 1)
        _same(left, kernel(lrows), f)
        _same(right, kernel(rrows), f)
        assert unimodular == bool(kernel(lrows + rrows))
        S2 = alg.hopf.antipode * alg.hopf.antipode
        pairs = list(zip(S2.transpose().data, e))
        space = kernel(_commutation_rows(alg, pairs))
        _same(_commutation_kernel(alg, pairs), space, f)
        u = s_square_conjugator(alg)
        assert u == _conjugator_loop(alg, space)
        lams = dual_left_integrals(alg)
        _same(lams, kernel(_dual_integral_rows(alg)), f)
        if lams and u is not None:
            _same(frobenius_from_integral(alg, lams[0], u).pairing,
                  _pairing_loop(alg, lams[0], u), f)
            pairings += 1
    assert pairings >= 30, pairings

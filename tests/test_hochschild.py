import random

from fractions import Fraction
from itertools import chain

import pytest

from hbv.fields import QQ, GF
from hbv.groups import preset
from hbv.algebra import (
    exterior_algebra,
    group_algebra,
    group_frobenius,
    lie_pairing,
    sweedler_algebra,
)
from hbv.hochschild import (
    BarComplex,
    BudgetError,
    BVStructure,
    Cochain,
    CoefficientError,
    HochschildCohomology,
    bv_check,
    centralizer_oracle,
    circle,
    connes_b_dual,
    connes_b_dual_matrix,
    cup,
    gerstenhaber_bracket,
    group_cochain_dims,
    hochschild_dims,
    unit_cochain,
    window_label,
    window_tuples,
)
from hbv.linalg import sum_terms


# -- complex construction ---------------------------------------------------------

def test_dimension_counts():
    # dim C^n(F2[Z2]) = 1^n * 2 ;  dim C^3(Q[S3]) = 5^3 * 6 = 750
    bar = BarComplex(group_algebra(preset("Z2"), GF(2)), "self", 4)
    assert [bar.complex.dim(n) for n in range(5)] == [2, 2, 2, 2, 2]
    bar = BarComplex(group_algebra(preset("S3"), QQ), "self", 3)
    assert bar.complex.dim(3) == 750


@pytest.mark.parametrize("name, make, primes", [
    ("S3", lambda f: group_algebra(preset("S3"), f), (2, 3)),
    ("ext35", lambda f: exterior_algebra([3, 5], f), (3, 5)),
])
@pytest.mark.parametrize("coeff", ["self", "dual"])
def test_fp_differentials_are_q_differentials_mod_p(name, make, primes, coeff):
    # the bar differentials come from one integer build: over F_p each one
    # is the Q one with its (integral) entries reduced mod p
    q_bar = BarComplex(make(QQ), coeff, 3)
    for p in primes:
        fp_bar = BarComplex(make(GF(p)), coeff, 3)
        for n, dq in q_bar.complex.diffs.items():
            dp = fp_bar.complex.diffs[n]
            assert (dp.nrows, dp.ncols) == (dq.nrows, dq.ncols)
            for rq, rp in zip(dq.rows, dp.rows):
                assert all(v.denominator == 1 for v in rq.values())
                assert rp == {c: v.numerator % p for c, v in rq.items()
                              if v.numerator % p}
                assert all(type(v) is int for v in rp.values())


def test_budget_guard():
    with pytest.raises(BudgetError) as err:
        BarComplex(group_algebra(preset("D4"), GF(2)), "self", 4, budget=20000)
    assert "134456" in str(err.value)


def test_d0_vanishes_on_commutative():
    # d^0(a)(x) = xa - ax = 0 for commutative algebras
    bar = BarComplex(group_algebra(preset("Z6"), QQ), "self", 3)
    assert bar.complex.differential(0).nnz() == 0


def test_d0_computes_commutators():
    f = QQ
    alg = group_algebra(preset("S3"), f)
    bar = BarComplex(alg, "self", 3)
    g = alg.group
    a = alg.names.index("(12)")
    x = alg.names.index("(123)")
    d0 = bar.complex.differential(0)
    col = {i: r.get(a, f.zero) for i, r in enumerate(d0.rows) if a in r}
    # entry at row (tuple (x,), value w): coefficient of e_w in x a - a x
    xa = g.table[x][a]
    ax = g.table[a][x]
    assert col[bar.encode((x,), xa)] == f.one
    assert col[bar.encode((x,), ax)] == f.neg(f.one)


# -- dimension tables -------------------------------------------------------------

def test_dims_f2_z2_self():
    alg = group_algebra(preset("Z2"), GF(2))
    assert [d for _, d in hochschild_dims(alg, "self", 4)] == [2, 2, 2, 2, 2]


def test_dims_q_s3_dual_semisimple_vanishing():
    alg = group_algebra(preset("S3"), QQ)
    assert [d for _, d in hochschild_dims(alg, "dual", 4)] == [3, 0, 0, 0, 0]


def test_dims_f3_z3_degree_zero_is_center():
    alg = group_algebra(preset("Z3"), GF(3))
    hh = HochschildCohomology(alg, "self", 3)
    assert hh.dim(0) == 3


def test_self_and_dual_dims_agree_for_symmetric_group_algebras():
    for name, field in (("Z2", GF(2)), ("Z3", GF(3)), ("S3", GF(3))):
        alg = group_algebra(preset(name), field)
        N = 3
        self_dims = [d for _, d in hochschild_dims(alg, "self", N)]
        dual_dims = [d for _, d in hochschild_dims(alg, "dual", N)]
        assert self_dims == dual_dims


# -- cup product -------------------------------------------------------------------

def test_cup_unit_neutral():
    alg = group_algebra(preset("S3"), GF(3))
    hh = HochschildCohomology(alg, "self", 3)
    one = hh.unit_class()
    for n in range(2):
        for x in hh.classes(n):
            left = hh.project(cup(one.representative, x.representative))
            right = hh.project(cup(x.representative, one.representative))
            assert left.coords == x.coords
            assert right.coords == x.coords


def test_cup_class_sums_in_center():
    # (sum of transpositions)^2 = 3 . 1 + 3 . (sum of 3-cycles) in HH^0(Q[S3])
    alg = group_algebra(preset("S3"), QQ)
    hh = HochschildCohomology(alg, "self", 3)
    g = alg.group
    classes = g.conjugacy_classes()
    by_size = {len(c): c for c in classes}
    transpositions = by_size[3]
    threecycles = by_size[2]

    def zero_cochain(indices, coeffs=None):
        table = {}
        for k, i in enumerate(indices):
            table[((), i)] = QQ.one if coeffs is None else coeffs[k]
        return Cochain(alg, "self", 0, table)

    z = zero_cochain(transpositions)
    prod = cup(z, z)
    expected = zero_cochain(
        [g.identity] + list(threecycles),
        [Fraction(3)] * (1 + len(threecycles)),
    )
    assert hh.project(prod).coords == hh.project(expected).coords
    # and on the nose in the center
    assert prod.table == expected.table


def test_cochain_plus_matches_sum_terms():
    # a.plus(b).plus(c) and a.minus(b) against sum_terms over all the
    # tables at once: same keys, values (with their types) and key order,
    # where a key of a cancels against b and c brings it back at the end
    rng = random.Random(71)
    returned = 0
    for field in (GF(2), GF(3), QQ):
        alg = group_algebra(preset("Z3"), field)
        f = alg.field
        keys = [((i, j), v) for i in range(3) for j in range(3) for v in range(3)
                if alg.unit_index not in (i, j)]
        values = [f.one, f.neg(f.one), f.add(f.one, f.one)]
        for _ in range(40):
            a = {k: rng.choice(values) for k in rng.sample(keys, rng.randint(0, 4))}
            b = {k: f.neg(v) if rng.random() < 0.5 else rng.choice(values)
                 for k, v in a.items()}
            b.update((k, rng.choice(values)) for k in rng.sample(keys, 2))
            c = {k: rng.choice(values) for k in rng.sample(keys, rng.randint(0, 3))}
            c.update((k, f.one) for k in list(a)[:2])
            A, B, C = (Cochain(alg, "self", 2, t) for t in (a, b, c))
            got = A.plus(B).plus(C).table
            want = sum_terms(f, chain(A.table.items(), B.table.items(),
                                      C.table.items()))
            assert list(got.items()) == list(want.items())
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
            neg_b = ((k, f.neg(v)) for k, v in B.table.items())
            want = sum_terms(f, chain(A.table.items(), neg_b))
            assert list(A.minus(B).table.items()) == list(want.items())
            ab = sum_terms(f, chain(A.table.items(), B.table.items()))
            returned += sum(k in A.table and k not in ab for k in C.table)
    assert returned


def test_cup_commutative_up_to_coboundary():
    rng = random.Random(23)
    alg = group_algebra(preset("Z2"), GF(2))
    hh = HochschildCohomology(alg, "self", 4)
    bar = hh.bar
    f = alg.field
    for _ in range(20):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        # random cocycles: random combinations of basis classes
        def random_cocycle(n):
            cls = hh.classes(n)
            acc = Cochain(alg, "self", n, {})
            for c in cls:
                if rng.randint(0, 1):
                    acc = acc.plus(c.representative)
            return acc
        F, G = random_cocycle(p), random_cocycle(q)
        fg = cup(F, G)
        gf = cup(G, F)
        diff = fg.minus(gf) if (p * q) % 2 == 0 else fg.plus(gf)
        # the class of f u g - +- g u f must vanish
        assert hh.project(diff).is_zero()


def test_cup_graded_commutative_up_to_coboundary():
    # f u g - (-1)^{pq + t(f) t(g)} g u f is a coboundary on the exterior model
    alg = exterior_algebra([3, 5], QQ)
    hh = HochschildCohomology(alg, "self", 3)
    for p in range(2):
        for q in range(2):
            for x in hh.classes(p):
                for y in hh.classes(q):
                    F, G = x.representative, y.representative
                    sign = (p * q + F.internal_degree() * G.internal_degree()) % 2
                    fg, gf = cup(F, G), cup(G, F)
                    diff = fg.plus(gf) if sign else fg.minus(gf)
                    assert hh.project(diff).is_zero()


def test_cup_rejects_double_dual():
    alg = group_algebra(preset("Z2"), GF(2))
    c = Cochain(alg, "dual", 0, {((), 0): GF(2).one})
    with pytest.raises(CoefficientError):
        cup(c, c)


# -- Gerstenhaber bracket -----------------------------------------------------------

def test_bracket_with_unit_vanishes():
    alg = group_algebra(preset("Z3"), GF(3))
    hh = HochschildCohomology(alg, "self", 3)
    one = unit_cochain(alg)
    for n in range(3):
        for x in hh.classes(n):
            br = gerstenhaber_bracket(one, x.representative)
            assert br.is_zero() or hh.project(br).is_zero()


def test_self_bracket_even_degree():
    # [f, f] = 2 f o f for f of even cochain degree; zero over F2
    alg = group_algebra(preset("Z2"), GF(2))
    hh = HochschildCohomology(alg, "self", 4)
    for x in hh.classes(2):
        br = gerstenhaber_bracket(x.representative, x.representative)
        assert br.is_zero()
    # over Q at degree 0 (even): [f, f] = 2 f o f = 0 since 0-cochains have no slots
    algq = group_algebra(preset("Z3"), QQ)
    c = Cochain(algq, "self", 0, {((), 1): QQ.one})
    assert gerstenhaber_bracket(c, c).is_zero()


def test_bracket_of_cocycles_is_cocycle():
    alg = group_algebra(preset("Z3"), GF(3))
    hh = HochschildCohomology(alg, "self", 3)
    bar = hh.bar
    for nx in range(3):
        for ny in range(3):
            if nx + ny - 1 > 3 or nx + ny - 1 < 0:
                continue
            for x in hh.classes(nx):
                for y in hh.classes(ny):
                    br = gerstenhaber_bracket(x.representative, y.representative)
                    assert bar.is_cocycle(br)


def test_jacobi_f3_z3():
    alg = group_algebra(preset("Z3"), GF(3))
    frob = group_frobenius(alg)
    rep = bv_check(alg, frob, 4)
    jac = [ok for name, ok, _ in rep.checks if name.startswith("jacobi")]
    assert jac and all(jac)


def test_circle_refuses_dual():
    alg = group_algebra(preset("Z2"), GF(2))
    c = Cochain(alg, "dual", 1, {((1,), 0): GF(2).one})
    s = Cochain(alg, "self", 1, {((1,), 0): GF(2).one})
    with pytest.raises(CoefficientError):
        circle(c, s)


# -- the rotation operator -----------------------------------------------------------

def test_rotation_on_zero_cochain():
    alg = group_algebra(preset("Z2"), GF(2))
    c = Cochain(alg, "dual", 0, {((), 0): GF(2).one})
    out = connes_b_dual(c)
    assert out.degree == -1 and out.is_zero()


def test_rotation_z2_hh1_to_hh0_nonzero():
    alg = group_algebra(preset("Z2"), GF(2))
    hh = HochschildCohomology(alg, "dual", 4)
    found_nonzero = False
    for x in hh.classes(1):
        img = hh.project(connes_b_dual(x.representative))
        if not img.is_zero():
            found_nonzero = True
    assert found_nonzero


def test_rotation_squares_to_zero_on_c2_basis():
    alg = group_algebra(preset("Z3"), GF(3))
    bar = BarComplex(alg, "dual", 3)
    f = alg.field
    for tup in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for v in range(3):
            c = Cochain(alg, "dual", 2, {(tup, v): f.one})
            assert connes_b_dual(connes_b_dual(c)).is_zero()


def test_rotation_cochain_matches_matrix():
    # the entrywise operator and the chain-transpose matrix agree
    from itertools import product as iproduct
    for alg in (group_algebra(preset("Z3"), GF(3)), exterior_algebra([3, 5], QQ)):
        bar = BarComplex(alg, "dual", 3)
        f = alg.field
        for n in (1, 2):
            mat = connes_b_dual_matrix(bar, n)
            cols = mat.columns()
            for tup in iproduct(bar.nonunit, repeat=n):
                for v in range(alg.dim):
                    c = Cochain(alg, "dual", n, {(tup, v): f.one})
                    direct = bar.cochain_to_vec(connes_b_dual(c))
                    via_matrix = cols[bar.encode(tup, v)]
                    assert direct == via_matrix


def test_rotation_anticommutes_with_differential():
    for alg in (group_algebra(preset("Z3"), GF(3)), exterior_algebra([3, 5], QQ)):
        bar = BarComplex(alg, "dual", 3)
        f = alg.field
        for n in (1, 2):
            Bn = connes_b_dual_matrix(bar, n)
            Bn1 = connes_b_dual_matrix(bar, n + 1)
            dprev = bar.complex.differential(n - 1)
            dn = bar.complex.differential(n)
            colsB = Bn.columns()
            colsd = dn.columns()
            for j in range(bar.complex.dim(n)):
                v1 = dprev.apply_sparse(colsB[j])
                v2 = Bn1.apply_sparse(colsd[j])
                for k, val in v2.items():
                    s = f.add(v1.get(k, f.zero), val)
                    if f.is_zero(s):
                        v1.pop(k, None)
                    else:
                        v1[k] = s
                assert not v1


# -- duality and the BV operator -----------------------------------------------------

def test_duality_inverse_of_unit_is_delta_one():
    alg = group_algebra(preset("Z3"), GF(3))
    bv = BVStructure(alg, group_frobenius(alg), 3)
    one = bv.hh.unit_class()
    m = bv.duality_inv(one)
    # lambda_L(1) = delta_1: the dual functional of the identity element
    expected = Cochain(alg, "dual", 0, {((), alg.group.identity): alg.field.one})
    assert m.coords == bv.hh_dual.project(expected).coords


def test_duality_matrices_invertible_each_degree():
    alg = group_algebra(preset("Z2"), GF(2))
    bv = BVStructure(alg, group_frobenius(alg), 4)
    for n in range(5):
        dual_classes = bv.hh_dual.classes(n)
        imgs = [bv.duality(x) for x in dual_classes]
        # images form a basis: the coordinate matrix is square invertible
        from hbv.linalg import Matrix, rank
        f = alg.field
        mat = Matrix(f, bv.hh.dim(n), len(imgs))
        for j, img in enumerate(imgs):
            for i, c in enumerate(img.coords):
                mat.data[i][j] = c
        assert mat.nrows == mat.ncols
        assert rank(mat) == mat.nrows


def test_duality_shifts_internal_degree_for_exterior():
    alg = exterior_algebra([3], QQ)
    bv = BVStructure(alg, lie_pairing(alg), 3)
    one = bv.hh.unit_class()
    m = bv.duality_inv(one)
    # the pairing has lower degree -3: the dual image raises total degree by 3
    assert m.representative.total_degree() == one.representative.total_degree() + 3


def test_bv_delta_of_unit_vanishes():
    alg = group_algebra(preset("Z2"), GF(2))
    bv = BVStructure(alg, group_frobenius(alg), 4)
    assert bv.delta(bv.hh.unit_class()).is_zero()


def test_bv_delta_squares_to_zero():
    alg = group_algebra(preset("Z2"), GF(2))
    bv = BVStructure(alg, group_frobenius(alg), 4)
    for n in range(2, 4):
        for x in bv.hh.classes(n):
            assert bv.delta(bv.delta(x)).is_zero()


def test_bv_delta_nonzero_somewhere():
    alg = group_algebra(preset("Z2"), GF(2))
    bv = BVStructure(alg, group_frobenius(alg), 4)
    assert any(not bv.delta(x).is_zero() for n in (1, 2, 3)
               for x in bv.hh.classes(n))


def test_bv_check_f2_z2():
    alg = group_algebra(preset("Z2"), GF(2))
    rep = bv_check(alg, group_frobenius(alg), 4)
    assert rep.all_ok()


def test_bv_check_q_s3_vacuous_positive_degrees():
    alg = group_algebra(preset("S3"), QQ)
    rep = bv_check(alg, group_frobenius(alg), 4)
    assert rep.all_ok()


def test_bv_check_flipped_convention_fails_with_witness():
    alg = exterior_algebra([3], QQ)
    rep = bv_check(alg, lie_pairing(alg), 3, flip_sign_convention=True)
    assert not rep.all_ok()
    failures = rep.failures()
    assert failures and failures[0][1] is not None  # witness carried


def _bv_check_names(dims, N):
    """The check names of ``bv_check`` in the order its hand-nested loops
    wrote them, from the dimensions of HH^0 .. HH^N."""
    W = N - 2
    names = ["delta(1) = 0"]
    names += [f"delta^2 = 0 at degree {n} basis {i}"
              for n in range(2, N) for i in range(dims[n])]
    for nx in range(W + 1):
        for ny in range(W + 1 - nx):
            if nx + ny:
                names += [f"seven-term at ({nx},{ny}) basis ({i},{j})"
                          for i in range(dims[nx]) for j in range(dims[ny])]
    for kind, lo in (("jacobi", 2), ("poisson", 1)):
        for nx in range(W + 1):
            for ny in range(W + 1 - nx):
                for nz in range(W + 1 - nx - ny):
                    if nx + ny + nz >= lo:
                        names += [
                            f"{kind} at ({nx},{ny},{nz}) basis ({i},{j},{k})"
                            for i in range(dims[nx]) for j in range(dims[ny])
                            for k in range(dims[nz])]
    return names


@pytest.mark.parametrize("name, p, total", [("Z2", 2, 145), ("Z3", 3, 457)])
def test_bv_check_names(name, p, total):
    alg = group_algebra(preset(name), GF(p))
    rep = bv_check(alg, group_frobenius(alg), 4)
    dims = [HochschildCohomology(alg, "self", 4).dim(n) for n in range(5)]
    names = [check for check, _, _ in rep.checks]
    assert names == _bv_check_names(dims, 4)
    assert len(names) == total


def test_bv_requires_symmetric_structure():
    from hbv.algebra import dual_left_integrals, frobenius_from_integral, s_square_conjugator
    from hbv.algebra import PreconditionError
    a = sweedler_algebra()
    fs = frobenius_from_integral(a, dual_left_integrals(a)[0], s_square_conjugator(a))
    with pytest.raises(PreconditionError):
        BVStructure(a, fs, 3)


# -- the centralizer oracle -----------------------------------------------------------

def test_oracle_z2_f2():
    assert [d for _, d in centralizer_oracle(preset("Z2"), GF(2), 3)] == [2, 2, 2, 2]


def test_oracle_s3_q():
    assert [d for _, d in centralizer_oracle(preset("S3"), QQ, 3)] == [3, 0, 0, 0]


def test_oracle_degree_zero_counts_classes():
    for name in ("Z4", "S3", "D4", "Q8"):
        g = preset(name)
        oracle = centralizer_oracle(g, QQ, 3)
        assert oracle[0][1] == len(g.conjugacy_classes())


def test_group_cochain_dims_z2_f2_periodic():
    assert group_cochain_dims(preset("Z2"), GF(2), 4) == [1, 1, 1, 1, 1]


def test_oracle_matches_direct_small():
    for name, field in (("Z4", GF(2)), ("S3", GF(3)), ("Z6", QQ)):
        g = preset(name)
        alg = group_algebra(g, field)
        direct = [d for _, d in hochschild_dims(alg, "self", 3, budget=50000)]
        oracle = [d for _, d in centralizer_oracle(g, field, 3, budget=50000)]
        assert direct == oracle


# -- the certified window of the identity suites -------------------------------


def _nested_window(basis, arity, lo, hi):
    """The loops the identity suites nested by hand, kept as the oracle of
    ``window_tuples``: degrees outermost and increasing, then the classes of
    each degree in turn."""
    out = []
    for nx in range(hi + 1):
        if arity == 1:
            if nx >= lo:
                out += [((nx,), (i,), (x,)) for i, x in enumerate(basis[nx])]
            continue
        for ny in range(hi + 1 - nx):
            if arity == 2:
                if nx + ny >= lo:
                    for i, x in enumerate(basis[nx]):
                        for j, y in enumerate(basis[ny]):
                            out.append(((nx, ny), (i, j), (x, y)))
                continue
            for nz in range(hi + 1 - nx - ny):
                if nx + ny + nz < lo:
                    continue
                for i, x in enumerate(basis[nx]):
                    for j, y in enumerate(basis[ny]):
                        for k, z in enumerate(basis[nz]):
                            out.append(((nx, ny, nz), (i, j, k), (x, y, z)))
    return out


# classes per degree 0..4, some degrees empty
WINDOW_SIZES = ([1, 2, 0, 3, 1], [0, 0, 2, 1, 0], [2, 1, 1, 1, 2],
                [1, 0, 0, 0, 0], [0, 0, 0, 0, 0])


def test_window_tuples_matches_nested_loops():
    for sizes in WINDOW_SIZES:
        basis = [[f"{n}.{i}" for i in range(size)] for n, size in enumerate(sizes)]
        for arity in (1, 2, 3):
            for hi in range(5):
                for lo in range(4):
                    assert (list(window_tuples(basis, arity, lo, hi))
                            == _nested_window(basis, arity, lo, hi))


def test_window_label():
    assert window_label((1, 2), (0, 1)) == "at (1,2) basis (0,1)"
    assert window_label((2,), (4,)) == "at (2) basis (4)"
    assert window_label((0, 1, 3)) == "at (0,1,3)"

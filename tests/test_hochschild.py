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
from hbv.linalg import LinalgError, SparseMatrix, rank, sum_terms


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


# sha256 of every row's items, key order included, of the self and dual d^n,
# B_n and the cyclic d_tot^n at N = 3 (``_bar_rows_digest``), each entry
# read as a field element, so 1 and Fraction(1) hash alike.  The rows see
# internal degrees only through their parities, so the exterior models on
# degrees (1, 3) and (3, 5) share a digest.
BAR_ROW_DIGESTS = [
    ("Z2", "F2", "052e96e987e665c424042f3f9c0277f06d2f7eff23f974c2637d397fa222a4d1"),
    ("Z3", "F3", "5235ccfb523464c38b194b86a14b6666ca3d71b50cce8218d0ae73500b29d9e6"),
    ("S3", "Q", "3ff847956645f8d075491977d66da9b62491f8818c85aa58b15df2e97cea47da"),
    ("S3", "F2", "cca6a4e7f3a9dbc684cda15108638cb4efc594486d0f7679e087e3baa62d8b9c"),
    ("Z4", "F3", "bd49df6a92cbc4f9be1eede64ef88326d04133b046072613e1340da98803be21"),
    ("Q8", "F2", "82fb99e972be54438889789af28015236e7c6536b4353d6ec6c3ff22c60f26a6"),
    ((3,), "Q", "7b619afba7ab96f77668843b59050f643f2aa6561591dc58c614170673a2a2c3"),
    ((3, 5), "Q", "45f4752f9e6f0e5c24fe82cc9841512d68a0844da98771ef78145f136f1af89e"),
    ((1, 3), "Q", "45f4752f9e6f0e5c24fe82cc9841512d68a0844da98771ef78145f136f1af89e"),
    ((3, 5, 7), "Q", "943acc66ac547e00b30a106785ca8df12a303a27d97a1d71152a240576f595a5"),
    ((3, 5), "F5", "23abbefbf309782ab3e90b04876e9f0f5ed830099a75ad59db1884ecbf956c96"),
]


def _bar_rows_digest(alg, N):
    import hashlib
    from hbv.cyclic import CyclicComplex

    h = hashlib.sha256()
    of_int = alg.field.of_int

    def feed(tag, n, sm):
        # each entry as the field element it stands for, so an operator
        # stored as ints over Q pins the digest its Fractions would
        h.update(repr((tag, n, [[(k, of_int(v)) for k, v in r.items()]
                                for r in sm.rows])).encode())

    self_bar = BarComplex(alg, "self", N)
    tot = CyclicComplex(alg, N)
    for n in range(N + 1):
        feed("self", n, self_bar.complex.differential(n))
        feed("dual", n, tot.bar.complex.differential(n))
        feed("B", n, connes_b_dual_matrix(tot.bar, n))
        feed("tot", n, tot.complex.differential(n))
    return h.hexdigest()


@pytest.mark.parametrize("source, field, digest", BAR_ROW_DIGESTS)
def test_bar_operator_rows_pinned(source, field, digest):
    # every entry and the key order of each row, which the traced nnz
    # fingerprints of the benchmark do not see
    f = QQ if field == "Q" else GF(int(field[1:]))
    alg = (group_algebra(preset(source), f) if isinstance(source, str)
           else exterior_algebra(list(source), f))
    assert _bar_rows_digest(alg, 3) == digest


def _q_operators(alg, N):
    """The self and dual d^n, B_n and d_tot^n of ``alg`` up to N, by name,
    with the self and dual bar complexes and the total complex."""
    from hbv.cyclic import CyclicComplex

    self_bar = BarComplex(alg, "self", N)
    tot = CyclicComplex(alg, N)
    ops = {}
    for n in range(N + 1):
        ops["self", n] = self_bar.complex.differential(n)
        ops["dual", n] = tot.bar.complex.differential(n)
        ops["B", n] = connes_b_dual_matrix(tot.bar, n)
        ops["tot", n] = tot.complex.differential(n)
    return ops, [self_bar.complex, tot.bar.complex, tot.complex]


Q_ENTRY_CASES = {
    "S3": lambda: group_algebra(preset("S3"), QQ),
    "ext35": lambda: exterior_algebra([3, 5], QQ),
}


@pytest.mark.parametrize("name", sorted(Q_ENTRY_CASES))
def test_q_operators_store_ints(name):
    # over Q an integral operator is stored as exact ints, which the d o d
    # check and the rank read without a Fraction
    ops, _ = _q_operators(Q_ENTRY_CASES[name](), 3)
    for key, sm in ops.items():
        assert sm.field is QQ
        assert all(type(v) is int for row in sm.rows for v in row.values()), key
    assert sum(sm.nnz() for sm in ops.values()) > 0


def test_group_cochain_differentials_store_ints(monkeypatch):
    import hbv.hochschild as hochschild

    seen = []
    real = hochschild.Complex

    def complex_spy(field, dims, diffs):
        seen.extend(diffs.values())
        return real(field, dims, diffs)

    monkeypatch.setattr(hochschild, "Complex", complex_spy)
    assert group_cochain_dims(preset("S3"), QQ, 3) == [1, 0, 0, 0]
    assert seen and sum(d.nnz() for d in seen) > 0
    assert all(type(v) is int for d in seen for row in d.rows
               for v in row.values())


def _truncated_polynomial(k, c):
    """Q[x]/(x^k - c) on the basis 1, x, .., x^{k-1}."""
    from hbv.algebra import FDAlgebra

    one = QQ.one
    mult = {(i, j): {i + j: one} if i + j < k else {i + j - k: c}
            for i in range(k) for j in range(k)}
    return FDAlgebra(QQ, [f"x^{i}" for i in range(k)], [0] * k, mult,
                     [one] + [QQ.zero] * (k - 1))


@pytest.mark.parametrize("k, c", [(2, Fraction(1, 4)), (2, Fraction(1, 2)),
                                  (3, Fraction(1, 8))])
@pytest.mark.parametrize("coeff", ["self", "dual"])
def test_non_integral_structure_constants(k, c, coeff):
    # x^k = c: an entry is a Fraction exactly where it is not integral.  For
    # k = 2 the two outer faces of d^1 meet and sum c + c, so x^2 = 1/2
    # stores the int 1; for k = 3 the differentials are tall, so the rank
    # reads their columns.  x^k - c is separable: A is semisimple.
    alg = _truncated_polynomial(k, c)
    bar = BarComplex(alg, coeff, 5)
    entries = [v for d in bar.complex.diffs.values() for row in d.rows
               for v in row.values()]
    assert all(type(v) is (int if v.denominator == 1 else Fraction)
               for v in entries)
    assert any(type(v) is Fraction for v in entries) == (c != Fraction(1, 2))
    if k == 2:
        # the row (x, x; w) holds c + c at (x; v), with (w, v) = (1, x) on
        # self and (x, 1) on dual
        w, v = (0, 1) if coeff == "self" else (1, 0)
        d1 = bar.complex.differential(1)
        assert d1.rows[bar.encode((1, 1), w)] == {bar.encode((1,), v): 2 * c}
    assert hochschild_dims(alg, coeff, 5) == [(n, k if n == 0 else 0)
                                              for n in range(6)]


def test_integral_sum_is_stored_as_int():
    from hbv.linalg import operator_ring

    ring = operator_ring(QQ)
    got = sum_terms(ring, [(0, Fraction(1, 4)), (1, 2), (0, Fraction(3, 4)),
                           (2, Fraction(1, 3)), (1, -2)])
    assert got == {0: 1, 2: Fraction(1, 3)}
    assert [type(v) for v in got.values()] == [int, Fraction]
    assert operator_ring(GF(5)) is GF(5)


@pytest.mark.parametrize("name", sorted(Q_ENTRY_CASES))
def test_q_engine_exits_are_fractions(name):
    # what leaves the engines over Q stays a Fraction, whatever the
    # operators store: kernel vectors, representatives, projected
    # coordinates and applied differentials.  Degrees 0..2: degree 3 adds
    # seconds on S3 and no new kind of exit.
    from hbv.linalg import sparse_kernel_basis

    def fractions(vec):
        return all(type(v) is Fraction for v in vec)

    ops, complexes = _q_operators(Q_ENTRY_CASES[name](), 3)
    for (name, n), sm in ops.items():
        for vec in sparse_kernel_basis(sm) if n <= 2 else ():
            assert fractions(vec.values()), (name, n)
    applied = reps = 0
    for cx in complexes:
        for n in range(cx.lo, 3):
            for j in range(0, cx.dim(n), 7):
                image = cx.apply(n, {j: QQ.one})
                applied += len(image)
                assert fractions(image.values())
            data = cx.cohomology_at(n)
            for i, rep in enumerate(data.representatives):
                reps += 1
                assert fractions(rep.values())
                coords = data.project(rep)
                assert fractions(coords)
                assert coords == [QQ.one if k == i else QQ.zero
                                  for k in range(data.dim)]
                if n > cx.lo and cx.dim(n - 1):
                    moved = sum_terms(QQ, chain(rep.items(),
                                                cx.apply(n - 1, {0: QQ.one}).items()))
                    assert data.project(moved) == coords
    assert applied and reps


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


@pytest.mark.parametrize("group, p, N", [
    ("Z2", 2, 7), ("Z3", 3, 7), ("Z4", 2, 6), ("Z6", 2, 5),
])
def test_cup_image_dims_match_group_ring(group, p, N):
    """A basis-free oracle for the cup product on HH*(k[Z_n]), p | n.

    HH*(k[Z_n]) = k[Z_n] (x) H*(Z_n; k), and H*(Z_n; k) has one class u_a
    in each degree a, with u_a u_b = 0 exactly when a and b are odd and
    u_1^2 = 0 (p odd, or p = 2 with 4 | n).  So the dimension
    I(a, b) of span{x u y : x in HH^a, y in HH^b} is 0 then, and
    dim HH^{a+b} = n otherwise.  A projection error (a cup that is no
    cocycle) fails the test.  The table sees spans only: a cup that doubles
    the products of two odd-degree cochains fails it, but one that swaps its
    factors' tuples (t2 + t1) passes, since the cup is graded-commutative in
    cohomology."""
    n = preset(group).order
    f = GF(p)
    hh = HochschildCohomology(group_algebra(preset(group), f), "self", N,
                              budget=100000)
    for a in range(1, N - 1):
        for b in range(a, N - 1 - a):
            try:
                images = [hh.project(cup(x.representative, y.representative)).coords
                          for x in hh.classes(a) for y in hh.classes(b)]
            except LinalgError as exc:
                pytest.fail(f"I({a}, {b}): {exc}")
            vanishes = a % 2 and b % 2 and (p % 2 or n % 4 == 0)
            assert hh.dim(a + b) == n
            images = SparseMatrix.from_dense(f, len(images), n, images)
            assert rank(images) == (0 if vanishes else n), (a, b)


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
    # the cup product lives on self coefficients: a dual factor on either
    # side, or on both, is refused
    alg = group_algebra(preset("Z2"), GF(2))
    d = Cochain(alg, "dual", 0, {((), 0): GF(2).one})
    s = unit_cochain(alg)
    for f, g in [(d, d), (s, d), (d, s)]:
        with pytest.raises(CoefficientError):
            cup(f, g)
    assert cup(s, s).table == s.table


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
        f = alg.field
        mat = SparseMatrix.from_dense(f, len(imgs), bv.hh.dim(n),
                                      [img.coords for img in imgs]).transpose()
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


# sha256 of every "name<TAB>ok" line of the report, as computed before
# ``bv_check`` kept its results
BV_CHECK_OUTCOME_DIGESTS = [
    (lambda: group_algebra(preset("Z4"), GF(2)), group_frobenius, 4, 1049,
     "8b18c6272ab899721fda6344b2760d1a13a9cf2bd4f14b9a66214ce6a0299fd8"),
    (lambda: exterior_algebra([3, 5], QQ), lie_pairing, 3, 461,
     "e3aca36d430226a3d6b0316602fc6f54f5ee8e835ae9351a33f35f911d8ee3fa"),
]


@pytest.mark.parametrize("make, pairing, N, total, digest",
                         BV_CHECK_OUTCOME_DIGESTS, ids=["F2[Z4]", "ext35/Q"])
def test_bv_check_computes_each_operation_once(monkeypatch, make, pairing, N,
                                               total, digest):
    import hashlib
    import hbv.hochschild as hochschild

    counts = {}

    def counted(op):
        inner = getattr(hochschild, op)

        def run(*cochains):
            # keyed as bv_check keys its results: each argument's degree
            # and table, key order included
            key = (op,) + tuple((c.degree, tuple(c.table.items()))
                                for c in cochains)
            counts[key] = counts.get(key, 0) + 1
            return inner(*cochains)
        monkeypatch.setattr(hochschild, op, run)

    for op in ("cup", "gerstenhaber_bracket", "connes_b_dual"):
        counted(op)
    alg = make()
    rep = bv_check(alg, pairing(alg), N)
    assert {op for op, *_ in counts} == {"cup", "gerstenhaber_bracket",
                                         "connes_b_dual"}
    assert [key[0] for key, n in counts.items() if n > 1] == []
    text = "".join(f"{name}\t{ok}\n" for name, ok, _ in rep.checks)
    assert len(rep.checks) == total
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _scanned_internal_degree(c):
    """``Cochain.internal_degree`` by the full scan of every entry."""
    alg = c.alg
    found = {(-1 if c.coeff == "dual" else 1) * alg.degrees[v]
             - sum(alg.degrees[i] for i in tup) for tup, v in c.table}
    if len(found) > 1:
        raise ValueError("cochain is not homogeneous in internal degree")
    return found.pop() if found else 0


@pytest.mark.parametrize("make", [
    lambda: group_algebra(preset("Z3"), GF(3)),
    lambda: group_algebra(preset("S3"), QQ),
    lambda: exterior_algebra([3, 5], QQ),
], ids=["F3[Z3]", "Q[S3]", "ext35/Q"])
def test_internal_degree_matches_full_scan(make):
    alg = make()
    cochains = []
    for coeff in ("self", "dual"):
        hh = HochschildCohomology(alg, coeff, 3)
        for n in range(4):
            cochains += [x.representative for x in hh.classes(n)]
    selfs = [c for c in cochains if c.coeff == "self"]
    cochains += [cup(x, y) for x in selfs for y in selfs
                 if x.degree + y.degree <= 3]
    cochains += [gerstenhaber_bracket(x, y) for x in selfs for y in selfs
                 if x.degree + y.degree <= 4]
    assert len(cochains) > 20
    for c in cochains:
        assert c.internal_degree() == _scanned_internal_degree(c)
    if alg.is_graded():
        # one entry of internal degree -|a|, one of degree 0
        a = next(i for i in range(alg.dim) if alg.degrees[i])
        mixed = Cochain(alg, "self", 1, {((a,), alg.unit_index): QQ.one,
                                         ((a,), a): QQ.one})
        for scan in (Cochain.internal_degree, _scanned_internal_degree):
            with pytest.raises(ValueError, match="not homogeneous"):
                scan(mixed)


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


def test_group_cochains_refuse_a_negative_degree():
    # degrees 0..2 are valid truncations, down to H^0 alone
    g = preset("Z2")
    for n in range(3):
        assert group_cochain_dims(g, GF(2), n) == [1] * (n + 1)
        assert [d for _, d in centralizer_oracle(g, GF(2), n)] == [2] * (n + 1)
    for n in (-1, -2):
        for compute in (group_cochain_dims, centralizer_oracle):
            with pytest.raises(ValueError, match=f"degree {n} is negative"):
                compute(g, GF(2), n)


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

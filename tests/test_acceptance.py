"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every assertion is exact.  The large oracle-equivalence runs raise the
cochain-dimension budget explicitly; the default cap stays at 20000 for
ordinary use.
"""

import random
import time

from fractions import Fraction

from hbv.fields import QQ, GF
from hbv.groups import preset
from hbv.algebra import (
    dual_left_integrals,
    exterior_algebra,
    find_integrals,
    frobenius_from_integral,
    group_algebra,
    group_frobenius,
    lambda_L,
    lie_pairing,
    s_square_conjugator,
    sweedler_algebra,

)
from hbv.cobordism import (
    Cobordism,
    FrobeniusTQFT,
    connected_cobordism,
    det_compose,
    det_line,
    identity_cobordism,
    pants_decomposition,
    preset_cobordism,
)
from hbv.cyclic import StringBracket, connes_maps
from hbv.hochschild import bv_check, centralizer_oracle, hochschild_dims
from hbv.linalg import SparseMatrix, rank

from dense_oracle import determinant

BIG_BUDGET = 200_000


def _report(name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}  ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert ok, name
    assert elapsed < limit, f"{name} exceeded its runtime bound"


def test_criterion_1_semisimple_vanishing():
    """HH^n(F[G]; F[G]-dual) = 0 for 1 <= n <= 4 over Q, dim HH^0 = #classes."""
    for name in ("Z2", "Z3", "S3"):
        t0 = time.time()
        g = preset(name)
        alg = group_algebra(g, QQ)
        dims = [d for _, d in hochschild_dims(alg, "dual", 4, BIG_BUDGET)]
        ok = (dims[0] == len(g.conjugacy_classes())
              and all(d == 0 for d in dims[1:5]))
        _report(f"criterion 1: semisimple vanishing Q[{name}]",
                ok, time.time() - t0, 10)


def test_criterion_2_bv_suite():
    """bv_check passes for F2[Z2] (N=4), F3[Z3] (N=4), F3[S3] (N=3),
    and the exterior model on one degree-3 generator over Q (N=3)."""
    t0 = time.time()
    cases = [
        (group_algebra(preset("Z2"), GF(2)), None, 4, "F2[Z2] N=4"),
        (group_algebra(preset("Z3"), GF(3)), None, 4, "F3[Z3] N=4"),
        (group_algebra(preset("S3"), GF(3)), None, 3, "F3[S3] N=3"),
        (exterior_algebra([3], QQ), "lie", 3, "Lambda(x3)/Q N=3"),
    ]
    ok = True
    for alg, kind, N, label in cases:
        frob = lie_pairing(alg) if kind == "lie" else group_frobenius(alg)
        rep = bv_check(alg, frob, N)
        if not rep.all_ok():
            ok = False
            print(f"  bv_check failures for {label}: {rep.failures()[:3]}")
    _report("criterion 2: BV suite (delta(1)=0, delta^2=0, seven-term, "
            "jacobi, poisson)", ok, time.time() - t0, 120)


def test_criterion_3_oracle_equivalence():
    """dim HH^n(F[G];F[G]) = sum over classes of dim H^n(centralizer) for all
    presets of order <= 8, fields F2, F3, Q, degrees n <= 4."""
    t0 = time.time()
    ok = True
    for name in ("Z2", "Z3", "Z4", "Z6", "S3", "D4", "Q8"):
        g = preset(name)
        for field in (GF(2), GF(3), QQ):
            alg = group_algebra(g, field)
            direct = [d for _, d in hochschild_dims(alg, "self", 4, BIG_BUDGET)]
            oracle = [d for _, d in centralizer_oracle(g, field, 4, BIG_BUDGET)]
            if direct != oracle:
                ok = False
                print(f"  mismatch {name}/{field}: {direct} vs {oracle}")
    _report("criterion 3: oracle equivalence (7 presets x 3 fields, n <= 4)",
            ok, time.time() - t0, 300)


def test_criterion_4_frobenius_hopf_suite():
    """Integrals are the full group sums; lambda_L gives a symmetric form;
    exterior models are symmetric Frobenius of lower degree -d; the loaded
    non-unimodular Hopf algebra is reported non-symmetric."""
    t0 = time.time()
    ok = True
    for name in ("Z2", "Z3", "Z4", "Z6", "S3", "D4", "Q8"):
        g = preset(name)
        for field in (QQ, GF(2), GF(3)):
            alg = group_algebra(g, field)
            left, right, unimodular = find_integrals(alg)
            # the integral space is spanned by the sum of all group elements
            full_sum = (len(left) == 1 and len(right) == 1 and unimodular
                        and len({field.fmt(c) for c in left[0]}) == 1
                        and len({field.fmt(c) for c in right[0]}) == 1
                        and not field.is_zero(left[0][0]))
            lam = lambda_L(alg)  # bimodule identity verified inside
            fs = group_frobenius(alg)
            if not (full_sum and fs.nondegenerate and fs.frobenius_identity
                    and fs.symmetric and rank(lam) == alg.dim):
                ok = False
                print(f"  group suite fails for {name}/{field}")
    for degrees in ([3], [1], [3, 5], [1, 3, 5]):
        alg = exterior_algebra(degrees, QQ)
        fs = lie_pairing(alg)
        if not (fs.nondegenerate and fs.frobenius_identity and fs.symmetric
                and fs.degree == -alg.top_degree()):
            ok = False
            print(f"  exterior suite fails for degrees {degrees}")
    sw = sweedler_algebra()
    _, _, unimodular = find_integrals(sw)
    fs = frobenius_from_integral(
        sw, dual_left_integrals(sw)[0], s_square_conjugator(sw)
    )
    if unimodular or fs.symmetric or not fs.nondegenerate:
        ok = False
        print("  non-unimodular example not detected")
    _report("criterion 4: Frobenius/Hopf suite (integrals, lambda_L, exterior "
            "models, non-unimodular example)", ok, time.time() - t0, 60)


def test_criterion_5_connes_sequence():
    """Exactness rank identities at certified degrees and the identity
    I o connecting = rotation, for F2[Z2] and F3[Z3] at N = 4."""
    t0 = time.time()
    ok = True
    for name, field in (("Z2", GF(2)), ("Z3", GF(3))):
        alg = group_algebra(preset(name), field)
        res = connes_maps(alg, 4)
        if not res["report"].all_ok():
            ok = False
            print(f"  sequence failures {name}: {res['report'].failures()[:3]}")
    _report("criterion 5: Connes sequence exactness + I o del = rotation",
            ok, time.time() - t0, 60)


def test_criterion_6_string_bracket():
    """Antisymmetry, Jacobi, and the Lie-morphism relation for the string
    bracket on all certified basis pairs/triples of F2[Z2] at N = 4."""
    t0 = time.time()
    alg = group_algebra(preset("Z2"), GF(2))
    sb = StringBracket(alg, group_frobenius(alg), 4)
    rep1 = sb.antisymmetry_jacobi_check()
    rep2 = sb.morphism_check()
    ok = rep1.all_ok() and rep2.all_ok()
    if not ok:
        print("  failures:", (rep1.failures() + rep2.failures())[:3])
    _report("criterion 6: string bracket antisymmetry/jacobi/morphism",
            ok, time.time() - t0, 60)


def test_criterion_7_tqft_prop_suite():
    """200 randomized instances of the prop axioms, chi additivity,
    functoriality and decomposition invariance; genus-g scaling on Q[Z3];
    the determinant exact-sequence identity."""
    t0 = time.time()
    ok = True
    rng = random.Random(2718)

    def random_cob(p, q, maxg=2):
        k = rng.randint(1, max(1, min(p + q, 3)))
        ins = list(range(1, p + 1))
        outs = list(range(1, q + 1))
        rng.shuffle(ins)
        rng.shuffle(outs)
        comps = [[rng.randint(0, maxg), [], []] for _ in range(k)]
        for i, port in enumerate(ins):
            comps[i % k][1].append(port)
        for i, port in enumerate(outs):
            comps[i % k][2].append(port)
        comps = [c for c in comps if c[1] or c[2]]
        return Cobordism(p, q, comps) if comps else identity_cobordism(0)

    alg = group_algebra(preset("Z3"), QQ)
    T = FrobeniusTQFT(alg, group_frobenius(alg))

    for i in range(200):
        p, q, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        f = random_cob(p, q)
        g = random_cob(q, r)
        h = random_cob(r, rng.randint(1, 3))
        # prop axioms on normal forms
        if f.compose(g).compose(h) != f.compose(g.compose(h)):
            ok = False
        if identity_cobordism(p).compose(f) != f or f.compose(identity_cobordism(q)) != f:
            ok = False
        f2 = random_cob(rng.randint(1, 2), rng.randint(1, 2), maxg=1)
        g2 = random_cob(f2.q, rng.randint(1, 2), maxg=1)
        if (f.tensor(f2).compose(g.tensor(g2))
                != f.compose(g).tensor(f2.compose(g2))):
            ok = False
        # chi additivity
        if (f.compose(g).euler_characteristic()
                != f.euler_characteristic() + g.euler_characteristic()):
            ok = False
        if i % 4 == 0:
            # functoriality of the evaluation
            small_f = random_cob(rng.randint(1, 2), rng.randint(1, 2), maxg=1)
            small_g = random_cob(small_f.q, rng.randint(1, 2), maxg=1)
            lhs = T.evaluate(small_f.compose(small_g))
            rhs = T.evaluate(small_f).compose(T.evaluate(small_g))
            if lhs != rhs:
                ok = False
        if i % 10 == 0:
            # decomposition invariance
            cb = random_cob(rng.randint(1, 3), rng.randint(1, 3))
            ev = None
            for layer in pants_decomposition(cb, rng):
                piece = T.evaluate(layer)
                ev = piece if ev is None else ev.compose(piece)
            if ev != T.evaluate(cb):
                ok = False

    for genus in range(4):
        evaluated = T.evaluate(connected_cobordism(genus, 1, 1)).matrix
        if evaluated != SparseMatrix.from_dense(QQ, 3, 3, [
                [Fraction(3) ** genus if i == j else QQ.zero for j in range(3)]
                for i in range(3)]):
            ok = False

    # determinant lines: exact-sequence identity det(a)det(c) = det(b)det(d)
    def q(rows):
        return SparseMatrix.from_dense(
            QQ, len(rows), len(rows[0]), [[Fraction(v) for v in r] for r in rows])

    a = q([[2]])
    b = q([[2, 0], [0, 3]])
    c = q([[3, 0], [0, 1]])
    d = q([[1]])
    if determinant(a) * determinant(c) != determinant(b) * determinant(d):
        ok = False
    if determinant(b) != Fraction(6):
        ok = False
    x = det_line(preset_cobordism("pants"))
    y = det_line(preset_cobordism("copants"))
    if det_compose(y, x).coeff != 1 or det_compose(y, x).rank != 2:
        ok = False

    _report("criterion 7: TQFT/prop suite (200 randomized instances, "
            "genus scaling, determinant lines)", ok, time.time() - t0, 60)

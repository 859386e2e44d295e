from fractions import Fraction

from hbv.algebra import exterior_algebra, group_algebra, group_frobenius, lie_pairing
from hbv.cyclic import StringBracket, connes_maps
from hbv.fields import QQ, GF
from hbv.groups import preset
from hbv.hochschild import bv_check
from hbv.reports import CheckReport, checks_from


def test_check_report_counts_failures_and_flattening():
    rep = CheckReport()
    assert rep.all_ok() and rep.counts() == (0, 0) and checks_from(rep) == []
    rep.record("a", True)
    rep.record("b", 0, (1, Fraction(1, 2), [Fraction(3)]))
    rep.record("c", 1, ("kept only on a failure",))
    rep.record("d", False)
    assert not rep.all_ok()
    assert rep.counts() == (2, 4)
    assert rep.failures() == [("b", (1, Fraction(1, 2), [Fraction(3)])), ("d", None)]
    # verdicts are stored as bools; witnesses render as canonical strings
    assert checks_from(rep) == [
        {"name": "a", "ok": True},
        {"name": "b", "ok": False, "witness": [1, "1/2", ["3"]]},
        {"name": "c", "ok": True},
        {"name": "d", "ok": False},
    ]
    assert repr(rep) == "CheckReport(2/4 checks pass)"


def test_identity_suites_report_through_check_report():
    alg = group_algebra(preset("Z2"), GF(2))
    frob = group_frobenius(alg)
    sb = StringBracket(alg, frob, 4)
    for rep in (bv_check(alg, frob, 4), connes_maps(alg, 4)["report"],
                sb.morphism_check(), sb.antisymmetry_jacobi_check()):
        assert isinstance(rep, CheckReport)
        good, total = rep.counts()
        assert total > 0 and good == total
        assert [c["name"] for c in checks_from(rep)] == [n for n, _, _ in rep.checks]
    ext = exterior_algebra([3], QQ)
    flipped = bv_check(ext, lie_pairing(ext), 3, flip_sign_convention=True)
    failed = [c for c in checks_from(flipped) if not c["ok"]]
    assert failed and all("witness" in c for c in failed)

"""Batch driver: load groups, algebras and cobordisms, run the computations
and verification suites, emit deterministic JSON reports.

Exit status: 0 when every check in the report passes, 1 when a verification
failed (the report names it), 2 on input, validation or budget errors, 3 when
an internal invariant broke (a differential with d o d != 0).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .algebra import (
    dual_left_integrals,
    exterior_algebra,
    find_integrals,
    frobenius_from_integral,
    group_algebra,
    group_frobenius,
    lie_pairing,
    load_algebra,
    s_square_conjugator,
)
from .cobordism import (
    Cobordism,
    FrobeniusTQFT,
    det_compose,
    det_line,
    preset_cobordism,
)
from .cyclic import StringBracket, connes_maps
from .fields import field_by_name
from .groups import FiniteGroup, preset, PRESET_NAMES
from .hochschild import (
    DEFAULT_BUDGET,
    BudgetError,
    bv_check,
    centralizer_oracle,
    check_budget,
    hochschild_dims,
)
from .linalg import SquareZeroError
from .reports import CheckReport, build_report, emit


class InputError(ValueError):
    pass


def _field(args):
    return field_by_name(args.field or "Q")


def _algebra_from_args(args):
    """Resolve --group/--exterior/--algebra into (algebra, source-config)."""
    chosen = [name for name in ("group", "exterior", "algebra") if getattr(args, name)]
    if len(chosen) != 1:
        raise InputError("exactly one of --group, --exterior, --algebra is required")
    src = chosen[0]
    if src == "group":
        # a preset name, else an existing file: anything else is answered
        # by the preset error, which lists the presets
        g = (FiniteGroup.load(args.group)
             if args.group not in PRESET_NAMES and os.path.exists(args.group)
             else preset(args.group))
        alg = group_algebra(g, _field(args))
        cfg = {"group": args.group, "field": _field(args).name}
    elif src == "exterior":
        try:
            degrees = [int(x) for x in args.exterior.split(",") if x.strip()]
        except ValueError:
            raise InputError(f"--exterior {args.exterior!r}: expected "
                             "comma-separated odd positive degrees") from None
        alg = exterior_algebra(degrees, _field(args))
        cfg = {"exterior": degrees, "field": _field(args).name}
    else:
        alg = load_algebra(args.algebra)
        cfg = {"algebra": args.algebra, "field": alg.field.name}
        if args.field and field_by_name(args.field) != alg.field:
            raise InputError(
                f"--field {args.field} conflicts with the field in {args.algebra}"
            )
    return alg, cfg


def _frobenius_for(alg):
    """The Frobenius structure used by BV / string-bracket / TQFT paths."""
    if alg.group is not None:
        return group_frobenius(alg)
    if alg.is_graded():
        return lie_pairing(alg)
    # ungraded file algebra: integral route
    if alg.hopf is None:
        raise InputError("algebra file carries no Hopf data to build a pairing from")
    lams = dual_left_integrals(alg)
    if not lams:
        raise InputError("no left integral of the dual Hopf algebra found")
    u = s_square_conjugator(alg)
    if u is None:
        raise InputError("no invertible conjugator for the antipode square found")
    return frobenius_from_integral(alg, lams[0], u)


def budget_from_env() -> int:
    raw = os.environ.get("HBV_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise BudgetError(f"HBV_BUDGET must be an integer, got {raw!r}") from None
    if budget < 1:
        raise BudgetError(f"HBV_BUDGET={raw}: the budget must be at least 1")
    return budget


def _budget(args):
    """--budget, else HBV_BUDGET, else the default; a cap below 1 is refused."""
    if args.budget is None:
        return budget_from_env()
    if args.budget < 1:
        raise BudgetError(f"--budget {args.budget}: the budget must be at least 1")
    return args.budget


def _require_bar_degree(args):
    """Refuse a ``--max-degree`` below 3 for a command that builds a bar
    complex, before anything is computed."""
    if args.max_degree < 3:
        raise InputError(f"--max-degree {args.max_degree}: the bar complex "
                         "needs a truncation degree of at least 3")


# -- subcommands --------------------------------------------------------------
# Each returns (config, results, checks), checks a CheckReport or None; main
# turns them into the report and the exit status.


def cmd_hochschild(args):
    _require_bar_degree(args)
    alg, cfg = _algebra_from_args(args)
    cfg.update(coeff=args.coeff, max_degree=args.max_degree)
    dims = hochschild_dims(alg, args.coeff, args.max_degree, args.budget)
    results = {"dims": [[n, d] for n, d in dims],
               "certified_degree": args.max_degree - 2}
    return cfg, results, None


def cmd_oracle(args):
    if args.compare:
        _require_bar_degree(args)
    alg, cfg = _algebra_from_args(args)
    if alg.group is None:
        raise InputError("the centralizer oracle needs a group")
    cfg.update(max_degree=args.max_degree)
    oracle = centralizer_oracle(alg.group, alg.field, args.max_degree, args.budget)
    results = {"oracle_dims": [[n, d] for n, d in oracle]}
    checks = None
    if args.compare:
        direct = hochschild_dims(alg, "self", args.max_degree, args.budget)
        results["hochschild_dims"] = [[n, d] for n, d in direct]
        checks = CheckReport()
        checks.record("oracle equivalence (dims of HH vs centralizer sum)",
                      [d for _, d in direct] == [d for _, d in oracle])
    return cfg, results, checks


def cmd_bv_check(args):
    _require_bar_degree(args)
    alg, cfg = _algebra_from_args(args)
    frob = _frobenius_for(alg)
    flip = args.bv_sign_convention == "flipped"
    cfg.update(max_degree=args.max_degree, bv_sign_convention=args.bv_sign_convention)
    rep = bv_check(alg, frob, args.max_degree, args.budget, flip)
    good, total = rep.counts()
    return cfg, {"checks_passed": good, "checks_total": total}, rep


def cmd_cyclic(args):
    _require_bar_degree(args)
    alg, cfg = _algebra_from_args(args)
    cfg.update(max_degree=args.max_degree)
    res = connes_maps(alg, args.max_degree, args.budget)
    hc = res["hc"]
    results = {"dims": [[n, hc.dim(n)] for n in range(args.max_degree + 1)],
               "certified_degree": hc.certified}
    return cfg, results, res["report"]


def cmd_string_bracket(args):
    _require_bar_degree(args)
    alg, cfg = _algebra_from_args(args)
    frob = _frobenius_for(alg)
    cfg.update(max_degree=args.max_degree)
    sb = StringBracket(alg, frob, args.max_degree, args.budget)
    checks = sb.antisymmetry_jacobi_check()
    checks.checks += sb.morphism_check().checks
    return cfg, {"certified_degree": sb.certified()}, checks


def cmd_frobenius(args):
    alg, cfg = _algebra_from_args(args)
    frob = _frobenius_for(alg)
    checks = CheckReport()
    checks.record("nondegenerate", frob.nondegenerate)
    checks.record("frobenius identity", frob.frobenius_identity)
    results = {
        "symmetric": frob.symmetric,
        "degree": frob.degree,
        "pairing": [[alg.field.fmt(v) for v in row] for row in frob.pairing.data],
        "failures": [list(fx) for fx in frob.failures],
    }
    return cfg, results, checks


def cmd_integrals(args):
    alg, cfg = _algebra_from_args(args)
    left, right, unimodular = find_integrals(alg)
    f = alg.field
    results = {
        "left": [[f.fmt(c) for c in v] for v in left],
        "right": [[f.fmt(c) for c in v] for v in right],
        "unimodular": unimodular,
        "basis": alg.names,
    }
    return cfg, results, None


def cmd_tqft(args):
    alg, cfg = _algebra_from_args(args)
    frob = _frobenius_for(alg)
    if args.cobordism:
        cob = Cobordism.load(args.cobordism)
        cfg["cobordism"] = args.cobordism
    elif args.preset:
        cob = preset_cobordism(args.preset)
        cfg["cobordism_preset"] = args.preset
    else:
        raise InputError("tqft eval needs --cobordism or --preset")
    width = max(cob.p, cob.q)
    check_budget(f"tensor power A^(x){width}", alg.dim ** width, args.budget)
    T = FrobeniusTQFT(alg, frob)
    if args.strict_positive_boundary and not cob.positive_boundary():
        raise InputError(
            "strict positive-boundary mode refuses closed-off components")
    tm = T.evaluate(cob)
    f = alg.field
    results = {
        "in_circles": tm.p,
        "out_circles": tm.q,
        "matrix": [[f.fmt(v) for v in row] for row in tm.matrix.data],
        "euler_characteristic": cob.euler_characteristic(),
    }
    return cfg, results, None


def cmd_detline(args):
    cob = Cobordism.load(args.cobordism)
    line = det_line(cob, power=args.power)
    cfg = {"cobordism": args.cobordism, "power": args.power}
    results = {"rank": line.rank, "coeff": line.coeff,
               "euler_characteristic": cob.euler_characteristic()}
    if args.compose:
        other = det_line(Cobordism.load(args.compose), power=args.power)
        glued = det_compose(line, other)
        cfg["compose"] = args.compose
        results["composed"] = {"rank": glued.rank, "coeff": glued.coeff}
    return cfg, results, None


# -- parser -------------------------------------------------------------------


def _add_algebra_opts(p):
    p.add_argument("--group", help=f"group preset ({', '.join(PRESET_NAMES)}) or JSON file")
    p.add_argument("--exterior", help="comma-separated odd generator degrees")
    p.add_argument("--algebra", help="algebra JSON file")
    p.add_argument("--field", help="Q or Fp (e.g. F2)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hbv",
        description="Exact computations: Hochschild BV structure, cyclic "
                    "string brackets, Frobenius/Hopf verification, 2d TQFT.",
    )
    ap.add_argument("--version", action="version", version=f"hbv {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, bar=True):
        """The options every algebra command takes, and for a command that
        builds a bar complex its truncation degree and cochain cap."""
        _add_algebra_opts(p)
        if bar:
            p.add_argument("--max-degree", type=int, default=4,
                           help="truncation degree N (certified to N-2)")
            p.add_argument(
                "--budget", type=int, default=None,
                help="cochain dimension cap (default 20000 or HBV_BUDGET)")
        p.add_argument("-o", "--output", help="write the report to this path")

    p = sub.add_parser("hochschild", help="Hochschild cohomology dimension table")
    common(p)
    p.add_argument("--coeff", choices=("self", "dual"), default="self")
    p.set_defaults(func=cmd_hochschild)

    p = sub.add_parser("oracle", help="centralizer-decomposition dimension table")
    common(p)
    p.add_argument("--compare", action="store_true",
                   help="also run the direct computation and compare")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bv-check", help="BV identity suite on HH*(A;A)")
    common(p)
    p.add_argument("--bv-sign-convention", choices=("standard", "flipped"),
                   default="standard")
    p.set_defaults(func=cmd_bv_check)

    p = sub.add_parser("cyclic", help="cyclic cohomology and the Connes sequence")
    common(p)
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("string-bracket", help="Lie bracket on cyclic cohomology")
    common(p)
    p.set_defaults(func=cmd_string_bracket)

    p = sub.add_parser("frobenius", help="verify a Frobenius pairing")
    common(p, bar=False)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("integrals", help="left/right Hopf integrals, unimodularity")
    common(p, bar=False)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("tqft", help="evaluate cobordisms on a Frobenius algebra")
    p.add_argument("action", choices=("eval",))
    _add_algebra_opts(p)
    p.add_argument("--cobordism", help="cobordism JSON file")
    p.add_argument("--preset", help="cobordism preset (cyl, pants, ...)")
    p.add_argument("--strict-positive-boundary", action="store_true",
                   help="refuse a cobordism with a component that has no "
                        "in- or no out-circle")
    p.add_argument("--budget", type=int, default=None,
                   help="cap on dim(A)^max(in, out) (default 20000 or HBV_BUDGET)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tqft)

    p = sub.add_parser("detline", help="determinant line of a cobordism")
    p.add_argument("--cobordism", required=True)
    p.add_argument("--compose", help="second cobordism to glue")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_detline)
    return ap


def _check_output(path):
    """Refuse a report path whose directory is missing or not writable
    before anything is computed."""
    if not path or os.path.isdir(path):
        raise InputError(f"cannot write {path!r}: not a file path")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise InputError(f"cannot write {path}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise InputError(f"cannot write {path}: directory {parent} is not writable")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        if args.output is not None:
            _check_output(args.output)
        if "budget" in vars(args):  # resolved, or refused, before computing
            args.budget = _budget(args)
        config, results, checks = args.func(args)
        report = build_report(args.command, config, results, checks)
        sys.stdout.write(emit(report, args.output))
    except SquareZeroError as exc:
        print(f"hbv: internal error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"hbv: error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"hbv: {time.time() - t0:.2f}s", file=sys.stderr)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

import json

import pytest

from hbv.cli import main


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, (json.loads(out) if out.strip() else None)


def test_hochschild_dims_table(capsys):
    status, report = run(
        capsys, "hochschild", "--group", "S3", "--field", "Q",
        "--coeff", "dual", "--max-degree", "4",
    )
    assert status == 0
    assert report["ok"] is True
    assert report["results"]["dims"] == [[0, 3], [1, 0], [2, 0], [3, 0], [4, 0]]


def test_bv_check_passes(capsys):
    status, report = run(
        capsys, "bv-check", "--group", "Z2", "--field", "F2", "--max-degree", "4",
    )
    assert status == 0
    assert report["ok"] is True
    assert report["results"]["checks_passed"] == report["results"]["checks_total"]


def test_bv_check_flipped_convention_fails_with_witness(capsys):
    status, report = run(
        capsys, "bv-check", "--exterior", "3", "--field", "Q",
        "--max-degree", "3", "--bv-sign-convention", "flipped",
    )
    assert status == 1
    assert report["ok"] is False
    bad = [c for c in report["checks"] if not c["ok"]]
    assert bad and "witness" in bad[0]


def test_tqft_eval_genus_one(capsys, tmp_path):
    cob = tmp_path / "genus1_1to1.json"
    cob.write_text(json.dumps(
        {"in": 1, "out": 1,
         "components": [{"genus": 1, "in_legs": [1], "out_legs": [1]}]}
    ))
    status, report = run(
        capsys, "tqft", "eval", "--group", "Z3", "--field", "Q",
        "--cobordism", str(cob),
    )
    assert status == 0
    assert report["results"]["matrix"] == [["3", "0", "0"],
                                           ["0", "3", "0"],
                                           ["0", "0", "3"]]


def test_tqft_eval_preset(capsys):
    status, report = run(
        capsys, "tqft", "eval", "--group", "Z2", "--field", "Q",
        "--preset", "pants",
    )
    assert status == 0
    assert report["results"]["in_circles"] == 2
    assert report["results"]["out_circles"] == 1


def test_cyclic_sequence(capsys):
    status, report = run(
        capsys, "cyclic", "--group", "Z3", "--field", "F3", "--max-degree", "4",
    )
    assert status == 0
    assert report["ok"] is True
    assert report["results"]["dims"][0] == [0, 3]


def test_string_bracket(capsys):
    status, report = run(
        capsys, "string-bracket", "--group", "Z2", "--field", "F2",
        "--max-degree", "4",
    )
    assert status == 0 and report["ok"] is True


def test_frobenius_group(capsys):
    status, report = run(capsys, "frobenius", "--group", "S3", "--field", "Q")
    assert status == 0
    assert report["results"]["symmetric"] is True


def test_frobenius_sweedler_not_symmetric(capsys):
    from importlib import resources
    path = resources.files("hbv").joinpath("data/sweedler4.json")
    status, report = run(capsys, "frobenius", "--algebra", str(path))
    assert status == 0  # nondegenerate + frobenius identity hold
    assert report["results"]["symmetric"] is False


def test_integrals_sweedler(capsys):
    from importlib import resources
    path = resources.files("hbv").joinpath("data/sweedler4.json")
    status, report = run(capsys, "integrals", "--algebra", str(path))
    assert status == 0
    assert report["results"]["unimodular"] is False


def test_oracle_compare(capsys):
    status, report = run(
        capsys, "oracle", "--group", "S3", "--field", "F3",
        "--max-degree", "3", "--compare",
    )
    assert status == 0
    assert report["results"]["oracle_dims"] == report["results"]["hochschild_dims"]


def test_detline(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(
        {"in": 2, "out": 1,
         "components": [{"genus": 0, "in_legs": [1, 2], "out_legs": [1]}]}
    ))
    b = tmp_path / "b.json"
    b.write_text(json.dumps(
        {"in": 1, "out": 2,
         "components": [{"genus": 0, "in_legs": [1], "out_legs": [1, 2]}]}
    ))
    status, report = run(
        capsys, "detline", "--cobordism", str(a), "--compose", str(b),
        "--power", "2",
    )
    assert status == 0
    assert report["results"]["rank"] == 1
    assert report["results"]["composed"]["rank"] == 2
    assert report["results"]["composed"]["coeff"] == 1


def test_tqft_eval_algebra_file(capsys, tmp_path):
    # a group algebra serialized to a file evaluates through the integral route
    from hbv.algebra import algebra_to_json, group_algebra
    from hbv.fields import QQ
    from hbv.groups import preset

    path = tmp_path / "QZ3.json"
    path.write_text(json.dumps(algebra_to_json(group_algebra(preset("Z3"), QQ))))
    cob = tmp_path / "genus1_1to1.json"
    cob.write_text(json.dumps(
        {"in": 1, "out": 1,
         "components": [{"genus": 1, "in_legs": [1], "out_legs": [1]}]}
    ))
    status, report = run(
        capsys, "tqft", "eval", "--algebra", str(path), "--cobordism", str(cob),
    )
    assert status == 0
    assert report["results"]["matrix"][0][0] == "3"


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HBV_BUDGET", "1")
    status = main(["hochschild", "--group", "Z2", "--field", "F2",
                   "--max-degree", "3"])
    assert status == 2
    monkeypatch.setenv("HBV_BUDGET", "100")
    capsys.readouterr()
    status = main(["hochschild", "--group", "Z2", "--field", "F2",
                   "--max-degree", "3"])
    assert status == 0


def test_unknown_preset_is_input_error(capsys):
    status = main(["hochschild", "--group", "Z5", "--field", "Q"])
    assert status == 2


@pytest.mark.parametrize("degrees", ["3,x", "1.5"])
def test_malformed_exterior_degrees_name_the_option(capsys, degrees):
    status = main(["tqft", "eval", "--exterior", degrees, "--field", "Q",
                   "--preset", "pants"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert (f"hbv: error: --exterior {degrees!r}: expected comma-separated "
            "odd positive degrees\n") in captured.err


@pytest.mark.parametrize("degree", ["-1", "-2"])
def test_oracle_refuses_a_negative_degree(capsys, degree):
    status = main(["oracle", "--group", "Z3", "--field", "F3",
                   "--max-degree", degree])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert (f"hbv: error: group cochain truncation degree {degree} is "
            "negative: it must be at least 0\n") in captured.err


@pytest.mark.parametrize("name", ["NOPE", "F4"])
def test_mistyped_group_names_the_presets(capsys, monkeypatch, tmp_path, name):
    # a --group value that is neither a preset nor an existing file is
    # answered by the preset error, which lists the presets
    from hbv.groups import PRESET_NAMES

    monkeypatch.chdir(tmp_path)
    status = main(["hochschild", "--group", name, "--field", "F2"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert (f"hbv: error: unknown group preset {name!r} "
            f"(available: {', '.join(PRESET_NAMES)})\n") in captured.err


def test_python_m_hbv_prints_what_main_prints(capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    argv = ["hochschild", "--group", "Z2", "--field", "F2", "--max-degree", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "hbv", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def _budget_hint(err):
    """The parenthesised hint of a budget refusal on stderr, which says what
    sets the cap."""
    line = next(x for x in err.splitlines() if "exceeds the budget" in x)
    return line[line.index(" (", line.index("exceeds the budget")):]


def test_budget_exceeded_is_input_error(capsys, monkeypatch):
    # --budget overrides HBV_BUDGET, so the hint must name --budget
    monkeypatch.setenv("HBV_BUDGET", "300000")
    status = main([
        "hochschild", "--group", "D4", "--field", "F2",
        "--max-degree", "4", "--budget", "20000",
    ])
    err = capsys.readouterr().err
    assert status == 2
    assert "134456 exceeds the budget 20000" in err
    hint = _budget_hint(err)
    assert "--budget" in hint and "HBV_BUDGET" in hint
    # the oracle and tqft refusals give the same hint
    assert main(["oracle", "--group", "D4", "--field", "F2",
                 "--max-degree", "6", "--budget", "100"]) == 2
    assert _budget_hint(capsys.readouterr().err) == hint
    assert main(["tqft", "eval", "--group", "Z6", "--field", "Q",
                 "--preset", "pants", "--budget", "1"]) == 2
    assert _budget_hint(capsys.readouterr().err) == hint


def test_conflicting_field_rejected(capsys, tmp_path):
    from importlib import resources
    path = resources.files("hbv").joinpath("data/sweedler4.json")
    status = main(["integrals", "--algebra", str(path), "--field", "F3"])
    assert status == 2


def test_report_determinism(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["hochschild", "--group", "Z3", "--field", "F3", "--max-degree", "3"]
    assert main(argv + ["-o", str(out1)]) == 0
    assert main(argv + ["-o", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_report_schema_fields(capsys):
    status, report = run(
        capsys, "hochschild", "--group", "Z2", "--field", "F2", "--max-degree", "3",
    )
    assert status == 0
    for key in ("schema", "tool", "command", "config", "results", "checks", "ok"):
        assert key in report
    assert report["schema"] == "hbv-report/1"


def test_tqft_budget_refuses_wide_boundary(capsys, monkeypatch):
    argv = ["tqft", "eval", "--group", "Z6", "--field", "Q", "--preset", "pants"]
    status = main(argv + ["--budget", "1"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "36" in captured.err
    # the cap is inclusive: 6^2 = 36 fits a budget of 36
    status, report = run(capsys, *argv, "--budget", "36")
    assert status == 0
    assert report["results"]["in_circles"] == 2
    monkeypatch.setenv("HBV_BUDGET", "35")
    assert main(argv) == 2
    assert "36" in capsys.readouterr().err


def test_unwritable_output_fails_before_computing(capsys, monkeypatch, tmp_path):
    import hbv.cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(hbv.cli, "hochschild_dims", must_not_run)
    missing = tmp_path / "missing" / "r.json"
    for target in (missing, tmp_path, ""):
        status = main(["hochschild", "--group", "Z2", "--field", "F2",
                       "--max-degree", "3", "-o", str(target)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert str(target) in captured.err
    assert not missing.parent.exists()


def test_broken_differential_exits_3(capsys, monkeypatch):
    from hbv.hochschild import BarComplex

    build = BarComplex._self_differential

    def broken(self, n):
        d = build(self, n)
        if n == 0:
            # d^0 of the commutative Q[Z3] is zero; no basis 1-cochain is a
            # cocycle, so d^1 d^0 picks up the nonzero column 4 of d^1 in
            # column 2
            d.rows[4][2] = self.alg.field.one
        return d

    monkeypatch.setattr(BarComplex, "_self_differential", broken)
    status = main(["hochschild", "--group", "Z3", "--field", "Q",
                   "--max-degree", "3"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert "d^1 o d^0 != 0 at column 2" in captured.err


@pytest.mark.parametrize("break_bar, message", [
    (False, "d^2 o d^1 != 0 at column 2"),
    # the dual bar complex is certified before the total complex is built
    (True, "d^1 o d^0 != 0 at column 2"),
])
def test_broken_cyclic_operator_exits_3(capsys, monkeypatch, break_bar, message):
    # one sign of B_2 flipped: the total complex's certificate names the
    # (degree, column) the generic check names on the assembled d_tot
    import hbv.cyclic
    from hbv.hochschild import BarComplex

    rotation = hbv.cyclic.connes_b_dual_matrix

    def broken_rotation(bar, n):
        b = rotation(bar, n)
        if n == 2:
            # row 2 of B_2 on Q[Z3] is {6: 1, 3: -1}
            b.rows[2][3] = -b.rows[2][3]
        return b

    monkeypatch.setattr(hbv.cyclic, "connes_b_dual_matrix", broken_rotation)
    if break_bar:
        build = BarComplex._dual_differential

        def broken(self, n):
            d = build(self, n)
            if n == 0:
                d.rows[4][2] = self.alg.field.one
            return d

        monkeypatch.setattr(BarComplex, "_dual_differential", broken)
    status = main(["cyclic", "--group", "Z3", "--field", "Q",
                   "--max-degree", "3"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert message in captured.err


def test_other_linalg_errors_exit_2(capsys, monkeypatch):
    import hbv.cli
    from hbv.linalg import LinalgError

    def fails(*args, **kwargs):
        raise LinalgError("vector is not a cocycle modulo the image")

    monkeypatch.setattr(hbv.cli, "hochschild_dims", fails)
    status = main(["hochschild", "--group", "Z3", "--field", "Q",
                   "--max-degree", "3"])
    assert status == 2
    assert "not a cocycle" in capsys.readouterr().err


Z2_ALGEBRA = {
    "field": {"type": "Q"},
    "basis": [{"name": "e"}, {"name": "g"}],
    "unit": ["1", "0"],
    "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
}


def dual_numbers(degree):
    """Q[x]/(x^2) with x in ``degree``, as an algebra file."""
    return {
        "field": {"type": "Q"},
        "basis": [{"name": "1"}, {"name": "x", "degree": degree}],
        "unit": ["1", "0"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
    }


@pytest.mark.parametrize("changes, message", [
    ({"mult": None}, "algebra file missing key 'mult'"),
    ({"mult": [[0, 1, 5, "1"]]},
     "product entry (0, 1) -> [5] indexes outside the basis 0..1"),
    ({"field": {"type": "Fp", "p": 3}, "unit": ["1/3", "0"]},
     "'1/3' has a denominator divisible by 3"),
    ({"unit": ["1/0", "0"]}, "rational '1/0' has a zero denominator"),
    ({"mult": [[0, 0, "1"]]},
     "algebra file: 'mult' entry 0 must be [i, j, k, c]"),
    ({"mult": [[0, 0, 0, "1"], [0, 1, 1, 0, "1"]]},
     "algebra file: 'mult' entry 1 must be [i, j, k, c]"),
    ({"coproduct": [[0, 0, 0, "1"], [1, 1, "1"]], "counit": ["1", "1"],
      "antipode": [["1", "0"], ["0", "1"]]},
     "algebra file: 'coproduct' entry 1 must be [i, j, k, c]"),
])
def test_malformed_algebra_file_is_input_error(capsys, tmp_path, changes, message):
    obj = {k: v for k, v in {**Z2_ALGEBRA, **changes}.items() if v is not None}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    status = main(["integrals", "--algebra", str(path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert f"hbv: error: {message}\n" in captured.err


@pytest.mark.parametrize("cut", ["a row", "an entry"])
def test_malformed_antipode_names_the_part_and_shape(capsys, tmp_path, cut):
    # the packaged Sweedler algebra with one antipode row dropped, or one
    # row an entry short
    from importlib import resources

    obj = json.loads(resources.files("hbv").joinpath("data/sweedler4.json").read_text())
    if cut == "a row":
        obj["antipode"] = obj["antipode"][:3]
    else:
        obj["antipode"][1] = obj["antipode"][1][:3]
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    status = main(["integrals", "--algebra", str(path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert ("hbv: error: algebra file: 'antipode' must be 4 rows of 4 "
            "entries\n") in captured.err


@pytest.mark.parametrize("argv", [
    ["hochschild", "--group", "Z3", "--field", "F3", "--max-degree", "-1"],
    ["cyclic", "--group", "Z3", "--field", "F3", "--max-degree", "0"],
    ["bv-check", "--exterior", "3", "--field", "Q", "--max-degree", "2"],
    ["string-bracket", "--group", "Z3", "--field", "F3", "--max-degree", "1"],
    ["oracle", "--group", "S3", "--field", "F3", "--max-degree", "2", "--compare"],
])
def test_small_truncation_names_the_option_before_computing(capsys, monkeypatch, argv):
    import hbv.cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before the degree was checked")

    for name in ("centralizer_oracle", "hochschild_dims", "bv_check",
                 "connes_maps", "StringBracket"):
        monkeypatch.setattr(hbv.cli, name, must_not_run)
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    degree = argv[argv.index("--max-degree") + 1]
    assert (f"hbv: error: --max-degree {degree}: the bar complex needs a "
            "truncation degree of at least 3\n") in captured.err


def test_oracle_alone_accepts_degrees_below_3(capsys):
    for degree in range(3):
        status, report = run(capsys, "oracle", "--group", "S3", "--field", "F3",
                             "--max-degree", str(degree))
        assert status == 0
        assert [n for n, _ in report["results"]["oracle_dims"]] == list(range(degree + 1))


def test_bar_complex_names_a_small_degree():
    from hbv.algebra import group_algebra
    from hbv.fields import GF
    from hbv.groups import preset
    from hbv.hochschild import BarComplex

    with pytest.raises(ValueError) as err:
        BarComplex(group_algebra(preset("Z3"), GF(3)), "self", 2)
    assert str(err.value) == "truncation degree must be at least 3, got 2"


def test_malformed_cobordism_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "cob.json"
    path.write_text(json.dumps(
        {"in": 1, "out": 1,
         "components": [{"genus": "a", "in_legs": [1], "out_legs": [1]}]}
    ))
    status = main(["detline", "--cobordism", str(path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "hbv: error: genus 'a' is not an integer\n" in captured.err


@pytest.mark.parametrize("text", [b'{"in": 1, "elements": [', b'\xff{}'],
                         ids=["truncated", "not-utf8"])
@pytest.mark.parametrize("argv, kind", [
    (["hochschild", "--field", "F2", "--max-degree", "3", "--group"], "group"),
    (["integrals", "--algebra"], "algebra"),
    (["detline", "--cobordism"], "cobordism"),
], ids=["group", "algebra", "cobordism"])
def test_truncated_json_file_names_kind_and_path(capsys, tmp_path, argv, kind,
                                                 text):
    # a file that is not JSON text is refused by what it was read as and
    # where it is
    path = tmp_path / f"{kind}.json"
    path.write_bytes(text)
    status = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert f"hbv: error: {kind} file {path}: not valid JSON (" in captured.err


@pytest.mark.parametrize("group, preset, message", [
    ("Z3", "cap_in",
     "strict positive-boundary mode refuses closed-off components"),
    # the algebra is refused before the cobordism is looked at
    ("S3", "cap_in", "TQFT evaluation needs a commutative algebra"),
    ("Z3", "pants", None),
])
def test_strict_positive_boundary_flag(capsys, group, preset, message):
    argv = ["tqft", "eval", "--group", group, "--field", "Q", "--preset", preset]
    status = main(argv + ["--strict-positive-boundary"])
    captured = capsys.readouterr()
    if message is not None:
        assert status == 2
        assert captured.out == ""
        assert f"hbv: error: {message}\n" in captured.err
        return
    # a cobordism with positive boundary evaluates as without the flag
    assert status == 0
    assert main(argv) == 0
    assert capsys.readouterr().out == captured.out


@pytest.mark.parametrize("argv, path, obj, message", [
    (["hochschild", "--group"], "group.json", {"elements": ["e"], "table": 5},
     "elements must be a list and table a list of lists of integers"),
    (["detline", "--cobordism"], "cob.json",
     {"in": 1, "out": 1,
      "components": [{"genus": 0, "in_legs": [1, "a"], "out_legs": [1]}]},
     "legs [1, 'a'], [1] are not lists of integers"),
    (["hochschild", "--group"], "group.json", [["e"], [[0]]],
     "group file: the top level is not an object"),
    (["integrals", "--algebra"], "alg.json", {**Z2_ALGEBRA, "field": "Q"},
     "algebra file: 'field' is malformed"),
    (["integrals", "--algebra"], "alg.json", {**Z2_ALGEBRA, "basis": ["e", "g"]},
     "algebra file: 'basis' is malformed"),
    (["integrals", "--algebra"], "alg.json", [Z2_ALGEBRA],
     "algebra file: the top level is malformed"),
    (["detline", "--cobordism"], "cob.json", {"in": 1, "out": 1, "components": [5]},
     "cobordism file: 'components' is malformed"),
    (["tqft", "eval", "--group", "Z2", "--field", "Q", "--cobordism"], "cob.json",
     {"in": 1, "out": 1, "components": [5]},
     "cobordism file: 'components' is malformed"),
    (["detline", "--cobordism"], "cob.json", [{"in": 0, "out": 0, "components": []}],
     "cobordism file: the top level is malformed"),
    (["tqft", "eval", "--group", "Z2", "--field", "Q", "--cobordism"], "cob.json",
     [{"in": 0, "out": 0, "components": []}],
     "cobordism file: the top level is malformed"),
    # a port count or genus must be an int >= 0, and a bool is not one
    (["tqft", "eval", "--group", "Z2", "--field", "Q", "--cobordism"], "cob.json",
     {"in": -1, "out": 0, "components": []}, "in-port count -1 is negative"),
    (["tqft", "eval", "--group", "Z2", "--field", "Q", "--cobordism"], "cob.json",
     {"in": True, "out": 0, "components": []},
     "in-port count True is not an integer"),
    (["detline", "--cobordism"], "cob.json",
     {"in": 1, "out": -2, "components": [{"in_legs": [1]}]},
     "out-port count -2 is negative"),
    (["detline", "--cobordism"], "cob.json",
     {"in": 1, "out": 1,
      "components": [{"genus": False, "in_legs": [1], "out_legs": [1]}]},
     "genus False is not an integer"),
    (["tqft", "eval", "--group", "Z2", "--field", "Q", "--cobordism"], "cob.json",
     {"in": 1, "out": 1,
      "components": [{"genus": -1, "in_legs": [1], "out_legs": [1]}]},
     "genus -1 is negative"),
    # a leg must be an int: a bool or an integral float is not a port number
    (["tqft", "eval", "--group", "Z2", "--field", "Q", "--cobordism"], "cob.json",
     {"in": 1, "out": 1,
      "components": [{"genus": 0, "in_legs": [True], "out_legs": [1]}]},
     "legs [True], [1] are not lists of integers"),
    (["tqft", "eval", "--group", "Z2", "--field", "Q", "--cobordism"], "cob.json",
     {"in": 1, "out": 1,
      "components": [{"genus": 0, "in_legs": [1.0], "out_legs": [1]}]},
     "legs [1.0], [1] are not lists of integers"),
    # a degree must be an int, and a coefficient is never a bool
    (["hochschild", "--algebra"], "alg.json", dual_numbers(2.7),
     "basis element 'x' has degree 2.7, not an integer"),
    (["hochschild", "--algebra"], "alg.json", dual_numbers(True),
     "basis element 'x' has degree True, not an integer"),
    (["hochschild", "--algebra"], "alg.json", dual_numbers("1"),
     "basis element 'x' has degree '1', not an integer"),
    (["hochschild", "--algebra"], "alg.json", {**Z2_ALGEBRA, "unit": [True, "0"]},
     "cannot parse rational from True"),
    (["hochschild", "--algebra"], "alg.json",
     {**Z2_ALGEBRA, "mult": Z2_ALGEBRA["mult"][:3] + [[1, 1, 0, True]]},
     "cannot parse rational from True"),
    (["hochschild", "--algebra"], "alg.json",
     {**Z2_ALGEBRA, "field": {"type": "Fp", "p": 3},
      "mult": Z2_ALGEBRA["mult"] + [[1, 1, 1, False]]},
     "cannot parse F3 element from False"),
    # a table entry must be an int, and a bool is not one
    (["hochschild", "--field", "F2", "--max-degree", "3", "--group"], "group.json",
     {"elements": ["e", "a"], "table": [[0, True], [True, 0]]},
     "elements must be a list and table a list of lists of integers"),
], ids=["group-table", "cobordism-legs", "group-list", "algebra-field-string",
        "algebra-basis-strings", "algebra-list", "detline-component-int",
        "tqft-component-int", "detline-list", "tqft-list", "tqft-negative-in",
        "tqft-bool-in", "detline-negative-out", "detline-bool-genus",
        "tqft-negative-genus", "tqft-bool-leg", "tqft-float-leg",
        "algebra-float-degree", "algebra-bool-degree", "algebra-string-degree",
        "algebra-bool-unit", "algebra-bool-mult", "algebra-fp-bool-mult",
        "group-bool-entry"])
def test_malformed_group_and_legs_are_input_errors(capsys, tmp_path, argv, path,
                                                   obj, message):
    target = tmp_path / path
    target.write_text(json.dumps(obj))
    status = main(argv + [str(target)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert f"hbv: error: {message}\n" in captured.err


PINNED_REPORTS = [
    ("hochschild --group Z3 --field F3 --max-degree 4",
     "7260ac10c190eca59dc167432389409126aef8934425f8b27332115bfc5d0f3b"),
    ("hochschild --group S3 --field Q --coeff dual --max-degree 4",
     "d72b7c1149af91468d7c93ce982596431fe4b4bb7441533b2e8070038fc2b620"),
    ("oracle --group S3 --field F3 --max-degree 3 --compare",
     "2147671ad404c370728596102fa7c04fc1c90dfc7a5fc56fd2c39cb8a130ce68"),
    ("bv-check --group Z2 --field F2 --max-degree 4",
     "37c1d5fd90289197d94ab2091eedecb7e9273028f6bbef2fafabc8fcf625278b"),
    ("cyclic --group Z3 --field F3 --max-degree 4",
     "ee74edf6b3286ca3c4c620b72a711055ce1ebb333b6b9971d7697b57a0513d9f"),
    ("string-bracket --group Z2 --field F2 --max-degree 4",
     "725b66cba8f0188f2b98dca90b16da4e386a4730b862af721effc7e637c5baf6"),
    ("frobenius --group S3 --field Q",
     "5b87a5b8d988a7fc3e3367e1334c1aaf83354ce249929ad8fb8c6c29afa36946"),
    ("frobenius --algebra sweedler4.json",
     "09224740f2ee2cdf3670498eb58f09b9eafba88443c5c6efd006bc6db8cc2c84"),
    ("integrals --group Q8 --field F3",
     "9e7132eb6730fda23ed70638e735fa6e729f5b70f4e668c55499628b16b665e5"),
    ("integrals --algebra sweedler4.json",
     "7d033aaba6c3f5a36081f55245a7e7ec03007bf8a5db12aac27c19a33d420095"),
    ("tqft eval --group Z3 --field Q --preset pants",
     "b5cb8f0a922f22b9c127c5ac9dc2a6ba6abbcec6331bea53eee6285b12e1d386"),
    ("detline --cobordism pants.json --compose copants.json --power 2",
     "10b936a4d4b883c737cc4776b57eb00d94d3de8b48e190d67ce53b9749c3f922"),
    ("integrals --exterior 3,5 --field Q",
     "32ac05bd6d7b293603032b61d531f45d1f74b76f3c079077e5600fa0bc2034eb"),
    ("integrals --group S3 --field F2",
     "6d0b5b3db600e97ab590501c6bd53e8d797f2d8bf6b044156b42e79a5f9bfdb7"),
    ("tqft eval --exterior 1 --field Q --preset twist",
     "61459a736e5c3ce511ab4e10ce1284f24345a115c37e00bb7b2a03e6fcd8d20e"),
    ("frobenius --exterior 3,5 --field F3",
     "f6ae79ec82b5960921fbe3799a9544e09cbd788942b9a7c2fd45e7487b22ecec"),
]


@pytest.mark.parametrize("command, digest", PINNED_REPORTS)
def test_report_bytes_pinned(capsys, monkeypatch, tmp_path, command, digest):
    """Every subcommand's report body, byte for byte, as sha256 of stdout.

    Files are copied into the working directory and named by a relative
    path, since the config records the path.  The graded (exterior-model)
    bodies of ``bv-check`` and ``string-bracket`` are left out: their signs
    are known to be wrong (ROADMAP open items), so fixing them changes those
    bodies on purpose, and ``perfbench/reference.json`` already pins two of
    them."""
    import hashlib
    from importlib import resources

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HBV_BUDGET", raising=False)
    (tmp_path / "sweedler4.json").write_bytes(
        resources.files("hbv").joinpath("data/sweedler4.json").read_bytes())
    (tmp_path / "pants.json").write_text(json.dumps(
        {"in": 2, "out": 1,
         "components": [{"genus": 0, "in_legs": [1, 2], "out_legs": [1]}]}))
    (tmp_path / "copants.json").write_text(json.dumps(
        {"in": 1, "out": 2,
         "components": [{"genus": 0, "in_legs": [1], "out_legs": [1, 2]}]}))
    status = main(command.split())
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

"""Batch front-end: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdisc
from qdisc.cli import main


def run_cli(args):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_usage_error_bad_q():
    code, _ = run_cli(["verify", "--q", "1.2"])
    assert code == 2


def test_usage_error_node_count_not_positive():
    for nodes in ("0", "-4"):
        code, _ = run_cli(["transform", "--q", "0.5", "--nodes", nodes])
        assert code == 2


def test_usage_error_bad_command():
    assert main(["frobnicate"]) == 2


def test_usage_error_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _ = run_cli(["verify", "--q", "0.5", "--config", str(cfg)])
    assert code == 2
    code, _ = run_cli(["verify", "--q", "0.5", "--config", str(tmp_path / "missing.json")])
    assert code == 3


def test_io_error_unwritable():
    code, _ = run_cli(["tabulate", "--q", "0.5", "--out", "/nonexistent/dir/table.csv"])
    assert code == 3


def test_verify_subset_passes(tmp_path):
    out = tmp_path / "report.json"
    code, _ = run_cli(
        ["verify", "--q", "0.5", "--checks", "algebra,casimir", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = [c["check"] for c in report["checks"]]
    assert "casimir_equals_laplacian" in names
    for c in report["checks"]:
        assert set(c) == {"check", "residual", "tolerance", "pass", "detail", "runtime_s"}
        assert c["pass"] is True
    cas = next(c for c in report["checks"] if c["check"] == "casimir_equals_laplacian")
    assert cas["residual"] < 1e-12


def test_verify_rejects_a_checks_pattern_that_matches_nothing(tmp_path, capsys):
    # a renamed check must not drop silently out of a --checks selection
    out = tmp_path / "report.json"
    code, _ = run_cli(
        ["verify", "--q", "0.5", "--checks", "algebra_qr,no_such_check", "--out", str(out)]
    )
    assert code == 2
    assert "no_such_check" in capsys.readouterr().err
    assert not out.exists()


def test_verify_reports_a_group_error_as_failed_checks(tmp_path, monkeypatch):
    # an inverse transform that does not settle fails its checks; the run
    # still writes its report and exits with a check failure
    from qdisc import QuadratureError, spherical

    def unsettled(*args, **kwargs):
        raise QuadratureError("inverse transform did not settle")

    monkeypatch.setattr(spherical, "transform_inverse", unsettled)
    out = tmp_path / "report.json"
    code, _ = run_cli(
        ["verify", "--q", "0.995", "--checks", "transform_centre", "--format", "json",
         "--out", str(out)]
    )
    assert code == 1
    with open(out) as fh:
        report = json.load(fh)
    assert report["passed"] is False
    [check] = report["checks"]
    assert check["check"] == "transform_centre_delta"
    assert check["pass"] is False
    assert "QuadratureError" in check["detail"]


def test_verify_writes_a_report_at_small_horizons(tmp_path):
    # checks whose fixed supports pass the grid fail with a typed error;
    # the run still writes its report and exits with a check failure
    for horizon in (1, 12, 19):
        cfg = tmp_path / f"h{horizon}.json"
        cfg.write_text(json.dumps({"grid_horizon": horizon}))
        out = tmp_path / f"report{horizon}.json"
        code, _ = run_cli(
            ["verify", "--q", "0.5", "--config", str(cfg), "--format", "json", "--out", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert len(report["checks"]) == 47
        typed = {
            c["check"]
            for c in report["checks"]
            if not c["pass"] and c["detail"].startswith(("CapacityError", "RangeError"))
        }
        assert "transform_roundtrip" in typed


def test_commutation_shifts_fail_typed_below_one_row(tmp_path):
    # seed 11's draws sit on rows 0..npoints - 3: none at horizon 1, where the
    # check fails on CapacityError in the JSON report, one row at horizon 2,
    # where it passes
    for horizon, passed in ((1, False), (2, True)):
        cfg = tmp_path / f"h{horizon}.json"
        cfg.write_text(json.dumps({"grid_horizon": horizon}))
        out = tmp_path / f"report{horizon}.json"
        code, _ = run_cli(
            ["verify", "--q", "0.5", "--config", str(cfg), "--checks", "algebra_commutation_shifts",
             "--format", "json", "--out", str(out)]
        )
        [check] = json.loads(out.read_text())["checks"]
        assert check["check"] == "algebra_commutation_shifts"
        assert check["pass"] is passed and code == (0 if passed else 1)
        if passed:
            assert check["residual"] <= check["tolerance"]
        else:
            assert check["residual"] == float("inf") and check["tolerance"] == 0.0
            assert check["detail"].startswith("CapacityError"), check


def test_usage_error_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trunc_terms": 200}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "unknown config key 'trunc_terms'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        # a config must not switch the subcommand
        ({"command": "limit"}, "is not the subcommand 'verify'"),
        # values of the wrong type, true included, never reach the run
        ({"grid_horizon": "12"}, "grid_horizon='12' is not of type int"),
        ({"grid_horizon": True}, "grid_horizon=True is not of type int"),
        ({"series_tol": "x"}, "series_tol='x' is not of type float"),
        # a string of checks is not split into characters
        ({"checks": "algebra"}, "checks='algebra' is not of type list[str]"),
        ([{"q": 0.5}], "config must be a JSON object"),
        # methods of the configuration are not keys
        ({"validate": 1}, "unknown config key 'validate'"),
    ],
)
def test_usage_error_malformed_config(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--q", "0.5", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_usage_error_negative_nmax(capsys):
    code, out = run_cli(["tabulate", "--q", "0.5", "--nmax", "-3"])
    assert code == 2 and out == ""
    assert "nmax must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("greens", {"coef_terms": 0}, "coef_terms must be positive"),
        ("greens", {"coef_terms": -1}, "coef_terms must be positive"),
        ("limit", {"t_list": []}, "t_list must be nonempty"),
        ("limit", {"q_list": []}, "q_list must be nonempty"),
        # the g table was written before the node count was read
        ("tabulate", {"node_count": 0, "with_density": True}, "node_count must be positive"),
    ],
)
def test_usage_error_empty_run_leaves_no_output(tmp_path, capsys, command, doc, message):
    # a run that would write only headers, or a partial table, is a usage
    # error caught before anything is written
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--q", "0.5", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_density_columns_are_in_ascending_node_order(tmp_path):
    # the density column of tabulate and transform is the density on the
    # ascending nodes, on counts whose odd part is not 1 too
    from qdisc import QContext
    from qdisc.spherical import _nodes, sigma_density

    ctx = QContext(0.9)
    for count in (12, 40):
        ref = sigma_density(_nodes(count, ctx), ctx)
        out = tmp_path / f"spec{count}.csv"
        args = ["transform", "--q", "0.9", "--nodes", str(count), "--out", str(out)]
        assert run_cli(args)[0] == 0
        lines = out.read_text().strip().split("\n")[1:]
        assert [float(line.split(",")[1]) for line in lines] == ref.tolist()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"node_count": count}))
        table = tmp_path / f"t{count}.csv"
        args = ["tabulate", "--q", "0.9", "--with-density", "--config", str(cfg)]
        assert run_cli([*args, "--out", str(table)])[0] == 0
        lines = Path(f"{table}.density").read_text().strip().split("\n")[1:]
        assert [float(line.split(",")[1]) for line in lines] == ref.tolist()


def test_tabulate_header_and_centre_value(tmp_path):
    out = tmp_path / "table.csv"
    code, _ = run_cli(["tabulate", "--q", "0.5", "--nmax", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,y,g1,g2"
    row0 = lines[1].split(",")
    assert row0[0] == "0" and float(row0[1]) == 1.0
    # centre value of the first solution from an independent coefficient sum
    q2 = 0.25
    total = sum((1 / q2 - 1) / (q2**-m - 1) for m in range(1, 200))
    assert abs(float(row0[2]) + (1 - q2) * total) < 1e-12


def test_every_flag_reaches_its_config_field():
    # each subcommand's flags parse to a dest that is a RunConfig field (the
    # config path aside) and override that field; a flag left out sets nothing
    from dataclasses import fields

    from qdisc.cli import _FLAGS, _SHARED, RunConfig, _build_parser, _load_config

    parser = _build_parser()
    names = {f.name for f in fields(RunConfig)}
    samples = {float: "0.7", int: "16"}
    for command, own in _FLAGS.items():
        assert _load_config(parser.parse_args([command])) == RunConfig(command=command)
        for flag, options in _SHARED + own:
            if flag == "--config":
                continue
            if options.get("action") == "store_true":
                argv = [flag]
            else:
                choices = options.get("choices")
                argv = [flag, choices[-1] if choices else samples.get(options.get("type"), "a,b")]
            [(dest, value)] = [(k, v) for k, v in vars(parser.parse_args([command, *argv])).items() if k != "command"]
            assert dest in names, (command, flag)
            cfg = _load_config(parser.parse_args([command, *argv]))
            assert getattr(cfg, dest) == value, (command, flag)
    cfg = _load_config(parser.parse_args(["transform", "--nodes", "16"]))
    assert cfg.node_count == 16
    assert _load_config(parser.parse_args(["tabulate", "--with-density"])).with_density is True
    assert _load_config(parser.parse_args(["verify", "--checks", " algebra, ,kernel"])).checks == ["algebra", "kernel"]
    # --q is limit's q list too
    assert _load_config(parser.parse_args(["limit", "--q", "0.999"])).q_list == [0.999]


def test_tabulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["tabulate", "--q", "0.5", "--nmax", "12", "--out", str(a)])
    run_cli(["tabulate", "--q", "0.5", "--nmax", "12", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_transform_default_input(tmp_path):
    out = tmp_path / "spec.csv"
    code, _ = run_cli(["transform", "--q", "0.5", "--nodes", "16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "rho,density,fhat_re,fhat_im"
    assert len(lines) == 17
    # centre delta transforms to the constant 1 - q^2
    for line in lines[1:]:
        parts = line.split(",")
        assert abs(float(parts[2]) - 0.75) < 1e-12
        assert abs(float(parts[3])) < 1e-12


def test_transform_with_input_file(tmp_path):
    element = {"q": 0.5, "sectors": [{"m": 0, "values": [[1, 2.0, 0.0]]}]}
    path = tmp_path / "el.json"
    path.write_text(json.dumps(element))
    out = tmp_path / "spec.json"
    code, _ = run_cli(
        ["transform", "--q", "0.5", "--nodes", "8", "--input", str(path),
         "--out", str(out), "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 8
    assert {"rho", "density", "fhat_re", "fhat_im"} == set(rows[0])


def test_greens_outputs(tmp_path):
    out = tmp_path / "coef.csv"
    code, _ = run_cli(["greens", "--q", "0.5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,coef_order1,coef_order2_direct,coef_order2_log"
    first = lines[1].split(",")
    assert float(first[1]) == -1.0
    sol = json.loads((tmp_path / "coef.csv.solution1.json").read_text())
    assert sol["q"] == 0.5
    assert sol["sectors"][0]["m"] == 0


def test_greens_writes_nothing_when_a_solve_fails(tmp_path, capsys):
    # the weight q^(-2n) at row 150 overflows at q = 0.05: both orders are
    # solved before the coefficient table is written
    cfg, element, out = tmp_path / "cfg.json", tmp_path / "in.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps({"grid_horizon": 200}))
    element.write_text(json.dumps({"sectors": [{"m": 0, "values": [[150, 1.0, 0.0]]}]}))
    args = ["greens", "--q", "0.05", "--config", str(cfg), "--input", str(element), "--out", str(out)]
    assert main(args) == 2
    assert "integral weight" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([cfg, element])


# malformed input elements: each is a usage error, and no output is written
_MALFORMED_ELEMENTS = {
    "missing_m": ({"sectors": [{"values": [[0, 1.0, 0.0]]}]}, "is not an int m"),
    "two_entry_row": ({"sectors": [{"m": 0, "values": [[0, 1.0]]}]}, "is not [n, re, im]"),
    "top_level_list": ([{"m": 0, "values": [[0, 1.0, 0.0]]}], "an element document is an object"),
    "string_m": ({"sectors": [{"m": "a", "values": []}]}, "is not an int m"),
    "string_value": ({"sectors": [{"m": 0, "values": [[0, "1", 0.0]]}]}, "is not [n, re, im]"),
    "nan_value": ({"sectors": [{"m": 0, "values": [[0, float("nan"), 0.0]]}]}, "is not [n, re, im]"),
    "inf_value": ({"sectors": [{"m": 0, "values": [[0, 1.0, float("inf")]]}]}, "is not [n, re, im]"),
    "huge_value": ({"sectors": [{"m": 0, "values": [[0, 10**400, 0.0]]}]}, "is not [n, re, im]"),
    "float_row": ({"sectors": [{"m": 0, "values": [[0.5, 1.0, 0.0]]}]}, "is not [n, re, im]"),
    "float_m": ({"sectors": [{"m": 1.5, "values": []}]}, "is not an int m"),
    "bool_m": ({"sectors": [{"m": True, "values": []}]}, "is not an int m"),
    "repeated_sector": ({"sectors": [{"m": 1, "values": []}, {"m": 1, "values": []}]}, "sector 1, or a row of it, repeats"),
    "repeated_row": (
        {"sectors": [{"m": 0, "values": [[2, 1.0, 0.0], [2, 0.5, 0.0]]}]}, "sector 0, or a row of it, repeats"
    ),
}


@pytest.mark.parametrize("command", ["greens", "transform"])
@pytest.mark.parametrize("case", [*_MALFORMED_ELEMENTS, "invalid_json"])
def test_malformed_input_file_is_a_usage_error(tmp_path, capsys, command, case):
    doc, message = _MALFORMED_ELEMENTS.get(case, (None, "not valid JSON"))
    element, out = tmp_path / "in.json", tmp_path / "out.csv"
    element.write_text('{"sectors": [' if doc is None else json.dumps(doc))
    assert main([command, "--q", "0.5", "--input", str(element), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [element]


@pytest.mark.parametrize("case", [case for case, (doc, _) in _MALFORMED_ELEMENTS.items() if isinstance(doc, dict)])
def test_malformed_inline_input_is_a_usage_error(tmp_path, capsys, case):
    doc, message = _MALFORMED_ELEMENTS[case]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"input": doc}))
    assert main(["greens", "--q", "0.5", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_limit_rows(tmp_path):
    out = tmp_path / "limit.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_list": [0.0, 0.5], "q_list": [0.9, 0.99]}))
    code, _ = run_cli(["limit", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "q,t,err_order1,err_order2,reflection_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    t0 = [r for r in rows if float(r[1]) == 0.0]
    for r in t0:
        assert float(r[2]) == 0.0 and float(r[3]) == 0.0
    # error shrinks along the q list at t = 0.5
    at_half = {float(r[0]): float(r[2]) for r in rows if float(r[1]) == 0.5}
    assert at_half[0.99] < at_half[0.9]
    for r in rows:
        assert float(r[4]) < 1e-12


def test_limit_q_flag_sets_the_q_list(tmp_path):
    # an explicit --q replaces the q list, the default's and a config's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_list": [0.9, 0.99]}))
    for config in ([], ["--config", str(cfg)]):
        out = tmp_path / "limit.csv"
        assert run_cli(["limit", "--q", "0.3", *config, "--out", str(out)])[0] == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [float(r[0]) for r in rows] == [0.3] * 3
        assert [float(r[1]) for r in rows] == [0.25, 0.5, 0.75]


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 0.3, "nmax": 3}))
    out = tmp_path / "t.csv"
    code, _ = run_cli(["tabulate", "--q", "0.5", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    # flag wins over config: the y column reflects q = 0.5
    second = out.read_text().strip().split("\n")[2].split(",")
    assert float(second[1]) == 0.25


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "qdisc", "tabulate", "--q", "0.5", "--nmax", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,y,g1,g2")


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports qdisc from this tree."""
    src = str(Path(qdisc.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )


def test_import_never_loads_scipy():
    # the package needs only numpy and the stdlib
    proc = _run_fresh(
        "import qdisc, sys; qdisc.QContext(0.5); "
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_never_loads_numpy_random(tmp_path):
    # the registry's seeded draws come from the stdlib's random module; the
    # whole registry runs, so every seeded stream is drawn
    out = tmp_path / "report.json"
    proc = _run_fresh(
        "import sys, qdisc\n"
        "assert 'numpy.random' not in sys.modules, 'import'\n"
        "from qdisc.cli import main\n"
        f"code = main(['verify', '--q', '0.5', '--out', {str(out)!r}])\n"
        "assert code == 0, code\n"
        "assert 'numpy.random' not in sys.modules, 'verify'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_no_code_path_needs_mpmath(tmp_path):
    # mpmath is a test-only oracle: with its import blocked, the package
    # imports, the whole registry passes at q = 0.5, and the phi and psi
    # checks exit as they do with it, at q = 0.05 (where the phi series
    # runs at its highest precision) and at q = 0.995 (1: the psi checks
    # fail there)
    out = tmp_path / "report.json"
    proc = _run_fresh(
        "import sys\n"
        "class NoMpmath:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'mpmath':\n"
        "            raise ImportError('mpmath is blocked')\n"
        "sys.meta_path.insert(0, NoMpmath())\n"
        "import qdisc\n"
        "from qdisc.cli import main\n"
        f"out = {str(out)!r}\n"
        "assert main(['verify', '--q', '0.5', '--out', out]) == 0\n"
        "for q, code in (('0.05', 0), ('0.995', 1)):\n"
        "    args = ['verify', '--q', q, '--checks', 'eigen,connection,phi_', '--out', out]\n"
        "    assert main(args) == code, q\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_limit_takes_q_outside_the_context_range(tmp_path):
    # limit builds no QContext, so --q may name any q in (0, 1), as its
    # default q list does; the commands that build one keep its range
    out = tmp_path / "limit.csv"
    assert run_cli(["limit", "--q", "0.999", "--out", str(out)])[0] == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [float(r[0]) for r in rows] == [0.999] * 3
    for q in ("1.0", "0.0", "nan"):
        assert run_cli(["limit", "--q", q])[0] == 2
    assert run_cli(["verify", "--q", "0.999"])[0] == 2


def test_verify_full_suite_passes(tmp_path):
    # the whole identity registry at the default tolerances
    out = tmp_path / "report.json"
    code, _ = run_cli(["verify", "--q", "0.5", "--out", str(out)])
    report = json.loads(out.read_text())
    failing = [c["check"] for c in report["checks"] if not c["pass"]]
    assert code == 0, f"failing checks: {failing}"
    assert report["passed"] is True
    assert len(report["checks"]) >= 40

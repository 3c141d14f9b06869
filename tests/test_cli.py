"""Front-end behavior: reports, tables, exit codes, determinism."""

import csv
import hashlib
import json
import math
import subprocess
import sys

import pytest

from qsiegel import checks, cli, quad
from qsiegel.quad import QuadratureError, QuadratureSpec


def test_verify_exit_zero_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "algebra", "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[PASS] algebra/unit_multiplication_table" in text
    doc = json.loads(out.read_text())
    assert set(doc) == {"report", "meta"}
    rep = doc["report"]
    assert rep["suite"] == "algebra"
    assert rep["passed"] is True
    assert rep["counts"]["failed"] == 0
    names = [c["name"] for c in rep["checks"]]
    declared = [n for n, _ in checks._SUITES["algebra"](QuadratureSpec())]
    assert names == declared                          # declaration order kept
    for c in rep["checks"]:
        assert {"name", "computed", "expected", "abs_err", "rel_err",
                "tolerance", "pass", "notes"} <= set(c)


def test_report_json_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    cli.main(["verify", "--suite", "siegel", "--json", str(out)])
    doc = json.loads(out.read_text())
    assert json.loads(json.dumps(doc)) == doc


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["verify", "--suite", "group", "--json", str(a)])
    cli.main(["verify", "--suite", "group", "--json", str(b), "--threads", "4"])
    ra = json.loads(a.read_text())["report"]
    rb = json.loads(b.read_text())["report"]
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_full_report_independent_of_blas_threads(tmp_path, src_env):
    # each process pins its BLAS thread count before numpy loads
    runs = {}
    for n in (1, 2):
        env = dict(src_env, OPENBLAS_NUM_THREADS=str(n))
        out = tmp_path / f"blas{n}.json"
        runs[n] = (out, subprocess.Popen(
            [sys.executable, "-m", "qsiegel.cli", "verify", "--suite", "all",
             "--json", str(out)], env=env, stdout=subprocess.DEVNULL))
    for out, proc in runs.values():
        assert proc.wait(timeout=300) == 0
    one, two = (json.loads(out.read_text())["report"] for out, _ in runs.values())
    assert one == two


# sha256 of the sorted-key compact JSON of the `verify --suite all` report;
# a change that moves any bit of the report re-pins it and says why
REPORT_SHA256 = "cbcad7e1d728b72351605d70f7e78cf4a611403f58eaa576da0900d1de475ea4"


def test_full_report_digest_pinned(tmp_path, capsys):
    out = tmp_path / "all.json"
    assert cli.main(["verify", "--suite", "all", "--json", str(out),
                     "--threads", "1"]) == 0
    report = json.loads(out.read_text())["report"]
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


def test_verify_csv_output(tmp_path):
    out = tmp_path / "checks.csv"
    rc = cli.main(["verify", "--suite", "szego", "--csv", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][:3] == ["suite", "name", "category"]
    names = [r[1] for r in rows[1:]]
    assert "k_constant" in names


def test_szego_suite_contains_k_constant(spec):
    rep = checks.run_suite("szego", spec)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert "k_constant" in by_name
    want = 3.0 / (8.0 * math.pi ** 4)
    assert abs(by_name["k_constant"]["expected"] - want) <= 1e-18
    assert by_name["k_constant"]["pass"] is True


def test_erratum_checks_are_informational(spec):
    rep = checks.run_suite("algebra", spec)
    infos = [c for c in rep["checks"] if c["category"] == "erratum"]
    assert infos, "erratum adjudications must be reported"
    assert all(c["pass"] for c in infos)
    assert rep["counts"]["informational"] == len(infos)


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "--suite", "nope"])
    assert e.value.code == 2


def test_check_failure_exit_code(monkeypatch):
    def fake(spec):
        return [("always_fails", lambda: checks.CheckResult(
            "always_fails", 1.0, 0.0, 1.0, None, 0.5, "abs", "check", False, ""))]

    monkeypatch.setitem(checks._SUITES, "algebra", fake)
    assert cli.main(["verify", "--suite", "algebra"]) == 1


def test_nonconvergence_exit_code(monkeypatch):
    def fake(spec):
        def boom():
            raise QuadratureError("node budget exhausted")
        return [("diverges", boom)]

    monkeypatch.setitem(checks._SUITES, "algebra", fake)
    assert cli.main(["verify", "--suite", "algebra"]) == 3


def test_evaluation_budget_exit_code(capsys):
    # 100 evaluations cover only the first double-exponential level
    assert cli.main(["verify", "--suite", "szego", "--max-subdiv", "100"]) == 3


def test_table_heis_single_row(tmp_path):
    out = tmp_path / "heis.csv"
    rc = cli.main(["table", "--kind", "heis", "--out", str(out),
                   "--xnorm", "1", "--t", "0", "--lam", "0"])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 2
    assert rows[1][8] == "ok"
    value = float(rows[1][3])
    assert abs(value - 1.0 / (4.0 * math.pi ** 3)) <= 1e-9
    assert float(rows[1][7]) <= 1e-9          # error estimate column


def test_table_klambda_skip_marker(tmp_path):
    out = tmp_path / "kl.csv"
    cli.main(["table", "--kind", "klambda", "--out", str(out),
              "--xnorm", "0,1", "--t", "0", "--lam", "0"])
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1][8] == "skipped"
    assert rows[1][9] == "x=0 outside reduced-representation domain"
    assert rows[2][8] == "ok"
    assert abs(float(rows[2][3]) - 1.0 / (4.0 * math.pi ** 4)) <= 1e-9


def test_table_empty_grid_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    cli.main(["table", "--kind", "heis", "--out", str(out),
              "--xnorm", "", "--t", "0", "--lam", "0"])
    rows = out.read_text().splitlines()
    assert len(rows) == 1
    assert rows[0].startswith("xnorm,")


def test_table_szego_diagonal(tmp_path):
    out = tmp_path / "sz.csv"
    cli.main(["table", "--kind", "szego", "--out", str(out),
              "--height", "1,2"])
    rows = list(csv.reader(out.read_text().splitlines()))
    k = 3.0 / (8.0 * math.pi ** 4)
    assert abs(float(rows[1][1]) - k) <= 1e-15
    assert abs(float(rows[2][1]) - k / 32.0) <= 1e-16


def test_table_szego_skips_nonpositive_height(tmp_path):
    out = tmp_path / "sz2.csv"
    cli.main(["table", "--kind", "szego", "--out", str(out), "--height=-1,0.5"])
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1][6] == "skipped"
    assert rows[2][6] == "ok"


def test_table_szego_skips_non_finite_height(tmp_path):
    # never a row of NaN cells marked "ok"
    out = tmp_path / "sz3.csv"
    assert cli.main(["table", "--kind", "szego", "--out", str(out),
                     "--height", "nan,inf,1"]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [r[6] for r in rows[1:]] == ["skipped", "skipped", "ok"]
    assert all("NaN or infinite" in r[7] for r in rows[1:3])


def test_eval_klambda(capsys):
    rc = cli.main(["eval", "klambda", "--x", "1,0,0,0", "--t", "0,0,0",
                   "--lam", "0,0,0"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("k_lambda:")
    value = float(line.split()[1])
    assert abs(value - 1.0 / (4.0 * math.pi ** 4)) <= 1e-9


def test_eval_help_names_the_flags_each_kernel_reads(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["eval", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for claim in ("ktilde reads none", "klambda reads only --sphere-order",
                  "heis reads --rel-tol (the pinch floor) and --abs-tol (the tail end)"):
        assert claim in text
    assert "--max-subdiv" not in text


@pytest.mark.parametrize("argv", [
    ["eval", "klambda", "--x", "1,0,0,0"],
    ["table", "--kind", "heis", "--out", "-"],
])
def test_max_subdiv_is_verify_only(argv, capsys):
    # no kernel that eval or table runs has a node budget: the flag is
    # refused as unknown, exit 2
    with pytest.raises(SystemExit) as e:
        cli.main(argv + ["--max-subdiv", "1"])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


def test_eval_heis(capsys):
    rc = cli.main(["eval", "heis", "--x", "1,0,0,0", "--t", "0.5", "--lam", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "closed:" in out and "quadrature:" in out
    dist = float(out.strip().splitlines()[-1].split()[-1])
    assert dist <= 1e-10


def test_eval_precondition_is_usage_error(capsys):
    rc = cli.main(["eval", "klambda", "--x", "0,0,0,0"])
    assert rc == 2
    assert "reduced-representation" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "klambda", "--x", "1e-200,0,0,0"],
    ["eval", "ktilde", "--x", "1e-200,0,0,0"],
    ["eval", "heis", "--x", "1e-200,0,0,0", "--t", "0"],
])
def test_eval_underflowing_x_is_named(argv, capsys):
    # x = 1e-200 e_0 is finite and nonzero, but |x|^2 underflows to 0: the
    # message names the underflow, not x = 0 or a singularity
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: |x|^2 underflows to 0: x is nonzero but too small\n"
    assert captured.out == ""


def test_table_underflowing_x_note_differs_from_x0(capsys):
    assert cli.main(["table", "--kind", "klambda", "--out", "-",
                     "--xnorm=-1e-200,0", "--t", "0", "--lam", "0"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [r[-2] for r in rows[1:]] == ["skipped", "skipped"]
    assert rows[1][-1] == "|x|^2 underflows to 0: x is nonzero but too small"
    assert rows[2][-1] == "x=0 outside reduced-representation domain"


@pytest.mark.parametrize("argv", [
    ["eval", "klambda", "--x", "nan,0,0,0", "--t", "0,0,0", "--lam", "0,0,0"],
    ["eval", "klambda", "--x", "1,0,0,0", "--t", "0,inf,0", "--lam", "0,0,0"],
    ["eval", "klambda", "--x", "1,0,0,0", "--t", "0,0,0", "--lam", "nan,0,0"],
    ["eval", "ktilde", "--x", "1,0,0,0", "--tau", "nan,0,0", "--lam", "0,0,0"],
    ["eval", "ktilde", "--x", "1,nan,0,0", "--tau", "1,0,0", "--lam", "0,0,0"],
    ["eval", "heis", "--x", "1,0,0,0", "--t", "nan", "--lam", "0"],
    ["eval", "heis", "--x", "1,0,0,0", "--t", "0.5", "--lam", "nan"],
])
def test_eval_non_finite_input_is_usage_error(argv, capsys):
    # exit 2 with a message, never "nan nan nan nan" with exit 0
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize("flag, tol", [
    ("--abs-tol", "100"), ("--abs-tol", "nan"), ("--abs-tol", "1e-320"),
    ("--abs-tol", "inf"), ("--abs-tol", "0"), ("--rel-tol", "1"),
    ("--rel-tol", "nan"), ("--rel-tol", "-1e-9"),
])
def test_eval_absurd_tolerance_is_usage_error(flag, tol, capsys):
    # exit 2 with a message, never a value from a cut u-grid with exit 0
    argv = ["eval", "klambda", "--x", "1,0,0,0", "--t", "0.3,0,0",
            "--lam", "0.5,0,0", f"{flag}={tol}"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "tolerances must lie in (0, 1)" in captured.err
    assert captured.out == ""


def test_verify_abs_tol_below_nested_range_is_usage_error(monkeypatch, capsys):
    # 3e-307 / 10, the inner tolerance of integrate_nested, is no valid
    # spec: the value is refused before any check runs, not inside one
    started = []
    monkeypatch.setattr(checks, "run_suite",
                        lambda *a, **k: started.append(a) or {})
    assert cli.main(["verify", "--suite", "group", "--abs-tol", "3e-307"]) == 2
    assert started == []
    captured = capsys.readouterr()
    assert "400/abs_tol must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["eval", "klambda", "--x", "1e-40,0,0,0", "--t", "0,0,0", "--lam", "0,0,0"],
    ["eval", "klambda", "--x", "1e-40,0,0,0", "--t", "0,0,0", "--lam", "0.5,0,0"],
])
def test_eval_non_finite_kernel_value_is_exit_3(argv, capsys):
    # |x|^-8 overflows at |x| = 1e-40: exit 3, never "nan ..." with exit 0
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert "not finite" in captured.err
    assert captured.out == ""


def test_eval_non_finite_kernel_value_warns_nothing(src_env):
    # the |x|^-8 overflow at |x| = 1e-40 ends in exit 3 with one message, and
    # no numpy RuntimeWarning on stderr on the way
    proc = subprocess.run(
        [sys.executable, "-W", "default::RuntimeWarning", "-m", "qsiegel.cli",
         "eval", "klambda", "--x", "1e-40,0,0,0", "--t", "0,0,0", "--lam", "0.5,0,0"],
        env=src_env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert "not finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_eval_huge_finite_t_warns_nothing(src_env):
    # t = 1e200 is finite, so it is no usage error: (t.n)^2 overflows, the
    # value is not finite and the run ends in exit 3, with no numpy
    # RuntimeWarning on stderr on the way
    proc = subprocess.run(
        [sys.executable, "-W", "default::RuntimeWarning", "-m", "qsiegel.cli",
         "eval", "klambda", "--x", "1,0,0,0", "--t", "1e200,0,0", "--lam", "0.5,0.2,0"],
        env=src_env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert "not finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_table_non_finite_kernel_value_is_exit_3(tmp_path, capsys):
    out = tmp_path / "kl.csv"
    assert cli.main(["table", "--kind", "klambda", "--out", str(out),
                     "--xnorm", "1e-40", "--t", "0", "--lam", "0"]) == 3
    assert "nan" not in out.read_text()
    assert capsys.readouterr().out == ""


def test_table_keeps_rows_that_raise(capsys):
    # xnorm = 0.01 at t = 1 lies inside the heis pinch floor: its row is
    # written with status error and the message, the valid xnorm = 1 row
    # after it is kept, and the command exits 3 once the table is complete
    assert cli.main(["table", "--kind", "heis", "--out", "-",
                     "--xnorm", "0.01,1", "--t", "1", "--lam", "0"]) == 3
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert len(rows) == 3
    assert rows[1][8] == "error" and "contour pinches" in rows[1][9]
    assert rows[1][3:8] == [""] * 5
    assert rows[2][8] == "ok"
    assert "1 of 2 table rows" in captured.err


@pytest.mark.parametrize("argv, statuses", [
    # a valid point, |x| = 0, a non-finite |x| and |lambda| >= 2
    (["--kind", "klambda", "--xnorm", "0,1,inf", "--t", "0", "--lam", "0,2.5"],
     ["skipped", "skipped", "ok", "skipped", "skipped", "skipped"]),
    # a valid point, |x| = 0, a non-finite |x| and lambda on the pole lattice
    (["--kind", "heis", "--xnorm", "0,1,nan", "--t", "1", "--lam", "0,2"],
     ["skipped", "skipped", "ok", "skipped", "skipped", "skipped"]),
    # a valid height, height <= 0, a non-finite height and one at the pole
    (["--kind", "szego", "--height", "1,0,nan,1e-150,1e-100"],
     ["ok", "skipped", "skipped", "skipped", "skipped"]),
])
def test_table_writes_one_row_per_grid_point(argv, statuses, capsys):
    # every kind walks its grid with one row policy: a point that its
    # kernel rejects is a skipped row with the kernel's own message, never
    # an abort of the table
    assert cli.main(["table", "--out", "-"] + argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [r[-2] for r in rows[1:]] == statuses
    assert all(r[-1] for r in rows[1:] if r[-2] == "skipped")
    if argv[1] == "klambda":
        assert rows[4][-1].startswith("lambda decay condition fails")


@pytest.mark.parametrize("argv", [
    ["table", "--kind", "szego", "--out"],
    ["verify", "--suite", "algebra", "--json"],
])
def test_unwritable_output_path_is_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out"
    assert cli.main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def test_eval_bad_vector_length():
    with pytest.raises(SystemExit) as e:
        cli.main(["eval", "klambda", "--x", "1,2,3"])
    assert e.value.code == 2


def test_sphere_order_bound_is_usage_error():
    before = quad.sphere2_nodes.cache_info()
    for order in ("129", "100000", "1"):
        with pytest.raises(SystemExit) as e:
            cli.main(["eval", "klambda", "--x", "1,0,0,0", "--sphere-order", order])
        assert e.value.code == 2
    assert quad.sphere2_nodes.cache_info() == before    # no grid was built
    args = cli._build_parser().parse_args(
        ["verify", "--suite", "greens", "--sphere-order", "128"])
    assert args.sphere_order == 128

"""Command-line front-end.

Three subcommands:

  verify   run a named check suite and emit a machine-readable report
  table    tabulate kernel values over a coordinate grid to CSV
  eval     evaluate one kernel at one point

Exit codes: 0 all checks pass, 1 check failure, 2 usage, precondition or
output-path error, 3 numerical non-convergence.  Reports are deterministic
for fixed flags; wall-clock metadata lives in a separate "meta" object so
the "report" object is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from .quat import Quaternion
from .quad import QuadratureSpec, QuadratureError
from .siegel import SiegelPoint
from . import szego, greens, checks

__all__ = ["main"]


def _float_list(text: str):
    """Comma-separated floats; empty string means an empty axis."""
    text = text.strip()
    if not text:
        return []
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _vector(text: str, n: int, what: str) -> np.ndarray:
    vals = _float_list(text)
    if len(vals) != n:
        raise argparse.ArgumentTypeError(f"{what} needs {n} components, got {len(vals)}")
    return np.array(vals)


# Work memory of the sphere rules grows as order^2 (an order-128 rule has
# 2 * 128^2 nodes; one k_lambda point then peaks at about 11 MiB at
# |lambda| = 1.95).
_MAX_SPHERE_ORDER = 128


def _sphere_order(text: str) -> int:
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 2 <= order <= _MAX_SPHERE_ORDER:
        raise argparse.ArgumentTypeError(
            f"sphere order {order} outside 2..{_MAX_SPHERE_ORDER}")
    return order


def _build_spec(args, **budget) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                          sphere_order=args.sphere_order, **budget)


def _add_spec_flags(p: argparse.ArgumentParser):
    p.add_argument("--rel-tol", type=float, default=1e-9,
                   help="relative quadrature tolerance (default 1e-9)")
    p.add_argument("--abs-tol", type=float, default=1e-12,
                   help="absolute quadrature tolerance (default 1e-12)")
    p.add_argument("--sphere-order", type=_sphere_order, default=32,
                   help="Gauss-Legendre order of the sphere rules, 2 to "
                        f"{_MAX_SPHERE_ORDER}; work memory grows as its square (default 32)")


# ---------------------------------------------------------------------------
# verify

def _check_line(c: dict) -> str:
    tag = "INFO" if c["category"] == "erratum" else ("PASS" if c["pass"] else "FAIL")
    detail = ""
    if isinstance(c["computed"], float) and isinstance(c["expected"], float):
        detail = f"  computed={c['computed']:.12g} expected={c['expected']:.12g}"
        if c["rel_err"] is not None:
            detail += f" rel_err={c['rel_err']:.2e}"
        elif isinstance(c["abs_err"], float):
            detail += f" abs_err={c['abs_err']:.2e}"
    elif isinstance(c["computed"], float) and isinstance(c["expected"], str):
        detail = f"  computed={c['computed']:.12g} bound {c['expected']}"
    return f"[{tag}] {c['suite']}/{c['name']}{detail}"


def _checks_csv(report: dict, fh):
    cols = ["suite", "name", "category", "computed", "expected", "abs_err",
            "rel_err", "tolerance", "tol_kind", "pass", "notes"]
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(cols)
    for c in report["checks"]:
        row = []
        for k in cols:
            v = c[k]
            if isinstance(v, (dict, list)):
                v = json.dumps(v)
            row.append(v)
        w.writerow(row)


def _write_out(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def run_verify(args) -> int:
    spec = _build_spec(args, max_subdivisions=args.max_subdiv)
    t0 = time.time()
    report = checks.run_suite(args.suite, spec, threads=args.threads)
    runtime = time.time() - t0

    for c in report["checks"]:
        print(_check_line(c))
    n = report["counts"]
    print(f"suite {report['suite']}: {n['passed']} passed, {n['failed']} failed, "
          f"{n['informational']} informational")

    if args.json:
        doc = {
            "report": report,
            "meta": {
                "generated_at": datetime.now(timezone.utc).isoformat(),
                "runtime_seconds": runtime,
                "threads": args.threads,
            },
        }
        _write_out(args.json, json.dumps(doc, indent=2) + "\n")
    if args.csv:
        import io
        buf = io.StringIO()
        _checks_csv(report, buf)
        _write_out(args.csv, buf.getvalue())
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# table

def _quat_cells(v: Quaternion):
    return [repr(float(x)) for x in v.components()]


def _klambda_value(xn, t1, l1, spec):
    x = np.array([xn, 0.0, 0.0, 0.0])
    t = np.array([t1, 0.0, 0.0])
    v = greens.k_lambda(x, t, (l1, 0.0, 0.0), spec)
    hi = replace(spec, sphere_order=spec.sphere_order + 8)
    return v, (greens.k_lambda(x, t, (l1, 0.0, 0.0), hi) - v).norm()


def _heis_value(xn, t, lam, spec):
    # x = 0 is a skipped row at every t: at t != 0 the quadrature pinches
    x = greens._x4(np.array([xn, 0.0, 0.0, 0.0]))[0]
    v = greens.heis_k_closed(x, t, lam)
    return v, (greens.heis_k_quadrature(x, t, lam, spec) - v).norm()


def _szego_value(h, spec):
    if h <= 0.0:
        raise ValueError("height <= 0 outside the domain")
    p = SiegelPoint(Quaternion(0.0), Quaternion(h))
    return szego.szego_kernel(p, p), 0.0


# kind -> (CSV axis names, evaluator of one grid point to (value, err_est))
_TABLE_KINDS = {
    "klambda": (("xnorm", "t1", "lambda1"), _klambda_value),
    "heis": (("xnorm", "t", "lambda"), _heis_value),
    "szego": (("height",), _szego_value),
}


def run_table(args) -> int:
    """Write one CSV row per point of the kind's grid, in nested-loop
    order.  A point whose evaluator raises ValueError or ZeroDivisionError
    is written with status skipped, one that raises QuadratureError with
    status error, each with the message as its note; an empty grid gives
    a header-only file.  Raises QuadratureError once the table is complete
    if any row is an error row."""
    spec = _build_spec(args)
    axes, evaluate = _TABLE_KINDS[args.kind]
    grid = [args.height] if args.kind == "szego" else [args.xnorm, args.t, args.lam]
    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    count = errors = 0
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(axes) + ["k_t", "k_i1", "k_i2", "k_i3",
                                 "err_est", "status", "note"])
        for point in itertools.product(*grid):
            try:
                v, err = evaluate(*point, spec)
                cells = _quat_cells(v) + [repr(float(err)), "ok", ""]
            except (ValueError, ZeroDivisionError) as e:
                cells = [""] * 5 + ["skipped", str(e)]
            except QuadratureError as e:
                cells = [""] * 5 + ["error", str(e)]
                errors += 1
            w.writerow([repr(float(c)) for c in point] + cells)
            count += 1
    finally:
        if fh is not sys.stdout:
            fh.close()
    if errors:
        raise QuadratureError(f"{errors} of {count} table rows did not converge; "
                              f"they are written with status error")
    return 0


# ---------------------------------------------------------------------------
# eval

def _print_quat(label: str, v: Quaternion):
    t, a, b, c = (float(x) for x in v.components())
    print(f"{label}: {t!r} {a!r} {b!r} {c!r}")


def run_eval(args) -> int:
    spec = _build_spec(args)
    if args.kernel == "klambda":
        v = greens.k_lambda(args.x, args.t, tuple(args.lam), spec)
        _print_quat("k_lambda", v)
    elif args.kernel == "ktilde":
        val = greens.k_tilde_lambda(args.x, args.tau, tuple(args.lam), spec)
        print(f"k_tilde_lambda: {val!r}")
    else:
        v = greens.heis_k_closed(args.x, args.t, args.lam)
        q = greens.heis_k_quadrature(args.x, args.t, args.lam, spec)
        _print_quat("closed", v)
        _print_quat("quadrature", q)
        print(f"distance: {(q - v).norm()!r}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsiegel",
        description="verification runner and kernel evaluator")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a named check suite")
    pv.add_argument("--suite", choices=checks.SUITE_NAMES, default="all")
    pv.add_argument("--json", metavar="PATH",
                    help="write the JSON report here ('-' for stdout)")
    pv.add_argument("--csv", metavar="PATH",
                    help="write the checks as CSV here ('-' for stdout)")
    pv.add_argument("--threads", type=int, default=1,
                    help="run checks concurrently; report order is fixed")
    _add_spec_flags(pv)
    pv.add_argument("--max-subdiv", type=int, default=4000,
                    help="integrand evaluations allowed per 1-D integral before giving up (default 4000)")
    pv.set_defaults(func=run_verify)

    pt = sub.add_parser("table", help="tabulate kernel values to CSV")
    pt.add_argument("--kind", choices=sorted(_TABLE_KINDS), required=True)
    pt.add_argument("--out", default="-", metavar="PATH",
                    help="output CSV path ('-' for stdout)")
    pt.add_argument("--xnorm", type=_float_list, default=[1.0],
                    help="comma list of |x| values (klambda, heis)")
    pt.add_argument("--t", type=_float_list, default=[0.0],
                    help="comma list of central coordinates")
    pt.add_argument("--lam", type=_float_list, default=[0.0],
                    help="comma list of spectral parameters")
    pt.add_argument("--height", type=_float_list, default=[0.5, 1.0, 2.0],
                    help="comma list of heights (szego)")
    _add_spec_flags(pt)
    pt.set_defaults(func=run_table)

    pe = sub.add_parser(
        "eval", help="evaluate one kernel at one point",
        description="Evaluate one kernel at one point.  Of the quadrature flags, "
                    "ktilde reads none (its rule is fixed); klambda reads only "
                    "--sphere-order; heis reads --rel-tol (the pinch floor) and "
                    "--abs-tol (the tail end).")
    pe.add_argument("kernel", choices=["klambda", "ktilde", "heis"])
    pe.add_argument("--x", required=True,
                    help="4 components a,b,c,d" )
    pe.add_argument("--t", help="3 components p,q,r (klambda); scalar (heis)")
    pe.add_argument("--tau", help="3 components (ktilde)")
    pe.add_argument("--lam", help="3 components (klambda, ktilde); scalar (heis)")
    _add_spec_flags(pe)
    pe.set_defaults(func=run_eval)

    return p


def _coerce_eval_args(parser, args):
    if args.command != "eval":
        return
    try:
        args.x = _vector(args.x, 4, "--x")
        if args.kernel == "klambda":
            args.t = _vector(args.t or "0,0,0", 3, "--t")
            args.lam = _float_list(args.lam or "0,0,0")
            if len(args.lam) != 3:
                raise argparse.ArgumentTypeError("--lam needs 3 components")
        elif args.kernel == "ktilde":
            args.tau = _vector(args.tau or "1,0,0", 3, "--tau")
            args.lam = _float_list(args.lam or "0,0,0")
            if len(args.lam) != 3:
                raise argparse.ArgumentTypeError("--lam needs 3 components")
        else:
            args.t = float(args.t) if args.t is not None else 0.0
            args.lam = float(args.lam) if args.lam is not None else 0.0
    except (argparse.ArgumentTypeError, ValueError) as e:
        parser.error(str(e))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _coerce_eval_args(parser, args)
    try:
        return args.func(args)
    except QuadratureError as e:
        print(f"numerical non-convergence: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

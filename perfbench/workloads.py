"""Seeded inputs, references and the pass loop of each workload.

Every workload is a fixed op list built from the seed.  A pass runs the
whole list once; a run repeats passes until its time is up.  Inputs and
their references are made before the first pass, outside every timed
region, and outputs are checked after each pass, also untimed.

Kernel arguments share one sampling map: a gauge angle phi uniform on
[0, pi/2), a dilation r log-uniform on [0.1, 10] and random directions give
|x| = r sqrt(cos phi) and |t| = r^2 sin phi, so atan(|t|/|x|^2) = phi and
the |t| >> |x|^2 edge keeps its natural share.  |lambda| is uniform on
[0, 1.95).  Scalar draws are stratified (one draw per equal stratum, in
random order), and the gauge angle and dilation strata are paired on a
lattice: the marginals stay uniform while the op mix, the cost of a pass
and the failure shares vary little from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from qsiegel import cli, diffops, greens, quad, szego
from qsiegel.quad import QuadratureSpec
from qsiegel.quat import Quaternion
from qsiegel.siegel import SiegelPoint

import oracles

SPEC = QuadratureSpec()

# Documented misses at the commit that defined this benchmark.  Such a miss
# counts in `failed` but leaves `correct` true; a raise, and a miss outside
# these cases, makes the run incorrect.
# - k_lambda at lambda = 0: the fixed sphere rule misses Kaplan's K_0 as
#   |t|/|x|^2 grows (ROADMAP item 1).
# - k_tilde_lambda: the fixed u-panels miss the tolerance as |tau||x|^2 -> 0.
# - hermite_residual and delta_lambda_residual_on_k: finite differences of
#   k_tilde_lambda and k_lambda.  Both miss their check bounds at some
#   probe points, the Delta_lambda residual at |t|/|x|^2 from 0.2 to 15
#   and at lambda = 0 as well as lambda != 0.
# - heis_k_quadrature: a non-finite value at |lambda| > HEIS_OVERFLOW_LAMBDA,
#   where e^{|lambda| u} overflows on its u-grid.
HEIS_OVERFLOW_LAMBDA = 1.915

MARGIN_CAP = 16.0          # digits reported for an exact match
DELTA_RESIDUAL_BOUND = 1e-2   # bound of the kernel_annihilation checks
HERMITE_RESIDUAL_BOUND = 1e-4  # bound of the hermite_annihilation check

# ops per pass.  k_lambda (~20 ms) sets the pass time and, at the median
# of its own latencies, the op p90.  The sub-millisecond evaluators come in
# numbers that keep their failure shares steady from seed to seed, with
# heis_k_quadrature the largest group so that the op p50 falls in the
# middle of the heis / k_tilde band rather than on the edge of a group.
KERNEL_EVAL_MIX = (
    ("k_lambda.lam0", 40),
    ("k_lambda.lam", 40),
    ("k_tilde.lam0", 60),
    ("k_tilde.lam", 60),
    ("heis", 200),
    ("szego", 40),
)
STENCIL_PROBES = 4800       # drawn; about 4080 meet the preconditions
STENCIL_POINTS = 1


@dataclass
class Op:
    """One timed call.  ``check`` maps the returned value to an Outcome."""

    kernel: str
    call: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    failure: Optional[str]          # None, "oracle_miss" (also a non-finite
                                    # value), or "raised"
    margin: Optional[float] = None  # log10(tolerance / error), if checked
    known: bool = False             # a documented miss (see above)


@dataclass
class PassResult:
    seconds: float
    op_ms: list
    outcomes: list       # (kernel, Outcome), one per checked unit
    digest: Optional[str] = None
    reference_ms: Optional[float] = None   # median reference_ms() around the pass


# ---------------------------------------------------------------------------
# shared pieces

def margin(tol: float, err: float) -> float:
    if err <= 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tol / err))


def value_outcome(err: float, tol: float) -> Outcome:
    if not math.isfinite(err):
        return Outcome("oracle_miss")
    return Outcome(None if err <= tol else "oracle_miss", margin(tol, err))


def quat_outcome(value, ref) -> Outcome:
    ref = np.asarray(ref, dtype=float)
    err = float(np.linalg.norm(np.asarray(value.components()) - ref))
    return value_outcome(err, oracles.tolerance(float(np.linalg.norm(ref)),
                                                SPEC.abs_tol, SPEC.rel_tol))


def finite_outcome(value) -> Outcome:
    ok = all(math.isfinite(v) for v in value.components())
    return Outcome(None if ok else "oracle_miss")


def known_miss(out: Outcome) -> Outcome:
    out.known = out.failure == "oracle_miss"
    return out


def bound_outcome(value: float, bound: float) -> Outcome:
    if not math.isfinite(value):
        return Outcome("oracle_miss")
    return Outcome(None if value <= bound else "oracle_miss", margin(bound, value))


_REF_U = np.linspace(0.01, 5.0, 96)
_REF_Z = np.linspace(0.1, 3.0, 50_000) + 0.5j


def reference_ms() -> float:
    """Wall time of a fixed chunk of work that calls no qsiegel code, in ms:
    plain float arithmetic, ufuncs on a 96-point grid and a complex power
    over a 0.8 MB array, the three kinds of work the kernels do.  It gauges
    how fast the shared host runs at the moment."""
    t0 = time.perf_counter()
    a, b = 1.0, 0.5
    for _ in range(5000):
        a, b = 0.9 * a - 0.1 * b, 0.9 * b + 0.1 * a
    for k in range(150):
        em = np.expm1(-2.0 * _REF_U)
        float(np.dot(_REF_U, np.exp(-(2.0 + 0.01 * k) * _REF_U) / (em * em)))
    float(np.sum((_REF_Z ** -4.0).real * np.exp(-_REF_Z.real)))
    return 1e3 * (time.perf_counter() - t0)


def warm_up():
    """Fill the package's lazy caches (Gauss-Legendre and sphere rules)."""
    order = SPEC.sphere_order
    for o in (order, order + 8):
        quad.sphere2_nodes(o)
    for o in (order, order + 4):
        quad.sphere3_angles(o)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    greens.k_lambda(e0, np.zeros(3), (0.0, 0.0, 0.0), SPEC)
    greens.k_tilde_lambda(e0, np.array([1.0, 0.0, 0.0]), (0.0, 0.0, 0.0), SPEC)
    greens.heis_k_quadrature(e0, 1.0, 0.0, SPEC)


def strata(rng, n):
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def paired_strata(rng, n):
    """Two stratified draws (u, v) of n whose strata are paired on a rank-1
    lattice: stratum i of u goes with stratum (i g + s) mod n of v, with g
    the integer next to 0.618 n that is coprime to n and s random.  Each
    coordinate keeps one draw per stratum, and the pairs also cover the
    unit square evenly, so a failure share that depends on both varies
    little from seed to seed."""
    g = max(1, round(0.6180339887 * n))
    while math.gcd(g, n) != 1:
        g += 1
    i = rng.permutation(n)
    j = (i * g + rng.integers(n)) % n
    return (i + rng.random(n)) / n, (j + rng.random(n)) / n


def unit_rows(rng, n, dim):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def gauge_points(rng, n, r_min=0.1):
    """(x, t) pairs on the sampling map, as (n, 4) and (n, 3) arrays, with
    the dilation restricted to [r_min, 10]."""
    u, v = paired_strata(rng, n)
    phi = 0.5 * math.pi * u
    lo = math.log10(r_min)
    r = 10.0 ** (lo + (1.0 - lo) * v)
    x = unit_rows(rng, n, 4) * (r * np.sqrt(np.cos(phi)))[:, None]
    t = unit_rows(rng, n, 3) * (r * r * np.sin(phi))[:, None]
    return x, t, r


def lambdas(rng, n):
    return unit_rows(rng, n, 3) * (1.95 * strata(rng, n))[:, None]


def lambdas_about(rng, t):
    """A lambda for each row of t, with |lambda| uniform on [0, 1.95) and the
    cosine of its angle to t uniform on [-1, 1), as for a random direction.
    The two are stratified and paired, so a = lambda.t/|t|, which sets the
    length of the u-grid and with it the cost of k_tilde_lambda, has the
    same spread on every seed."""
    length, v = paired_strata(rng, len(t))
    cos = 2.0 * v - 1.0
    t_hat = t / np.linalg.norm(t, axis=1, keepdims=True)
    w = unit_rows(rng, len(t), 3)
    w -= np.sum(w * t_hat, axis=1, keepdims=True) * t_hat
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    direction = cos[:, None] * t_hat + np.sqrt(1.0 - cos * cos)[:, None] * w
    return (1.95 * length)[:, None] * direction


# ---------------------------------------------------------------------------
# kernel-eval

def _k_lambda_op(x, t, lam):
    xsq, tn = float(x @ x), float(np.linalg.norm(t))
    lam = tuple(float(v) for v in lam)
    if any(lam):
        check = finite_outcome     # no independent oracle yet (ROADMAP item 1)
    else:
        ref = (oracles.kaplan_k0(xsq, tn), 0.0, 0.0, 0.0)
        check = lambda v: known_miss(quat_outcome(v, ref))
    return Op("greens.k_lambda", lambda: greens.k_lambda(x, t, lam, SPEC), check)


def k_tilde_ref(x, tau, lam):
    xsq, tn = float(x @ x), float(np.linalg.norm(tau))
    if not any(lam):
        return oracles.k_tilde_closed(xsq, tn)
    return oracles.k_tilde_mp(xsq, tn, float(np.dot(lam, tau)) / tn)


def _k_tilde_op(x, tau, lam):
    lam = tuple(float(v) for v in lam)
    ref = k_tilde_ref(x, tau, lam)
    tol = oracles.tolerance(ref, SPEC.abs_tol, SPEC.rel_tol)
    return Op("greens.k_tilde_lambda",
              lambda: greens.k_tilde_lambda(x, tau, lam, SPEC),
              lambda v: known_miss(value_outcome(abs(v - ref), tol)))


def _heis_op(x, t, lam):
    ref = greens.heis_k_closed(x, t, lam).components()

    def check(v):
        out = quat_outcome(v, ref)
        out.known = (abs(lam) > HEIS_OVERFLOW_LAMBDA
                     and finite_outcome(v).failure is not None)
        return out
    return Op("greens.heis_k_quadrature",
              lambda: greens.heis_k_quadrature(x, t, lam, SPEC), check)


def _siegel_point(x, t, h):
    return SiegelPoint(Quaternion(*x), Quaternion(float(x @ x) + h, *t))


def _szego_op(p, w):
    ref = oracles.szego_closed(p.q1.components(), p.q2.components(),
                               w.q1.components(), w.q2.components())
    return Op("szego.szego_kernel", lambda: szego.szego_kernel(p, w),
              lambda v: quat_outcome(v, ref))


def kernel_eval_ops(seed: int):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for kind, n in KERNEL_EVAL_MIX:
        x, t, r = gauge_points(rng, n)
        if kind.startswith("k_lambda"):
            lam = lambdas(rng, n) if kind.endswith(".lam") else np.zeros((n, 3))
            ops += [_k_lambda_op(x[i], t[i], lam[i]) for i in range(n)]
        elif kind.startswith("k_tilde"):
            lam = lambdas(rng, n) if kind.endswith(".lam") else np.zeros((n, 3))
            ops += [_k_tilde_op(x[i], t[i], lam[i]) for i in range(n)]
        elif kind == "heis":
            sign_t = rng.choice((-1.0, 1.0), n)
            lam = rng.choice((-1.0, 1.0), n) * 1.95 * strata(rng, n)
            ops += [_heis_op(x[i], float(sign_t[i] * np.linalg.norm(t[i])),
                             float(lam[i])) for i in range(n)]
        else:
            x2, t2, r2 = gauge_points(rng, n)
            h = r * r * 10.0 ** -strata(rng, n)
            h2 = r2 * r2 * 10.0 ** -strata(rng, n)
            ops += [_szego_op(_siegel_point(x[i], t[i], h[i]),
                              _siegel_point(x2[i], t2[i], h2[i]))
                    for i in range(n)]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# kernel-stencil

def _affine(a, b):
    """f(q) = q a + b."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b

    def f(q):
        t, u, v, w = q.t, q.a, q.b, q.c
        return Quaternion(t * a0 - u * a1 - v * a2 - w * a3 + b0,
                          t * a1 + u * a0 + v * a3 - w * a2 + b1,
                          t * a2 + v * a0 + w * a1 - u * a3 + b2,
                          t * a3 + w * a0 + u * a2 - v * a1 + b3)
    return f


def _fueter(c, b):
    """f(q) = P12(q) c + b with P12 = (z1 z2 + z2 z1)/2 the symmetrized
    product of the Fueter variables z_l = x_l - x_0 e_l, which is
    (x1 x2, -x0 x2, -x0 x1, 0) and left-regular."""
    c0, c1, c2, c3 = c
    b0, b1, b2, b3 = b

    def f(q):
        t, u, v = q.b * q.a, -q.t * q.b, -q.t * q.a
        return Quaternion(t * c0 - u * c1 - v * c2 + b0,
                          t * c1 + u * c0 + v * c3 + b1,
                          t * c2 + v * c0 - u * c3 + b2,
                          t * c3 + u * c2 - v * c1 + b3)
    return f


def _valid_points(rng, n, r_min, ok):
    """The rows of gauge_points(rng, n, r_min) that satisfy ``ok(x, t)``:
    the sampling map restricted to the evaluators' preconditions.  Rows
    are dropped rather than drawn again, which keeps the rest stratified."""
    x, t, r = gauge_points(rng, n, r_min)
    keep = np.array([bool(ok(xi, ti)) for xi, ti in zip(x, t)])
    return x[keep], t[keep], r[keep]


def _ratio(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    return num / den if den > 0.0 else math.inf


def _hermite_op(x, tau, lam):
    # normalized as in the hermite_annihilation check:
    # residual / (|K~| (1 + 4 |x|^2 |tau|^2))
    scale = abs(k_tilde_ref(x, tau, lam)) * (1.0 + 4.0 * float(x @ x) * float(tau @ tau))
    return Op("greens.hermite_residual",
              lambda: greens.hermite_residual(x, tau, lam, SPEC),
              lambda v: known_miss(bound_outcome(_ratio(v, scale),
                                                 HERMITE_RESIDUAL_BOUND)))


def kernel_stencil_ops(seed: int):
    """The probe points (x, t) among STENCIL_PROBES draws that meet the
    preconditions, each running hermite_residual at
    (x, tau = t), with lambda = 0 on three points in four; the first
    STENCIL_POINTS also run both Delta_lambda residuals, at 0 and at a
    lambda of random direction and stratum-centre length, and two
    Cauchy-Fueter integrals.  Those cost about a second each against
    ~0.4 ms for the Hermite residual, which gets enough points for its
    failure share and margins to be steady across seeds.  One heavy point
    keeps a pass near five seconds, so a run holds several passes, and the
    ops run in random order, so every kind is timed across the whole run
    rather than in one stretch of each pass.  Hermite residuals at
    lambda != 0 are the slower ones; keeping them a minority puts the op
    p50 inside the lambda = 0 group rather than on the edge between the
    two."""
    rng = np.random.default_rng([seed, 2])
    # preconditions of delta_lambda_residual_on_k (|x| > 0.3, gauge >= 0.5),
    # which imply the one of hermite_residual (|x| >= 0.3); |x| <= r
    xs, ts, rs = _valid_points(rng, STENCIL_PROBES, 0.3, lambda x, t: (
        np.linalg.norm(x) > 0.3 and float(x @ x) + np.linalg.norm(t) >= 0.25))
    # |lambda| at the centres of STENCIL_POINTS equal strata of [0, 1.95):
    # the cost of k_lambda grows with |lambda|, and random lengths moved
    # pass_s by a quarter from seed to seed
    centres = 1.95 * (np.arange(STENCIL_POINTS) + 0.5) / STENCIL_POINTS
    heavy_lams = [tuple(float(v) for v in lam)
                  for lam in unit_rows(rng, STENCIL_POINTS, 3) * centres[:, None]]
    zero = (0.0, 0.0, 0.0)
    ops = []
    for x, t, r, lam in zip(xs, ts, rs, heavy_lams):
        for lv in (zero, lam):
            ops.append(Op("greens.delta_lambda_residual_on_k",
                          lambda lv=lv, x=x, t=t:
                          greens.delta_lambda_residual_on_k(x, t, lv, SPEC),
                          lambda v: known_miss(bound_outcome(v, DELTA_RESIDUAL_BOUND))))
        q0 = Quaternion(*x)
        for make in (_affine, _fueter):
            f = make(tuple(rng.normal(size=4)), tuple(rng.normal(size=4)))
            ref = f(q0).components()
            ops.append(Op("diffops.cauchy_fueter_sphere",
                          lambda f=f, q0=q0, r=r:
                          diffops.cauchy_fueter_sphere(f, q0, r, SPEC),
                          lambda v, ref=ref: quat_outcome(v, ref)))
    lams = np.zeros((len(xs), 3))
    lams[3::4] = lambdas_about(rng, ts[3::4])
    ops += [_hermite_op(x, t, tuple(float(v) for v in lam))
            for x, t, lam in zip(xs, ts, lams)]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# the pass loop

def run_ops(ops, on_op=None, clock=time.perf_counter) -> PassResult:
    """Time each op of one pass, then check the outputs outside the timing."""
    values, op_ms = [], []
    start = clock()
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        t0 = clock()
        try:
            v = op.call()
        except Exception as e:   # a raise is a failed op, not a crash
            v = e
        op_ms.append(1e3 * (clock() - t0))
        values.append(v)
    seconds = clock() - start
    outcomes = []
    for op, v in zip(ops, values):
        out = Outcome("raised") if isinstance(v, Exception) else op.check(v)
        outcomes.append((op.kernel, out))
    return PassResult(seconds, op_ms, outcomes)


# ---------------------------------------------------------------------------
# verify-suite

def report_digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verify_outcomes(report: dict):
    """(name, Outcome) per hard check of a verify report."""
    out = []
    for c in report["checks"]:
        if c["category"] == "erratum":
            continue
        name = f"checks.{c['suite']}.{c['name']}"
        failure = None if c["pass"] else "oracle_miss"
        err = c["rel_err"] if c["tol_kind"] == "rel" else c["abs_err"]
        m = None
        if c["tol_kind"] in ("rel", "abs") and isinstance(err, float) and c["tolerance"]:
            m = margin(c["tolerance"], err)
        out.append((name, Outcome(failure, m)))
    return out


def run_verify(workdir: Path, on_op=None, clock=time.perf_counter) -> PassResult:
    """One pass of ``qsiegel verify --suite all``; a non-zero exit, a
    raise, a failed report or an unreadable report fails every hard check
    of the pass."""
    path = workdir / "verify-report.json"
    path.unlink(missing_ok=True)
    argv = ["verify", "--suite", "all", "--json", str(path), "--threads", "1"]
    if on_op is not None:
        on_op(0)
    t0 = clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        code = None
    seconds = clock() - t0
    try:
        report = json.loads(path.read_text())["report"]
    except (OSError, ValueError, KeyError):
        report = None
    path.unlink(missing_ok=True)
    if report is None:
        return PassResult(seconds, [1e3 * seconds], [("cli.main", Outcome("raised"))])
    outcomes = verify_outcomes(report)
    if code != 0 or report["passed"] is not True:
        outcomes.append(("cli.main", Outcome("oracle_miss")))
    return PassResult(seconds, [1e3 * seconds], outcomes, report_digest(report))


def determinism(passes, digest_file: Path):
    """A failed unit when the report hash differs between passes, or from
    the hash an earlier run of the same source tree stored in
    ``digest_file``; the first run stores it."""
    digests = {p.digest for p in passes}
    if digest_file.exists():
        digests.add(digest_file.read_text().strip())
    elif len(digests) == 1 and None not in digests:
        digest_file.write_text(next(iter(digests)) + "\n")
    if len(digests) == 1 and None not in digests:
        return []
    return [("verify.determinism", Outcome("oracle_miss"))]

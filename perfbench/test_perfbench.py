"""Self-tests of the benchmark: its oracles agree with the library where the
library is known to be right, its inputs follow the seed, and untraced runs
leave the package untouched."""

import json
import math
import time
import types

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads
from qsiegel import checks, greens, quat, szego
from qsiegel.quat import Quaternion
from qsiegel.siegel import SiegelPoint

SPEC = workloads.SPEC


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("x", [[1.0, 0, 0, 0], [0.9, 0.4, -0.3, 0.6], [0.1, 0.2, 0.0, -0.3]])
def test_kaplan_matches_k_lambda_at_t0(x):
    x = np.array(x)
    v = greens.k_lambda(x, np.zeros(3), (0.0, 0.0, 0.0), SPEC)
    assert _rel(v.t, oracles.kaplan_k0(float(x @ x), 0.0)) <= 1e-9


def test_k_tilde_oracles_match_library_at_unit_point():
    x, tau = np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0])
    lib0 = greens.k_tilde_lambda(x, tau, (0.0, 0.0, 0.0), SPEC)
    assert _rel(lib0, oracles.k_tilde_closed(1.0, 1.0)) <= 1e-9
    lib = greens.k_tilde_lambda(x, tau, (0.5, 0.3, 0.0), SPEC)
    assert _rel(lib, oracles.k_tilde_mp(1.0, 1.0, 0.5)) <= 1e-9


@pytest.mark.parametrize("xsq,taunorm,a", [(1.0, 1.0, 0.9), (2.0, 0.15, -1.5),
                                           (1.0, 1e-4, -1.9), (0.09, 400.0, 1.9)])
def test_tricomi_form_matches_quadrature(xsq, taunorm, a):
    ref = oracles.k_tilde_mp_quad(xsq, taunorm, a)
    assert _rel(oracles.k_tilde_mp(xsq, taunorm, a), ref) <= 1e-14


def test_tricomi_form_reduces_to_closed_form_at_a0():
    assert _rel(oracles.k_tilde_mp(2.0, 0.3, 0.0), oracles.k_tilde_closed(2.0, 0.3)) <= 1e-14


def test_szego_oracle_matches_library():
    p = SiegelPoint(Quaternion(0.1, 0.2, -0.4, 0.3), Quaternion(2.0, 0.3, -1.0, 0.2))
    w = SiegelPoint(Quaternion(-0.1, 0.2, 0.3, 0.5), Quaternion(1.5, 0.3, 0.2, -0.7))
    ref = oracles.szego_closed(p.q1.components(), p.q2.components(),
                               w.q1.components(), w.q2.components())
    got = szego.szego_kernel(p, w).components()
    assert np.linalg.norm(np.subtract(got, ref)) <= 1e-12 * np.linalg.norm(ref)


def test_gauge_angle_and_dilation_ranges():
    x, t, r = workloads.gauge_points(np.random.default_rng(0), 400)
    phi = np.arctan2(np.linalg.norm(t, axis=1), np.sum(x * x, axis=1))
    assert phi.min() >= 0.0 and phi.max() < math.pi / 2
    # one draw per stratum of width (pi/2)/400
    assert len(set(np.floor(phi / (math.pi / 2) * 400).astype(int))) == 400
    assert r.min() >= 0.1 and r.max() <= 10.0


def test_same_seed_same_inputs():
    a = workloads.kernel_eval_ops(7)
    b = workloads.kernel_eval_ops(7)
    c = workloads.kernel_eval_ops(8)
    cheap = [i for i, op in enumerate(a) if op.kernel != "greens.k_lambda"][:12]
    va = [a[i].call() for i in cheap]
    assert va == [b[i].call() for i in cheap]
    assert [op.kernel for op in a] == [op.kernel for op in b]
    assert va != [c[i].call() for i in cheap]


def test_only_documented_misses_are_known():
    x, t = np.array([2.0, 0.0, 0.0, 0.0]), np.array([0.1, 0.0, 0.0])
    nan = Quaternion(math.nan, 0.0, 0.0, 0.0)
    k_tilde = workloads._k_tilde_op(x, t, (0.0, 0.0, 0.0))
    out = k_tilde.check(1.01 * oracles.k_tilde_closed(4.0, 0.1))
    assert out.failure == "oracle_miss" and out.known
    # a raise is never a documented miss, whatever the evaluator
    boom = workloads.Op(k_tilde.kernel, lambda: 1 / 0, k_tilde.check)
    _, out = workloads.run_ops([boom]).outcomes[0]
    assert out.failure == "raised" and not out.known
    # k_lambda: misses are documented at lambda = 0 only
    assert workloads._k_lambda_op(x, t, (0.0, 0.0, 0.0)).check(nan).known
    out = workloads._k_lambda_op(x, t, (0.5, 0.0, 0.0)).check(nan)
    assert out.failure == "oracle_miss" and not out.known
    # heis_k_quadrature: only a non-finite value past the overflow edge
    lam = workloads.HEIS_OVERFLOW_LAMBDA + 0.01
    heis = workloads._heis_op(x, 0.5, lam)
    wrong = 1.1 * greens.heis_k_closed(x, 0.5, lam)
    assert heis.check(nan).known
    assert heis.check(wrong).failure == "oracle_miss" and not heis.check(wrong).known
    assert not workloads._heis_op(x, 0.5, 1.5).check(nan).known
    # Cauchy-Fueter has no documented misses
    cf = next(op for op in workloads.kernel_stencil_ops(1)
              if op.kernel == "diffops.cauchy_fueter_sphere")
    out = cf.check(nan)
    assert out.failure == "oracle_miss" and not out.known


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(100)), 0.9)[0] == pytest.approx(89.1)
    assert run.percentile(list(range(99)), 0.9)[0] == 98
    assert run.percentile(list(range(20)), 0.5)[0] == pytest.approx(9.5)


def test_run_counts_each_unit_once_and_scales_times_to_the_reference():
    ok, miss = workloads.Outcome(None, 3.0), workloads.Outcome("oracle_miss", known=True)
    ref = run.REFERENCE_MS
    a = workloads.PassResult(1.0, [2.0, 5.0], [("f", ok), ("g", miss)], reference_ms=ref)
    b = workloads.PassResult(2.0, [6.0, 8.0], [("f", ok), ("g", miss)],
                             reference_ms=2.0 * ref)      # a pass at half speed
    c = workloads.PassResult(1.0, [2.5, 4.5], [("f", ok), ("g", miss)], reference_ms=ref)
    assert run.op_ms_at_reference([a, b, c]) == [2.5, 4.5]
    assert run.merge_units([a, b, a]) == [("f", ok), ("g", miss)]
    c = workloads.PassResult(1.0, [2.0, 5.0], [("f", miss), ("g", miss)])
    (_, f), _ = run.merge_units([a, c])
    assert f.failure == "unsteady" and not f.known


def _snapshot():
    owners = [vars(m) for m in tracing.MODULES] + [vars(quat.Quaternion), checks._SUITES]
    return [{k: id(v) for k, v in owner.items()} for owner in owners]


def _small_measure(monkeypatch, trace):
    ops = workloads.kernel_eval_ops(3)
    small = [op for op in ops if op.kernel != "greens.k_lambda"][:6] + \
        [op for op in ops if op.kernel == "greens.k_lambda"][:2]
    seen = []
    real_run_ops = workloads.run_ops

    def run_ops(ops, on_op=None, clock=time.perf_counter):
        seen.append(_snapshot())
        return real_run_ops(ops, on_op, clock)
    monkeypatch.setattr(workloads, "kernel_eval_ops", lambda seed: small)
    monkeypatch.setattr(workloads, "run_ops", run_ops)
    args = types.SimpleNamespace(workload="kernel-eval", seed=3, seconds=0.0, trace=trace)
    return run.measure(args, workloads, tracing), seen


def _declared(kind):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_untraced_run_leaves_package_unwrapped(monkeypatch):
    before = _snapshot()
    (plain, traced, _, _), seen = _small_measure(monkeypatch, 0)
    assert len(plain) == run.MIN_PASSES and not traced
    assert all(s == before for s in seen)
    assert _snapshot() == before
    assert all(p.reference_ms > 0.0 for p in plain)
    emitted = run.end_to_end(plain, (0.5, 0.6))
    assert {k: v[1] for k, v in emitted.items()} == _declared("end_to_end")


def test_traced_run_wraps_then_restores(monkeypatch):
    before = _snapshot()
    (plain, traced, layers, k_ms), seen = _small_measure(monkeypatch, 1)
    assert seen[0] == before and seen[1] != before
    assert _snapshot() == before
    assert layers[0]["greens.k_lambda.calls"] == 2 and len(k_ms) == 2
    assert layers[0]["quad.sphere2_nodes.calls"] >= 2
    assert [o.failure for _, o in plain[0].outcomes] == \
        [o.failure for _, o in traced[0].outcomes]
    emitted = run.per_layer(plain, traced, layers, k_ms, tracing)
    assert {k: v[1] for k, v in emitted.items()} == _declared("per_layer")

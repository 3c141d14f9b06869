"""Spans around the calls into each qsiegel module, and the per-layer
metrics derived from them.

``Tracer.install`` replaces every public function in the namespaces of the
package modules with a wrapper, so a call is recorded under the namespace
it goes through (``greens.sphere2_nodes``, ``group.integrate_nested``) and
attributed to the function it reaches (``quad.sphere2_nodes``).  Each span
keeps its name, start, end, parent and the id of the op that caused it;
self time is the span minus its children.  Quaternion arithmetic is far too
frequent to keep as spans: it is aggregated into call counts and self time
on the same stack.  Plain-function arguments (integrands, fields) are
wrapped in counters, which give the ``f_evals`` of the callee.
``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import Counter, defaultdict

import numpy as np

from qsiegel import checks, cli, diffops, greens, group, quad, quat, siegel, szego

MODULES = (quat, quad, group, siegel, diffops, szego, greens, checks, cli)

QUAT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__truediv__", "conj", "norm_sq", "norm", "inverse")

SUITES = ("algebra", "group", "siegel", "diffops", "szego", "greens")

EVALUATORS = ("greens.k_lambda", "greens.k_tilde_lambda",
              "greens.heis_k_quadrature", "szego.szego_kernel",
              "greens.delta_lambda_residual_on_k", "greens.hermite_residual",
              "diffops.cauchy_fueter_sphere")

_lru_type = type(functools.lru_cache()(lambda: None))


def _traceable(obj) -> bool:
    return (isinstance(obj, (types.FunctionType, _lru_type))
            and getattr(obj, "__module__", "").startswith("qsiegel."))


def _func_name(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"


class Tracer:
    """Records spans for one process; single-threaded, like the workloads."""

    def __init__(self):
        self._patches = []
        self.op_id = None
        self.spans = []          # (op, id, parent, name, func, t0, t1, self_s)
        self.quat = [0, 0.0]     # calls, self seconds
        self.counts = Counter()  # "<func>.f_evals"
        self.keys = {}           # span id -> argument key (k_lambda)
        self._stack = []         # [span id, t0, child seconds]
        self._next = 0

    # -- patching ------------------------------------------------------

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _traceable(obj):
                    continue
                func = _func_name(obj)
                self._patch(mod, name, self._leaf(obj) if func == "quat.real_power"
                            else self._span(obj, f"{short}.{name}", func))
        for name in QUAT_OPS:
            self._patch(quat.Quaternion, name,
                        self._leaf(getattr(quat.Quaternion, name)))
        # checks expose no per-suite hook: interpose on the suite builders
        # so each check runs inside a "checks.<suite>" span
        for suite in SUITES:
            self._patch_suite(suite)

    def _patch_suite(self, suite):
        builder = checks._SUITES[suite]
        name = f"checks.{suite}"

        def build(spec):
            return [(cname, self._span(thunk, name, name))
                    for cname, thunk in builder(spec)]
        self._patches.append((checks._SUITES, suite, builder))
        checks._SUITES[suite] = build

    def uninstall(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)

    # -- wrappers ------------------------------------------------------

    def _counted(self, f, func):
        counts = self.counts
        key = func + ".f_evals"

        def counted(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return counted

    def _span(self, fn, name, func):
        tracer = self
        keyed = func == "greens.k_lambda"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = tuple(tracer._counted(a, func)
                         if isinstance(a, types.FunctionType) else a
                         for a in args)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next
            tracer._next += 1
            if keyed:
                tracer.keys[sid] = _point_key(args)
            frame = [sid, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - frame[1]
                if parent is not None:
                    parent[2] += dur
                tracer.spans.append((tracer.op_id, sid,
                                     parent[0] if parent else None, name, func,
                                     frame[1], t1, dur - frame[2]))
        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def _leaf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [None, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                if parent is not None:
                    parent[2] += dur
                tracer.quat[0] += 1
                tracer.quat[1] += dur - frame[2]
        wrapper.__perfbench_wrapped__ = True
        return wrapper


def _point_key(args):
    x, t, lam = args[:3]
    lam = lam.as_tuple() if hasattr(lam, "as_tuple") else tuple(lam)
    return (tuple(np.asarray(x, dtype=float).tolist()),
            tuple(np.asarray(t, dtype=float).tolist()),
            tuple(float(v) for v in lam))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

def pass_metrics(tr: Tracer, outcomes) -> dict:
    """Per-layer values of one traced pass (seconds, counts, ratios)."""
    calls = Counter()
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    parent_of = {}
    func_of = {}
    for op, sid, parent, name, func, t0, t1, s in tr.spans:
        calls[func] += 1
        self_s[func] += s
        parent_of[sid] = parent
        func_of[sid] = func
        total_s[func] += t1 - t0     # inclusive; reported for non-recursive spans

    # k_lambda calls made inside each residual evaluation
    residual = "greens.delta_lambda_residual_on_k"
    per_residual = defaultdict(list)
    for sid, key in tr.keys.items():
        p = parent_of.get(sid)
        while p is not None and func_of[p] != residual:
            p = parent_of[p]
        if p is not None:
            per_residual[p].append(key)
    n_res = calls[residual]
    in_res = sum(len(v) for v in per_residual.values())
    distinct = sum(len(set(v)) for v in per_residual.values())

    m = {
        "quad.integrate_1d.self_s": self_s["quad.integrate_1d"],
        "quad.integrate_1d.calls": calls["quad.integrate_1d"],
        "quad.integrate_nested.self_s": self_s["quad.integrate_nested"],
        "group.polar_constant.s": total_s["group.polar_constant"],
        "group.polar_constant.f_evals": tr.counts["group.polar_constant.f_evals"],
        "szego.radial_kernel_integral.calls": calls["szego.radial_kernel_integral"],
        "szego.radial_kernel_integral.s": total_s["szego.radial_kernel_integral"],
        "greens.k_lambda.calls": calls["greens.k_lambda"],
        "greens.k_lambda.self_s": self_s["greens.k_lambda"],
        "greens.k_lambda.calls_per_residual": in_res / n_res if n_res else 0.0,
        "greens.k_lambda.useful_ratio": distinct / in_res if in_res else 0.0,
        "greens.k_tilde_lambda.self_s": self_s["greens.k_tilde_lambda"],
        "greens.heis_k_quadrature.self_s": self_s["greens.heis_k_quadrature"],
        "szego.szego_kernel.self_s": self_s["szego.szego_kernel"],
        "diffops.cauchy_fueter_sphere.s": total_s["diffops.cauchy_fueter_sphere"],
        "diffops.cauchy_fueter_sphere.f_evals":
            tr.counts["diffops.cauchy_fueter_sphere.f_evals"],
        "diffops.delta_lambda_apply.self_s": self_s["diffops.delta_lambda_apply"],
        "diffops.delta_lambda_apply.f_evals":
            tr.counts["diffops.delta_lambda_apply.f_evals"],
        "quat.ops.calls": tr.quat[0],
        "quat.ops.self_s": tr.quat[1],
        "quad.sphere2_nodes.calls": calls["quad.sphere2_nodes"],
        "quad.gauss_rule.calls": calls["quad.gauss_rule"],
        "cli.main.self_s": total_s["cli.main"] - total_s["checks.run_suite"],
    }
    for suite in SUITES:
        m[f"checks.{suite}.s"] = total_s[f"checks.{suite}"]
    for ev in EVALUATORS:
        for kind in ("oracle_miss", "raised"):
            m[f"{ev}.{kind}"] = sum(1 for k, o in outcomes
                                    if k == ev and o.failure == kind)
    return m


def k_lambda_ms(tr: Tracer):
    """Inclusive latency of every k_lambda span, in ms."""
    return [1e3 * (t1 - t0) for _, _, _, _, func, t0, t1, _ in tr.spans
            if func == "greens.k_lambda"]


def median_metrics(per_pass):
    """Median over passes of each per-layer value."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_per_residual")):
        return "ratio"
    return "count"

"""The greens and diffops verify suites against deliberately broken code.

Each defect below is patched into one evaluator of ``qsiegel.greens`` or
``qsiegel.diffops``, and ``run_suite`` of that suite must then fail, in
the checks named with it.  A suite that passes broken code proves nothing
about working code.  Every non-erratum greens check fails under some
defect, except the four that the README lists as holding by
construction.
"""

import inspect
import math
import pathlib
import re
import textwrap

import numpy as np
import pytest

from qsiegel import checks, diffops, greens


def _scaled_c0_at_lambda0(real):
    def defect(xs, ts, lam, spec):
        c0, ck = real(xs, ts, lam, spec)
        return (c0 * 1.001 if not any(lam) else c0), ck
    return defect


def _scaled_at_lambda(real):
    def defect(xs, ts, lam, spec):
        c0, ck = real(xs, ts, lam, spec)
        return (c0 * 1.01, ck * 1.01) if any(lam) else (c0, ck)
    return defect


def _per_node_factor(real):
    # each node's u-integrals times 1 + 0.05 g^2, a defect of the
    # lambda-coupling that no identity in (x, t) sees
    def u_integral(g, b):
        even, odd = real(g, b)
        return even * (1.0 + 0.05 * g * g), odd * (1.0 + 0.05 * g * g)
    return u_integral


def _alternating_weights(real):
    # the weights of each ring of the S^2 rule times 1 +- 5%, alternating
    # along the ring's even number of equal weights, so that the sum is kept
    def nodes(order, fold=False):
        n, w = real(order, fold)
        return n, w * (1.0 + 0.05 * (-1.0) ** np.arange(len(w)))
    return nodes


def _on_components(fn):
    def patch(real):
        return lambda xs, ts, lam, spec: fn(*real(xs, ts, lam, spec))
    return patch


def _on_lambda(fn):
    def patch(real):
        def defect(xs, ts, lam, spec):
            return real(xs, ts, tuple(fn(np.array(lam)).tolist()), spec)
        return defect
    return patch


def _u_integral_defect(half=0.5, phase_sign=1.0, im_sign=1.0, g2=0.5):
    """``greens._u_integral_lambda`` with one factor of its closed form
    changed: G(half g), e^{phase_sign i g phi}, the im_sign 3igb term and
    the g2 g^2 term."""
    def defect(real):
        def u_integral(g, b):
            y = half * g
            gam = np.divide(math.pi * y, np.sin(math.pi * np.minimum(y, 1.0 - y)),
                            out=np.ones_like(y), where=y > 0.0)
            d = 1.0 + b * b
            scale = gam / (3.0 * d * d * d)
            phase = phase_sign * g * np.arctan(b)
            re = 1.0 + g2 * g * g - 3.0 * b * b
            im = im_sign * 3.0 * g * b
            return (scale * (np.cos(phase) * re - np.sin(phase) * im),
                    scale * (np.sin(phase) * re + np.cos(phase) * im))
        return u_integral
    return defect


_BOTH_ROUTES = {"kernel_annihilation_lambda", "kernel_value_axial"}

# (name of the patched greens function, wrapper of the real one, checks
# that must fail)
DEFECTS = {
    "c0_x1.001_at_lambda0": ("_k_lambda_components", _scaled_c0_at_lambda0,
                             {"kernel_value", "kernel_value_kaplan"}),
    "closed_form_1-2B": ("_u_integral_lambda0",
                         lambda real: lambda B: (1.0 - 2.0 * B) / (3.0 * (1.0 + B) ** 3),
                         {"kernel_annihilation_lambda0"}),
    "closed_form_G(g)": ("_u_integral_lambda", _u_integral_defect(half=1.0),
                         {"kernel_value_axial"}),
    "closed_form_-3igb": ("_u_integral_lambda", _u_integral_defect(im_sign=-1.0),
                          _BOTH_ROUTES),
    "closed_form_conjugate_phase": ("_u_integral_lambda",
                                    _u_integral_defect(phase_sign=-1.0), _BOTH_ROUTES),
    "closed_form_no_g^2": ("_u_integral_lambda", _u_integral_defect(g2=0.0),
                           _BOTH_ROUTES),
    # the value oracle's own defects: the whole kernel, one factor per node,
    # the S^2 weights and the S^2 order
    "k_x1.01_at_lambda": ("_k_lambda_components", _scaled_at_lambda,
                          {"kernel_value_axial"}),
    "per_node_1+0.05g^2": ("_u_integral_lambda", _per_node_factor,
                           {"kernel_value_axial"}),
    "sphere_weights_x(1+-0.05)": ("sphere2_nodes", _alternating_weights,
                                  {"kernel_value_axial"}),
    "sphere_order_8": ("sphere2_nodes",
                       lambda real: lambda order, fold=False: real(8, fold),
                       {"kernel_value_axial"}),
    "ck_x1.1": ("_k_lambda_components", _on_components(lambda c0, ck: (c0, 1.1 * ck)),
                {"kernel_annihilation_lambda"}),
    "ck_rolled": ("_k_lambda_components",
                  _on_components(lambda c0, ck: (c0, np.roll(ck, 1, axis=1))),
                  {"kernel_annihilation_lambda"}),
    "lambda_negated": ("_k_lambda_components", _on_lambda(lambda lam: -lam),
                       {"kernel_annihilation_lambda"}),
    "lambda_x0.9": ("_k_lambda_components", _on_lambda(lambda lam: 0.9 * lam),
                    {"kernel_annihilation_lambda"}),
    # the naive weight exp(-(lambda.n) u) of a one-dimensional centre:
    # g = |lambda.n| and axis n sign(lambda.n), for g = |lambda o n| and
    # axis (lambda o n)/g
    "naive_weight": ("_k_lambda_components",
                     lambda real: _rewritten(real, "nodes * lam3[None, :]",
                                             "nodes * (nodes @ lam3)[:, None]"),
                     _BOTH_ROUTES),
    "k_tilde_x1.001": ("_k_tilde_rows",
                       lambda real: lambda xs, ray: [1.001 * v for v in real(xs, ray)],
                       {"hermite_kernel_value"}),
    # K~'s own prefactor 1/(4 pi^2 |x|^2), which the Hermite stencil does
    # not read; the stencil's x-factor e^{-|tau| d} s/(s + d) with its
    # s/(s + d) dropped; and its first-derivative term 8F' halved at the
    # step d (the check reads 0.58)
    "k_tilde_prefactor_2pi^2": ("_k_tilde_rows",
                                lambda real: _rewritten(real, "4.0 * math.pi ** 2",
                                                        "2.0 * math.pi ** 2"),
                                {"hermite_kernel_value"}),
    "hermite_x_factor": ("hermite_residual",
                         lambda real: _rewritten(real, "/ (s0 + d)", "/ s0"),
                         {"hermite_annihilation"}),
    "hermite_first_derivative": ("hermite_residual",
                                 lambda real: _rewritten(real, "4.0 * (p - m)", "2.0 * (p - m)"),
                                 {"hermite_annihilation"}),
    # heis_k_quadrature's two half-lines on one rule: the u < 0 side
    # without its conjugate, the +-lambda exp rows swapped, and the rule cut
    # at the faster side's tail end (1.4e-7 against the rel_tol bound of
    # 1e-9, at lambda = -1)
    "heis_no_conjugate": ("_both_half_lines",
                          lambda real: _rewritten(real, "s[0] + s[1].conjugate()",
                                                  "s[0] + s[1]"),
                          {"heisenberg_oracle"}),
    "heis_lambda_rows_swapped": ("_both_half_lines",
                                 lambda real: _rewritten(real, "(-(2.0 + lam), -(2.0 - lam))",
                                                         "(-(2.0 - lam), -(2.0 + lam))"),
                                 {"heisenberg_oracle"}),
    "heis_fast_tail_end": ("_heis_rule",
                           lambda real: _rewritten(real, "2.0 - abs(lam)", "2.0 + abs(lam)"),
                           {"heisenberg_oracle"}),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_greens_suite_fails_on_defect(spec, monkeypatch, defect):
    name, wrap, must_fail = DEFECTS[defect]
    monkeypatch.setattr(greens, name, wrap(getattr(greens, name)))
    report = checks.run_suite("greens", spec)
    failed = {c["name"] for c in report["checks"]
              if c["category"] != "erratum" and not c["pass"]}
    assert not report["passed"]
    assert must_fail <= failed


# README's list of the greens checks that hold by construction
_BY_CONSTRUCTION = re.compile(r"^- `(\w+)`:", re.M)


def test_every_greens_check_fails_under_some_defect(spec):
    # a retired or renamed check cannot drop out of the matrix unnoticed
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("fail under none of those defects", 1)[1].split("\n## ", 1)[0]
    by_construction = set(_BY_CONSTRUCTION.findall(section))
    assert by_construction == {"hermite_kernel_scaling", "kernel_homogeneity_degree",
                               "lambda0_reality", "central_conjugation"}
    covered = set().union(*(must_fail for _, _, must_fail in DEFECTS.values()))
    hard = {c["name"] for c in checks.run_suite("greens", spec)["checks"]
            if c["category"] != "erratum"}
    assert hard - by_construction == covered
    assert by_construction <= hard


def _rewritten(fn, old, new):
    """fn recompiled in a copy of its module's namespace, with the one
    occurrence of ``old`` in its source replaced by ``new``."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"mutation site {old!r} not unique in {fn.__name__}"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def _flipped_x1_coefficient(real):
    # X1's t1-coefficient 2 x0 becomes -2 x0
    return (real[0], ((0, -2.0),) + real[1][1:]) + real[2:]


def _scaled_cf_run(real):
    return lambda *a: real(*a) * 1.001


# (module, name of the patched object, wrapper of the real one, checks that
# must fail); checks looks up crf_tangency_residual and dq_eval in its own
# namespace, so those are patched there
DIFFOPS_DEFECTS = {
    "x_tcoeff_sign": (diffops, "_X_TCOEFF", _flipped_x1_coefficient, {"bracket_table"}),
    "no_leibniz_derivative": (diffops, "_leibniz",
                              lambda real: lambda alpha: ((alpha, (0, 0, 0, 0), 1),),
                              {"bracket_table"}),
    "dq_minor_sign": (checks, "dq_eval",
                      lambda real: _rewritten(real, "-minors[1]", "minors[1]"),
                      {"volume_pairing"}),
    "tangency_no_factor_2": (checks, "crf_tangency_residual",
                             lambda real: _rewritten(real, "dbar_q2 * 2.0", "dbar_q2"),
                             {"boundary_annihilation"}),
    "cf_run_x1.001": (diffops, "_cf_run", _scaled_cf_run,
                      {"reproducing_constant", "reproducing_identity"}),
}


@pytest.fixture
def fresh_operators():
    """Empty the cached operators before and after a test, so that none
    built from a patched definition outlives it."""
    caches = (diffops._sum_x_squared, diffops._x_fields, diffops._box_b_ops)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("defect", sorted(DIFFOPS_DEFECTS))
def test_diffops_suite_fails_on_defect(spec, monkeypatch, fresh_operators, defect):
    module, name, wrap, must_fail = DIFFOPS_DEFECTS[defect]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    report = checks.run_suite("diffops", spec)
    failed = {c["name"] for c in report["checks"]
              if c["category"] != "erratum" and not c["pass"]}
    assert not report["passed"]
    assert must_fail <= failed

"""The greens verify suite against deliberately broken kernels.

Each defect below is patched into one evaluator of ``qsiegel.greens``, and
``run_suite("greens")`` must then fail, in the checks named with it.  A
suite that passes a broken kernel proves nothing about a working one.

Known gap, not asserted here: K_lambda scaled by 1.01 at lambda != 0
still passes every check.  The annihilation residual is normalized by
|K|, the conjugation and homogeneity checks are scale-free, and the
Fourier route, whose oracle shares K_lambda's sphere rule, reads 9.9e-3
against its bound of 1e-2.  An exact t = 0 oracle at lambda != 0
(ROADMAP item 1) and an independent Fourier route (item 2) close it.
"""

import math

import numpy as np
import pytest

from qsiegel import checks, greens
from qsiegel.diffops import Lambda


def _scaled_c0_at_lambda0(real):
    def defect(xs, ts, lam, spec):
        c0, ck = real(xs, ts, lam, spec)
        return (c0 * 1.001 if not any(lam.as_tuple()) else c0), ck
    return defect


def _on_components(fn):
    def patch(real):
        return lambda xs, ts, lam, spec: fn(*real(xs, ts, lam, spec))
    return patch


def _on_lambda(fn):
    def patch(real):
        def defect(xs, ts, lam, spec):
            return real(xs, ts, Lambda(*fn(np.array(lam.as_tuple()))), spec)
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


_BOTH_ROUTES = {"kernel_annihilation_lambda", "fourier_route_consistency"}

# (name of the patched greens function, wrapper of the real one, checks
# that must fail)
DEFECTS = {
    "c0_x1.001_at_lambda0": ("_k_lambda_components", _scaled_c0_at_lambda0,
                             {"kernel_value", "sphere_form_agreement"}),
    "closed_form_1-2B": ("_u_integral_lambda0",
                         lambda real: lambda B: (1.0 - 2.0 * B) / (3.0 * (1.0 + B) ** 3),
                         {"kernel_annihilation_lambda0"}),
    "closed_form_G(g)": ("_u_integral_lambda", _u_integral_defect(half=1.0),
                         {"fourier_route_consistency"}),
    "closed_form_-3igb": ("_u_integral_lambda", _u_integral_defect(im_sign=-1.0),
                          _BOTH_ROUTES),
    "closed_form_conjugate_phase": ("_u_integral_lambda",
                                    _u_integral_defect(phase_sign=-1.0), _BOTH_ROUTES),
    "closed_form_no_g^2": ("_u_integral_lambda", _u_integral_defect(g2=0.0),
                           _BOTH_ROUTES),
    "ck_x1.1": ("_k_lambda_components", _on_components(lambda c0, ck: (c0, 1.1 * ck)),
                {"kernel_annihilation_lambda"}),
    "ck_rolled": ("_k_lambda_components",
                  _on_components(lambda c0, ck: (c0, np.roll(ck, 1, axis=1))),
                  {"kernel_annihilation_lambda"}),
    "lambda_negated": ("_k_lambda_components", _on_lambda(lambda lam: -lam),
                       {"kernel_annihilation_lambda"}),
    "lambda_x0.9": ("_k_lambda_components", _on_lambda(lambda lam: 0.9 * lam),
                    {"kernel_annihilation_lambda"}),
    "k_tilde_x1.001": ("_k_tilde_rows",
                       lambda real: lambda xs, ray, spec: [1.001 * v for v in real(xs, ray, spec)],
                       {"hermite_kernel_value"}),
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

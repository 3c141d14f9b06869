"""Fundamental solutions: partial-transform kernel, inverse kernel on the
group, Heisenberg reduction, and PDE residuals."""

import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qsiegel.quat import Quaternion
from qsiegel.quad import (QuadratureError, QuadratureSpec, integrate_1d,
                          integrate_nested, panel_grid, sphere2_nodes)
from qsiegel import greens
from qsiegel.greens import (k_tilde_lambda, hermite_residual, k_lambda,
                            heis_k_closed, heis_k_quadrature,
                            heis_contour_sign_check, delta_lambda_residual_on_k,
                            _k_lambda_axial, _k_lambda_components, _k_tilde_rows,
                            _tau_ray)

X_UNIT = np.array([1.0, 0.0, 0.0, 0.0])
T_ZERO = np.array([0.0, 0.0, 0.0])
LAM0 = (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# partial transform in the central variable

def test_ktilde_value_lambda0(spec):
    v = k_tilde_lambda(X_UNIT, np.array([1.0, 0.0, 0.0]), LAM0, spec)
    want = math.exp(-1.0) / (4.0 * math.pi ** 2)
    assert abs(v - want) <= 1e-9 * want


def test_ktilde_substitution_oracle(spec):
    # independent route: substitute s = exp(-2u) in the integral
    x = np.array([1.1, 0.3, -0.2, 0.5])
    tau = np.array([0.4, -0.8, 0.3])
    lam = (0.6, -0.3, 0.2)
    tn = float(np.linalg.norm(tau))
    a = float(np.dot(lam, tau)) / tn
    big_t = tn * float(np.dot(x, x))

    def f(s):
        return 2.0 * s ** (0.5 * a) * np.exp(-big_t * (1.0 + s) / (1.0 - s)) \
            / (1.0 - s) ** 2

    oracle = tn / (4.0 * math.pi ** 2) * integrate_1d(f, (0.0, 1.0), spec).value
    got = k_tilde_lambda(x, tau, lam, spec)
    assert abs(got - oracle) <= 1e-9 * abs(oracle)


def test_ktilde_scaling_identity(spec):
    # K~(x, s^2 tau) = s^2 K~(s x, tau) at lambda = 0 exactly; the
    # anisotropic parameter keeps the identity through a matched rescale
    x = np.array([0.9, 0.2, -0.4, 0.3])
    tau = np.array([0.5, -0.2, 0.7])
    s = 1.6
    lhs = k_tilde_lambda(x, s * s * tau, LAM0, spec)
    rhs = s * s * k_tilde_lambda(s * x, tau, LAM0, spec)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_ktilde_positivity_and_decay(spec):
    tau = np.array([1.0, 0.0, 0.0])
    vals = [k_tilde_lambda(r * X_UNIT, tau, (0.5, 0.0, 0.0), spec)
            for r in (0.5, 1.0, 2.0, 3.0)]
    assert all(v > 0.0 for v in vals)
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_ktilde_preconditions(spec):
    with pytest.raises(ValueError):
        k_tilde_lambda(np.zeros(4), np.array([1.0, 0.0, 0.0]), LAM0, spec)
    with pytest.raises(ValueError):
        k_tilde_lambda(X_UNIT, np.zeros(3), LAM0, spec)
    with pytest.raises(ValueError):
        k_tilde_lambda(X_UNIT, np.array([1.0, 0.0, 0.0]), (2.0, 0.0, 0.0), spec)


def _k_tilde_mp(mp, xsq, tnorm, a):
    """K~ from the v = coth u form in closed form, I = 2c G(1+mu) U(1+mu, 2, 2c)
    with Tricomi's U, c = tnorm xsq and mu = a/2, as an mpf at mpmath's
    working precision; I = 1 at mu = 0."""
    c = mp.mpf(tnorm) * mp.mpf(xsq)
    mu = mp.mpf(a) / 2
    i = 2 * c * mp.gamma(1 + mu) * mp.hyperu(1 + mu, 2, 2 * c) if mu else 1
    return mp.exp(-c) / (4 * mp.pi ** 2 * mp.mpf(xsq)) * i


def _k_tilde_tricomi(xsq, tnorm, a):
    """``_k_tilde_mp`` by mpmath at 30 digits, as a float."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return float(_k_tilde_mp(mp, xsq, tnorm, a))


@pytest.mark.parametrize("a", [-1.95, -1.9, -0.5, 0.0, 0.9, 1.95])
def test_k_tilde_matches_tricomi_form(spec, rng, a):
    # c = |tau||x|^2 from 1e-6 to 700 on one fixed rule, on random rays
    # and scales of x
    for c in np.geomspace(1e-6, 700.0, 25):
        x = rng.normal(size=4)
        x *= rng.uniform(0.3, 3.0) / np.linalg.norm(x)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        tau = c / float(x @ x) * n
        lam = a * n
        tnorm = float(np.linalg.norm(tau))
        want = _k_tilde_tricomi(float(x @ x), tnorm, float(lam @ tau) / tnorm)
        got = k_tilde_lambda(x, tau, lam, spec)
        assert abs(got - want) <= 1e-9 * want


@pytest.mark.parametrize("a", [-1.95, -0.5, 0.9, 1.95])
def test_v_integral_matches_tricomi_u_past_underflow(a):
    # I itself against 2c G(1+mu) U(1+mu, 2, 2c), mu = a/2, on one row pass:
    # c from 1e-6 to 750, past where e^{-c} and with it K~ underflow, and
    # c = 1e4, where I taken at c capped to 1e3 was 0.68 to 8.4 off
    mp = pytest.importorskip("mpmath")
    mu = a / 2.0
    cs = np.append(np.geomspace(1e-6, 750.0, 25), 1e4)
    got = greens._v_integral(cs.copy(), mu)
    with mp.workdps(30):
        for c, g in zip(cs.tolist(), got.tolist()):
            want = 2 * mp.mpf(c) * mp.gamma(1 + mu) * mp.hyperu(1 + mu, 2, 2 * mp.mpf(c))
            assert abs(g - want) <= 1e-10 * want


def test_k_tilde_lambda0_closed_form(spec):
    # the u-panel form was 0.78 off at c = 1e-4; at lambda.tau = 0 the
    # integral of the v-form is the rule's constant 1 - 1.1e-16
    x = np.array([0.6, -0.5, 0.4, 0.3])
    xsq = float(x @ x)
    for c in np.geomspace(1e-4, 700.0, 40):
        tau = c / xsq * np.array([0.36, 0.48, 0.8])
        for lam in (LAM0, (0.8, -0.6, 0.0)):            # lambda orthogonal to tau
            want = math.exp(-float(np.linalg.norm(tau)) * xsq) / (4.0 * math.pi ** 2 * xsq)
            assert abs(k_tilde_lambda(x, tau, lam, spec) - want) <= 1e-14 * want


def test_hermite_residual_small(spec):
    r = hermite_residual(X_UNIT, np.array([1.0, 0.0, 0.0]), (0.5, 0.0, 0.0), spec)
    k = k_tilde_lambda(X_UNIT, np.array([1.0, 0.0, 0.0]), (0.5, 0.0, 0.0), spec)
    assert r <= 1e-6 * k * (1.0 + 4.0)


def test_hermite_residual_second_order(spec):
    x = np.array([1.2, 0.1, -0.3, 0.4])
    tau = np.array([0.8, -0.2, 0.5])
    lam = (0.4, 0.2, -0.3)
    r1 = hermite_residual(x, tau, lam, spec, h=4e-2)
    r2 = hermite_residual(x, tau, lam, spec, h=2e-2)
    # fourth order: halving h divides the residual by 16
    assert 14.0 <= r1 / r2 <= 18.0


# ---------------------------------------------------------------------------
# the kernel on the group

def test_k_lambda_value_at_unit(spec):
    v = k_lambda(X_UNIT, T_ZERO, LAM0, spec)
    want = 1.0 / (4.0 * math.pi ** 4)
    assert abs(v.t - want) <= 1e-7 * want
    assert v.imag_norm() <= 1e-12 * want


def test_k_lambda_matches_kaplan_closed_form(spec):
    # at lambda = 0 the kernel is Kaplan's 1/(4 pi^4 (|x|^4 + |t|^2)^2); an
    # oracle that shares no node with the sphere rule
    rng = np.random.default_rng(7)
    for xn in (0.2, 0.7, 1.0, 2.3, 5.0):
        for ratio in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):      # |t|/|x|^2
            x = rng.normal(size=4)
            x *= xn / np.linalg.norm(x)
            t = rng.normal(size=3)
            t *= ratio * xn * xn / np.linalg.norm(t)
            v = k_lambda(x, t, LAM0, spec)
            want = 1.0 / (4.0 * math.pi ** 4 * (xn ** 4 + float(t @ t)) ** 2)
            assert abs(v.t - want) <= 1e-10 * want
            assert v.imag_norm() <= 1e-10 * want
    # a small |x| of this order: k_lambda raises at 1e-40 (test_cli)
    v = k_lambda(np.array([1e-18, 0.0, 0.0, 0.0]), T_ZERO, LAM0, spec)
    want = 1.0 / (4.0 * math.pi ** 4 * 1e-72 ** 2)
    assert abs(v.t - want) <= 1e-10 * want


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_k_lambda_matches_kaplan_off_axis(spec, r):
    # Kaplan's form at |t|/|x|^2 = r along a direction off every axis, up
    # to r = 2, where the S^2 rule's error grows (8.0e-12 at order 32)
    t_hat = np.array([0.3, -0.4, 0.866])
    t = r * t_hat / np.linalg.norm(t_hat)
    v = k_lambda(X_UNIT, t, LAM0, spec)
    want = 1.0 / (4.0 * math.pi ** 4 * (1.0 + float(t @ t)) ** 2)
    assert abs(v.t - want) <= 1e-9 * want


def test_k_lambda_homogeneity_at_tiny_x(spec):
    # the kernel runs at |x| = 1 with |x|^-8 applied last, so |x| = 1e-20
    # is finite (|x|^-8 overflows only below about 1e-39)
    for lam in (LAM0, (0.5, 0.0, 0.0)):
        want = 1e160 * k_lambda(X_UNIT, T_ZERO, lam, spec).t
        v = k_lambda(1e-20 * X_UNIT, T_ZERO, lam, spec)
        assert abs(v.t - want) <= 1e-12 * want
        assert v.imag_norm() == 0.0


def _j_sphere_mean(lam, spec):
    """int_{S^2} J(|lambda o n|/2) dsigma, J(z) = (pi z/sin pi z)(1+2z^2)/3,
    by ``integrate_nested`` in (cos theta, phi) on one octant: J depends on
    n only through n^2, and the engine shares no node with sphere2_nodes."""
    l1, l2, l3 = lam

    def f(c, phi):
        sn = np.sqrt(1.0 - c * c)
        z = 0.5 * np.sqrt((l1 * sn * np.cos(phi)) ** 2 + (l2 * sn * np.sin(phi)) ** 2
                          + (l3 * c) ** 2)
        pz = math.pi * np.where(z == 0.0, 1.0, z)
        ratio = np.where(z == 0.0, 1.0, pz / np.sin(pz))
        return ratio * (1.0 + 2.0 * z * z) / 3.0

    res = integrate_nested(((0.0, 1.0), (0.0, 0.5 * math.pi)), f, spec)
    assert res.converged
    return 8.0 * res.value


@pytest.mark.parametrize("lam, order, bound", [
    ((0.0, 0.0, 0.0), 32, 1e-14), ((0.8, 0.0, 0.0), 32, 1e-14),
    ((0.3, -0.7, 0.5), 32, 1e-14), ((1.2, 1.0, 0.6), 32, 1e-14),
    ((1.95, 0.0, 0.0), 64, 1e-13)])
def test_k_lambda_t0_beta_integral(lam, order, bound):
    # at t = 0, P = |x|^-8 tanh^4 u is real and the u-integral is a Beta
    # integral: K_lambda(x, 0) = 6/(2 pi)^5 |x|^-8 int_{S^2} J(|lambda o n|/2)
    x = np.array([1.0, 0.2, -0.3, 0.5])
    mean = _j_sphere_mean(lam, QuadratureSpec(rel_tol=1e-14, abs_tol=1e-15))
    want = 6.0 / (2.0 * math.pi) ** 5 / float(x @ x) ** 4 * mean
    v = k_lambda(x, T_ZERO, lam, QuadratureSpec(sphere_order=order))
    assert abs(v.t - want) <= bound * want
    assert v.imag_norm() == 0.0


def _u_integral_mpmath(g, b):
    """E and O of one sphere node at |x| = 1 by mpmath at 30 digits:
    int_0^inf (rho^{g/2} +- rho^{-g/2})/2 {Re, Im}(1 + s - i b)^-4 ds,
    rho = (2+s)/s, with s = y^p, p = 1/(1 - g/2), on (0, 1), which makes
    the s^{-g/2} endpoint factor smooth."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        g, b = mp.mpf(g), mp.mpf(b)
        p = 1 / (1 - g / 2)

        def parts(s):
            rho = (2 + s) / s
            q = (1 + s - 1j * b) ** -4
            return rho ** (g / 2), rho ** (-g / 2), q

        def fe(s):
            up, down, q = parts(s)
            return (up + down) / 2 * mp.re(q)

        def fo(s):
            up, down, q = parts(s)
            return (up - down) / 2 * mp.im(q)

        def integral(f):
            lo = mp.quad(lambda y: f(y ** p) * p * y ** (p - 1), [0, 0.5, 0.9, 1])
            # the scale of (1 + s - i b)^-4 is |b| where that exceeds 4
            ends = [1, 4] + [e for e in (abs(b), 10 * abs(b)) if e > 4] + [mp.inf]
            return lo + mp.quad(f, ends)

        return float(integral(fe)), float(integral(fo))


@pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 1.95, 1.99])
def test_u_integral_lambda_matches_mpmath(g):
    # per sphere node, relative to |E| + |O|; the 64-node rule it replaced
    # was within 5e-13 of this oracle
    for b in (0.0, 1.0, 7.0, 30.0):
        e, o = greens._u_integral_lambda(np.array([g]), np.array([b]))
        want_e, want_o = _u_integral_mpmath(g, b)
        assert abs(e[0] - want_e) + abs(o[0] - want_o) <= 2e-15 * (abs(want_e) + abs(want_o))


def test_u_integral_lambda_at_b0_and_g0():
    # at b = 0, E = J(g/2) = G(g/2)(1 + g^2/2)/3 with G(z) = Gamma(1+z)
    # Gamma(1-z) from math.gamma, and O = 0; at g = 0 it is the lambda = 0
    # closed form
    g = np.array([0.0, 0.1, 0.5, 1.0, 1.5, 1.95, 1.99, 1.999])
    e, o = greens._u_integral_lambda(g, np.zeros_like(g))
    for gi, ei in zip(g.tolist(), e.tolist()):
        z = 0.5 * gi
        want = math.gamma(1.0 + z) * math.gamma(1.0 - z) * (1.0 + 2.0 * z * z) / 3.0
        assert abs(ei - want) <= 4e-15 * want
    assert not o.any()
    b = np.linspace(-7.0, 7.0, 141)
    e, o = greens._u_integral_lambda(np.zeros_like(b), b)
    scale = 1.0 / (3.0 * (1.0 + b * b) ** 1.5)       # |int (1 + s - i b)^-4 ds|
    assert np.all(np.abs(e - greens._u_integral_lambda0(b * b)) <= 4e-16 * scale)
    assert not o.any()


@pytest.mark.parametrize("b", [0.0, 0.5, 3.0, 30.0, 1e3])
def test_lambda0_u_integral_matches_mpmath(b):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        bb = mp.mpf(b)
        ends = [0] + [e for e in (b / 10, b, 10 * b) if e > 0] + [mp.inf]
        want = mp.quad(lambda s: mp.re((1 + s - 1j * bb) ** -4), ends)
    assert abs(greens._u_integral_lambda0(b * b) - float(want)) <= 1e-15 * abs(float(want))


@pytest.mark.parametrize("order", [32, 33])
def test_k_lambda_continuous_at_lambda0(order):
    # the lambda = 0 closed form and the closed form of lambda != 0 are one
    # function: the real part is even in lambda, so it moves by O(lambda^2)
    # at lambda = 1e-9; the imaginary part is the odd part, O(lambda)
    spec = QuadratureSpec(sphere_order=order)
    points = [(np.array([1.0, 0.2, -0.3, 0.5]), T_ZERO),            # |t|/|x|^2 = 0
              (np.array([0.9, 0.4, -0.3, 0.6]), np.array([0.7, -1.2, 0.5])),   # 1.04
              (np.array([0.5, -0.4, 0.3, 0.2]), np.array([0.0, 0.9, -0.7]))]   # 2.11
    for x, t in points:
        assert np.linalg.norm(t) <= 3.0 * float(x @ x)
        k0 = k_lambda(x, t, LAM0, spec)
        for lam in ((1e-9, 0.0, 0.0), (0.0, 1e-9, -1e-9)):
            k = k_lambda(x, t, lam, spec)
            assert abs(k.t - k0.t) <= 1e-12 * abs(k0.t)
            assert k.imag_norm() <= 1e-8 * abs(k0.t)


def test_k_lambda_builds_no_u_rule(spec, monkeypatch):
    # every u-integral of k_lambda is in closed form: no u-rule, panel grid
    # or nested integral is built, at lambda = 0 or not, for single points
    # and stencils
    def boom(*args):
        raise AssertionError("k_lambda built a u-rule")

    for name in ("panel_grid", "integrate_nested"):
        monkeypatch.setattr(greens, name, boom)
    x, t = np.array([0.9, 0.4, -0.3, 0.6]), np.array([0.7, -1.2, 0.5])
    for lam in (LAM0, (-0.0, 0.0, -0.0), (0.5, 0.3, 0.0), (1.2, -0.9, 0.8)):
        assert k_lambda(x, t, lam, spec).t != 0.0
        assert delta_lambda_residual_on_k(X_UNIT, np.array([0.5, 0.0, 0.0]), lam,
                                          spec) <= 1e-5


def _k_lambda_full_sphere(x, t, lam, order):
    """The polar-reduced kernel term by term, as written in the greens
    docstring: the full product rule and numpy's complex power."""
    spec = QuadratureSpec(sphere_order=order)
    nodes, w_s = sphere2_nodes(order)
    ln = nodes * np.asarray(lam)
    g = np.linalg.norm(ln, axis=1)
    u, w_u = panel_grid(0.0, 0.5, math.log(10.0 / spec.abs_tol) / (2.0 - np.linalg.norm(lam)))
    em = np.expm1(-2.0 * u)
    coth = (2.0 + em) / (-em)
    # cosh(g u)/sinh^2 u and sinh(g u)/sinh^2 u without overflow
    slow = 2.0 * np.exp(np.outer(g - 2.0, u)) / (em * em)
    fast = 2.0 * np.exp(-np.outer(2.0 + g, u)) / (em * em)
    p = np.power(float(x @ x) * coth[None, :] - 1j * (nodes @ t)[:, None], -4.0)
    w = w_s[:, None] * w_u[None, :]
    c = 6.0 / (2.0 * math.pi) ** 5
    axis = ln / np.where(g > 0.0, g, 1.0)[:, None]
    c0 = c * np.sum(w * (slow + fast) * p.real)
    ck = -c * (axis.T @ np.sum(w * (slow - fast) * p.imag, axis=1))
    return np.array([c0, *ck])


@pytest.mark.parametrize("order", [7, 32])
def test_k_lambda_components_match_full_sphere_power(order):
    # the folded rule and the real w^4 arithmetic against the full rule
    # with a complex power, at lambda up to |lambda| = 1.95, and at
    # lambda = 0, where the u-integral is the closed form
    rng = np.random.default_rng(11)
    lams = [(0.4, -0.3, 0.2), (1.95, 0.0, 0.0), (0.0, 1.17, 1.56),
            tuple(1.95 * np.array([1.2, -0.9, 1.1]) / math.sqrt(3.46))]
    lams0 = [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)]
    xs, ts = [], []
    for ratio in (0.0, 0.3, 1.0, 2.0):                 # |t|/|x|^2
        x = rng.normal(size=4)
        x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        t = rng.normal(size=3)
        ts.append(t * ratio * float(x @ x) / np.linalg.norm(t))
        xs.append(x)
    spec = QuadratureSpec(sphere_order=order)
    for lam in lams:
        assert 0.0 < np.linalg.norm(lam) <= 1.95 + 1e-12
    assert all(np.linalg.norm(lam) == 0.0 for lam in lams0)
    for lam in lams + lams0:
        c0, ck = _k_lambda_components(np.array(xs), np.array(ts), lam, spec)
        for i in range(len(xs)):
            want = _k_lambda_full_sphere(xs[i], ts[i], lam, order)
            got = np.array([c0[i], *ck[i]])
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("r", [0.5, 2.0, 7.0, 20.0])
def test_axial_oracle_matches_kaplan_at_lambda0(spec, r):
    v = _k_lambda_axial(1.0, r, 0.0, spec)
    want = 1.0 / (4.0 * math.pi ** 4 * (1.0 + r * r) ** 2)
    assert abs(v.t - want) <= 5e-12 * want
    assert v.imag_norm() == 0.0


@pytest.mark.parametrize("l", [0.8, 1.5])
@pytest.mark.parametrize("r", [0.5, 2.0])
def test_axial_oracle_matches_k_lambda_at_order_128(spec, l, r):
    # on other nodes and with no shared formula; at the default order 32
    # k_lambda reads 5.2e-11 at l = 0.8, r = 2
    want = _k_lambda_axial(1.0, r, l, spec)
    got = k_lambda(X_UNIT, np.array([r, 0.0, 0.0]), (l, 0.0, 0.0),
                   QuadratureSpec(sphere_order=128))
    assert want.b == want.c == 0.0 and want.a != 0.0
    assert (got - want).norm() <= 1e-12 * want.norm()


def test_axial_oracle_homogeneity_and_conjugation(spec):
    # x -> 2x, t -> 4t leaves b and the n_1 split as they are: the value
    # scales by 2^-8 exactly; t -> -t conjugates it
    a = _k_lambda_axial(1.0, 2.0, 0.8, spec)
    b = _k_lambda_axial(2.0, 8.0, 0.8, spec)
    assert b.components() == tuple(v / 256.0 for v in a.components())
    assert _k_lambda_axial(1.0, -2.0, 0.8, spec) == a.conj()


def test_axial_oracle_raises_on_budget():
    with pytest.raises(QuadratureError, match="did not converge"):
        _k_lambda_axial(1.0, 2.0, 0.8, QuadratureSpec(max_subdivisions=50))


def test_k_lambda_homogeneity(spec):
    x = np.array([0.9, 0.4, -0.3, 0.6])
    t = np.array([0.7, -1.2, 0.5])
    lam = (0.7, 0.0, 0.0)
    a = k_lambda(2.0 * x, 4.0 * t, lam, spec)
    b = k_lambda(x, t, lam, spec)
    assert abs(math.log2(a.norm() / b.norm()) + 8.0) <= 1e-5


def test_k_lambda_center_conjugation(spec):
    x = np.array([0.9, 0.4, -0.3, 0.6])
    t = np.array([0.7, -1.2, 0.5])
    lam = (0.6, -0.4, 0.3)
    a = k_lambda(x, t, lam, spec)
    b = k_lambda(x, -t, lam, spec)
    assert (b - a.conj()).norm() <= 1e-10 * a.norm()


def test_k_lambda_rotation_in_x(spec):
    # |x| and t determine the value: the x-dependence is radial
    t = np.array([0.4, -0.7, 0.2])
    lam = (0.5, 0.3, 0.0)
    a = k_lambda(np.array([1.3, 0.0, 0.0, 0.0]), t, lam, spec)
    b = k_lambda(np.array([0.0, 1.3, 0.0, 0.0]), t, lam, spec)
    c = k_lambda(np.array([0.65, -0.65, 0.65, 0.65]), t, lam, spec)
    assert (a - b).norm() <= 1e-10 * a.norm()
    assert (a - c).norm() <= 1e-10 * a.norm()


def test_k_lambda_preconditions(spec):
    with pytest.raises(ValueError):
        k_lambda(np.zeros(4), T_ZERO, LAM0, spec)
    with pytest.raises(ValueError):
        k_lambda(X_UNIT, T_ZERO, (1.5, 1.5, 0.0), spec)


_NAN4 = np.array([math.nan, 0.0, 0.0, 0.0])
_NAN3 = np.array([0.0, math.nan, 0.0])
_INF3 = np.array([0.0, 0.0, math.inf])
_X = np.array([1.0, 0.2, 0.0, 0.0])
_T = np.array([0.5, 0.0, 0.0])
_LAM = (0.3, 0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda s: k_lambda(_NAN4, _T, _LAM, s),
    lambda s: k_lambda(_X, _NAN3, _LAM, s),
    lambda s: k_lambda(_X, _INF3, _LAM, s),
    lambda s: k_lambda(_X, _T, _NAN3, s),
    lambda s: k_lambda(_X, _T, _INF3, s),
    lambda s: k_tilde_lambda(_NAN4, _T, _LAM, s),
    lambda s: k_tilde_lambda(_X, _NAN3, _LAM, s),
    lambda s: k_tilde_lambda(_X, _INF3, _LAM, s),
    lambda s: k_tilde_lambda(_X, _T, _NAN3, s),
    lambda s: hermite_residual(_NAN4, _T, _LAM, s),
    lambda s: hermite_residual(_X, _NAN3, _LAM, s),
    lambda s: hermite_residual(_X, _T, _NAN3, s),
    lambda s: hermite_residual(_X, _T, _LAM, s, h=math.nan),
    lambda s: delta_lambda_residual_on_k(_NAN4, _T, _LAM, s),
    lambda s: delta_lambda_residual_on_k(_X, _NAN3, _LAM, s),
    lambda s: delta_lambda_residual_on_k(_X, _T, _NAN3, s),
    lambda s: hermite_residual(_X, _INF3, _LAM, s),
    lambda s: delta_lambda_residual_on_k(_X, _INF3, _LAM, s),
    lambda s: heis_k_closed(_NAN4, 0.5, 0.3),
    lambda s: heis_k_closed(_X, math.nan, 0.3),
    lambda s: heis_k_closed(_X, 0.5, math.nan),
    lambda s: heis_k_quadrature(_NAN4, 0.5, 0.3, s),
    lambda s: heis_k_quadrature(_X, math.nan, 0.3, s),
    lambda s: heis_k_quadrature(_X, math.inf, 0.3, s),
    lambda s: heis_k_quadrature(_X, 0.5, math.nan, s),
])
def test_non_finite_input_raises(spec, call):
    # each guard fails on NaN; never a NaN value
    with pytest.raises(ValueError):
        call(spec)


def test_huge_finite_t_is_not_a_domain_error(spec):
    # t is finite however large: where b^2 = (t.n/|x|^2)^2 overflows the
    # value is not finite and raises QuadratureError; where only (1 + b^2)^3
    # does, it underflows to 0.0 like the true kernel, at every lambda
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = np.array([1e200, 0.0, 0.0])
        for call in (lambda: k_lambda(X_UNIT, huge, _LAM, spec),
                     lambda: k_lambda(X_UNIT, huge, LAM0, spec)):
            with pytest.raises(QuadratureError, match="not finite"):
                call()
        for lam in (_LAM, LAM0):
            v = k_lambda(X_UNIT, np.array([1e150, 0.0, 0.0]), lam, spec)
            assert v.components() == (0.0, 0.0, 0.0, 0.0)


def test_k_tilde_rows_reject_any_non_finite_row(spec):
    xs = np.tile(_X, (9, 1))
    xs[6, 2] = math.nan
    with pytest.raises(ValueError):
        _k_tilde_rows(xs, _tau_ray(_T, _LAM))


@pytest.mark.parametrize("x, h", [
    (X_UNIT, 1e-17),                        # 1 + h == 1: the stencil collapses
    (X_UNIT, 1e-170),                       # h*h == 0
    (-X_UNIT, 8e-17),                       # only s + h|x| == s collapses (s = 1)
    (X_UNIT, math.inf),
    (X_UNIT, 0.0),
    (X_UNIT, -1e-3),
])
def test_hermite_residual_rejects_collapsed_step(spec, x, h):
    # a step that collapses the stencil raises before any row is evaluated,
    # with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="step"):
            hermite_residual(x, np.array([1.0, 0.0, 0.0]), (0.5, 0.0, 0.0), spec, h=h)


@pytest.mark.parametrize("lam", [LAM0, (0.5, -0.3, 0.2)])
@pytest.mark.parametrize("c, h", [(1.0, 1.0), (1.0, 0.5), (740.0, 0.49)])
def test_hermite_residual_rejects_step_too_large(spec, lam, c, h):
    # |x| = 1: the row s - 2h|x| reaches s = 0 at h = 1/2 and lies below it
    # at h = 1, and at c = 740, h = 0.49 the row's e^{|tau| d} overflows while
    # K~(x) is still subnormal.  Each raises the step error, with no
    # RuntimeWarning from an I pass on such a row
    tau = c * np.array([0.36, 0.48, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="step too large"):
            hermite_residual(X_UNIT, tau, lam, spec, h=h)


def test_k_tilde_underflow_returns_finite_zero(spec):
    # at c = |tau||x|^2 >~ 745 e^{-c} underflows: K~ and its residual are a
    # finite 0.0, not an error.  Pinned so that raising there (ROADMAP item
    # 1) is a deliberate change of this test.
    tau = np.array([1000.0, 0.0, 0.0])
    assert k_tilde_lambda(X_UNIT, tau, (0.5, 0.0, 0.0), spec) == 0.0
    assert hermite_residual(X_UNIT, tau, (0.5, 0.0, 0.0), spec) == 0.0


@pytest.mark.parametrize("lam", [(-0.95, 0.0, 0.0), (0.45, 0.0, 0.0)])
def test_k_tilde_overflowing_c_returns_zero(spec, lam):
    # at c = |tau||x|^2 = 1e308, 2c overflows to inf, and inf^{-mu} is inf
    # for mu < 0: e^{-c} underflows, so _k_tilde_rows takes no I on the row
    # and the value is 0.0 with no RuntimeWarning, not 0 * inf
    tau = np.array([1e108, 0.0, 0.0])
    assert k_tilde_lambda(1e100 * X_UNIT, tau, lam, spec) == 0.0


@pytest.mark.parametrize("x, tau, lam", [
    (1e154 * X_UNIT, np.array([1.0, 0.0, 0.0]), (0.0, 0.3, 0.0)),    # lambda.tau = 0
    (1e154 * X_UNIT, np.array([1.0, 0.0, 0.0]), (0.5, 0.0, 0.0)),
    (1e100 * X_UNIT, np.array([1e150, 0.0, 0.0]), (-0.5, 0.0, 0.0)),  # c overflows
])
def test_k_tilde_overflowing_row_returns_zero(spec, x, tau, lam):
    # where 4 pi^2 |x|^2 or c = |tau||x|^2 overflows e^{-c} is 0: the value
    # is 0.0 with no RuntimeWarning, and a finite row batched with it keeps
    # its single-row value
    assert k_tilde_lambda(x, tau, lam, spec) == 0.0
    xs = np.array([x, _X])
    assert _k_tilde_rows(xs, _tau_ray(tau, lam)) == [
        0.0, k_tilde_lambda(_X, tau, lam, spec)]


def test_delta_residual_lambda0(spec):
    r = delta_lambda_residual_on_k(X_UNIT, np.array([0.5, 0.0, 0.0]), LAM0, spec)
    assert r <= 1e-5


def test_delta_residual_lambda(spec):
    r = delta_lambda_residual_on_k(X_UNIT, np.array([0.5, 0.0, 0.0]),
                                   (0.5, 0.3, 0.0), spec)
    assert r <= 1e-5


def test_delta_residual_verify_values_pinned(spec):
    # the two kernel_annihilation points of the verify suite, on the line
    # stencil (17 and 25 points in one batched k_lambda call)
    t = np.array([0.5, 0.0, 0.0])
    assert delta_lambda_residual_on_k(X_UNIT, t, LAM0, spec) == 1.938598234870596e-07
    assert (delta_lambda_residual_on_k(X_UNIT, t, (0.5, 0.3, 0.0), spec)
            == 1.8827788529960547e-07)


def _hermite_stencil_mp(x, tau, lam, h, cartesian=False):
    """The Richardson-extrapolated Hermite stencil (4 D(h/2) - D(h))/3 of
    ``hermite_residual`` applied to the exact K~ = F(s) (``_k_tilde_mp``),
    by mpmath at 40 digits: its O(h^4) truncation alone, signed.  D(h) is
    4s F'' + 8F' from the rows s +- 2h|x| at s = |x|^2, less
    (4s|tau|^2 + 4 lambda.tau) F; with ``cartesian``, the Laplacian is the
    former 17-point stencil's, from the rows x +- h e_l.  Returns it and
    K~(x) as mpfs."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x = [mp.mpf(float(v)) for v in x]
        tau = [mp.mpf(float(v)) for v in tau]
        tnorm = mp.sqrt(mp.fsum(v * v for v in tau))
        lt = mp.fsum(mp.mpf(float(a)) * b for a, b in zip(lam, tau))
        s0 = mp.fsum(v * v for v in x)

        def f(s):
            return _k_tilde_mp(mp, s, tnorm, lt / tnorm)

        k0 = f(s0)

        def d(step):
            if cartesian:
                lap = mp.fsum(f(mp.fsum((v + sign * step if j == l else v) ** 2
                                        for j, v in enumerate(x))) - k0
                              for l in range(4) for sign in (1, -1)) / step ** 2
            else:
                ds = 2 * step * mp.sqrt(s0)
                p, m = f(s0 + ds) - k0, f(s0 - ds) - k0
                lap = 4 * s0 * (p + m) / ds ** 2 + 4 * (p - m) / ds
            return lap - (4 * s0 * tnorm ** 2 + 4 * lt) * k0

        step = mp.mpf(h)
        return (4 * d(step / 2) - d(step)) / 3, k0


# (x, tau, lambda, step, pinned value); the default step is 1e-3 at these
# points
_HERMITE_PINS = [
    (X_UNIT, (1.0, 0.0, 0.0), (0.5, 0.0, 0.0), None, 7.366072767585797e-13),
    ((0.8, -0.3, 0.5, 0.2), (0.4, -0.7, 0.3), (0.3, -0.2, 0.4), None,
     1.8166257959941144e-12),
    # lambda = 0, where three quarters of perfbench's residuals run, and an
    # explicit step
    ((0.8, -0.3, 0.5, 0.2), (0.4, -0.7, 0.3), LAM0, None, 6.278380557959032e-15),
    ((0.8, -0.3, 0.5, 0.2), (0.4, -0.7, 0.3), LAM0, 4e-3, 4.6484781106992515e-14),
]


def test_hermite_residual_values_pinned(spec):
    # each pin is the stencil of the exact K~ up to rounding.  Each ratio
    # rho_i - 1 is formed to a few eps relative, and the +-d pairs cancel
    # its O(d) part, so the x-factor leaves about eps/h relative to
    # K~(1 + 4|x|^2|tau|^2) at d = 2h|x|; at lambda.tau != 0 each
    # I(c_i)/I(c) carries a few eps of its own, which the stencil divides
    # by h^2
    eps = np.finfo(float).eps
    for x, tau, lam, h, pinned in _HERMITE_PINS:
        x, tau = np.array(x), np.array(tau)
        got = (hermite_residual(x, tau, lam, spec) if h is None
               else hermite_residual(x, tau, lam, spec, h=h))
        assert got == pinned
        step = 1e-3 if h is None else h
        bound = 256.0 * eps / (step if not any(lam) else step * step)
        want, k0 = _hermite_stencil_mp(x, tau, lam, step)
        scale = float(k0) * (1.0 + 4.0 * float(x @ x) * float(tau @ tau))
        assert abs(got - abs(float(want))) <= bound * scale


@pytest.mark.parametrize("x, tau, lam", [
    (X_UNIT, (1.0, 0.0, 0.0), (0.5, 0.0, 0.0)),
    ((0.8, -0.3, 0.5, 0.2), (0.4, -0.7, 0.3), (0.3, -0.2, 0.4)),
])
def test_hermite_s_stencil_matches_cartesian_stencil(x, tau, lam):
    # the stencil in s = |x|^2 and the former 17-point stencil in x, both
    # on the exact K~ at lambda.tau != 0: each falls about 16x per halving
    # of h (O(h^4)), and so does their difference, so the two agree to
    # their truncation and measure the same operator
    steps = (0.04, 0.02, 0.01)
    s_stencil = [_hermite_stencil_mp(x, tau, lam, h)[0] for h in steps]
    cartesian = [_hermite_stencil_mp(x, tau, lam, h, cartesian=True)[0] for h in steps]
    diff = [a - b for a, b in zip(s_stencil, cartesian)]
    for vals in (s_stencil, cartesian, diff):
        for coarse, fine in zip(vals, vals[1:]):
            assert 15.0 <= coarse / fine <= 17.0


@pytest.mark.parametrize("lam", [LAM0, (0.5, -0.3, 0.2)])
@pytest.mark.parametrize("c", [100.0, 400.0, 700.0, 741.0])
def test_hermite_residual_at_large_c(spec, c, lam):
    # |x| = 1 and c = |tau||x|^2 up to where e^{-c} is subnormal: at the
    # default step min(1e-3, 0.02/(|tau||x|)) the residual stays within
    # the check's 1e-6 of K~ (1 + 4c^2), with K~ from mpmath; at h = 1e-3
    # it read 1.9e-3 at c = 700 and 1.2 at c = 741
    mp = pytest.importorskip("mpmath")
    x = np.array([0.5, 0.5, 0.5, 0.5])
    n = np.array([0.36, 0.48, 0.8])
    tau = c * n
    tnorm = float(np.linalg.norm(tau))
    r = hermite_residual(x, tau, lam, spec)
    with mp.workdps(30):
        kref = _k_tilde_mp(mp, 1.0, tnorm, float(np.dot(lam, tau)) / tnorm)
        assert float(mp.mpf(r) / (kref * (1 + 4 * mp.mpf(c) ** 2))) <= 1e-6


def test_hermite_residual_sweep_at_check_bound(spec):
    # about 400 points of the kernel-stencil benchmark's sampling map: x and
    # t on the gauge sphere |x|^4 + |t|^2 = r^4 at a uniform angle, r
    # log-uniform on [0.3, 10], |x| >= 0.3; lambda = 0 on three points in
    # four and a random lambda (|lambda| < 1.95) on the rest.  Each residual
    # is within the hermite_annihilation check's 1e-6 of K~ (1 + 4|x|^2|tau|^2),
    # K~ in closed form at lambda.tau = 0 and from mpmath otherwise
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(24)
    n = 460
    phi = 0.5 * math.pi * rng.random(n)
    r = 0.3 * (10.0 / 0.3) ** rng.random(n)

    def units(dim):
        v = rng.normal(size=(n, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    xs = units(4) * (r * np.sqrt(np.cos(phi)))[:, None]
    ts = units(3) * (r * r * np.sin(phi))[:, None]
    lams = np.zeros((n, 3))
    lams[3::4] = units(3)[3::4] * 1.95 * rng.random(n)[3::4, None]
    keep = np.linalg.norm(xs, axis=1) >= 0.3
    assert 380 <= keep.sum() <= 440
    with mp.workdps(30):
        for x, tau, lam in zip(xs[keep], ts[keep], lams[keep]):
            lam = tuple(float(v) for v in lam)
            res = hermite_residual(x, tau, lam, spec)
            xsq, tnorm = float(x @ x), float(np.linalg.norm(tau))
            lt = float(np.dot(lam, tau))
            kref = (_k_tilde_mp(mp, xsq, tnorm, lt / tnorm) if lt
                    else mp.exp(-mp.mpf(tnorm) * xsq) / (4 * mp.pi ** 2 * xsq))
            assert mp.mpf(res) <= 1e-6 * kref * (1 + 4 * mp.mpf(xsq) * tnorm ** 2)


def test_hermite_residual_default_step(spec):
    # the default step is min(1e-3, 0.02/(|tau||x|)): an explicit step of
    # that value gives the same float, and one that collapses the stencil
    # raises the same ValueError given or defaulted
    x = np.array([0.8, -0.3, 0.5, 0.2])
    n = np.array([0.36, 0.48, 0.8])
    for c, lam in ((0.5, LAM0), (0.5, (0.3, -0.2, 0.4)), (300.0, LAM0),
                   (300.0, (0.3, -0.2, 0.4))):
        tau = c * n
        h = min(1e-3, 0.02 / (float(np.linalg.norm(tau)) * float(np.linalg.norm(x))))
        assert hermite_residual(x, tau, lam, spec) == hermite_residual(x, tau, lam, spec, h=h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step in ({}, {"h": 1e-20}):
            with pytest.raises(ValueError, match="step underflows"):
                hermite_residual(x, 1e17 * n, LAM0, spec, **step)


def test_hermite_residual_i_path_calls(spec, monkeypatch):
    # at lambda.tau = 0 the stencil calls no I-row function; otherwise it
    # calls the one I path of K~ once, at the 5 values of c
    calls = []
    for name in ("_v_integral", "_k_tilde_rows"):
        real = getattr(greens, name)

        def spy(*a, real=real, name=name):
            calls.append((name, len(a[0])))
            return real(*a)

        monkeypatch.setattr(greens, name, spy)
    x, tau = np.array([0.8, -0.3, 0.5, 0.2]), np.array([0.4, -0.7, 0.3])
    for lam in (LAM0, (0.7, 0.4, 0.0), (-0.0, 0.0, 0.0)):     # lambda.tau = 0
        hermite_residual(x, tau, lam, spec)
    assert calls == []
    hermite_residual(x, tau, (0.3, -0.2, 0.4), spec)
    assert calls == [("_v_integral", 5)]


@pytest.mark.parametrize("tau, lam", [
    (np.array([0.4, -0.7, 0.3]), (0.3, -0.2, 0.4)),
    (np.array([0.4, -0.7, 0.3]), (0.0, 0.0, 0.0)),
    (np.array([0.4, -0.7, 0.3]), (-0.0, 1e-300, 0.0)),
    (np.array([1.0, 0.0, 0.0]), (1.99, 0.0, 0.0)),
    (np.array([1.0, 0.0, 0.0]), (2.0, 0.0, 0.0)),         # |lambda| < 2 fails
    (np.array([1.0, 0.0, 0.0]), (math.nan, 0.0, 0.0)),    # so does a NaN
    (np.array([-1.0, 0.0, 0.0]), (1.5, 1.3, 0.0)),        # decay on the ray fails
    (np.zeros(3), (0.3, 0.0, 0.0)),                       # tau = 0
])
def test_lambda_and_tuple_agree(spec, tau, lam):
    # a tuple, a list and an array of the same components give the same
    # float, or the same error
    x = np.array([0.8, -0.3, 0.5, 0.2])
    for f in (k_tilde_lambda, hermite_residual):
        outcomes = []
        for arg in (lam, list(lam), np.array(lam)):
            try:
                outcomes.append(f(x, tau, arg, spec))
            except ValueError as e:
                outcomes.append(str(e))
        assert len(set(outcomes)) == 1, outcomes


def test_finite_x_with_overflowing_square_raises(spec):
    # |x|^2 of x = 1e200 e_0 overflows: every x guard raises ValueError
    # naming the overflow, with no numpy RuntimeWarning on the way
    big = np.array([1e200, 0.0, 0.0, 0.0])
    t = np.array([0.5, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: k_lambda(big, t, _LAM, spec),
                     lambda: k_lambda(big, t, LAM0, spec),
                     lambda: k_tilde_lambda(big, t, _LAM, spec),
                     lambda: hermite_residual(big, t, _LAM, spec, h=1e190),
                     lambda: heis_k_closed(big, 0.5, 0.3),
                     lambda: heis_k_quadrature(big, 0.5, 0.3, spec),
                     lambda: heis_contour_sign_check(big, 0.5, 0.3, spec),
                     lambda: delta_lambda_residual_on_k(big, t, _LAM, spec)):
            with pytest.raises(ValueError, match="overflows"):
                call()


def test_residual_t_with_overflowing_square_raises(spec):
    # |t|^2 of t = 1e200 e_1 overflows: ValueError naming the overflow,
    # with no numpy RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (LAM0, _LAM):
            with pytest.raises(ValueError, match=r"\|t\|\^2 overflows"):
                delta_lambda_residual_on_k(np.ones(4), (1e200, 0.0, 0.0), lam, spec)


def test_residual_with_underflowing_centre_raises(spec):
    # at lambda = 0 and t = 1e150 e_1 the centre value K underflows to 0,
    # so the residual normalized by |K| is undefined
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="underflows to 0"):
            delta_lambda_residual_on_k(np.ones(4), (1e150, 0.0, 0.0), LAM0, spec)


def test_batched_rows_match_single_points(rng):
    # 63 rows, as many as a Delta_lambda stencil; at order 33 the 1089
    # folded nodes span several node blocks and a partial last one
    xs = rng.normal(size=(63, 4))
    ts = rng.normal(size=(63, 3))
    for order in (7, 33):
        spec = QuadratureSpec(sphere_order=order)
        for lam in ((0.4, -0.3, 0.2), (0.0, 1.95, 0.0), (0.0, 0.0, 0.0)):
            c0, ck = _k_lambda_components(xs, ts, lam, spec)
            kt = _k_tilde_rows(xs, _tau_ray(ts[0], lam))
            for i in range(63):
                assert (k_lambda(xs[i], ts[i], lam, spec).components()
                        == (c0[i], *ck[i]))
                assert k_tilde_lambda(xs[i], ts[0], lam, spec) == kt[i]


@pytest.mark.parametrize("order", [7, 33])
def test_k_lambda_negative_zero_lambda_is_lambda0(order, rng):
    # a lambda with -0.0 components, or one whose every (lambda_k n_k)^2
    # underflows, has g = 0 at every node, so it takes the lambda = 0 form
    # and gives its values bit for bit, signed zeros included
    spec = QuadratureSpec(sphere_order=order)
    xs = rng.normal(size=(5, 4))
    ts = rng.normal(size=(5, 3))
    want = _k_lambda_components(xs, ts, (0.0, 0.0, 0.0), spec)
    assert np.all(np.signbit(want[1])) and not want[1].any()
    for lam in ((-0.0, 0.0, 0.0), (0.0, -0.0, -0.0), (-0.0, -0.0, -0.0),
                (1e-200, 0.0, -1e-170)):
        got = _k_lambda_components(xs, ts, lam, spec)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
    assert k_lambda(xs[0], ts[0], (-0.0, 0.0, 0.0), spec).components() == (
        want[0][0], *want[1][0])


@pytest.mark.parametrize("name", ["_v_rule", "_heis_panels"])
def test_kernel_tables_cached_and_not_built_at_import(name, src_env):
    code = ("import qsiegel, qsiegel.greens as g; "
            f"assert g.{name}.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True, env=src_env)


def test_v_rule_read_only_and_exact_at_mu0():
    z, wz, r1, wr1, i0 = greens._v_rule()
    assert greens._v_rule()[0] is z
    assert not any(a.flags.writeable for a in (z, wz, r1, wr1))
    assert (len(z), len(r1)) == (101, 32)
    assert 0.0 < z.min() and z.max() < 1.0 and r1.min() > 1.0
    # I = int_0^inf e^{-s} ds = 1 at mu = 0
    assert abs(i0 - 1.0) <= 4.0 * np.finfo(float).eps


def _k_tilde_rows_per_row(xs, tau, lam):
    """The per-row form of ``_k_tilde_rows`` in the v = coth u form: per
    row, I as a ``math.fsum`` of Python-float terms over the nodes of
    ``_v_rule``, each node's substitution and weight inside its term."""
    z, wz, r1, wr1, _ = greens._v_rule()
    tnorm = float(np.linalg.norm(tau))
    mu = 0.5 * float(np.dot(lam, tau)) / tnorm
    k = 1.0 / (1.0 + mu)
    out = []
    for x in xs:
        xsq = float(x @ x)
        c = tnorm * xsq
        terms = [k * w * math.exp(-zi ** k) * (zi ** k + 2.0 * c) ** -mu
                 for zi, w in zip(z.tolist(), wz.tolist())]
        terms += [w * (ri / (ri + 2.0 * c)) ** mu
                  for ri, w in zip(r1.tolist(), wr1.tolist())]
        out.append(math.exp(-c) / (4.0 * math.pi ** 2 * xsq) * math.fsum(terms))
    return out


# the 17 points of the Hermite stencil in units of the step: the centre,
# then +e_l and -e_l for l = 0..3, then +e_l/2 and -e_l/2
_STENCIL_OFFSETS = np.concatenate([np.zeros((1, 4)), np.eye(4), -np.eye(4),
                                   0.5 * np.eye(4), -0.5 * np.eye(4)])


@pytest.mark.parametrize("a", [0.0, 0.9, -1.9])
def test_k_tilde_rows_match_per_row_reference(spec, rng, a):
    # the summation order and the powers differ from the per-row form, so
    # the rows agree to a bound fixed from the dtype: an ulp of |x|^2 moves
    # e^{-c} by c*eps at c = |tau||x|^2
    bound = 32.0 * np.finfo(float).eps
    for c in np.geomspace(1e-2, 1e3, 16):
        x = rng.normal(size=4)
        x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        tau = c / float(x @ x) * n
        lam = tuple((a * n).tolist())
        xs = x + 1e-3 * _STENCIL_OFFSETS
        got = _k_tilde_rows(xs, _tau_ray(tau, lam))
        want = _k_tilde_rows_per_row(xs, tau, lam)
        for g, v in zip(got, want):
            assert abs(g - v) <= bound * (1.0 + c) * abs(v)


@pytest.mark.parametrize("order, lam, parent_mib", [
    (32, (0.0, 0.0, 0.0), 5.8), (32, (1.95, 0.0, 0.0), 11.5),
    (128, (0.0, 0.0, 0.0), 91.0), (128, (0.0, 0.0, 1.95), 181.0)])
def test_k_lambda_single_point_memory(order, lam, parent_mib):
    # node blocks and orbit tables: a single point allocates no node x u
    # array; the bound is a quarter of the peak of the whole-grid tables
    spec = QuadratureSpec(sphere_order=order)
    x, t = np.array([0.9, 0.4, -0.3, 0.6]), np.array([0.7, -1.2, 0.5])
    k_lambda(x, t, lam, spec)                          # fill the rule caches
    tracemalloc.start()
    try:
        k_lambda(x, t, lam, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_mib * 2 ** 20 / 4


def test_delta_residual_second_order(spec):
    r1 = delta_lambda_residual_on_k(X_UNIT, np.array([0.5, 0.0, 0.0]),
                                    (0.5, 0.3, 0.0), spec, h=0.01)
    r2 = delta_lambda_residual_on_k(X_UNIT, np.array([0.5, 0.0, 0.0]),
                                    (0.5, 0.3, 0.0), spec, h=0.005)
    # fourth order: halving h divides the residual by 16
    assert 14.0 <= r1 / r2 <= 18.0


# ---------------------------------------------------------------------------
# one-dimensional center reduction

def test_heis_closed_lambda0_form(spec):
    for xn in (0.5, 1.0, 2.0):
        for t in (-1.5, 0.0, 2.0):
            x = np.array([xn, 0.0, 0.0, 0.0])
            v = heis_k_closed(x, t, 0.0)
            want = 1.0 / (4.0 * math.pi ** 3 * (xn ** 4 + t * t))
            assert abs(v.t - want) <= 1e-12 * want
            assert abs(v.a) <= 1e-15 * want and v.b == v.c == 0.0


def test_heis_closed_sums_x_square_on_python_floats():
    # at this x the left-to-right sum of squares is 1 ulp above the
    # correctly rounded one, which a BLAS dot may return instead; the value
    # is the formula at the left-to-right sum, bit for bit
    x, t, lam = np.array([0.1, 0.1, 0.4, 0.1]), 0.05, -0.4

    def formula(xsq):
        v = (greens._gamma_product(lam / 2.0) / (4.0 * math.pi ** 3)
             * complex(xsq, -t) ** (-(2.0 + lam) / 2.0)
             * complex(xsq, t) ** (-(2.0 - lam) / 2.0))
        return (v.real, v.imag, 0.0, 0.0)

    a, b, c, d = x.tolist()
    want = formula(a * a + b * b + c * c + d * d)
    assert want != formula(math.fsum([a * a, b * b, c * c, d * d]))
    assert heis_k_closed(x, t, lam).components() == want


def test_heis_oracle_grid(spec):
    worst = 0.0
    for xn in np.linspace(0.5, 2.0, 3):
        for t in np.linspace(-2.0, 2.0, 3):
            for lam in (-1.0, 0.0, 0.5):
                x = np.array([xn, 0.3, -0.1, 0.2])
                x *= xn / np.linalg.norm(x)
                c = heis_k_closed(x, t, lam)
                q = heis_k_quadrature(x, t, lam, spec)
                worst = max(worst, (q - c).norm() / c.norm())
    assert worst <= 1e-12


def test_heis_near_parameter_edge(spec):
    x = np.array([1.0, 0.0, 0.0, 0.0])
    c = heis_k_closed(x, 0.7, -1.9)
    q = heis_k_quadrature(x, 0.7, -1.9, spec)
    assert (q - c).norm() <= 1e-7 * c.norm()


@pytest.mark.parametrize("lam", [1.95, 1.99, 1.999, -1.95, -1.99, -1.999])
def test_heis_close_to_lambda_edge(spec, lam):
    # e^{|lam| u} overflows on the long u-grid here while sech^2 underflows;
    # the quadrature must stay finite and on the closed form
    for x, t in ((np.array([0.8, 0.2, -0.5, 0.3]), 1.3),
                 (np.array([1.0, 0.0, 0.0, 0.0]), -0.4)):
        c = heis_k_closed(x, t, lam)
        q = heis_k_quadrature(x, t, lam, spec)
        assert (q - c).norm() <= 1e-13 * c.norm()


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-6])
@pytest.mark.parametrize("lam", [-1.9, 0.0, 1.9])
def test_heis_pinch_within_rel_tol_or_raises(rel_tol, lam):
    # |t| >> |x|^2: as cos phi -> 0 the contour pinches and the sum cancels
    # to about 0.18 eps/cos^2 phi (2e-7 at cos phi = 1e-5, with exit 0
    # before the floor).  Every point returns a value within rel_tol of the
    # closed form or raises, and the floor sqrt(0.5 eps/rel_tol) follows
    # rel_tol: 3.3e-4 at 1e-9, below perfbench's lowest heis point
    # (cos phi = 4.46e-4), and 1.1e-5 at 1e-6
    spec = QuadratureSpec(rel_tol=rel_tol)
    floor = math.sqrt(0.5 * np.finfo(float).eps / rel_tol)
    for cphi in np.geomspace(1e-6, 1.0, 241):
        x = np.array([0.6, -0.3, 0.2, 0.5])
        x *= math.sqrt(cphi) / np.linalg.norm(x)
        for t in (math.sqrt(1.0 - cphi * cphi), -math.sqrt(1.0 - cphi * cphi)):
            c = heis_k_closed(x, t, lam)
            try:
                q = heis_k_quadrature(x, t, lam, spec)
            except QuadratureError as e:
                assert "pinches" in str(e)
                assert cphi < 1.01 * floor
                continue
            assert cphi > 0.99 * floor
            assert (q - c).norm() <= rel_tol * c.norm()


def test_heis_rule_cache_bounded_and_reused(spec):
    # the rule's key (first panel, last edge) comes from a small discrete
    # set: 400 random points build a few dozen rules, none evicted, and a
    # second sweep over them builds none
    rng = np.random.default_rng(2061)
    phi = rng.uniform(0.0, 0.5 * math.pi - 1e-3, 400)
    r = 10.0 ** rng.uniform(-1.0, 1.0, 400)
    x = rng.normal(size=(400, 4))
    x *= (r * np.sqrt(np.cos(phi)) / np.linalg.norm(x, axis=1))[:, None]
    t = rng.choice((-1.0, 1.0), 400) * r * r * np.sin(phi)
    lam = rng.uniform(-1.95, 1.95, 400)
    greens._heis_panels.cache_clear()
    for sweep in range(2):
        for i in range(400):
            heis_k_quadrature(x[i], t[i], lam[i], spec)
        info = greens._heis_panels.cache_info()
        if sweep == 0:
            built = info.misses
            assert info.currsize == built <= info.maxsize
    assert info.misses == built
    assert info.hits == 800 - built


def test_heis_closed_gamma_product_against_mpmath():
    # at |x| = 1, t = 0 both complex powers are exactly 1, so the value is
    # G(1+z) G(1-z)/(4 pi^3) with z = lam/2; the last two points lie beyond
    # |lam| = 2, between the poles
    import mpmath
    x = np.array([1.0, 0.0, 0.0, 0.0])
    lams = np.concatenate([np.linspace(-2.0, 2.0, 2001)[1:-1], [2.5, -3.3]])
    with mpmath.workdps(30):
        worst = 0.0
        for lam in lams:
            z = mpmath.mpf(float(lam)) / 2
            want = mpmath.gamma(1 + z) * mpmath.gamma(1 - z) / (4 * mpmath.pi ** 3)
            v = heis_k_closed(x, 0.0, lam)
            assert v.a == v.b == v.c == 0.0
            worst = max(worst, float(abs((v.t - want) / want)))
    assert worst <= 1e-15


def test_heis_pole_rejection():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        heis_k_closed(x, 0.5, 2.0)


def test_heis_conjugation_in_t(spec):
    x = np.array([0.8, 0.2, -0.5, 0.3])
    a = heis_k_closed(x, 1.3, 0.8)
    b = heis_k_closed(x, -1.3, 0.8)
    assert (b - a.conj()).norm() <= 1e-13 * a.norm()


def test_heis_contour_sign_diagnostic(spec):
    d = heis_contour_sign_check(np.array([0.8, 0.2, -0.5, 0.3]), 1.3, 0.8, spec)
    # the unshifted real-axis integral reproduces the closed form with the
    # sign of the parameter flipped
    assert d["dist_minus"] <= 1e-10
    assert d["dist_plus"] >= 1e-4


def test_heis_scaling(spec):
    # |x|^4 + t^2 is homogeneous of degree 4 under (x, t) -> (sx, s^2 t),
    # and the angular factor is scale-invariant, so the kernel has degree -4
    x = np.array([0.9, 0.1, 0.0, 0.4])
    s = 1.8
    a = heis_k_closed(s * x, s * s * 1.1, 0.6)
    b = heis_k_closed(x, 1.1, 0.6)
    assert abs(a.norm() - b.norm() / s ** 4) <= 1e-12 * a.norm()

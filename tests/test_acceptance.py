"""End-to-end acceptance criteria.

Each test covers one numbered criterion, records a single pass/fail line
(printed in the terminal summary), and enforces both the numerical
tolerance and the runtime budget.
"""

import math
import time

import numpy as np
import pytest

import conftest

from qsiegel.quat import Quaternion, ONE, I1, I2, I3, to_matrix
from qsiegel.quad import QuadratureSpec, integrate_1d
from qsiegel.group import (GroupElement, gmul, dilate, homogeneous_norm,
                           HOMOGENEOUS_DIM)
from qsiegel.siegel import (SiegelPoint, BallPoint, cayley_to_siegel,
                            cayley_to_ball, act, height, boundary_point)
from qsiegel.diffops import (make_x, hbar_field, h_field, commutator,
                             QuatDiffOp, QPoly, N_COORDS,
                             crf_tangency_residual, cauchy_fueter_sphere)
from qsiegel import szego, greens


def _record(num, name, ok, detail, runtime, limit):
    status = "PASS" if (ok and runtime < limit) else "FAIL"
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {num:2d} [{status}] {name}: {detail} "
        f"[{runtime:.2f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert runtime < limit, f"criterion {num} over budget: {runtime:.2f}s"


def test_criterion_01_quaternion_algebra():
    t0 = time.time()
    table_ok = (I1 * I2 == I3 and I2 * I3 == I1 and I3 * I1 == I2
                and I2 * I1 == -I3 and I3 * I2 == -I1 and I1 * I3 == -I2
                and all(u * u == Quaternion(-1.0) for u in (I1, I2, I3)))
    # the 10^4 pairs of a scalar loop that drew q, then h, per pair: one
    # row of eight normals per pair, in the same order, as one batch
    z = np.random.default_rng(1).normal(size=(10_000, 8))
    q, h = Quaternion(*z[:, :4].T), Quaternion(*z[:, 4:].T)
    nn = q.norm() * h.norm()
    # np.max propagates a NaN defect, which then fails every bound
    worst_norm = float(np.max(np.abs((q * h).norm() - nn) / nn))
    worst_hom = float(np.max(np.abs(to_matrix(q) @ to_matrix(h) - to_matrix(q * h))))
    n4 = q.norm() ** 4
    worst_det = float(np.max(np.abs(np.linalg.det(to_matrix(q)) - n4) / n4))
    rt = time.time() - t0
    ok = table_ok and worst_norm <= 1e-12 and worst_hom <= 1e-12 * 8 \
        and worst_det <= 1e-12
    _record(1, "quaternion algebra", ok,
            f"table exact, norm defect {worst_norm:.1e}, hom defect "
            f"{worst_hom:.1e}, det defect {worst_det:.1e}", rt, 1.0)


def test_criterion_02_group_geometry(spec):
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(2000):
        g, h, k = (GroupElement(Quaternion(*rng.normal(size=4)),
                                tuple(rng.normal(size=3))) for _ in range(3))
        a, b = gmul(gmul(g, h), k), gmul(g, gmul(h, k))
        worst = max(worst, (a.w - b.w).norm(),
                    max(abs(x - y) for x, y in zip(a.t, b.t)))
        e = gmul(g, g.inverse())
        worst = max(worst, e.w.norm(), max(abs(x) for x in e.t))
        p = SiegelPoint(Quaternion(*rng.normal(size=4)),
                        Quaternion(5.0 + abs(rng.normal()), *rng.normal(size=3)))
        worst = max(worst, abs(height(act(g, p)) - height(p)) / height(p))
        b2 = cayley_to_ball(p)
        p2 = cayley_to_siegel(b2)
        worst = max(worst, (p.q1 - p2.q1).norm() / max(1.0, p.q2.norm()),
                    (p.q2 - p2.q2).norm() / max(1.0, p.q2.norm()))

    def mass(delta):
        r4 = integrate_1d(lambda r: np.exp(-(delta * r) ** 2) * r ** 3,
                          (0.0, math.inf), spec)
        r3 = integrate_1d(lambda s: np.exp(-(delta ** 2 * s) ** 2) * s * s,
                          (0.0, math.inf), spec)
        return r4.value * r3.value

    delta = 1.37
    measured = math.log(mass(1.0) / mass(delta)) / math.log(delta)
    dil_err = abs(measured - HOMOGENEOUS_DIM) / HOMOGENEOUS_DIM
    rt = time.time() - t0
    ok = worst <= 1e-11 and dil_err <= 1e-4
    _record(2, "group and geometry", ok,
            f"randomized defect {worst:.1e}, dilation exponent "
            f"{measured:.6f} (rel err {dil_err:.1e})", rt, 10.0)


def test_criterion_03_commutator_table():
    t0 = time.time()
    X = [make_x(l) for l in range(4)]

    def dt_op(k, coeff):
        key = [0] * N_COORDS
        key[4 + k] = 1
        return QuatDiffOp.single(tuple(key), QPoly.const(coeff))

    want = {
        (0, 1): dt_op(0, Quaternion(4.0)),
        (0, 2): dt_op(1, Quaternion(4.0)),
        (0, 3): dt_op(2, Quaternion(4.0)),
        (1, 2): dt_op(2, Quaternion(-4.0)),
        (2, 3): dt_op(0, Quaternion(-4.0)),
        (3, 1): dt_op(1, Quaternion(-4.0)),
    }
    table_ok = True
    for a in range(4):
        for b in range(4):
            c = commutator(X[a], X[b])
            if a == b:
                table_ok = table_ok and c.is_zero()
            elif (a, b) in want:
                table_ok = table_ok and c == want[(a, b)]
            elif (b, a) in want:
                table_ok = table_ok and c == want[(b, a)].scale(-1.0)
    c = commutator(hbar_field(), h_field())
    minus = dt_op(0, I1 * -2.0) + dt_op(1, I2 * -2.0) + dt_op(2, I3 * -2.0)
    plus = minus.scale(-1.0)
    sign = "-2" if c == minus else ("+2" if c == plus else "inconsistent")
    rt = time.time() - t0
    ok = table_ok and sign in ("-2", "+2")
    _record(3, "commutator table", ok,
            f"16 brackets exact, [Hbar,H] sign adjudicated {sign} sum i_k dt_k",
            rt, 1.0)


def test_criterion_04_boundary_tangency():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        bp = boundary_point(Quaternion(*rng.normal(size=4)),
                            tuple(rng.normal(size=3)))
        worst = max(worst, crf_tangency_residual(bp))
    rt = time.time() - t0
    _record(4, "boundary tangency", worst <= 1e-7,
            f"max residual {worst:.2e} over 1000 boundary points", rt, 5.0)


def test_criterion_05_cauchy_fueter(spec):
    t0 = time.time()
    q0 = Quaternion(0.2, -0.1, 0.3, 0.05)
    e1 = (cauchy_fueter_sphere(lambda q: ONE, q0, radius=1.0, spec=spec)
          - ONE).norm()
    e2 = (cauchy_fueter_sphere(lambda q: q, q0, radius=1.0, spec=spec)
          - q0).norm()
    rt = time.time() - t0
    ok = e1 <= 1e-5 and e2 <= 1e-5
    _record(5, "sphere reproducing integral", ok,
            f"f=1 error {e1:.1e}, f=q error {e2:.1e}", rt, 30.0)


def test_criterion_06_szego_constant(spec):
    t0 = time.time()
    k = szego.verify_k(spec)
    g = szego.gamma_integral(spec)
    d = szego.delta_integral(spec)
    ek = abs(k - 3.0 / (8.0 * math.pi ** 4)) / (3.0 / (8.0 * math.pi ** 4))
    eg = abs(g - 5.0 * math.pi / 256.0) / (5.0 * math.pi / 256.0)
    ed = abs(d - 1.0 / 60.0) * 60.0
    rt = time.time() - t0
    ok = ek <= 1e-7 and eg <= 1e-9 and ed <= 1e-9
    _record(6, "kernel normalization constant", ok,
            f"k rel err {ek:.1e}, gamma rel err {eg:.1e}, delta rel err "
            f"{ed:.1e}", rt, 10.0)


def test_criterion_07_reproducing_value(spec):
    t0 = time.time()
    v = szego.verify_reproducing(spec)
    err = abs(v - 2.0 ** -5)
    rt = time.time() - t0
    _record(7, "reproducing value", err <= 1e-6,
            f"value {v:.9f}, abs err {err:.1e} (= K_ANALYTIC/(32 verify_k): "
            f"the normalization integral again)", rt, 10.0)


def test_criterion_08_heisenberg_oracle(spec):
    t0 = time.time()
    worst = 0.0
    k0_worst = 0.0
    for xn in np.linspace(0.5, 2.0, 5):
        for t in np.linspace(-2.0, 2.0, 5):
            for lam in (-1.0, -0.5, 0.0, 0.5, 1.0):
                x = np.array([xn, 0.0, 0.0, 0.0])
                c = greens.heis_k_closed(x, t, lam)
                q = greens.heis_k_quadrature(x, t, lam, spec)
                worst = max(worst, (q - c).norm() / c.norm())
                if lam == 0.0:
                    want = 1.0 / (4.0 * math.pi ** 3 * (xn ** 4 + t * t))
                    k0_worst = max(k0_worst, abs(c.t - want) / want,
                                   c.imag_norm() / want)
    rt = time.time() - t0
    ok = worst <= 1e-7 and k0_worst <= 1e-12
    _record(8, "one-dimensional center oracle", ok,
            f"quadrature vs closed form {worst:.1e} on 125 points, "
            f"explicit form defect {k0_worst:.1e}", rt, 60.0)


def test_criterion_09_kernel_consistency(spec):
    t0 = time.time()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=4)
        x *= float(rng.uniform(0.5, 2.0)) / np.linalg.norm(x)
        t = rng.uniform(-2.0, 2.0, size=3)
        a = greens.k0_sphere(x, t, spec)
        b = greens.k_lambda(x, t, (0.0, 0.0, 0.0), spec)
        worst = max(worst, abs(a - b.t) / abs(a))
    v = greens.k_lambda(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3),
                        (0.0, 0.0, 0.0), spec)
    val_err = abs(v.t - 1.0 / (4.0 * math.pi ** 4)) * 4.0 * math.pi ** 4
    xh = np.array([0.9, 0.4, -0.3, 0.6])
    th = np.array([0.7, -1.2, 0.5])
    a = greens.k_lambda(2.0 * xh, 4.0 * th, (0.7, 0.0, 0.0), spec)
    b = greens.k_lambda(xh, th, (0.7, 0.0, 0.0), spec)
    hom_err = abs(math.log2(a.norm() / b.norm()) + 8.0)
    rt = time.time() - t0
    ok = worst <= 1e-6 and val_err <= 1e-7 and hom_err <= 1e-5
    _record(9, "kernel route consistency", ok,
            f"sphere-form agreement {worst:.1e} on 20 points, unit value "
            f"rel err {val_err:.1e}, homogeneity defect {hom_err:.1e}",
            rt, 120.0)


def test_criterion_10_pde_residuals(spec):
    t0 = time.time()
    x = np.array([1.0, 0.0, 0.0, 0.0])
    tau = np.array([1.0, 0.0, 0.0])
    hr = greens.hermite_residual(x, tau, (0.5, 0.0, 0.0), spec)
    kt = greens.k_tilde_lambda(x, tau, (0.5, 0.0, 0.0), spec)
    hermite_scale = hr / (kt * (1.0 + 4.0))
    t_probe = np.array([0.5, 0.0, 0.0])
    r0 = greens.delta_lambda_residual_on_k(x, t_probe, (0.0, 0.0, 0.0), spec)
    r1 = greens.delta_lambda_residual_on_k(x, t_probe, (0.5, 0.3, 0.0), spec)
    rc = greens.delta_lambda_residual_on_k(x, t_probe, (0.5, 0.3, 0.0), spec,
                                           h=0.01)
    shrink = rc / r1
    rt = time.time() - t0
    ok = (hermite_scale <= 1e-4 and r0 <= 1e-5 and r1 <= 1e-5
          and 14.0 <= shrink <= 18.0)
    _record(10, "operator annihilation residuals", ok,
            f"transform residual {hermite_scale:.1e}, group residuals "
            f"{r0:.1e}/{r1:.1e}, halving ratio {shrink:.3f}", rt, 300.0)

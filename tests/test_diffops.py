"""Left-invariant vector fields, brackets, the subelliptic operator,
boundary tangency, and the sphere reproducing integral."""

import math

import numpy as np
import pytest

from qsiegel.quat import Quaternion, ONE, I1, I2, I3, scalar_product
from qsiegel.diffops import (N_COORDS, Lambda, make_x, hbar_field, h_field,
                             commutator, QuatDiffOp, QPoly, apply_op,
                             delta_lambda_apply, box_b_identity_residual,
                             crf_tangency_residual, dq_eval,
                             cauchy_fueter_sphere, _delta_lambda_direct)
from qsiegel.siegel import boundary_point


def _dt_op(k, coeff):
    key = [0] * N_COORDS
    key[4 + k] = 1
    return QuatDiffOp.single(tuple(key), QPoly.const(coeff))


def test_bracket_table_exact():
    X = [make_x(l) for l in range(4)]
    # [X0, Xk] = 4 dt_k; [X1,X2] = -4 dt_3 and cyclic; same-index zero
    want = {
        (0, 1): _dt_op(0, Quaternion(4.0)),
        (0, 2): _dt_op(1, Quaternion(4.0)),
        (0, 3): _dt_op(2, Quaternion(4.0)),
        (1, 2): _dt_op(2, Quaternion(-4.0)),
        (2, 3): _dt_op(0, Quaternion(-4.0)),
        (3, 1): _dt_op(1, Quaternion(-4.0)),
    }
    for a in range(4):
        for b in range(4):
            c = commutator(X[a], X[b])
            if a == b:
                assert c.is_zero()
            elif (a, b) in want:
                assert c == want[(a, b)]
            elif (b, a) in want:
                assert c == want[(b, a)].scale(-1.0)


def test_fields_match_finite_differences():
    # symbolic coefficients against a numeric directional derivative
    p = np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.2, -0.3])

    def f(q):
        return Quaternion(math.sin(q[0] + q[4]), q[1] * q[5],
                          math.cos(q[2] - q[6]), q[3] ** 2)

    for l in range(4):
        sym = apply_op(make_x(l), f, p, h=1e-5)
        h = 1e-5
        x, t = p[:4], p[4:]
        # X_l = d/dx_l + sum_k c_{lk}(x) d/dt_k with the coefficients of
        # the left-invariant frame; recover them from the group law probe
        def curve(s):
            q = p.copy()
            q[l] += s
            for k in range(3):
                q[4 + k] += s * _frame_coeff(l, k, x)
            return f(q)
        num = (curve(h) - curve(-h)) * (0.5 / h)
        assert (sym - num).norm() <= 1e-8


def _frame_coeff(l, k, x):
    # t_k coefficient of X_l: 2 (x i_k)_l with i_k acting by right
    # multiplication on w = (x0, x1, x2, x3)
    w = Quaternion(*x)
    basis = (I1, I2, I3)[k]
    prod = w * basis
    return 2.0 * prod.components()[l]


def test_hbar_h_commutator_sign():
    c = commutator(hbar_field(), h_field())
    minus = (_dt_op(0, I1 * -2.0) + _dt_op(1, I2 * -2.0) + _dt_op(2, I3 * -2.0))
    assert c == minus


def test_box_b_identity():
    p = np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.2, -0.3])

    def probe(q):
        return Quaternion(math.sin(q[0] + 0.5 * q[4]), q[1] * q[2],
                          math.cos(q[5]), q[3] * q[6])

    assert box_b_identity_residual(probe, p) <= 1e-5


def test_hbar_on_coordinate_functions():
    # the identity w is not regular: Hbar w = (1 + sum i_k i_k)/2 = -1;
    # on the conjugate the imaginary units add instead, Hbar conj(w) = 2
    p = np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.2, -0.3])

    def fw(q):
        return Quaternion(q[0], q[1], q[2], q[3])

    def fwbar(q):
        return Quaternion(q[0], -q[1], -q[2], -q[3])

    val_w = apply_op(hbar_field(), fw, p, h=1e-4)
    assert abs(val_w.t + 1.0) <= 1e-8
    assert val_w.imag_norm() <= 1e-8
    val = apply_op(hbar_field(), fwbar, p, h=1e-4)
    assert abs(val.t - 2.0) <= 1e-8
    assert val.imag_norm() <= 1e-8


def test_delta_lambda_on_polynomials():
    # f = x0 t1: the operator reduces to -4 x1 + 4 lambda_1 i1 x0
    p = np.array([0.7, -0.4, 0.2, 0.5, 0.3, -0.6, 0.1])
    lam = Lambda(0.8, -0.3, 0.4)

    def f(q):
        return Quaternion(q[0] * q[4])

    got = delta_lambda_apply(f, p, lam, h=1e-4)
    want = Quaternion(-4.0 * p[1]) + I1 * (4.0 * lam.l1 * p[0])
    assert (got - want).norm() <= 1e-6

    # f = t1^2: 8|x|^2 + 8 lambda_1 t1 i1
    def g(q):
        return Quaternion(q[4] ** 2)

    got = delta_lambda_apply(g, p, lam, h=1e-4)
    xsq = float(np.dot(p[:4], p[:4]))
    want = Quaternion(8.0 * xsq) + I1 * (8.0 * lam.l1 * p[4])
    assert (got - want).norm() <= 1e-5


def test_delta_lambda_forms_agree():
    p = np.array([0.7, -0.4, 0.2, 0.5, 0.3, -0.6, 0.1])
    lam = Lambda(0.5, 0.2, -0.1)

    def f(q):
        return Quaternion(np.sin(q[0]) * q[4], 0.0, q[2] * q[5], 0.0)

    a = delta_lambda_apply(f, p, lam, h=1e-3, form="direct")
    b = delta_lambda_apply(f, p, lam, h=1e-3, form="nested")
    assert (a - b).norm() <= 1e-6 * max(1.0, a.norm())


def test_tangency_on_boundary(rng):
    worst = 0.0
    for _ in range(100):
        bp = boundary_point(Quaternion(*rng.normal(size=4)),
                            tuple(rng.normal(size=3)))
        worst = max(worst, crf_tangency_residual(bp))
    assert worst <= 1e-7


def test_dq_alternating(rng):
    h2, h3, h4 = (Quaternion(*rng.normal(size=4)) for _ in range(3))
    assert (dq_eval(h2, h3, h4) + dq_eval(h3, h2, h4)).norm() <= 1e-13
    assert dq_eval(h2, h2, h4).norm() <= 1e-13


def test_dq_volume_pairing(rng):
    for _ in range(300):
        hs = [Quaternion(*rng.normal(size=4)) for _ in range(4)]
        det = np.linalg.det(np.array([h.components() for h in hs]))
        got = scalar_product(hs[0], dq_eval(hs[1], hs[2], hs[3]))
        assert abs(got - det) <= 1e-12 * max(1.0, abs(det))


def test_dq_on_standard_basis():
    # <e_l, Dq(i1, i2, i3)> = det of the identity rows = 1 on the real slot
    v = dq_eval(I1, I2, I3)
    assert (v - ONE).norm() <= 1e-15


def test_cauchy_fueter_constant(spec):
    q0 = Quaternion(0.2, -0.1, 0.3, 0.05)
    v = cauchy_fueter_sphere(lambda q: ONE, q0, radius=1.0, spec=spec)
    assert (v - ONE).norm() <= 1e-5


def test_cauchy_fueter_identity(spec):
    q0 = Quaternion(0.2, -0.1, 0.3, 0.05)
    v = cauchy_fueter_sphere(lambda q: q, q0, radius=1.0, spec=spec)
    assert (v - q0).norm() <= 1e-5


def test_cauchy_fueter_translated_regular(spec):
    # f(q) = q - center is (left) regular; reproduction is linear in f
    q0 = Quaternion(-0.3, 0.2, 0.1, -0.4)
    shift = Quaternion(1.0, 2.0, -1.0, 0.5)
    v = cauchy_fueter_sphere(lambda q: q - shift, q0, radius=0.8, spec=spec)
    assert (v - (q0 - shift)).norm() <= 1e-5


# ---------------------------------------------------------------------------
# the array contract: one field call per stencil, one integrand call per row

P_GENERIC = np.array([0.7, -0.4, 0.2, 0.5, 0.3, -0.6, 0.1])


@pytest.mark.parametrize("p, points", [
    # centre, two per coordinate, four per mixed (x_l, t_k) pair: 1 + 14 + 48
    (P_GENERIC, 63),
    # at x = (1, 0, 0, 0) the pair (x_l, t_k) enters only for l = k
    (np.array([1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0]), 27),
])
def test_delta_lambda_direct_one_call_per_stencil(p, points):
    calls = []

    def f(q):
        calls.append(q)
        return Quaternion(np.sin(q[0]) * q[4], q[1] * q[5], 0.0, q[6] ** 2)

    delta_lambda_apply(f, p, Lambda(0.5, 0.2, -0.1), h=1e-3)
    assert len(calls) == 1
    q = calls[0]
    assert q.shape == (N_COORDS, points)
    assert len({tuple(col) for col in q.T}) == points


def test_delta_lambda_real_array_field():
    lam = Lambda(0.8, -0.3, 0.4)
    a = delta_lambda_apply(lambda q: q[0] * q[4], P_GENERIC, lam, h=1e-4)
    b = delta_lambda_apply(lambda q: Quaternion(q[0] * q[4]), P_GENERIC, lam, h=1e-4)
    assert a == b


@pytest.mark.parametrize("const", [ONE, 2.5])
def test_delta_lambda_constant_field_broadcasts(const):
    got = delta_lambda_apply(lambda q: const, P_GENERIC, Lambda(0.5, 0.2, -0.1), h=1e-3)
    assert got.norm() == 0.0


def test_delta_lambda_non_finite_batch_entry_raises():
    def f(q):
        t = q[0].copy()
        t[-1] = np.nan                # one stencil point of the batch
        return Quaternion(t, q[1], q[2], q[3])

    with pytest.raises(ValueError, match="non-finite"):
        delta_lambda_apply(f, P_GENERIC, Lambda(0.5, 0.2, -0.1), h=1e-3)


def test_delta_lambda_direct_returns_centre_value():
    def f(q):
        return Quaternion(q[0] * q[4], q[1], 0.0, q[6])

    lam = Lambda(0.3, 0.0, 0.0)
    value, centre = _delta_lambda_direct(f, P_GENERIC, lam, 1e-3)
    assert value == delta_lambda_apply(f, P_GENERIC, lam, h=1e-3)
    assert centre == f(P_GENERIC)


Q0 = Quaternion(0.2, -0.1, 0.3, 0.05)


def _affine(q):
    """q a + b, reproduced by symmetry of the rule."""
    return q * Quaternion(0.5, -0.25, 1.0, 0.75) + Quaternion(0.3, 0.1, -0.2, 0.4)


def _fueter(q):
    """The left-regular P12 = (x1 x2, -x0 x2, -x0 x1, 0)."""
    return Quaternion(q.a * q.b, -q.t * q.b, -q.t * q.a, 0.0)


@pytest.mark.parametrize("f, want", [
    (_affine, (0.03749999999999993, 0.1749999999999995,
               0.21249999999999938, 0.5499999999999986)),
    (_fueter, (-0.029999999999999905, -0.05999999999999983,
               0.01999999999999994, 3.1551435463333175e-19)),
])
def test_cauchy_fueter_values_pinned(spec, f, want):
    # the node-by-node integrand reduced by numpy's pairwise sum, which the
    # row-chunked integral reproduces bit for bit at any BLAS thread count
    v = cauchy_fueter_sphere(f, Q0, radius=0.9, spec=spec)
    assert v.components() == want
    assert (v - f(Q0)).norm() <= 1e-12


@pytest.mark.parametrize("f, want", [
    (lambda q: 2.5, Quaternion(2.5)),           # a constant broadcasts
    (lambda q: q.t, Quaternion(Q0.t)),          # a real array-valued f
])
def test_cauchy_fueter_real_valued_f(spec, f, want):
    v = cauchy_fueter_sphere(f, Q0, radius=1.0, spec=spec)
    assert (v - want).norm() <= 1e-12


def test_cauchy_fueter_one_call_per_psi_row(spec):
    sizes = []

    def f(q):
        sizes.append(q.t.shape)
        return q

    cauchy_fueter_sphere(f, Q0, radius=1.0, spec=spec)
    n = spec.sphere_order
    assert len(sizes) == 2 * n + 4
    assert sizes == [(2 * n * n,)] * n + [(2 * (n + 4) ** 2,)] * (n + 4)

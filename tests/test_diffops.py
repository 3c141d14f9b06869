"""Left-invariant vector fields, brackets, the subelliptic operator,
boundary tangency, and the sphere reproducing integral."""

import math
import tracemalloc

import numpy as np
import pytest

from qsiegel.quat import Quaternion, ONE, I1, I2, I3, scalar_product
from qsiegel.diffops import (N_COORDS, Lambda, make_x, hbar_field, h_field,
                             commutator, QuatDiffOp, QPoly, apply_op,
                             delta_lambda_apply, box_b_identity_residual,
                             crf_tangency_residual, dq_eval,
                             cauchy_fueter_sphere, _delta_lambda_direct,
                             _as_components, _cf_rule, _cf_run, _det3)
from qsiegel.quad import QuadratureError, sphere3_angles
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
    (_affine, (0.03749999999999994, 0.17499999999999946,
               0.21249999999999944, 0.5499999999999985)),
    (_fueter, (-0.029999999999999905, -0.05999999999999983,
               0.01999999999999995, 2.7843418961989e-19)),
])
def test_cauchy_fueter_values_pinned(spec, f, want):
    # the cached rule times f, each psi-row reduced by numpy's pairwise sum,
    # so the value does not depend on the BLAS thread count
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


def _cf_reference(f, q0, radius, order):
    """The per-row route the cached rule replaced: the geometry at this
    radius, kernel * Dq * f per node, weighted, one pairwise sum per
    component over every node."""
    psi, wpsi, theta, wtheta, phi, wphi = sphere3_angles(order)
    W = (wpsi[:, None, None] * wtheta[None, :, None] * wphi[None, None, :]).ravel()
    T, M = np.meshgrid(theta, phi, indexing="ij")
    st, ct = np.sin(T).ravel(), np.cos(T).ravel()
    sf, cf = np.sin(M).ravel(), np.cos(M).ravel()
    zero = np.zeros_like(st)
    cols = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    row = st.size
    integrand = np.empty((4, psi.size * row))
    for i, (sin_psi, cos_psi) in enumerate(zip(np.sin(psi), np.cos(psi))):
        sp, cp = np.full(row, sin_psi), np.full(row, cos_psi)
        n = (cp, sp * ct, sp * st * cf, sp * st * sf)
        tp = tuple(radius * c for c in (-sp, cp * ct, cp * st * cf, cp * st * sf))
        tt = tuple(radius * c for c in (zero, -sp * st, sp * ct * cf, sp * ct * sf))
        tf = tuple(radius * c for c in (zero, zero, -sp * st * sf, sp * st * cf))
        minors = [_det3([[tp[c] for c in cs], [tt[c] for c in cs], [tf[c] for c in cs]])
                  for cs in cols]
        dq = Quaternion(minors[0], -minors[1], minors[2], -minors[3])
        d = tuple(radius * c for c in n)
        q_pts = tuple(dc + qc for dc, qc in zip(d, q0.components()))
        nsq = d[0] ** 2 + d[1] ** 2 + d[2] ** 2 + d[3] ** 2
        kern = Quaternion(d[0] / nsq ** 2, -d[1] / nsq ** 2,
                          -d[2] / nsq ** 2, -d[3] / nsq ** 2)
        fvals = Quaternion(*_as_components(f(Quaternion(*q_pts)), row))
        integrand[:, i * row:(i + 1) * row] = (kern * dq * fvals).components()
    integrand *= W
    return integrand.sum(axis=1) * (1.0 / (2.0 * math.pi ** 2))


@pytest.mark.parametrize("order", [7, 32])
@pytest.mark.parametrize("radius", [0.9, 1.3, 2.7])
@pytest.mark.parametrize("f", [_affine, _fueter, lambda q: 2.5, lambda q: q])
def test_cf_rule_matches_per_row_reference(f, radius, order):
    # the radius cancels exactly only in exact arithmetic, and the sums are
    # grouped by row, so the routes agree to rounding: 8 ulp of 1, the
    # scale of |f| on these spheres (at most 2 ulp seen)
    got = _cf_run(f, Q0, radius, order)
    want = _cf_reference(f, Q0, radius, order)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(1.0))


def test_cf_rule_is_read_only():
    for arr in _cf_rule(7):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.0


def test_cauchy_fueter_warm_call_memory(spec):
    # the rule is cached, so a warm call holds only psi-row sized arrays;
    # a (4, N) array over every node would alone take 2.8 MiB at order 36
    cauchy_fueter_sphere(_affine, Q0, radius=1.3, spec=spec)
    tracemalloc.start()
    try:
        cauchy_fueter_sphere(_affine, Q0, radius=1.3, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_cauchy_fueter_rejects_bad_radius(spec, radius):
    with pytest.raises(ValueError, match="radius"):
        cauchy_fueter_sphere(_affine, Q0, radius=radius, spec=spec)


@pytest.mark.parametrize("q0", [Quaternion(math.nan), Quaternion(0.0, math.inf),
                                Quaternion(0.0, 0.0, 0.0, -math.inf)])
def test_cauchy_fueter_rejects_non_finite_centre(spec, q0):
    with pytest.raises(ValueError, match="q0"):
        cauchy_fueter_sphere(_affine, q0, radius=1.0, spec=spec)


# numpy warns on the arithmetic with f's non-finite values before the raise
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cauchy_fueter_non_finite_f_raises(spec, bad):
    def f(q):
        t = q.t.copy()
        t[0] = bad                      # one node of one row
        return Quaternion(t, q.a, q.b, q.c)

    with pytest.raises(QuadratureError):
        cauchy_fueter_sphere(f, Q0, radius=1.0, spec=spec)


@pytest.mark.parametrize("p, h", [
    ((-1.0, 0, 0, 0, 0, 0, 0), 8e-17),     # only the minus side collapses
    ((0.0, 0, 0, 0, 0, 0, 0), 1e-170),     # h*h underflows to 0
    ((0.5, 0, 0, 0, 0, 0, 0), math.nan),
    ((0.5, 0, 0, 0, 0, 0, 0), math.inf),
])
def test_apply_op_rejects_collapsed_step(p, h):
    with pytest.raises(ValueError, match="step"):
        apply_op(make_x(0), lambda q: q[0], p=p, h=h)

"""Left-invariant vector fields, brackets, the subelliptic operator,
boundary tangency, and the sphere reproducing integral."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qsiegel.quat import Quaternion, ONE, I1, I2, I3, scalar_product
from qsiegel.diffops import (N_COORDS, Lambda, make_x, hbar_field, h_field,
                             commutator, QuatDiffOp, QPoly, apply_op,
                             delta_lambda_apply, box_b_identity_residual,
                             crf_tangency_residual, dq_eval,
                             cauchy_fueter_sphere, _delta_lambda_lines,
                             _sum_x_squared, _x_fields, _box_b_ops,
                             _as_components, _cf_run, _det3)
from qsiegel.quad import QuadratureError, QuadratureSpec, sphere3_angles
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
        return Quaternion(np.sin(q[0] + q[4]), q[1] * q[5],
                          np.cos(q[2] - q[6]), q[3] ** 2)

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
        return Quaternion(np.sin(q[0] + 0.5 * q[4]), q[1] * q[2],
                          np.cos(q[5]), q[3] * q[6])

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


X_E0 = np.array([1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0])


@pytest.mark.parametrize("p, lam, points", [
    # centre, then +-h and +-h/2 along the four X_l lines (16) and along
    # the t_k axes with lambda_k != 0 (4 each)
    (P_GENERIC, Lambda(0.5, 0.2, -0.1), 29),
    (X_E0, Lambda(0.5, 0.2, -0.1), 29),
    (P_GENERIC, Lambda(0.0, 0.0, 0.0), 17),
    (X_E0, Lambda(0.5, 0.3, 0.0), 25),
], ids=["generic", "x_unit", "lambda0", "verify_lambda"])
def test_delta_lambda_direct_one_call_per_stencil(p, lam, points):
    calls = []

    def f(q):
        calls.append(q)
        return Quaternion(np.sin(q[0]) * q[4], q[1] * q[5], 0.0, q[6] ** 2)

    delta_lambda_apply(f, p, lam, h=1e-3)
    assert len(calls) == 1
    q = calls[0]
    assert q.shape == (N_COORDS, points)
    assert len({tuple(col) for col in q.T}) == points
    assert tuple(q[:, 0]) == tuple(p)          # the centre first


def _quartic(q):
    # a quartic polynomial, with t_k x_j cross terms and products of the
    # x_l that the line directions mix
    x0, x1, x2, x3, t1, t2, t3 = q
    return Quaternion(x0 ** 2 * t1 + x1 * x2 * t3,
                      t2 * t2 * x3 + x0 ** 4,
                      t1 * t2 - x1 ** 3 * x2,
                      x2 * x2 * t3 * t3)


def _quartic_delta_lambda(p, lam):
    """Delta_lambda of ``_quartic`` at p, from its hand-derived coordinate
    form sum_l d^2/dx_l^2 + 4|x|^2 sum_k d^2/dt_k^2
    + 4 sum_k (w i_k . d/dx) d/dt_k + 4 sum_k lambda_k i_k d/dt_k, where
    w i_1, w i_2, w i_3 have the components (-x1, x0, x3, -x2),
    (-x2, -x3, x0, x1) and (-x3, x2, -x1, x0)."""
    x0, x1, x2, x3, t1, t2, t3 = p
    xsq = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    # sum_l d^2/dx_l^2 per component
    lap_x = (2.0 * t1, 12.0 * x0 ** 2, -6.0 * x1 * x2, 2.0 * t3 * t3)
    # sum_k d^2/dt_k^2 per component
    lap_t = (0.0, 2.0 * x3, 0.0, 2.0 * x2 * x2)
    # d/dt_k per component: [comp][k]
    dt = ((x0 * x0, 0.0, x1 * x2),
          (0.0, 2.0 * t2 * x3, 0.0),
          (t2, t1, 0.0),
          (0.0, 0.0, 2.0 * x2 * x2 * t3))
    # d/dx_l d/dt_k per component: [comp][k][l]
    dxdt = (((2.0 * x0, 0.0, 0.0, 0.0), (0.0,) * 4, (0.0, x2, x1, 0.0)),
            ((0.0,) * 4, (0.0, 0.0, 0.0, 2.0 * t2), (0.0,) * 4),
            ((0.0,) * 4, (0.0,) * 4, (0.0,) * 4),
            ((0.0,) * 4, (0.0,) * 4, (0.0, 0.0, 4.0 * x2 * t3, 0.0)))
    wi = ((-x1, x0, x3, -x2), (-x2, -x3, x0, x1), (-x3, x2, -x1, x0))
    comps = []
    for c in range(4):
        v = lap_x[c] + 4.0 * xsq * lap_t[c]
        for k in range(3):
            v += 4.0 * sum(wi[k][l] * dxdt[c][k][l] for l in range(4))
        comps.append(v)
    out = Quaternion(*comps)
    for k, ik in enumerate((I1, I2, I3)):
        out = out + ik * Quaternion(*(dt[c][k] for c in range(4))) * (4.0 * lam[k])
    return out


@pytest.mark.parametrize("p", [P_GENERIC, X_E0, np.array([0.0] * 4 + [0.3, -0.2, 0.7])])
def test_delta_lambda_direct_on_a_quartic(p):
    # the second differences are even in s and Richardson cancels their s^2
    # term, so along each (straight) line the rule is exact to degree 5
    lam = (0.5, -0.3, 0.8)
    want = _quartic_delta_lambda(p, lam)
    got = delta_lambda_apply(_quartic, p, lam, h=1e-2)
    assert (got - want).norm() <= 1e-7 * max(1.0, want.norm())


def test_delta_lambda_direct_is_fourth_order():
    # halving h divides the error by 16 on a smooth non-polynomial field
    def f(q):
        return Quaternion(np.sin(q[0] + q[4]), np.cos(q[1] - q[5]) * q[2],
                          np.exp(0.3 * q[6]) * q[3], q[0] * q[1])

    lam = Lambda(0.5, 0.2, -0.1)
    want = delta_lambda_apply(f, P_GENERIC, lam, h=1e-3)
    errs = [(delta_lambda_apply(f, P_GENERIC, lam, h=h) - want).norm()
            for h in (0.08, 0.04)]
    assert 14.0 <= errs[0] / errs[1] <= 18.0


def test_delta_lambda_direct_batch_matches_single_points(rng):
    pts = rng.normal(size=(N_COORDS, 5))
    pts[:4, 2] = (1.0, 0.0, 0.0, 0.0)
    lam = Lambda(0.5, 0.0, -0.1)
    calls = []

    def f(q):
        calls.append(q.shape)
        return _poly_field(q)

    value, centre = _delta_lambda_lines(f, pts, lam, 1e-3)
    assert calls == [(N_COORDS, 25 * 5)]
    for i in range(pts.shape[1]):
        v, c = _delta_lambda_lines(_poly_field, pts[:, i], lam, 1e-3)
        assert tuple(comp[i] for comp in value.components()) == v.components()
        assert tuple(comp[i] for comp in centre.components()) == c.components()


@pytest.mark.parametrize("p, h", [
    (P_GENERIC, 0.0),
    (P_GENERIC, -1.0),
    (P_GENERIC, math.nan),
    (P_GENERIC, math.inf),
    (P_GENERIC, 1e-300),
    (X_E0, 1e-17),          # x0 + h/2 == x0, on the line of X_0
    (np.zeros(N_COORDS), 1e-170),        # (h/2)^2 underflows to 0
    (np.array([0.0] * 4 + [-1.0, 0.0, 0.0]), 8e-17),  # t1 - h/2 == t1
])
def test_delta_lambda_direct_rejects_bad_step(p, h):
    calls = []
    with pytest.raises(ValueError, match="step"):
        _delta_lambda_lines(lambda q: calls.append(q) or q[0], p, (0.5, 0.0, 0.0), h)
    assert calls == []


def test_delta_lambda_direct_ignores_unused_t_axes():
    # at x = 0 the lines move no t_k, and t2 is no axis of the lambda term
    # at lambda_2 = 0, so a t2 that would swallow the step does not raise
    p = np.array([0.0, 0.0, 0.0, 0.0, 0.2, 1e20, 0.0])
    got = delta_lambda_apply(lambda q: q[4] * q[4], p, (0.5, 0.0, 0.0), h=1e-2)
    assert (got - I1 * 0.8).norm() <= 1e-12


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
    value, centre = _delta_lambda_lines(f, P_GENERIC, lam, 1e-3)
    assert value == delta_lambda_apply(f, P_GENERIC, lam, h=1e-3)
    assert centre == f(P_GENERIC)


def _key(**orders):
    """Derivative multi-index from keyword orders, e.g. x0=1, t1=1."""
    names = ("x0", "x1", "x2", "x3", "t1", "t2", "t3")
    return tuple(orders.get(n, 0) for n in names)


def test_delta_lambda_operator_is_the_coordinate_form():
    # sum_l dx_l^2 + 4|x|^2 sum_k dt_k^2 + 4 sum_k ((w i_k . dx) + lambda_k i_k) dt_k
    lam = Lambda(0.5, -0.25, 0.75)
    xsq4 = QPoly()
    for j in range(4):
        e = [0, 0, 0, 0]
        e[j] = 2
        xsq4 = xsq4 + QPoly({tuple(e): Quaternion(4.0)})
    want = {}
    for l in range(4):
        want[_key(**{f"x{l}": 2})] = QPoly.const(ONE)
    basis = (ONE, I1, I2, I3)
    for k, ik in enumerate((I1, I2, I3)):
        t = f"t{k + 1}"
        want[_key(**{t: 2})] = xsq4
        want[_key(**{t: 1})] = QPoly.const(ik * (4.0 * lam.as_tuple()[k]))
        for l in range(4):
            # (w i_k)_l = sum_j x_j (e_j i_k)_l
            coeff = QPoly()
            for j in range(4):
                c = (basis[j] * ik).components()[l]
                if c:
                    coeff = coeff + QPoly.coord(j, 4.0 * c)
            if not coeff.is_zero():
                want[_key(**{f"x{l}": 1, t: 1})] = coeff
    op = _sum_x_squared()
    for k, ik in enumerate((I1, I2, I3)):
        op = op + _dt_op(k, ik * (4.0 * lam.as_tuple()[k]))
    assert set(op.terms) == set(want)
    for key, poly in want.items():
        assert op.terms[key] == poly, key
    # no dt_j dt_k term with j != k survives the composition
    assert not any(sum(key[4:]) == 2 and max(key[4:]) == 1 for key in op.terms)


@pytest.mark.parametrize("name", ["_sum_x_squared", "_x_fields", "_box_b_ops"])
def test_operators_cached_and_not_built_at_import(name, src_env):
    import qsiegel.diffops as d
    build = getattr(d, name)
    assert build() is build()
    code = ("import qsiegel, qsiegel.diffops as d; "
            f"assert d.{name}.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True, env=src_env)


def test_cached_operators_equal_fresh_ones():
    # the public builders still return new objects, equal to the cached ones
    assert _x_fields() == tuple(make_x(l) for l in range(4))
    assert make_x(1) is not make_x(1)
    h_op, hb, _ = _box_b_ops()
    assert h_op == h_field() and hb == hbar_field()
    assert h_field() is not h_op and hbar_field() is not hb


def _poly_field(q):
    # elementwise arithmetic only, so a batch computes each point's value
    # with the same operations as that point alone
    return Quaternion(q[0] * q[4] / (1.0 + q[1] * q[1]), q[2] * q[5] * q[6],
                      1.0 / (2.0 + q[3] * q[4]), q[0] * q[1] * q[6] + q[5])


@pytest.mark.parametrize("op", [
    make_x(2), hbar_field(), h_field(), make_x(1).compose(make_x(3)),
    _sum_x_squared() + _dt_op(0, I1 * 2.0) + _dt_op(1, I2 * 0.8) + _dt_op(2, I3 * -0.4),
    QuatDiffOp.single((0,) * N_COORDS, Quaternion(0.5, 1.0, 0.0, -2.0)),
], ids=["X2", "Hbar", "H", "X1X3", "Delta_lambda", "order0"])
def test_apply_op_batch_matches_single_points(rng, op):
    pts = rng.normal(size=(N_COORDS, 6))
    # x = (1, 0, 0, 0): coefficients that vanish there drop for this point
    # alone, not in the batch
    pts[:4, 2] = (1.0, 0.0, 0.0, 0.0)
    calls = []

    def f(q):
        calls.append(q.shape)
        return _poly_field(q)

    got = apply_op(op, f, pts, h=1e-3)
    assert len(calls) == 1
    for i in range(pts.shape[1]):
        want = apply_op(op, _poly_field, pts[:, i], h=1e-3)
        assert tuple(c[i] for c in got.components()) == want.components()


def test_apply_op_rejects_bad_shape_and_order():
    with pytest.raises(ValueError, match="7 coordinates"):
        apply_op(make_x(0), _poly_field, np.zeros((6, 3)))
    with pytest.raises(ValueError, match="order <= 2"):
        apply_op(make_x(0).compose(make_x(1)).compose(make_x(2)), _poly_field, P_GENERIC)


@pytest.mark.parametrize("run, calls", [
    (lambda f: box_b_identity_residual(f, P_GENERIC), 2),
    (lambda f: delta_lambda_apply(f, P_GENERIC, Lambda(0.5, 0.2, -0.1), h=1e-3,
                                  form="nested"), 5),
], ids=["box_b", "nested"])
def test_nested_stencils_call_the_field_once_per_operator(run, calls):
    seen = []

    def f(q):
        seen.append(q.shape)
        return _poly_field(q)

    run(f)
    assert len(seen) == calls


@pytest.mark.parametrize("form", ["direct", "nested"])
def test_delta_lambda_accepts_a_sequence(form):
    lam = (0.5, 0.0, 0.0)
    got = delta_lambda_apply(_poly_field, P_GENERIC, lam, h=1e-3, form=form)
    assert got == delta_lambda_apply(_poly_field, P_GENERIC, Lambda(*lam), h=1e-3,
                                     form=form)
    assert Lambda.from_seq(Lambda(*lam)) == Lambda(*lam)


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
               0.01999999999999994, 0.0)),
])
def test_cauchy_fueter_values_pinned(spec, f, want):
    # the weighted mean of f, each psi-row reduced by numpy's pairwise sum,
    # so the value does not depend on the BLAS thread count; f's component
    # 3 vanishes, and so does its mean, exactly
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
    """The paper's integrand node by node: the geometry at this radius,
    kernel * Dq * f per node, weighted, one pairwise sum per component
    over every node."""
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
    # the spherical-mean rule against the paper's kernel * Dq * f node by
    # node: kernel * Dq is the real surface element only in exact
    # arithmetic, and the mean's sums are grouped by row, so the routes
    # agree to rounding: 8 ulp of 1, the scale of |f| on these spheres (at
    # most 2 ulp seen)
    got = _cf_run(f, Q0, radius, order)
    want = _cf_reference(f, Q0, radius, order)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(1.0))


def test_cauchy_fueter_warm_call_memory(spec):
    # a call holds only psi-row sized arrays; a (4, N) array over every
    # node would alone take 2.8 MiB at order 36
    cauchy_fueter_sphere(_affine, Q0, radius=1.3, spec=spec)
    tracemalloc.start()
    try:
        cauchy_fueter_sphere(_affine, Q0, radius=1.3, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_cauchy_fueter_retains_nothing_after_a_call():
    # nothing per sphere order outlives a call: a cache of the kernel * Dq
    # factor per node would keep 281 MB after one order-128 call
    tracemalloc.start()
    try:
        cauchy_fueter_sphere(_affine, Q0, radius=1.3,
                             spec=QuadratureSpec(sphere_order=128))
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 2 ** 20


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


@pytest.mark.parametrize("h", [1e-17, 1e-300, math.nan, math.inf, 0.0, -1e-5])
def test_tangency_rejects_collapsed_step(h):
    bp = boundary_point(Quaternion(0.6, -0.3, 0.8, 0.2), (0.4, -1.1, 0.5))
    with pytest.raises(ValueError, match="step"):
        crf_tangency_residual(bp, h=h)

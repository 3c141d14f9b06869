"""Named verification suites over the whole package.

Each suite is a list of (name, thunk) pairs; thunks return a CheckResult.
Suites are deterministic: randomized checks draw from fixed-seed
generators, so two runs with the same flags produce identical reports.
Erratum-class checks adjudicate a sign or constant that is printed
inconsistently in the source material; they carry both candidate values
and are informational, never failing a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, List, Tuple

import numpy as np

from .quat import (Quaternion, ONE, I1, I2, I3, to_matrix, exp_imag,
                   real_power, scalar_product)
from .quad import QuadratureSpec, QuadratureError
from .group import GroupElement, gmul, dilate, homogeneous_norm, polar_constant
from .siegel import (SiegelPoint, BallPoint, cayley_to_siegel, cayley_to_ball,
                     act, height, boundary_point, boundary_coords, rotate)
from . import diffops
from .diffops import (make_x, hbar_field, h_field, commutator, QuatDiffOp,
                      QPoly, apply_op, box_b_identity_residual,
                      crf_tangency_residual, cauchy_fueter_sphere, dq_eval)
from . import szego
from . import greens

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES"]


@dataclass
class CheckResult:
    name: str
    computed: object
    expected: object
    abs_err: object        # float, or None when not meaningful
    rel_err: object        # float, or None when expected = 0 or non-numeric
    tolerance: object      # float, or None for informational checks
    tol_kind: str          # "abs" | "rel" | "exact" | "info"
    category: str          # "check" | "erratum"
    passed: bool
    notes: str = ""


def _num(v):
    if isinstance(v, Quaternion):
        return list(v.components())
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


def _value_check(name, computed, expected, tol, kind="rel", notes="") -> CheckResult:
    c = float(computed)
    e = float(expected)
    abs_err = abs(c - e)
    rel_err = abs_err / abs(e) if e != 0.0 else None
    ok = abs_err <= tol if kind == "abs" else (rel_err is not None and rel_err <= tol)
    return CheckResult(name, c, e, abs_err, rel_err, tol, kind, "check", ok, notes)


def _bound_check(name, computed, bound, notes="") -> CheckResult:
    c = float(computed)
    return CheckResult(name, c, f"<= {bound:g}", c, None, bound, "abs",
                       "check", c <= bound, notes)


def _exact_check(name, ok, computed, expected, notes="") -> CheckResult:
    return CheckResult(name, _num(computed), _num(expected),
                       0.0 if ok else None, None,
                       0.0, "exact", "check", bool(ok), notes)


def _erratum(name, adjudicated, candidates, notes="") -> CheckResult:
    return CheckResult(name, _num(adjudicated), candidates, None, None, None,
                       "info", "erratum", True, notes)


# Randomized checks, the diffops ones included, draw all samples at once and
# evaluate them as batches (Quaternions with array components, one sample
# per entry).  Most draw the stream in the same order as a loop over samples;
# dilation_norm_homogeneity draws every element, then every factor.

def _draw(rng, n: int, width: int) -> np.ndarray:
    """n samples of ``width`` normals each: one row per coordinate, one
    column per sample."""
    return rng.normal(size=(n, width)).T


def _group_rows(x) -> GroupElement:
    """Batch element [w, t] from seven rows of draws, w first."""
    return GroupElement(Quaternion(*x[:4]), x[4:7])


def _interior_rows(x) -> SiegelPoint:
    """Batch point (q1, q2) with Re q2 = 5 + |normal| from eight rows."""
    return SiegelPoint(Quaternion(*x[:4]), Quaternion(5.0 + np.abs(x[4]), *x[5:8]))


def _worst(*defects) -> float:
    """Largest defect over all samples, 0.0 for none; a NaN propagates."""
    return float(np.max(np.array(defects), initial=0.0))


# ---------------------------------------------------------------------------
# algebra

_TABLE1 = {
    (1, 1): -0, (1, 2): 3, (1, 3): -2,
    (2, 1): -3, (2, 2): -0, (2, 3): 1,
    (3, 1): 2, (3, 2): -1, (3, 3): -0,
}


def _algebra(spec: QuadratureSpec):
    units = {1: I1, 2: I2, 3: I3}

    def table1():
        ok = True
        for (a, b), out in _TABLE1.items():
            got = units[a] * units[b]
            want = Quaternion(-1.0) if out == 0 else (
                units[abs(out)] if out > 0 else -units[abs(out)])
            ok = ok and got == want
        return _exact_check("unit_multiplication_table", ok, "9 products",
                            "i1i2=i3 cycle, squares -1")

    def norm_mult():
        x = _draw(np.random.default_rng(20260819), 10_000, 8)
        q, h = Quaternion(*x[:4]), Quaternion(*x[4:])
        nn = q.norm() * h.norm()
        worst = _worst(np.abs((q * h).norm() - nn) / np.maximum(nn, 1e-300))
        return _bound_check("norm_multiplicativity", worst, 1e-12,
                            "max relative defect over 1e4 random pairs")

    def matrix_hom():
        x = _draw(np.random.default_rng(7), 500, 8)
        q, h = Quaternion(*x[:4]), Quaternion(*x[4:])
        worst = _worst(np.abs(to_matrix(q) @ to_matrix(h) - to_matrix(q * h)))
        return _bound_check("matrix_homomorphism", worst, 1e-12,
                            "M(q)M(h) = M(qh), max entry defect")

    def matrix_det():
        q = Quaternion(*_draw(np.random.default_rng(11), 500, 4))
        n4 = q.norm() ** 4
        worst = _worst(np.abs(np.linalg.det(to_matrix(q)) - n4) / n4)
        return _bound_check("matrix_determinant", worst, 1e-12,
                            "det M(q) = |q|^4, relative")

    def transpose_erratum():
        q = Quaternion(0.7, -1.2, 0.4, 2.1)
        d_conj = float(np.max(np.abs(to_matrix(q).T - to_matrix(q.conj()))))
        d_neg = float(np.max(np.abs(to_matrix(q).T + to_matrix(q))))
        return _erratum(
            "matrix_transpose_sign", f"M(q)^T = M(conj q), defect {d_conj:.1e}",
            {"transpose_equals_conjugate": d_conj, "transpose_equals_minus": d_neg},
            "antisymmetry holds only for purely imaginary q")

    def power_roundtrip():
        q = Quaternion(1.0, 2.0, -1.0, 0.5)
        res = (real_power(q, 5.0) * real_power(q, -5.0) - ONE).norm()
        return _bound_check("real_power_roundtrip", res, 1e-9,
                            "q^5 q^-5 = 1 in the commutative plane")

    def exp_unit():
        v = exp_imag((0.3, -0.4, 1.2))
        return _bound_check("exp_imag_unit_norm", abs(v.norm() - 1.0), 1e-14)

    return [("unit_multiplication_table", table1),
            ("norm_multiplicativity", norm_mult),
            ("matrix_homomorphism", matrix_hom),
            ("matrix_determinant", matrix_det),
            ("matrix_transpose_sign", transpose_erratum),
            ("real_power_roundtrip", power_roundtrip),
            ("exp_imag_unit_norm", exp_unit)]


# ---------------------------------------------------------------------------
# group

def _group(spec: QuadratureSpec):
    def assoc():
        x = _draw(np.random.default_rng(101), 2000, 21)
        g, h, k = _group_rows(x[:7]), _group_rows(x[7:14]), _group_rows(x[14:])
        a, b = gmul(gmul(g, h), k), gmul(g, gmul(h, k))
        worst = _worst((a.w - b.w).norm(),
                       *(np.abs(u - v) for u, v in zip(a.t, b.t)))
        return _bound_check("associativity", worst, 1e-11)

    def inverse():
        g = _group_rows(_draw(np.random.default_rng(103), 2000, 7))
        e = gmul(g, g.inverse())
        worst = _worst(e.w.norm(), *np.abs(e.t))
        return _bound_check("inverse_identity", worst, 1e-11)

    def dil_norm():
        rng = np.random.default_rng(107)
        g = _group_rows(_draw(rng, 2000, 7))
        r = rng.uniform(0.1, 3.0, 2000)
        worst = _worst(np.abs(homogeneous_norm(dilate(r, g))
                              - r * homogeneous_norm(g)))
        return _bound_check("dilation_norm_homogeneity", worst, 1e-11)

    def polar_gauss():
        v = polar_constant(lambda s: np.exp(-s * s), spec)
        return _value_check("polar_constant_gaussian", v, 2.0 * math.pi ** 3 / 3.0,
                            1e-9, "rel", "radial profile exp(-s^2)")

    def polar_exp():
        v = polar_constant(lambda s: np.exp(-s), spec)
        return _value_check("polar_constant_exponential", v,
                            2.0 * math.pi ** 3 / 3.0, 1e-9, "rel",
                            "profile-independence of the polar factor")

    return [("associativity", assoc),
            ("inverse_identity", inverse),
            ("dilation_norm_homogeneity", dil_norm),
            ("polar_constant_gaussian", polar_gauss),
            ("polar_constant_exponential", polar_exp)]


# ---------------------------------------------------------------------------
# siegel

def _siegel(spec: QuadratureSpec):
    def roundtrip():
        x = 0.4 * _draw(np.random.default_rng(211), 1000, 8)
        b = BallPoint(Quaternion(*x[:4]), Quaternion(*x[4:]))
        keep = b.h1.norm_sq() + b.h2.norm_sq() < 0.96
        b = BallPoint(Quaternion(*x[:4, keep]), Quaternion(*x[4:, keep]))
        b2 = cayley_to_ball(cayley_to_siegel(b))
        worst = _worst((b.h1 - b2.h1).norm(), (b.h2 - b2.h2).norm())
        return _bound_check("cayley_roundtrip", worst, 1e-11)

    def action_comp():
        x = _draw(np.random.default_rng(223), 1000, 22)
        g, h, p = _group_rows(x[:7]), _group_rows(x[7:14]), _interior_rows(x[14:])
        a, b = act(gmul(g, h), p), act(g, act(h, p))
        worst = _worst((a.q1 - b.q1).norm(), (a.q2 - b.q2).norm())
        return _bound_check("action_composition", worst, 1e-10)

    def height_inv():
        x = _draw(np.random.default_rng(227), 1000, 15)
        g, p = _group_rows(x[:7]), _interior_rows(x[7:])
        worst = _worst(np.abs(height(act(g, p)) - height(p)))
        return _bound_check("action_height_invariance", worst, 1e-10)

    def boundary_roundtrip():
        x = _draw(np.random.default_rng(229), 1000, 7)
        w, t = Quaternion(*x[:4]), x[4:]
        bw, bt = boundary_coords(boundary_point(w, t))
        worst = _worst((bw - w).norm(), *(np.abs(u - v) for u, v in zip(bt, t)))
        return _bound_check("boundary_coordinate_roundtrip", worst, 1e-12)

    def rotation_height():
        rng = np.random.default_rng(233)
        q_mat, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        p = SiegelPoint(Quaternion(0.5, 0.1, -0.7, 0.2),
                        Quaternion(2.0, 0.3, -0.1, 0.9))
        return _bound_check("rotation_height_invariance",
                            abs(height(rotate(q_mat, p)) - height(p)), 1e-12)

    return [("cayley_roundtrip", roundtrip),
            ("action_composition", action_comp),
            ("action_height_invariance", height_inv),
            ("boundary_coordinate_roundtrip", boundary_roundtrip),
            ("rotation_height_invariance", rotation_height)]


# ---------------------------------------------------------------------------
# diffops

def _dt_op(k: int, coeff: Quaternion) -> QuatDiffOp:
    key = [0] * diffops.N_COORDS
    key[4 + k] = 1
    return QuatDiffOp.single(tuple(key), QPoly.const(coeff))


def _diffops(spec: QuadratureSpec):
    def table2():
        X = [make_x(l) for l in range(4)]
        want = {}
        for k in range(3):
            want[(0, k + 1)] = _dt_op(k, Quaternion(4.0))
        want[(1, 2)] = _dt_op(2, Quaternion(-4.0))
        want[(2, 3)] = _dt_op(0, Quaternion(-4.0))
        want[(3, 1)] = _dt_op(1, Quaternion(-4.0))
        ok = True
        for a in range(4):
            for b in range(4):
                c = commutator(X[a], X[b])
                if a == b:
                    ok = ok and c.is_zero()
                elif (a, b) in want:
                    ok = ok and c == want[(a, b)]
                elif (b, a) in want:
                    ok = ok and c == want[(b, a)].scale(-1.0)
        return _exact_check("bracket_table", ok, "16 brackets",
                            "[X0,Xk]=4dt_k, cyclic [Xj,Xk]=-4dt_m")

    def hbar_h():
        c = commutator(hbar_field(), h_field())
        minus = _dt_op(0, I1 * -2.0) + _dt_op(1, I2 * -2.0) + _dt_op(2, I3 * -2.0)
        plus = minus.scale(-1.0)
        got = "-2" if c == minus else ("+2" if c == plus else "neither")
        return _erratum("hbar_h_commutator_sign", got,
                        {"minus_two_sum": c == minus, "plus_two_sum": c == plus},
                        "[Hbar,H] = -2 sum i_k dt_k; the +2 variant is the "
                        "printed inconsistency")

    def box_b():
        p = np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.2, -0.3])

        def probe(q):
            return Quaternion(np.sin(q[0] + 0.5 * q[4]), q[1] * q[2],
                              np.cos(q[5]), q[3] * q[6])
        return _bound_check("second_order_factorization", box_b_identity_residual(probe, p),
                            1e-5, "-H Hbar = -(1/4)(sum X^2 + 8 sum i_k dt_k)")

    def hbar_conj():
        def fconj(q):
            return Quaternion(q[0], -q[1], -q[2], -q[3])
        val = apply_op(hbar_field(), fconj,
                       np.array([0.3, -0.2, 0.5, 0.1, 0.4, 0.2, -0.3]), h=1e-4)
        return _value_check("hbar_on_conjugate", val.t, 2.0, 1e-7, "abs",
                            "Hbar(conj w) = 2; imaginary parts vanish "
                            f"(|imag| = {Quaternion(0, val.a, val.b, val.c).norm():.1e})")

    def tangency():
        x = _draw(np.random.default_rng(307), 50, 7)
        worst = _worst(crf_tangency_residual(boundary_point(Quaternion(*x[:4]), x[4:])))
        return _bound_check("boundary_annihilation", worst, 1e-7,
                            "dbar_{q1} r + 2 q1 dbar_{q2} r on the boundary")

    def cf_const():
        v = cauchy_fueter_sphere(lambda q: ONE, Quaternion(0.2, -0.1, 0.3, 0.05),
                                 radius=1.0, spec=spec)
        return _bound_check("reproducing_constant", (v - ONE).norm(), 1e-5,
                            "sphere integral reproduces f = 1")

    def cf_identity():
        q0 = Quaternion(0.2, -0.1, 0.3, 0.05)
        v = cauchy_fueter_sphere(lambda q: q, q0, radius=1.3, spec=spec)
        return _bound_check("reproducing_identity", (v - q0).norm(), 1e-5,
                            "sphere integral reproduces f(q) = q at the center")

    def dq_pairing():
        x = _draw(np.random.default_rng(311), 200, 16)
        h1, h2, h3, h4 = (Quaternion(*x[i:i + 4]) for i in range(0, 16, 4))
        # sample n's matrix has the components of h1..h4 as its rows
        det = np.linalg.det(x.reshape(4, 4, -1).transpose(2, 0, 1))
        worst = _worst(np.abs(scalar_product(h1, dq_eval(h2, h3, h4)) - det)
                       / np.maximum(np.abs(det), 1.0))
        return _bound_check("volume_pairing", worst, 1e-12,
                            "<h1, Dq(h2,h3,h4)> = det")

    return [("bracket_table", table2),
            ("hbar_h_commutator_sign", hbar_h),
            ("second_order_factorization", box_b),
            ("hbar_on_conjugate", hbar_conj),
            ("boundary_annihilation", tangency),
            ("volume_pairing", dq_pairing),
            ("reproducing_constant", cf_const),
            ("reproducing_identity", cf_identity)]


# ---------------------------------------------------------------------------
# szego

def _szego(spec: QuadratureSpec):
    def gamma_int():
        return _value_check("radial_height_integral", szego.gamma_integral(spec),
                            5.0 * math.pi / 256.0, 1e-9, "rel",
                            "Gamma(3/2)Gamma(7/2)/(2 Gamma(5))")

    def delta_int():
        return _value_check("radial_shell_integral", szego.delta_integral(spec),
                            1.0 / 60.0, 1e-9, "rel", "Gamma(5)/(2 Gamma(7))")

    def k_constant():
        return _value_check("k_constant", szego.verify_k(spec),
                            szego.K_ANALYTIC, 1e-7, "rel",
                            "normalization integral inverts to 3/(8 pi^4)")

    def reproducing():
        return _value_check("reproducing_value", szego.verify_reproducing(spec),
                            2.0 ** -5, 1e-6, "abs",
                            "kernel pairing against (q2+1)^-5 at (0,1); "
                            "equals K_ANALYTIC/(32 k_constant), a "
                            "normalization check")

    def hermitian():
        p = SiegelPoint(Quaternion(0.5, 0.1, -0.7, 0.2),
                        Quaternion(2.0, 0.3, -0.1, 0.9))
        w = SiegelPoint(Quaternion(-0.2, 0.4, 0.3, 0.1),
                        Quaternion(1.5, -0.6, 0.2, 0.4))
        d = (szego.r_pair(p, w) - szego.r_pair(w, p).conj()).norm()
        return _bound_check("pairing_hermitian", d, 1e-12,
                            "r(p,w) = conj r(w,p)")

    def c_kernel_erratum():
        c_main = szego.C_KERNEL
        return _erratum("boundary_kernel_constant", c_main,
                        {"thirty_two_k": c_main, "sixteen_k": 16.0 * szego.K_ANALYTIC},
                        "c = 32k = 12/pi^4 is forced by r_pair at coincident "
                        "boundary points; the halved constant is the printed "
                        "inconsistency")

    return [("radial_height_integral", gamma_int),
            ("radial_shell_integral", delta_int),
            ("k_constant", k_constant),
            ("reproducing_value", reproducing),
            ("pairing_hermitian", hermitian),
            ("boundary_kernel_constant", c_kernel_erratum)]


# ---------------------------------------------------------------------------
# greens

def _greens(spec: QuadratureSpec):
    def ktilde_value():
        v = greens.k_tilde_lambda(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0]),
                                  (0.0, 0.0, 0.0), spec)
        return _value_check("hermite_kernel_value", v,
                            math.exp(-1.0) / (4.0 * math.pi ** 2), 1e-9, "rel",
                            "lambda=0, |x|=|tau|=1")

    def ktilde_scaling():
        x = np.array([1.1, 0.3, -0.2, 0.5])
        tau = np.array([0.4, -0.8, 0.3])
        lam = (0.3, -0.2, 0.1)
        s = 1.7
        lhs = greens.k_tilde_lambda(x, s * s * tau, lam, spec)
        rhs = s * s * greens.k_tilde_lambda(s * x, tau, lam, spec)
        return _value_check("hermite_kernel_scaling", lhs, rhs, 1e-8, "rel")

    def hermite_res():
        x = np.array([1.0, 0, 0, 0])
        tau = np.array([1.0, 0, 0])
        r = greens.hermite_residual(x, tau, (0.5, 0.0, 0.0), spec)
        k = greens.k_tilde_lambda(x, tau, (0.5, 0.0, 0.0), spec)
        return _bound_check("hermite_annihilation", r / (k * 5.0), 1e-6,
                            "residual over |K~|(1 + 4|x|^2|tau|^2)")

    def klambda_value():
        v = greens.k_lambda(np.array([1.0, 0, 0, 0]), np.zeros(3), (0, 0, 0), spec)
        return _value_check("kernel_value", v.t, 1.0 / (4.0 * math.pi ** 4),
                            1e-7, "rel", "lambda=0, |x|=1, t=0")

    def kaplan_value():
        that = np.array([0.3, -0.4, 0.866])
        t = 2.0 * that / np.linalg.norm(that)
        v = greens.k_lambda(np.array([1.0, 0, 0, 0]), t, (0, 0, 0), spec)
        return _value_check("kernel_value_kaplan", v.t,
                            1.0 / (4.0 * math.pi ** 4 * (1.0 + float(t @ t)) ** 2),
                            1e-9, "rel", "lambda=0, |x|=1, t=2t^ off every axis: "
                            "Kaplan's 1/(4 pi^4 (|x|^4+|t|^2)^2)")

    def homogeneity():
        x = np.array([0.9, 0.4, -0.3, 0.6])
        t = np.array([0.7, -1.2, 0.5])
        a = greens.k_lambda(2.0 * x, 4.0 * t, (0.7, 0.0, 0.0), spec)
        b = greens.k_lambda(x, t, (0.7, 0.0, 0.0), spec)
        expo = math.log2(a.norm() / b.norm())
        return _value_check("kernel_homogeneity_degree", expo, -8.0, 1e-5, "abs")

    def reality():
        v = greens.k_lambda(np.array([0.9, 0.4, -0.3, 0.6]),
                            np.array([0.7, -1.2, 0.5]), (0, 0, 0), spec)
        return _bound_check("lambda0_reality",
                            Quaternion(0.0, v.a, v.b, v.c).norm() / abs(v.t), 1e-9)

    def conjugation():
        x = np.array([0.9, 0.4, -0.3, 0.6])
        t = np.array([0.7, -1.2, 0.5])
        a = greens.k_lambda(x, t, (0.6, -0.4, 0.3), spec)
        b = greens.k_lambda(x, -t, (0.6, -0.4, 0.3), spec)
        return _bound_check("central_conjugation", (b - a.conj()).norm() / a.norm(),
                            1e-9)

    def heis_oracle():
        worst = 0.0
        for xn in (0.5, 1.0, 2.0):
            for t in (-2.0, 0.0, 1.0):
                for lam in (-1.0, 0.0, 0.5):
                    x = np.array([xn, 0, 0, 0])
                    c = greens.heis_k_closed(x, t, lam)
                    q = greens.heis_k_quadrature(x, t, lam, spec)
                    worst = max(worst, (q - c).norm() / c.norm())
        return _bound_check("heisenberg_oracle", worst, spec.rel_tol,
                            "closed form vs contour quadrature, 27 points")

    def k0_sign_erratum():
        # at t = 0 the sphere form's integrand is |x|^-6, constant on S^2
        v = 2.0 * 4.0 * math.pi / (2.0 * math.pi) ** 5
        return _erratum("sphere_form_sign", v,
                        {"positive": v, "printed_negative": -v},
                        "positive: at |x|=1, t=0 the sphere form is "
                        "2 * 4 pi/(2 pi)^5 = 1/(4 pi^4), Kaplan's value")

    def heis_sign_erratum():
        d = greens.heis_contour_sign_check(np.array([0.8, 0.2, -0.5, 0.3]),
                                           1.3, 0.8, spec)
        return _erratum("contour_lambda_sign",
                        f"direct integral matches closed form at -lambda "
                        f"({d['dist_minus']:.1e} vs {d['dist_plus']:.1e})",
                        {"dist_at_plus_lambda": d["dist_plus"],
                         "dist_at_minus_lambda": d["dist_minus"]},
                        "the two printed displays are mutually consistent; "
                        "the unshifted integral flips the sign of lambda")

    def delta_res_0():
        r = greens.delta_lambda_residual_on_k(np.array([1.0, 0, 0, 0]),
                                              np.array([0.5, 0, 0]),
                                              (0.0, 0.0, 0.0), spec)
        return _bound_check("kernel_annihilation_lambda0", r, 1e-5,
                            "normalized Delta_lambda residual, O(h^4) line stencil")

    def delta_res_1():
        r = greens.delta_lambda_residual_on_k(np.array([1.0, 0, 0, 0]),
                                              np.array([0.5, 0, 0]),
                                              (0.5, 0.3, 0.0), spec)
        return _bound_check("kernel_annihilation_lambda", r, 1e-5,
                            "normalized Delta_lambda residual, O(h^4) line stencil, "
                            "lambda=(0.5,0.3,0)")

    def axial_value():
        v = greens.k_lambda(np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0]),
                            (0.8, 0.0, 0.0), spec)
        want = greens._k_lambda_axial(1.0, 2.0, 0.8, spec)
        return _bound_check("kernel_value_axial", (v - want).norm() / want.norm(),
                            max(1e-9, spec.rel_tol),
                            "lambda=(0.8,0,0), |x|=1, t=(2,0,0): relative distance "
                            "to the defining form integrated over (n_1, u)")

    return [("hermite_kernel_value", ktilde_value),
            ("hermite_kernel_scaling", ktilde_scaling),
            ("hermite_annihilation", hermite_res),
            ("kernel_value", klambda_value),
            ("kernel_value_kaplan", kaplan_value),
            ("kernel_homogeneity_degree", homogeneity),
            ("lambda0_reality", reality),
            ("central_conjugation", conjugation),
            ("heisenberg_oracle", heis_oracle),
            ("sphere_form_sign", k0_sign_erratum),
            ("contour_lambda_sign", heis_sign_erratum),
            ("kernel_annihilation_lambda0", delta_res_0),
            ("kernel_annihilation_lambda", delta_res_1),
            ("kernel_value_axial", axial_value)]


# ---------------------------------------------------------------------------

_SUITES = {
    "algebra": _algebra,
    "group": _group,
    "siegel": _siegel,
    "diffops": _diffops,
    "szego": _szego,
    "greens": _greens,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, spec: QuadratureSpec, threads: int = 1) -> dict:
    """Run one suite (or all) and return the deterministic report dict.

    Checks may run concurrently, but the report lists them in declaration
    order.  Raises ValueError for an unknown suite name; QuadratureError
    from a non-converging evaluator propagates to the caller.
    """
    if name == "all":
        suites = list(_SUITES)
    elif name in _SUITES:
        suites = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")

    all_checks: List[Tuple[str, str, Callable[[], CheckResult]]] = []
    for s in suites:
        for cname, thunk in _SUITES[s](spec):
            all_checks.append((s, cname, thunk))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: c[2](), all_checks))
    else:
        results = [thunk() for _, _, thunk in all_checks]

    checks = []
    for (s, cname, _), res in zip(all_checks, results):
        d = asdict(res)
        d["suite"] = s
        d["computed"] = _num(d["computed"])
        d["pass"] = d.pop("passed")
        checks.append(d)

    hard = [c for c in checks if c["category"] != "erratum"]
    report = {
        "suite": name,
        "quadrature": {
            "rel_tol": spec.rel_tol,
            "abs_tol": spec.abs_tol,
            "max_subdivisions": spec.max_subdivisions,
            "sphere_order": spec.sphere_order,
        },
        "checks": checks,
        "counts": {
            "total": len(checks),
            "passed": sum(c["pass"] for c in hard),
            "failed": sum(not c["pass"] for c in hard),
            "informational": len(checks) - len(hard),
        },
        "passed": all(c["pass"] for c in hard),
    }
    return report


"""Fundamental solutions of the sub-Laplacian family Delta_lambda.

Three evaluators and their cross-checks:

* ``k_tilde_lambda`` -- the Hermite-space kernel

      K~_lambda(x, tau) = (|tau|/4 pi^2) int_0^inf e^{-(lambda.n) u}
                          e^{-|tau| |x|^2 coth u} sinh^-2 u du,

  n = tau/|tau|, annihilated by the Hermite operator
  sum d^2/dx_l^2 - 4|x|^2|tau|^2 - 4 lambda.tau away from x = 0.  It is
  evaluated in the v = coth u form: v = 1 + s/c with c = |tau||x|^2 gives

      K~_lambda = e^{-c} / (4 pi^2 |x|^2) int_0^inf e^{-s} (s/(s+2c))^mu ds,

  mu = lambda.n/2, whose integral runs on one fixed rule (``_v_rule``)
  and is exactly 1 at mu = 0.  ``k_tilde_lambda`` and ``hermite_residual``
  share its one path (``_v_integral``) and the ray that ``_tau_ray``
  reads from tau and lambda as Python floats.

* ``k_lambda`` -- the group-space kernel in its polar-reduced form

      K_lambda(x, t) = (6/(2 pi)^5) int_{S^2} int_0^inf sinh^-2 u *
                       [ cosh(g u) Re P - g^ sinh(g u) Im P ] du dsigma,

  where P = (|x|^2 coth u - i t.n)^-4, g(n) = |lambda o n| is the
  componentwise-product norm, and g^ = sum_k (lambda_k n_k / g) i_k.
  It is reduced to |x| = 1 by homogeneity, b = t.n/|x|^2.  Each sphere
  node's u-integral is exact at every lambda: a contour shift by
  atan b turns it into Beta integrals (``_u_integral_lambda``), which at
  lambda = 0 is (1 - 3b^2)/(3 (1 + b^2)^3).  The S^2 integral runs on
  the product rule folded onto antipodal pairs and is the only
  quadrature: ``spec`` sets only the sphere order, and no u-rule floor
  remains at any lambda.  The real part at lambda = 0 is the
  classical inverse Fourier transform of the radial Hermite kernel
  (Kaplan's kernel); the lambda-coupling is derived in
  ``_k_lambda_components``.  The reduced representation needs |x| > 0
  and |lambda| < 2; values at x = 0 are deliberately not extrapolated.
  Its value oracle, ``_k_lambda_axial``, integrates the same defining
  form on the axis x = |x| e_0, t = (r, 0, 0), lambda = (l, 0, 0) over
  (n_1, u) on ``quad.integrate_nested``, with no node or formula shared.

* ``heis_k_closed`` / ``heis_k_quadrature`` -- the Heisenberg-type
  degeneration in the {1, i1} plane: the Gamma-product closed form

      (1/4 pi^3) G((2+l)/2) G((2-l)/2) (|x|^2-it)^{-(2+l)/2} (|x|^2+it)^{-(2-l)/2}

  (its Gamma product is pi z / sin(pi z) at z = l/2, the reflection
  formula) against the shifted-contour integral
  (1/8 pi^3) int_R e^{-l u} [r^2 cosh(u + i phi)]^-2 du with
  r = (|x|^4+t^2)^{1/4}, e^{-i phi} = (|x|^2-it)/r^2.  The two printed
  forms agree with each other; both equal the direct unshifted u-integral
  with the sign of lambda (equivalently of t) flipped, which
  ``heis_contour_sign_check`` surfaces.  Both integrands take conjugate
  values at u and -u, so each runs both half-lines on one cached rule
  (``_heis_rule``, keyed so that nearby points share it) in one pass over
  u >= 0 (``_both_half_lines``).  ``heis_k_quadrature`` raises
  QuadratureError where the pinch |t| >> |x|^2 makes its sum cancel
  beyond rel_tol.

The Heisenberg-type forms run on Gauss-Legendre panels doubling away
from 0 (``quad.panel_grid``), truncated where the integrand's decay factor
falls below abs_tol/40.  Every rule is a function of the inputs, so
evaluations are deterministic.  The rules of ``k_lambda`` and
``k_tilde_lambda`` do not depend on (x, t), so their values vary smoothly
inside finite-difference stencils; the Heisenberg-type rule does, through
its discrete key, and no stencil differentiates it.  Both stencils are
Richardson-extrapolated from the steps h and h/2, O(h^4).
``delta_lambda_residual_on_k`` evaluates all its points in one call; every
quadrature sum of the evaluators is an einsum, whose sum order does not
depend on the number of rows, so each of them is ``k_lambda``'s value at
its point bit for bit.  ``hermite_residual`` returns the absolute |H K~|:
K~ = F(|x|^2), so it is K~(x) times a 5-row stencil in s = |x|^2 of the
ratios F(s_i)/F(s) at the step min(1e-3, 0.02/(|tau||x|)) from the local
scale; no row rounds away or underflows.
Large-u factors are computed with e^{-2u}, never e^{2u}: e^{-(2 +- lambda)u}
times c/(1 + c e^{-2u})^2 in the Heisenberg-type forms, and e^{-(2 +- g)u}
times (e^{-2u} - 1)^2/D^4 in ``_k_lambda_axial``, which neither overflow
nor cancel.

Each argument is checked in one place, on Python floats, with no numpy
warning; a refusal raises ValueError.  ``_x4`` refuses an x that is not
finite or whose |x|^2 overflows, and x = 0 or an x != 0 whose |x|^2
underflows to 0 (it would be evaluated as x = 0), except in
``heis_k_closed`` and ``heis_k_quadrature`` at t != 0, where the kernel
is regular at x = 0.  ``_t3`` refuses a t that is not finite, ``_tau_ray``
a tau that is not finite or whose |tau|^2 is 0 or overflows, and ``_lam``
a lambda with |lambda| >= 2 or a NaN component.
``_k_tilde_rows`` tests all its rows at once and raises ``_x4``'s refusal
of the first row that fails; a row whose c or 4 pi^2 |x|^2 overflows
has e^{-c} = 0 and gives 0.0.  Each evaluator adds only its own rule:
|x| >= 0.3 (``hermite_residual``), a probe point away from the origin and
a finite |t|^2 (``delta_lambda_residual_on_k``), the Heisenberg-type
poles and pinch floor.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quat import Quaternion
from .quad import (QuadratureSpec, QuadratureError, integrate_nested, panel_grid,
                   sphere2_nodes)
from .diffops import _delta_lambda_lines

__all__ = [
    "k_tilde_lambda",
    "hermite_residual",
    "k_lambda",
    "heis_k_closed",
    "heis_k_quadrature",
    "heis_contour_sign_check",
    "delta_lambda_residual_on_k",
]

def _finite(comps, name: str) -> None:
    """Raise ValueError unless every entry of ``comps``, Python floats, is
    finite."""
    for c in comps:
        if not math.isfinite(c):
            raise ValueError(f"{name} must be finite")


def _x4(x, zero_ok: bool = False) -> tuple:
    """(x as a (4,) float array, |x|^2 summed on Python floats), for a
    finite x whose |x|^2 does not overflow.  x = 0, and an x != 0 whose
    |x|^2 underflows to 0 (it would be evaluated as x = 0), pass only where
    ``zero_ok``.  Python floats overflow and underflow without a numpy
    warning.  Every scalar value path reads |x|^2 from here, so its value
    does not depend on the CPU's BLAS dot kernel."""
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError("x must have 4 components")
    x0, x1, x2, x3 = comps = x.tolist()
    xsq = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    if not 0.0 < xsq < math.inf:
        _finite(comps, "x")
        if xsq:
            raise ValueError("|x|^2 overflows: x is finite but too large")
        if not zero_ok:
            if any(comps):
                raise ValueError("|x|^2 underflows to 0: x is nonzero but too small")
            raise ValueError("x=0 outside reduced-representation domain")
    return x, xsq


def _t3(t) -> tuple:
    """(t as a (3,) float array, |t|^2 summed on Python floats), for a t of
    finite entries; |t|^2 may overflow to inf."""
    t = np.asarray(t, dtype=float)
    if t.shape != (3,):
        raise ValueError("t must have 3 components")
    t1, t2, t3 = comps = t.tolist()
    tsq = t1 * t1 + t2 * t2 + t3 * t3
    if not tsq < math.inf:      # cheaper than a test per entry
        _finite(comps, "t")
    return t, tsq


def _lam(lam) -> tuple:
    """lambda, a 3-sequence of reals, as three Python floats with
    |lambda| < 2, tested negated so that a NaN component fails it too."""
    l1, l2, l3 = lam
    l1, l2, l3 = float(l1), float(l2), float(l3)       # faster than map()
    norm = math.hypot(l1, l2, l3)
    if not (norm < 2.0):
        raise ValueError(
            f"lambda decay condition fails: |lambda| = {norm:.6g} is not < 2")
    return l1, l2, l3


# ---------------------------------------------------------------------------
# Hermite-space kernel

_FOUR_PI_SQ = 4.0 * math.pi ** 2


@lru_cache(maxsize=1)
def _v_rule():
    """The fixed rule of I = int_0^inf e^{-s} (s/(s+2c))^mu ds, read-only.

    I is split at s = 1.  On (0, 1) the substitution s = z^k, k = 1/(1+mu),
    gives k int_0^1 e^{-z^k} (z^k + 2c)^{-mu} dz, free of the s^mu endpoint
    singularity as mu -> -1; it runs on the 101 tanh-sinh nodes z of step
    1/16 with weights wz, z = 1/(1 + e^{-2u}) = (1 + tanh u)/2 at
    u = (pi/2) sinh t, which keeps the nodes near 0 to full relative
    precision.  On (1, inf), s = 1 + r gives
    e^{-1} int_0^inf e^{-r} ((1+r)/(1+r+2c))^mu dr on 32 Gauss-Laguerre
    nodes.  Returns (z, wz, 1 + r, e^{-1} wr, I0), I0 being the rule's value
    at mu = 0 (1 - 1.1e-16).  Within 1e-10 of mpmath's
    2c Gamma(1+mu) U(1+mu, 2, 2c) for c in [1e-6, 750], |mu| <= 0.975.
    """
    t = np.arange(-50, 51) / 16.0
    u = 0.5 * math.pi * np.sinh(t)
    z = 1.0 / (1.0 + np.exp(-2.0 * u))
    wz = (math.pi / 64.0) * np.cosh(t) / np.cosh(u) ** 2
    r, wr = np.polynomial.laguerre.laggauss(32)
    r1 = 1.0 + r
    wr1 = wr / math.e
    i0 = float(np.einsum("j,j->", wz, np.exp(-z)) + np.einsum("j->", wr1))
    for arr in (z, wz, r1, wr1):
        arr.setflags(write=False)
    return z, wz, r1, wr1, i0


def _tau_ray(tau, lam) -> tuple:
    """(|tau|^2, |tau|, lambda.tau) as Python floats, for a lambda with
    |lambda| < 2, a finite tau of three components whose |tau|^2 neither
    is 0 nor overflows, and a positive decay rate 2 + lambda.tau/|tau|.
    The one check of tau, the argument of the Hermite-space kernel."""
    l1, l2, l3 = _lam(lam)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (3,):
        raise ValueError("tau must have 3 components")
    t1, t2, t3 = comps = tau.tolist()
    tsq = t1 * t1 + t2 * t2 + t3 * t3
    tnorm = math.sqrt(tsq)
    if not (0.0 < tnorm < math.inf):
        _finite(comps, "tau")
        raise ValueError("|tau|^2 must be nonzero and finite")
    lt = l1 * t1 + l2 * t2 + l3 * t3
    if not (lt / tnorm > -2.0):
        raise ValueError(f"lambda decay condition fails on this ray: {lt / tnorm:.6g} <= -2")
    return tsq, tnorm, lt


def _k_tilde_rows(xs: np.ndarray, ray: tuple) -> list:
    """K~_lambda(x, tau) at every row x of ``xs`` (shape (N, 4)) on the ray
    ``_tau_ray(tau, lambda)`` the rows share, in the v = coth u form

        K~ = e^{-c} / (4 pi^2 |x|^2) * I,   I = int_0^inf e^{-s} (s/(s+2c))^mu ds,

    with c = |tau||x|^2 and mu = lambda.tau/(2|tau|).  At mu = 0 I is the
    constant I0 of ``_v_rule``; otherwise I is one ``_v_integral`` pass on
    the rows whose value does not underflow, so each row equals its
    single-row value.  Raises the ValueError of ``_x4`` at the first row
    that it rejects.  A row whose c or 4 pi^2 |x|^2 overflows has e^{-c} = 0
    (c >= 6.8e144 there, |tau| being at least 1.5e-162) and gives 0.0.
    """
    _, tnorm, lt = ray
    xsq = np.einsum("ij,ij->i", xs, xs)
    xl = xsq.tolist()
    top = max(tnorm, _FOUR_PI_SQ)
    # the sum is NaN or inf when any row is, at a fraction of a per-row test
    if 0.0 in xl or not (sum(xl) * top < math.inf):
        for x in xs:     # a sum that overflows over valid rows passes
            _x4(x)
        # Python floats overflow without a warning; at |x|^2 = inf every
        # step below is exact, and e^{-c} = 0
        xsq = np.array([v if v * top < math.inf else math.inf for v in xl])
    c = tnorm * xsq
    # not in place: on a few rows numpy's in-place ops cost twice as much
    val = np.exp(-c) / (xsq * (4.0 * math.pi ** 2))
    if lt == 0.0:
        return (val * _v_rule()[4]).tolist()
    live = val > 0.0
    val[live] *= _v_integral(c[live], 0.5 * lt / tnorm)
    return val.tolist()


def _v_integral(c: np.ndarray, mu: float) -> np.ndarray:
    """I of ``_k_tilde_rows`` at each entry of the array c (overwritten),
    mu != 0: one einsum row reduction of (2c + s)^{-mu} against the nodes
    and weights of this mu on ``_v_rule``, whose sum order does not depend
    on the number of rows (a BLAS product's does).  Every c must be finite."""
    z, wz, r1, wr1, _ = _v_rule()
    k = 1.0 / (1.0 + mu)
    s = z ** k
    nodes = np.concatenate([s, r1])
    w = np.concatenate([k * wz * np.exp(-s), wr1 * r1 ** mu])
    c *= 2.0
    terms = np.add.outer(c, nodes)
    np.power(terms, -mu, out=terms)
    return np.einsum("nj,j->n", terms, w)


def k_tilde_lambda(x, tau, lam, spec: QuadratureSpec) -> float:
    """Evaluate K~_lambda(x, tau) in the v = coth u form on the fixed rule
    of ``_v_rule``.  No field of ``spec`` is read.  ``lam`` is a 3-sequence
    of reals."""
    return _k_tilde_rows(_x4(x)[0][None, :], _tau_ray(tau, lam))[0]


def hermite_residual(x, tau, lam, spec: QuadratureSpec, h: float | None = None) -> float:
    """|H~_lambda K~_lambda| at x, zero away from x = 0 up to stencil and
    quadrature error.  K~ = F(s) depends on x only through s = |x|^2, so its
    Laplacian is 4s F'' + 8F', and the return is the Richardson
    extrapolation (O(h^4)) K~(x) |(4 L(d/2) - L(d))/3 - 4s|tau|^2 - 4 lambda.tau|,

        L(d) = 4s (p + m)/d^2 + 4 (p - m)/d,    d = 2h|x|,
        rho_i - 1 = (s expm1(-|tau| d_i) - d_i)/(s + d_i) q_i + q_i - 1,

    on the ratios rho_i = F(s + d_i)/F(s) at d_i = +-d, +-d/2 (p and m are
    rho - 1 at +d and -d) and q_i = I(c_i)/I(c) (``_k_tilde_rows``): 1 at
    lambda.tau = 0, where the call runs on Python floats, and otherwise one
    ``_v_integral`` pass on the 5 values of c.  No row rounds away or
    underflows: where K~(x) is subnormal only that factor loses bits, and
    where it underflows the residual is 0.0, with no I pass.  The default
    step is min(1e-3, 0.02/(|tau||x|)); an explicit ``h`` is used as given.
    No field of ``spec`` is read.  ``lam`` is a 3-sequence of reals.
    ValueError where ``_x4`` rejects x, where |x| < 0.3, where an explicit
    step is not positive and finite, where it collapses the stencil
    (s +- h|x| == s, or (h|x|)^2 == 0), or where a row reaches s = 0 or a
    ratio is not finite (a step far too large).
    """
    s0 = _x4(x)[1]
    xnorm = math.sqrt(s0)
    if xnorm < 0.3:
        raise ValueError("|x| >= 0.3 required away from the singular support")
    if h is not None and not (0.0 < h < math.inf):
        raise ValueError("step must be positive and finite")
    tsq, tnorm, lt = _tau_ray(tau, lam)
    if h is None:
        h = min(1e-3, 0.02 / (tnorm * xnorm))
    half = h * xnorm
    delta = 2.0 * half
    if not (s0 + half > s0 > s0 - half and half * half > 0.0):
        raise ValueError("step underflows at this point")
    try:
        p, m, p2, m2 = [(s0 * math.expm1(-tnorm * d) - d) / (s0 + d) if s0 + d > 0.0
                        else math.nan for d in (delta, -delta, half, -half)]
    except OverflowError:      # a row past the float range
        p = m = p2 = m2 = math.nan
    c0 = tnorm * s0
    k0 = math.exp(-c0) / (_FOUR_PI_SQ * s0)
    if lt == 0.0 or k0 == 0.0 or not math.isfinite(p + m + p2 + m2):
        i0 = 1.0    # q_i = 1; no I pass where K~(x) underflows or a ratio is not finite
        k0 *= _v_rule()[4]
    else:
        cd, ch = tnorm * delta, tnorm * half
        i0, ip, im, ip2, im2 = _v_integral(
            np.array([c0, c0 + cd, c0 - cd, c0 + ch, c0 - ch]), 0.5 * lt / tnorm).tolist()
        p, m = p * ip + (ip - i0), m * im + (im - i0)              # I0 (rho_i - 1)
        p2, m2 = p2 * ip2 + (ip2 - i0), m2 * im2 + (im2 - i0)
    lap = (4.0 * (4.0 * s0 * (p2 + m2) / (half * half) + 4.0 * (p2 - m2) / half)
           - (4.0 * s0 * (p + m) / (delta * delta) + 4.0 * (p - m) / delta)) / 3.0
    res = k0 * abs(lap - (4.0 * s0 * tsq + 4.0 * lt) * i0)
    if not math.isfinite(res):
        raise ValueError("step too large at this point: a stencil row reaches s = 0 "
                         "or a ratio is not finite")
    return res


# ---------------------------------------------------------------------------
# group-space kernel, polar-reduced

def _u_integral_lambda0(B):
    """int_0^inf Re (1 + s - i b)^-4 ds = Re (1 - i b)^-3 / 3 at B = b^2,
    elementwise: the u-integral of one sphere node at |x| = 1 and
    lambda = 0, exact."""
    d = 1.0 + B
    return (1.0 - 3.0 * B) / (3.0 * d * d * d)


def _u_integral_lambda(g, b):
    """The even and odd u-integrals of one sphere node at |x| = 1,
    elementwise in broadcast g and b, exact:

        E = int_0^inf sinh^-2 u cosh(g u) Re P du,
        O = int_0^inf sinh^-2 u sinh(g u) Im P du,    P = (coth u - i b)^-4.

    P(-u) is the conjugate of P(u), so E + iO is half the integral of
    sinh^-2 u e^{g u} P over the real line.  With b = tan phi that
    integrand is cos^4 phi e^{g u} sinh^2 u sech^4(u - i phi); shifting
    the contour by phi leaves the Beta integrals (w = e^{2v})

        int_R e^{a v} sech^4 v dv = 8 B(2 + a/2, 2 - a/2) = (4/3)(1 - a^2/4) G(a/2),

    G(y) = pi y / sin(pi y), whose sum is

        E + iO = G(g/2) e^{i g phi} (1 + g^2/2 - 3b^2 + 3igb) / (3 (1 + b^2)^3).

    The sine of G is taken at min(y, 1 - y), exact for y >= 1/2, so G
    keeps full relative accuracy as g -> 2 (the scheme of
    ``_gamma_product``, elementwise); G = 1 at g = 0, where E is
    ``_u_integral_lambda0``.
    """
    y = 0.5 * g
    gam = np.divide(math.pi * y, np.sin(math.pi * np.minimum(y, 1.0 - y)),
                    out=np.ones_like(y), where=y > 0.0)
    B = b * b
    d = 1.0 + B
    scale = gam / (3.0 * d * d * d)
    phase = g * np.arctan(b)
    cos, sin = np.cos(phase), np.sin(phase)
    re = 1.0 + 0.5 * g * g - 3.0 * B
    im = 3.0 * g * b
    return scale * (cos * re - sin * im), scale * (sin * re + cos * im)


def _k_lambda_components(xs, ts, lam, spec: QuadratureSpec):
    """Polar-reduced kernel components at the points (xs[i], ts[i]).

    Writing P(n, u) = (|x|^2 coth u - i t.n)^-4
    and g(n) = |(lambda_1 n_1, lambda_2 n_2, lambda_3 n_3)|,

        K_0  =  c int int  cosh(g u) sinh^-2 u  Re P  du dsigma
        K_k  = -c int int  (lambda_k n_k / g) sinh(g u) sinh^-2 u  Im P
                                                              du dsigma

    with c = 6/(2 pi)^5: the inverse Fourier transform in the central
    variable of the Hermite-kernel system.  Left multiplication by
    i_{lambda tau} = sum_k lambda_k tau_k i_k has eigenvalues +-i g r,
    whose eigenprojections split the transformed equation into two scalar
    Hermite problems with couplings +-|lambda o tau|; their solutions
    recombine into the even (cosh) real part and odd (sinh) imaginary
    part.  The naive weight exp(-lambda.n u) on both is exact only for a
    one-dimensional centre; ``delta_lambda_residual_on_k`` measures it.

    ``xs`` and ``ts`` hold one point per row, shapes (N, 4) and (N, 3);
    ``lam`` is a 3-sequence of reals.

    * Homogeneity: each row runs at |x| = 1 with b = t.n/|x|^2 and is
      multiplied by |x|^-8, which overflows to inf below |x| ~ 1e-39.
    * At lambda = 0 (g = 0 at every node: also with -0.0 components, or
      where every (lambda_k n_k)^2 underflows) each node's u-integral is
      ``_u_integral_lambda0``, (1 - 3B)/(3 (1 + B)^3) at B = b^2, and ck is
      -0.0, as the odd half sums to; otherwise it is the closed form of
      ``_u_integral_lambda``.  So the S^2 rule of ``spec.sphere_order``,
      folded onto antipodal pairs (both integrands are even in n), is the
      only quadrature at every lambda.
    * Every step is elementwise on (rows, nodes), and every sum a 1-D
      einsum per row, never a BLAS call (it splits by thread): each row
      equals its single-point value.

    Returns c0 of shape (N,) and ck of shape (N, 3).
    """
    nodes, wS = sphere2_nodes(spec.sphere_order, fold=True)
    # per-row setup and final sums run row by row on 1-D operands: one
    # (rows, nodes) einsum over more than 8192 nodes sums in buffered
    # chunks and gave rows that differ from single-row calls
    xsq = np.array([np.einsum("j,j->", x, x) for x in xs])
    # b and |x|^-8 overflow where |x| is tiny, b^2 where |t|/|x|^2 is
    # huge: a value that is then not finite raises in k_lambda, and one
    # that underflows is 0, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.stack([np.einsum("nk,k->n", nodes, t) / sq for t, sq in zip(ts, xsq)])
        scale = 6.0 / (2.0 * math.pi) ** 5 * np.power(xsq, -4.0)
        lam3 = np.asarray(lam, dtype=float)
        if lam3.any():
            ln = nodes * lam3[None, :]                # (lambda o n) per node
            g = np.sqrt(np.einsum("nk,nk->n", ln, ln))
        if not (lam3.any() and g.any()):
            re = _u_integral_lambda0(b * b)
            c0 = np.array([np.einsum("n,n->", v, wS) for v in re]) * scale
            return c0, np.full((len(xs), 3), -0.0)
        axis = ln / np.where(g > 0.0, g, 1.0)[:, None]    # 0 where lambda o n is
        even, odd = _u_integral_lambda(g, b)
        c0 = np.array([np.einsum("n,n->", v, wS) for v in even]) * scale
        ck = np.array([-np.einsum("n,n,nk->k", v, wS, axis) for v in odd]) * scale[:, None]
    return c0, ck


def k_lambda(x, t, lam, spec: QuadratureSpec) -> Quaternion:
    """Evaluate the polar-reduced group-space kernel K_lambda(x, t).

    Real for lambda = 0.  Each sphere node's u-integral is exact at every
    lambda (``_u_integral_lambda``), so the S^2 rule of
    ``spec.sphere_order`` is the only quadrature.  Homogeneous of degree
    -8 under (x, t) -> (d x, d^2 t) exactly at the level of the rule
    (shared nodes), and conjugated by t -> -t.  Raises QuadratureError
    where a component is not finite (|x| below about 1e-39, or
    |t|/|x|^2 above about 1e154).
    """
    x, _ = _x4(x)
    t, _ = _t3(t)
    c0, ck = _k_lambda_components(x[None, :], t[None, :], _lam(lam), spec)
    if not (np.isfinite(c0[0]) and np.isfinite(ck[0]).all()):
        raise QuadratureError("k_lambda is not finite at this point")
    return Quaternion(float(c0[0]), float(ck[0, 0]), float(ck[0, 1]), float(ck[0, 2]))


def _k_lambda_axial(xnorm: float, r: float, l: float, spec: QuadratureSpec) -> Quaternion:
    """K_lambda at x = xnorm e_0, t = (r, 0, 0), lambda = (l, 0, 0): the
    value oracle of ``k_lambda``, from the defining form of
    ``_k_lambda_components`` on ``quad.integrate_nested``, with no node and
    no formula code shared.

    On this axis the form depends on n only through mu = n_1, with
    b = r mu/xnorm^2 and g = |l mu|, and both parts are even in mu (the
    odd one with its axis sign(l mu) e_1), so with c = 6/(2 pi)^5

        K_0 =  4 pi c xnorm^-8 int_0^1 dmu int_0^inf cosh(g u) sinh^-2 u Re P du,
        K_1 = -4 pi c sign(l) xnorm^-8 int_0^1 dmu int_0^inf sinh(g u) sinh^-2 u Im P du,

    P = (coth u - i b)^-4, and K_2 = K_3 = 0.  With em = e^{-2u} - 1,
    cosh(g u) sinh^-2 u P = 2 (e^{-(2-g)u} + e^{-(2+g)u}) em^2 / D^4 and
    D = 2 + em + i b em (sinh: the difference), which neither overflow nor
    cancel at any u.  mu is split at the ridge |b| = 1 where |r| > xnorm^2.
    Reads ``spec``'s tolerances and budget.  Raises QuadratureError where an
    integral has not converged; the error estimate is not read, since K_1's
    inner integrals pass through 0 as mu -> 0 and make it pessimistic.
    """
    s = xnorm * xnorm

    def terms(mu, u):
        g = abs(l) * mu
        em = np.expm1(-2.0 * u)
        p = em * em / (2.0 + em + 1j * (r * mu / s) * em) ** 4
        return 2.0 * np.exp(-(2.0 - g) * u), 2.0 * np.exp(-(2.0 + g) * u), p

    def even(mu, u):
        slow, fast, p = terms(mu, u)
        return (slow + fast) * p.real

    def odd(mu, u):
        slow, fast, p = terms(mu, u)
        return (slow - fast) * p.imag

    cuts = (0.0, s / abs(r), 1.0) if abs(r) > s else (0.0, 1.0)
    parts = []
    for f in (even, odd):
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            res = integrate_nested([(lo, hi), (0.0, math.inf)], f, spec)
            if not res.converged:
                raise QuadratureError(f"axial K_lambda: the integral over n_1 in "
                                      f"({lo:.3g}, {hi:.3g}) did not converge")
            total += res.value
        parts.append(total)
    scale = 4.0 * math.pi * 6.0 / (2.0 * math.pi) ** 5 / s ** 4
    return Quaternion(scale * parts[0], -math.copysign(scale, l) * parts[1], 0.0, 0.0)


# ---------------------------------------------------------------------------
# Heisenberg-type degeneration (complex plane {1, i1})

_POLE_TOL = 1e-9


def _gamma_product(z: float) -> float:
    """G(1+z) G(1-z) = pi z / sin(pi z) (DLMF 5.5.3), off the poles z = +-k.

    The sine is taken at the distance of |z| to the nearest integer, with
    the sign (-1)^floor|z|, so it keeps full relative accuracy as |z|
    approaches an integer.
    """
    a = abs(z)
    if a == 0.0:
        return 1.0
    k = math.floor(a)
    f = a - k
    s = math.sin(math.pi * min(f, 1.0 - f))
    return math.pi * a / (-s if k % 2 else s)


def heis_k_closed(x, t: float, lam: float) -> Quaternion:
    """Gamma-product closed form; components only in {1, i1}.

    The product G((2+lam)/2) G((2-lam)/2) is the reflection formula at
    z = lam/2, which also holds for |lam| > 2 between the poles.
    """
    t, lam = float(t), float(lam)
    xsq = _x4(x, zero_ok=t != 0.0)[1]     # (x, t) = 0 is the kernel singularity
    _finite((t,), "t")
    _finite((lam,), "lambda")
    for g in ((2.0 + lam) / 2.0, (2.0 - lam) / 2.0):
        if g <= 0.5 and abs(g - round(g)) < _POLE_TOL:
            raise ValueError(f"lambda = {lam} lies on the pole lattice +-(2+2k)")
    zm = complex(xsq, -t)
    zp = complex(xsq, t)
    val = (_gamma_product(lam / 2.0) / (4.0 * math.pi ** 3)
           * zm ** (-(2.0 + lam) / 2.0) * zp ** (-(2.0 - lam) / 2.0))
    return Quaternion(val.real, val.imag, 0.0, 0.0)


# heis_k_quadrature's cancellation error near the pinch is at most about
# 0.18 eps / cos^2 phi (against mpmath, lambda in {-1.9, 0, 1.9}); it raises
# where _PINCH_EPS / cos^2 phi, 2.8 times that, exceeds rel_tol
_PINCH_EPS = 0.5 * np.finfo(float).eps


@lru_cache(maxsize=64)
def _heis_panels(first: float, hi: float):
    """(u, 4w, e^{-2u}) of ``panel_grid(0, first, hi)``, read-only."""
    u, w = panel_grid(0.0, first, hi)
    w4 = 4.0 * w
    em = np.exp(-2.0 * u)
    w4.setflags(write=False)
    em.setflags(write=False)
    return u, w4, em


def _heis_rule(cphi: float, lam: float, spec: QuadratureSpec):
    """The u-rule of both half-lines of a Heisenberg-type integral at
    cos phi = cphi, as ``_heis_panels(first, hi)``.

    ``first`` is 0.5 min(1, cphi) snapped down to a power of two, and
    ``hi`` the edge first * 2^m of the doubling lattice at or past the
    slower side's tail end, e^{-(2-|lam|) hi} <= abs_tol/40.  So the rule
    comes from a small discrete set of keys, shared by nearby points.
    """
    first = math.ldexp(1.0, math.frexp(0.5 * min(1.0, cphi))[1] - 1)
    tail_end = math.log(40.0 / spec.abs_tol) / (2.0 - abs(lam))
    m, e = math.frexp(tail_end / first)
    return _heis_panels(first, math.ldexp(first, e if m > 0.5 else e - 1))


def _both_half_lines(u, w4, lam: float, y) -> complex:
    """int_R e^{-lam u} f(u) du for an f with f(-u) = conj f(u) on the
    real line, from y = e^{2u} f(u)/4 at the nodes u >= 0 of a
    ``_heis_rule``:

        sum 4w e^{-(2+lam)u} y + conj sum 4w e^{-(2-lam)u} y,

    one (2, N) exp table and one einsum.  Both rates are positive for
    |lam| < 2, so the far nodes give 0, not inf * 0.
    """
    e = np.exp(np.multiply.outer((-(2.0 + lam), -(2.0 - lam)), u))
    s = np.einsum("kn,n->k", e, w4 * y)
    return s[0] + s[1].conjugate()


def heis_k_quadrature(x, t: float, lam: float, spec: QuadratureSpec) -> Quaternion:
    """Shifted-contour quadrature of the Heisenberg-type kernel.

    (1/8 pi^3) (|x|^4+t^2)^-1 int_R e^{-lam u} sech^2(u + i phi) du with
    phi = atan2(t, |x|^2).  Must match ``heis_k_closed``.

    sech^2(u + i phi) = 4 e^{-2u} c/(1 + c e^{-2u})^2 with c = e^{-2i phi},
    and sech^2(-u + i phi) is its conjugate, so both half-lines run on the
    one rule of ``_heis_rule`` (``_both_half_lines``).  Reads
    ``spec.abs_tol`` (the tail end) and ``spec.rel_tol`` (the pinch floor):
    as |t|/|x|^2 grows the contour pinches (cos phi -> 0) and the sum
    cancels to about 0.18 eps/cos^2 phi, so QuadratureError is raised where
    0.5 eps/cos^2 phi exceeds rel_tol, below cos phi = 3.3e-4 at 1e-9.
    """
    t, lam = float(t), float(lam)
    xsq = _x4(x, zero_ok=t != 0.0)[1]     # x = 0 at t != 0 pinches below
    _finite((t,), "t")
    _lam((lam, 0.0, 0.0))
    cphi = xsq / math.hypot(xsq, t)
    if not (cphi * cphi * spec.rel_tol >= _PINCH_EPS):
        raise QuadratureError(
            f"contour pinches at |phi| -> pi/2 (|t| >> |x|^2): cos phi = {cphi:.3g} "
            f"is below {math.sqrt(_PINCH_EPS / spec.rel_tol):.3g}, where the "
            f"cancellation error exceeds rel_tol")
    u, w4, em = _heis_rule(cphi, lam, spec)
    phi = math.atan2(t, xsq)
    c = complex(math.cos(2.0 * phi), -math.sin(2.0 * phi))
    d = 1.0 + c * em
    acc = _both_half_lines(u, w4, lam, c / (d * d))
    val = acc / (8.0 * math.pi ** 3 * (xsq * xsq + t * t))
    return Quaternion(val.real, val.imag, 0.0, 0.0)


def heis_contour_sign_check(x, t: float, lam: float, spec: QuadratureSpec) -> dict:
    """Diagnostic for the lambda-sign of the shifted-contour display.

    Computes the direct (unshifted) u-integral

        (1/8 pi^3) int_R e^{-lam u} (|x|^2 cosh u - i t sinh u)^-2 du

    and its distances to heis_k_closed evaluated at +lam and at -lam.
    The direct form matches the closed form at the flipped sign; both
    printed displays are mutually consistent at the printed sign.  The
    integrand at -u is the conjugate of that at u, so both half-lines run
    on the ``_heis_rule`` of cos phi = 1 (first panel 0.5).  Needs x != 0.
    """
    t, lam = float(t), float(lam)
    x, xsq = _x4(x)       # at x = 0 the direct integral diverges at u = 0
    _finite((t,), "t")
    _lam((lam, 0.0, 0.0))
    u, w4, em = _heis_rule(1.0, lam, spec)
    # 2 e^{-u} (|x|^2 cosh u - i t sinh u)
    br = xsq * (1.0 + em) - 1j * t * (1.0 - em)
    direct = _both_half_lines(u, w4, lam, 1.0 / (br * br)) / (8.0 * math.pi ** 3)
    closed_plus = heis_k_closed(x, t, lam)
    closed_minus = heis_k_closed(x, t, -lam)
    dval = Quaternion(direct.real, direct.imag, 0.0, 0.0)
    return {
        "direct": dval,
        "closed_at_plus": closed_plus,
        "closed_at_minus": closed_minus,
        "dist_plus": (dval - closed_plus).norm(),
        "dist_minus": (dval - closed_minus).norm(),
    }


# ---------------------------------------------------------------------------
# PDE residual

def delta_lambda_residual_on_k(x, t, lam, spec: QuadratureSpec, h=0.005):
    """Normalized residual |Delta_lambda K_lambda| * ||p||^2 / |K| at (x, t).

    The kernel annihilates under Delta_lambda away from the origin, so the
    return is stencil truncation plus quadrature noise.  The stencil is
    the Richardson-extrapolated line stencil of ``diffops`` (steps h and
    h/2, O(h^4)): about 2e-7 at the verify suite's points at the default
    step.  Its 17 to 29 points are evaluated in one batched kernel call,
    and |K| is its centre value.  A step that collapses the stencil, or a
    finite t whose |t|^2 overflows, raises ValueError; a centre value that
    underflows to 0 raises QuadratureError.
    """
    x, xsq = _x4(x)
    t, tsq = _t3(t)
    lam = _lam(lam)
    if tsq == math.inf:
        raise ValueError("|t|^2 overflows: t is finite but too large")
    hnorm_sq = xsq + math.sqrt(tsq)
    if not (0.5 <= math.sqrt(hnorm_sq) < math.inf and math.sqrt(xsq) > 0.3):
        raise ValueError("probe point too close to the kernel singularity or not finite")

    def f(q):
        # the line stencil passes all its points, coordinates on axis 0
        pts = np.ascontiguousarray(q.T)
        c0, ck = _k_lambda_components(pts[:, :4], pts[:, 4:], lam, spec)
        return Quaternion(c0, *ck.T)

    p = np.concatenate([x, t])
    value, centre = _delta_lambda_lines(f, p, lam, h)
    scale = centre.norm() / hnorm_sq
    if scale == 0.0:
        raise QuadratureError("K_lambda underflows to 0 at this point: the "
                              "normalized residual is undefined")
    return value.norm() / scale

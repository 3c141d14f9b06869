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
  share one row path, ``_k_tilde_rows``, on the ray that ``_tau_ray``
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

* ``heis_k_closed`` / ``heis_k_quadrature`` -- the Heisenberg-type
  degeneration in the {1, i1} plane: the Gamma-product closed form

      (1/4 pi^3) G((2+l)/2) G((2-l)/2) (|x|^2-it)^{-(2+l)/2} (|x|^2+it)^{-(2-l)/2}

  (its Gamma product is pi z / sin(pi z) at z = l/2, the reflection
  formula) against the shifted-contour integral
  (1/8 pi^3) int_R e^{-l u} [r^2 cosh(u + i phi)]^-2 du with
  r = (|x|^4+t^2)^{1/4}, e^{-i phi} = (|x|^2-it)/r^2.  The two printed
  forms agree with each other; both equal the direct unshifted u-integral
  with the sign of lambda (equivalently of t) flipped, which
  ``heis_contour_sign_check`` surfaces.

The u-integrals of ``fourier_consistency`` and the Heisenberg-type forms
run on fixed Gauss-Legendre panels doubling away from 0
(``quad.panel_grid``), truncated where the integrand's decay factor falls
below abs_tol/10 (abs_tol/40 for the Heisenberg-type forms).  Every rule
is fixed, so evaluations are deterministic and vary smoothly with (x, t)
inside finite-difference stencils.  The stencils of ``hermite_residual``
and ``delta_lambda_residual_on_k`` evaluate all their points in one call,
Richardson-extrapolated from the steps h and h/2, O(h^4).  Every reduction
is an einsum, whose sum order does not depend on the number of rows, so
each stencil value is that of ``k_tilde_lambda`` or ``k_lambda`` at its
point bit for bit.  Large-u factors are computed in the form
4 e^{-(2+a)u} / (1-e^{-2u})^2, which neither overflows nor cancels.

An x that is not finite, or finite with an overflowing |x|^2, raises
ValueError with no numpy warning (``_x_sq``; ``_k_tilde_rows`` for K~).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quat import Quaternion
from .quad import (QuadratureSpec, QuadratureError, _panel_rule, panel_grid,
                   sphere2_nodes)
from .diffops import Lambda, _delta_lambda_lines

__all__ = [
    "k_tilde_lambda",
    "hermite_residual",
    "k_lambda",
    "k0_sphere",
    "heis_k_closed",
    "heis_k_quadrature",
    "heis_contour_sign_check",
    "fourier_consistency",
    "delta_lambda_residual_on_k",
]

def _check_lambda_ball(l1: float, l2: float, l3: float):
    # negated, so that a NaN component fails it too
    norm = math.hypot(l1, l2, l3)
    if not (norm < 2.0):
        raise ValueError(
            f"lambda decay condition fails: |lambda| = {norm:.6g} is not < 2")


def _x4(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError("x must have 4 components")
    return x


def _x_sq(x: np.ndarray) -> float:
    """|x|^2 = x @ x of a 4-vector, for the x guards of the evaluators.

    Raises ValueError where x is finite but |x|^2 overflows.  The test runs
    on Python floats, which overflow to inf without a numpy warning.  A
    non-finite x returns its NaN or inf, which the caller's guard rejects.
    """
    a, b, c, d = x.tolist()
    sq = a * a + b * b + c * c + d * d
    if sq < math.inf:
        return float(x @ x)
    if math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d):
        raise ValueError("|x|^2 overflows: x is finite but too large")
    return sq


def _t3(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != (3,):
        raise ValueError("t must have 3 components")
    return t


def _tail_end(decay_rate: float, spec: QuadratureSpec, slack: float = 10.0) -> float:
    """u* with e^{-decay_rate * u*} = abs_tol/slack, the relative level at
    which the integrand tail is discarded."""
    return math.log(slack / spec.abs_tol) / decay_rate


@lru_cache(maxsize=128)
def _u_rule(hi: float):
    """The u-panel rule on [0, hi] of ``fourier_consistency``, as read-only
    (u, coth u, 4 w/em^2) with em = expm1(-2u): the nodes, the coth u of
    the exponent and the weight w times 1/sinh^2 u = 4 e^{-2u}/em^2.

    Cached per tail end ``hi`` and built from the uncached panel rule, so a
    new tail end costs one cache lookup, not two.
    """
    u, w = _panel_rule(0.0, 0.5, hi)
    em = np.expm1(-2.0 * u)
    coth = (2.0 + em) / (-em)
    wu4 = 4.0 * w / (em * em)
    coth.setflags(write=False)
    wu4.setflags(write=False)
    return u, coth, wu4


# ---------------------------------------------------------------------------
# Hermite-space kernel

# The 17 rows of the Hermite stencil in units of the step: the centre,
# then +e_l and -e_l for l = 0..3, then +e_l/2 and -e_l/2.
_OFFSETS = np.concatenate([np.zeros((1, 4)), np.eye(4), -np.eye(4),
                           0.5 * np.eye(4), -0.5 * np.eye(4)])
_OFFSETS.setflags(write=False)

# e^{-c} is 0.0 past c = 745.2, so I(c) is taken at c capped here: finite
# for every c, where a c of inf would give 0 * inf.
_C_CAP = 1e3


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
    2c Gamma(1+mu) U(1+mu, 2, 2c) for c in [1e-6, 700], |mu| <= 0.975.
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
    """(|tau|^2, |tau|, lambda.tau) as Python floats, for a lambda (a
    ``Lambda`` or any 3-sequence of reals) with |lambda| < 2, a tau of
    three components that is nonzero and finite, and a decay rate
    2 + lambda.tau/|tau| that is positive.  The lambda guard is
    ``_check_lambda_ball``'s, which a NaN component fails; no ``Lambda``
    is built."""
    l1, l2, l3 = lam.as_tuple() if isinstance(lam, Lambda) else map(float, lam)
    t1, t2, t3 = _t3(tau).tolist()
    _check_lambda_ball(l1, l2, l3)
    tsq = t1 * t1 + t2 * t2 + t3 * t3
    tnorm = math.sqrt(tsq)
    if not (0.0 < tnorm < math.inf):
        raise ValueError("tau must be nonzero and finite")
    lt = l1 * t1 + l2 * t2 + l3 * t3
    if not (lt / tnorm > -2.0):
        raise ValueError(f"lambda decay condition fails on this ray: {lt / tnorm:.6g} <= -2")
    return tsq, tnorm, lt


def _k_tilde_rows(xs: np.ndarray, ray: tuple, spec: QuadratureSpec) -> list:
    """K~_lambda(x, tau) at every row x of ``xs`` (shape (N, 4)) on the ray
    ``_tau_ray(tau, lambda)`` the rows share, in the v = coth u form

        K~ = e^{-c} / (4 pi^2 |x|^2) * I,   I = int_0^inf e^{-s} (s/(s+2c))^mu ds,

    with c = |tau||x|^2 and mu = lambda.tau/(2|tau|), on the fixed rule of
    ``_v_rule``.  At mu = 0 I is the rule's constant I0, so a row costs one
    exp.  Otherwise the nodes and weights of this mu are built once per
    call, and I is one einsum row reduction of (2c + s)^{-mu} against
    them, whose sum order does not depend on the number of rows (a BLAS
    product's does), so each row equals its single-row evaluation.  The
    rule is the same for every ``spec``.  Raises ValueError where a row is
    0 or not finite, or where a finite row's |x|^2 overflows.
    """
    _, tnorm, lt = ray
    xsq = np.einsum("ij,ij->i", xs, xs)
    # the sum is NaN or inf when any row is, at a fraction of a per-row test
    xl = xsq.tolist()
    if 0.0 in xl or not (sum(xl) < math.inf):
        if 0.0 not in xl and np.isfinite(xs).all():
            raise ValueError("|x|^2 overflows: x is finite but too large")
        raise ValueError("x = 0 or non-finite x outside reduced-representation domain")
    c = tnorm * xsq
    val = np.exp(-c)
    xsq *= 4.0 * math.pi ** 2
    val /= xsq
    z, wz, r1, wr1, i0 = _v_rule()
    if lt == 0.0:
        val *= i0
        return val.tolist()
    mu = 0.5 * lt / tnorm
    k = 1.0 / (1.0 + mu)
    s = z ** k
    nodes = np.concatenate([s, r1])
    w = np.concatenate([k * wz * np.exp(-s), wr1 * r1 ** mu])
    np.minimum(c, _C_CAP, out=c)
    c *= 2.0
    terms = np.add.outer(c, nodes)
    np.power(terms, -mu, out=terms)
    val *= np.einsum("nj,j->n", terms, w)
    return val.tolist()


def k_tilde_lambda(x, tau, lam, spec: QuadratureSpec) -> float:
    """Evaluate K~_lambda(x, tau) in the v = coth u form on the fixed rule
    of ``_v_rule``.  ``lam`` is a ``Lambda`` or a 3-sequence of reals."""
    x = _x4(x)
    return _k_tilde_rows(x[None, :], _tau_ray(tau, lam), spec)[0]


@lru_cache(maxsize=8)
def _step_table(h: float) -> np.ndarray:
    """The 17 Hermite stencil offsets at step h, h * _OFFSETS, read-only."""
    table = h * _OFFSETS
    table.setflags(write=False)
    return table


def hermite_residual(x, tau, lam, spec: QuadratureSpec, h: float = 1e-3) -> float:
    """|H~_lambda K~_lambda| at x, zero away from x = 0 up to stencil and
    quadrature error.  For s in (h, h/2)

        D(s) = sum_l [K~(x + s e_l) - 2 K~(x) + K~(x - s e_l)] / s^2
               - (4|x|^2|tau|^2 + 4 lambda.tau) K~(x),

    and the residual is the Richardson extrapolation |4 D(h/2) - D(h)| / 3,
    O(h^4).  The 17 stencil values come from one ``_k_tilde_rows`` call, so
    they are those of 17 ``k_tilde_lambda`` evaluations.  ``lam`` is a
    ``Lambda`` or a 3-sequence of reals, read by ``_tau_ray`` after the
    guards on x and h.  The step must be positive and finite, and must not
    collapse the stencil: ValueError when x_l + h/2 == x_l or
    x_l - h/2 == x_l in some coordinate, or (h/2)^2 == 0.  The offsets
    come from a cached read-only table per step (``_step_table``).
    """
    x = _x4(x)
    xl = x.tolist()
    x0, x1, x2, x3 = xl
    xsq = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    if not (math.sqrt(xsq) >= 0.3):
        raise ValueError("|x| >= 0.3 required away from the singular support")
    if not (0.0 < h < math.inf):
        raise ValueError("step must be positive and finite")
    half = 0.5 * h
    if half * half == 0.0 or any(v + half == v or v - half == v for v in xl):
        raise ValueError("step underflows at this point")
    ray = _tau_ray(tau, lam)
    k = _k_tilde_rows(x + _step_table(h), ray, spec)
    center = k[0]
    c2 = 2.0 * center
    lap_h = ((k[1] - c2 + k[5]) + (k[2] - c2 + k[6]) + (k[3] - c2 + k[7])
             + (k[4] - c2 + k[8])) / (h * h)
    lap_half = ((k[9] - c2 + k[13]) + (k[10] - c2 + k[14]) + (k[11] - c2 + k[15])
                + (k[12] - c2 + k[16])) / (half * half)
    tsq, _, lt = ray
    return abs((4.0 * lap_half - lap_h) / 3.0 - (4.0 * xsq * tsq + 4.0 * lt) * center)


# ---------------------------------------------------------------------------
# group-space kernel, polar-reduced

# Grid points per block, r x node, in fourier_consistency's transform sums.
_BLOCK_POINTS = 16384


@lru_cache(maxsize=32)
def _sign_orbits(order: int):
    """Orbits of the folded S^2 rule under n1 -> -n1 and n2 -> -n2.

    Node (i, k) of ``sphere2_nodes(order, fold=True)`` (ring i, azimuth k,
    index 2*order*i + k) meets its images at azimuths order-k, 2*order-k
    and k+order (mod 2*order) of the same ring; an image outside the
    folded rule (on the odd-order equator) stands for its antipode, which
    is in it.  Members of an orbit share their weight and (n1^2, n2^2,
    n3^2), hence g(n) = |lambda o n|; orbits hold 1, 2 or 4 nodes.
    Returns read-only ``reps``, the lowest node index of each orbit in
    ascending order, and ``orbit``, the position in ``reps`` of each node.
    """
    m = 2 * order
    half = order * order
    i, k = np.divmod(np.arange(half), m)
    images = []
    for kk in (k, (order - k) % m, (m - k) % m, (k + order) % m):
        j = i * m + kk
        images.append(np.where(j < half, j, (order - 1 - i) * m + (kk + order) % m))
    reps, orbit = np.unique(np.minimum.reduce(images), return_inverse=True)
    reps.setflags(write=False)
    orbit.setflags(write=False)
    return reps, orbit


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


def _k_lambda_components(xs, ts, lam: Lambda, spec: QuadratureSpec):
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

    ``xs`` and ``ts`` hold one point per row, shapes (N, 4) and (N, 3).

    * Homogeneity.  P(x, t) = |x|^-8 P(x/|x|, t/|x|^2): each row runs at
      |x| = 1 with b = t.n/|x|^2 and is multiplied by |x|^-8 at the end,
      which overflows to inf for |x| below about 1e-39.
    * lambda = 0 (g = 0 at every node: also with -0.0 components, or
      where every (lambda_k n_k)^2 underflows).  The weight is 1 and each
      node's u-integral is exact, with no u-rule floor
      (``_u_integral_lambda0``):

          int_0^inf Re (1 + s - i b)^-4 ds = (1 - 3B)/(3 (1 + B)^3),

      B = b^2, summed over the nodes; ck is -0.0, as the odd half sums
      to.
    * Otherwise each node's u-integrals are the closed form of
      ``_u_integral_lambda`` at its g and b, with no u-rule floor either:
      the S^2 rule of ``spec.sphere_order`` is the only quadrature at
      every lambda.
    * Both integrands are even under n -> -n, so the sphere rule is
      ``sphere2_nodes(order, fold=True)``.
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
        lam3 = np.asarray(lam.as_tuple())
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
    x = _x4(x)
    t = _t3(t)
    lam = Lambda.from_seq(lam)
    _check_lambda_ball(*lam.as_tuple())
    if not (0.0 < _x_sq(x) < math.inf):
        raise ValueError("x = 0 or non-finite x outside reduced-representation domain")
    if not np.isfinite(t).all():
        raise ValueError("t must be finite")
    c0, ck = _k_lambda_components(x[None, :], t[None, :], lam, spec)
    if not (np.isfinite(c0[0]) and np.isfinite(ck[0]).all()):
        raise QuadratureError("k_lambda is not finite at this point")
    return Quaternion(float(c0[0]), float(ck[0, 0]), float(ck[0, 1]), float(ck[0, 2]))


def k0_sphere(x, t, spec: QuadratureSpec) -> float:
    """lambda = 0 kernel via the v = coth u substitution:

        K_0(x,t) = (2/((2 pi)^5 |x|^2)) int_{S^2} [|x|^2 - i_n (t.n)]^-3 dsigma

    (real part; the imaginary part cancels under n -> -n).  The sign is
    the quadrature-verified positive one.  The real part is even in n, so
    the rule is the one folded onto antipodal pairs.  Raises
    QuadratureError where the value is not finite (|x| below about 1e-39).
    """
    x = _x4(x)
    t = _t3(t)
    xsq = _x_sq(x)
    if not (0.0 < xsq < math.inf):
        raise ValueError("x = 0 or non-finite x outside reduced-representation domain")
    if not np.isfinite(t).all():
        raise ValueError("t must be finite")
    nodes, wS = sphere2_nodes(spec.sphere_order, fold=True)
    # z^-3 and the prefactor overflow where |x| is tiny; the value is then
    # not finite, which raises, so numpy need not warn on the way
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = xsq + 1j * np.abs(nodes @ t)
        p = z ** -3.0
        val = 2.0 / ((2.0 * math.pi) ** 5 * xsq) * float(np.dot(wS, p.real))
    if not math.isfinite(val):
        raise QuadratureError("k0_sphere is not finite at this point")
    return val


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
    x = _x4(x)
    t = float(t)
    lam = float(lam)
    xsq = _x_sq(x)
    if not (xsq < math.inf and abs(t) < math.inf and abs(lam) < math.inf):
        raise ValueError("x, t and lambda must be finite")
    if xsq == 0.0 and t == 0.0:
        raise ValueError("(x, t) = 0 is the kernel singularity")
    for g in ((2.0 + lam) / 2.0, (2.0 - lam) / 2.0):
        if g <= 0.5 and abs(g - round(g)) < _POLE_TOL:
            raise ValueError(f"lambda = {lam} lies on the pole lattice +-(2+2k)")
    zm = complex(xsq, -t)
    zp = complex(xsq, t)
    val = (_gamma_product(lam / 2.0) / (4.0 * math.pi ** 3)
           * zm ** (-(2.0 + lam) / 2.0) * zp ** (-(2.0 - lam) / 2.0))
    return Quaternion(val.real, val.imag, 0.0, 0.0)


def _damped_sech_sq(u: np.ndarray, phi: float, lam: float) -> np.ndarray:
    """e^{-lam u} sech^2(u + i phi) for u >= 0, |lam| < 2.

    Computed as 4 c e^{-(2+lam) u}/(1 + c e^{-2u})^2 with c = e^{-2i phi}:
    the growing factor e^{-lam u} (lam < 0) is folded into the decaying
    one, so the far end of the u-grid gives 0, not inf * 0 = nan.
    """
    c = complex(math.cos(2.0 * phi), -math.sin(2.0 * phi))
    return 4.0 * c * np.exp(-(2.0 + lam) * u) / (1.0 + c * np.exp(-2.0 * u)) ** 2


def heis_k_quadrature(x, t: float, lam: float, spec: QuadratureSpec) -> Quaternion:
    """Shifted-contour quadrature of the Heisenberg-type kernel.

    (1/8 pi^3) (|x|^4+t^2)^-1 int_R e^{-lam u} sech^2(u + i phi) du with
    phi = atan2(t, |x|^2).  Must match ``heis_k_closed``.
    """
    x = _x4(x)
    t = float(t)
    lam = float(lam)
    if not (abs(lam) < 2.0):
        raise ValueError("|lambda| < 2 required")
    xsq = _x_sq(x)
    if not (xsq < math.inf and abs(t) < math.inf):
        raise ValueError("x and t must be finite")
    if xsq == 0.0 and t == 0.0:
        raise ValueError("(x, t) = 0 is the kernel singularity")
    cphi = xsq / math.hypot(xsq, t)
    if cphi < 1e-6:
        raise QuadratureError(
            "contour pinches at |phi| -> pi/2 (|t| >> |x|^2); budget exhausted")
    phi = math.atan2(t, xsq)
    first = 0.5 * min(1.0, cphi)
    acc = 0.0 + 0.0j
    # u >= 0 side: e^{-lam u} sech^2(u+i phi) decays like e^{-(2+lam)u}
    u, w = panel_grid(0.0, first, _tail_end(2.0 + lam, spec, 40.0))
    acc += np.dot(w, _damped_sech_sq(u, phi, lam))
    # u < 0 side: substitute u -> -u; sech^2(-u + i phi) = sech^2(u - i phi)
    u, w = panel_grid(0.0, first, _tail_end(2.0 - lam, spec, 40.0))
    acc += np.dot(w, _damped_sech_sq(u, -phi, -lam))
    val = acc / (8.0 * math.pi ** 3 * (xsq * xsq + t * t))
    return Quaternion(val.real, val.imag, 0.0, 0.0)


def heis_contour_sign_check(x, t: float, lam: float, spec: QuadratureSpec) -> dict:
    """Diagnostic for the lambda-sign of the shifted-contour display.

    Computes the direct (unshifted) u-integral

        (1/8 pi^3) int_R e^{-lam u} (|x|^2 cosh u - i t sinh u)^-2 du

    and its distances to heis_k_closed evaluated at +lam and at -lam.
    The direct form matches the closed form at the flipped sign; both
    printed displays are mutually consistent at the printed sign.
    """
    x = _x4(x)
    t = float(t)
    lam = float(lam)
    if not (abs(lam) < 2.0):
        raise ValueError("|lambda| < 2 required")
    xsq = _x_sq(x)
    if not (xsq < math.inf and abs(t) < math.inf):
        raise ValueError("x and t must be finite")

    def side(sign):
        # u and -u branches; bracket^2 at large |u| grows like e^{2|u|}/4
        u, w = panel_grid(0.0, 0.5, _tail_end(2.0 + sign * lam, spec, 40.0))
        em = np.exp(-2.0 * u)
        # e^{-u} (|x|^2 cosh u - i t sinh u) at u>0 equals
        # (|x|^2 (1+e^{-2u}) - i t (1-e^{-2u}))/2; for the -u branch flip t
        br = 0.5 * (xsq * (1.0 + em) - 1j * sign * t * (1.0 - em))
        vals = np.exp(-(sign * lam + 2.0) * u) / (br * br)
        return np.dot(w, vals)

    direct = (side(1.0) + side(-1.0)) / (8.0 * math.pi ** 3)
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
# Fourier-route consistency and the PDE residual

def fourier_consistency(x, t, lam, spec: QuadratureSpec,
                        tau_radius: float = 16.0) -> float:
    """Relative deviation between k_lambda and the truncated inverse
    transform of the partial-transform kernel over |tau| < R.

    The transform couples to the center through left multiplication by
    i_(lambda o tau), so its inversion splits per direction n into the
    even/odd pair of scalar solutions at parameter a = +-|lambda o n|:
    the even half pairs with cos(r t.n) into the real component, the odd
    half with sin(r t.n) along the unit axis (lambda o n)/|lambda o n|.
    A dot-product weight exp(-(lambda.n) u) with the naive phase axis n
    reproduces the kernel only when the center is one-dimensional.  Every
    sphere sum is of a term even in n (odd half, sine and axis are odd
    together), so the rule is the one folded onto antipodal pairs.

    Raises QuadratureError when the estimated truncation tail exceeds the
    tolerance the check runs at (the deviation target is 1e-2).
    """
    x = _x4(x)
    t = _t3(t)
    lam = Lambda.from_seq(lam)
    _check_lambda_ball(*lam.as_tuple())
    xsq = _x_sq(x)
    if not (1.0 <= math.sqrt(xsq) < math.inf):
        raise ValueError("finite |x| >= 1 keeps the oscillatory integral tame")
    if not np.isfinite(t).all():
        raise ValueError("t must be finite")
    ref = k_lambda(x, t, lam, spec)

    order = spec.sphere_order
    nodes, wS = sphere2_nodes(order, fold=True)
    reps, orbit = _sign_orbits(order)
    ln = nodes * np.asarray(lam.as_tuple())[None, :]
    g = np.linalg.norm(ln, axis=1)
    axis = np.where(g[:, None] > 0.0,
                    ln / np.where(g[:, None] > 0.0, g[:, None], 1.0), 0.0)
    u, coth, wu4 = _u_rule(_tail_end(2.0 - lam.norm(), spec))
    # e^{-(2 +- g)u} depends on n only through g, so once per sign-flip orbit
    e_plus = np.exp(-np.outer(2.0 + g[reps], u))
    e_minus = np.exp(-np.outer(2.0 - g[reps], u))
    tn = np.einsum("nk,k->n", nodes, t)
    step = max(1, _BLOCK_POINTS // len(nodes))

    def transform_sums(r, wr):
        # K~(x, r n; a) = (r/4pi^2) sum_u T[r,u] E_a[n,u] at a = +-g(n); the
        # r-nodes are walked in blocks, each block's terms summed over r per
        # node, so no array spans every r-node and every sphere node
        per_node = np.zeros((3, len(nodes)))
        for s in range(0, len(r), step):
            rb = r[s:s + step]
            T = np.exp(-xsq * np.outer(rb, coth)) * wu4[None, :]
            kt_plus = np.einsum("ru,ou->ro", T, e_plus)
            kt_minus = np.einsum("ru,ou->ro", T, e_minus)
            # the r-weight wr r^2 and the prefactor r/(4 pi^2), per orbit
            rw = (wr[s:s + step] * rb * rb * rb / (4.0 * math.pi ** 2))[:, None]
            even = (0.5 * rw * (kt_plus + kt_minus))[:, orbit]
            odd = (0.5 * rw * (kt_minus - kt_plus))[:, orbit]
            ang = np.outer(rb, tn)
            per_node[0] += np.einsum("rn,rn->n", even, np.cos(ang))
            per_node[1] += np.einsum("rn,rn->n", odd, np.sin(ang))
            per_node[2] += np.einsum("rn->n", np.abs(even) + np.abs(odd))
        c0 = float(np.einsum("n,n->", per_node[0], wS))
        ck = -np.einsum("n,n,nk->k", per_node[1], wS, axis)
        return c0, ck, float(np.einsum("n,n->", per_node[2], wS))

    r, wr = panel_grid(0.0, 0.5, tau_radius)
    c0, ck, _ = transform_sums(r, wr)
    rshell, wshell = panel_grid(tau_radius, 0.5, tau_radius + 2.0)
    _, _, shell_mass = transform_sums(rshell, wshell)
    scale = 1.0 / (2.0 * math.pi) ** 3
    tail_bound = 2.0 * scale * shell_mass
    if tail_bound > 0.1 * ref.norm():
        raise QuadratureError(
            f"truncation-dominated: tail bound {tail_bound:.3e} vs |K| {ref.norm():.3e}")
    val = Quaternion(scale * c0, *(scale * ck))
    return (val - ref).norm() / ref.norm()


def delta_lambda_residual_on_k(x, t, lam, spec: QuadratureSpec, h=0.005):
    """Normalized residual |Delta_lambda K_lambda| * ||p||^2 / |K| at (x, t).

    The kernel annihilates under Delta_lambda away from the origin, so the
    return is stencil truncation plus quadrature noise.  The stencil is
    the Richardson-extrapolated line stencil of ``diffops`` (steps h and
    h/2, O(h^4)): about 2e-7 at the verify suite's points at the default
    step.  Its 17 to 29 points are evaluated in one batched kernel call,
    and |K| is its centre value.  A step that collapses the stencil raises
    ValueError.
    """
    x = _x4(x)
    t = _t3(t)
    lam = Lambda.from_seq(lam)
    _check_lambda_ball(*lam.as_tuple())
    hnorm_sq = _x_sq(x) + float(np.linalg.norm(t))
    if not (0.5 <= math.sqrt(hnorm_sq) < math.inf and float(np.linalg.norm(x)) > 0.3):
        raise ValueError("probe point too close to the kernel singularity or not finite")

    def f(q):
        # the line stencil passes all its points, coordinates on axis 0
        pts = np.ascontiguousarray(q.T)
        c0, ck = _k_lambda_components(pts[:, :4], pts[:, 4:], lam, spec)
        return Quaternion(c0, *ck.T)

    p = np.concatenate([x, t])
    value, centre = _delta_lambda_lines(f, p, lam, h)
    return value.norm() / (centre.norm() / hnorm_sq)

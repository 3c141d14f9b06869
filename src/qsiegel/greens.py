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
  and is exactly 1 at mu = 0.

* ``k_lambda`` -- the group-space kernel in its polar-reduced form

      K_lambda(x, t) = (6/(2 pi)^5) int_{S^2} int_0^inf sinh^-2 u *
                       [ cosh(g u) Re P - g^ sinh(g u) Im P ] du dsigma,

  where P = (|x|^2 coth u - i t.n)^-4, g(n) = |lambda o n| is the
  componentwise-product norm, and g^ = sum_k (lambda_k n_k / g) i_k.
  Both terms are even under n -> -n, so the S^2 integral runs on the
  product rule folded onto antipodal pairs (half the nodes, weights
  doubled), and P is computed in real arithmetic as w^4 with
  w = 1/(|x|^2 coth u - i t.n), from a^2 and b^2 alone.  The cosh/sinh
  weights depend on n only through g, so their exp tables are built on
  one node per orbit of the folded rule under n1 -> -n1 and n2 -> -n2;
  where g = 0 at every node (lambda = 0, Kaplan's K_0) the even table is
  one row and the odd half, exactly zero, is not computed.  The sphere
  sum walks the nodes in fixed-size blocks; every sum is an einsum, never
  a BLAS call, so values do not depend on the BLAS thread count.  The
  real part of the construction at lambda = 0 is the classical inverse
  Fourier transform of the radial Hermite kernel; the lambda-coupling is
  derived in ``_k_lambda_components``.  The reduced representation needs
  |x| > 0 and |lambda| < 2; values at x = 0 exist only by homogeneity and
  are deliberately not extrapolated.

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

The u-integrals of ``k_lambda``, ``fourier_consistency`` and the
Heisenberg-type forms run on fixed Gauss-Legendre panels doubling away
from 0 (``quad.panel_grid``, cached per grid) and truncated where the
integrand's decay factor falls below abs_tol/10 (abs_tol/40 for the
Heisenberg-type forms), so evaluations are deterministic and
vary smoothly with (x, t) inside finite-difference stencils.  The u-rule
of ``k_lambda`` and ``fourier_consistency`` comes with its coth u and
u-weight 4 w/em^2 from ``_u_rule``, cached per tail end.  The stencils
of ``hermite_residual`` and ``delta_lambda_residual_on_k`` evaluate all
their points in one call, each Richardson-extrapolated from the steps h
and h/2, O(h^4).  The Hermite stencil is one array pass over its 17 rows
x + h * _OFFSETS, with tau and lambda validated once and reduced to
Python floats: at lambda.tau = 0 one exp per row, otherwise one power
array on the rows x nodes of the rule and one einsum row reduction.  The
Delta_lambda stencil is the line stencil of ``diffops`` (at most 29
points), its points one batched kernel call that builds the
lambda-dependent tables once.  Every reduction is an einsum, whose sum
order does not depend on the number of rows, so the values are those of
``k_tilde_lambda`` and ``k_lambda`` at each point bit for bit.  Large-u
factors are computed in the form 4 e^{-(2+a)u} / (1-e^{-2u})^2, which
neither overflows nor cancels.
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

def _check_lambda_ball(lam: Lambda):
    # negated, so that a NaN component fails it too
    if not (lam.norm() < 2.0):
        raise ValueError(
            f"lambda decay condition fails: |lambda| = {lam.norm():.6g} is not < 2")


def _x4(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError("x must have 4 components")
    return x


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
    """The u-panel rule on [0, hi] of the K_lambda integrals (of
    ``_k_lambda_components`` and ``fourier_consistency``), as read-only
    (u, coth u, 4 w/em^2) with em = expm1(-2u): the nodes, the coth u of
    the exponent and the weight w times 1/sinh^2 u = 4 e^{-2u}/em^2, the
    factor e^{-2u} left to the exponent.

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


def _tau_ray(tau, lam: Lambda) -> tuple:
    """(|tau|^2, |tau|, lambda.tau) as Python floats, for a tau of three
    components that is nonzero and finite, |lambda| < 2, and a decay rate
    2 + lambda.tau/|tau| that is positive."""
    t1, t2, t3 = _t3(tau).tolist()
    _check_lambda_ball(lam)
    tsq = t1 * t1 + t2 * t2 + t3 * t3
    tnorm = math.sqrt(tsq)
    if not (0.0 < tnorm < math.inf):
        raise ValueError("tau must be nonzero and finite")
    l1, l2, l3 = lam.as_tuple()
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
    rule is the same for every ``spec``.
    """
    _, tnorm, lt = ray
    xsq = np.einsum("ij,ij->i", xs, xs)
    # the sum is NaN or inf when any row is, at a fraction of a per-row test
    xl = xsq.tolist()
    if 0.0 in xl or not (sum(xl) < math.inf):
        raise ValueError("x = 0 or non-finite x outside reduced-representation domain")
    c = tnorm * xsq
    val = np.exp(-c)
    val /= (4.0 * math.pi ** 2) * xsq
    z, wz, r1, wr1, i0 = _v_rule()
    if lt == 0.0:
        val *= i0
        return val.tolist()
    mu = 0.5 * lt / tnorm
    k = 1.0 / (1.0 + mu)
    s = z ** k
    nodes = np.concatenate([s, r1])
    w = np.concatenate([k * wz * np.exp(-s), wr1 * r1 ** mu])
    terms = np.add.outer(2.0 * np.minimum(c, _C_CAP), nodes)
    np.power(terms, -mu, out=terms)
    val *= np.einsum("nj,j->n", terms, w)
    return val.tolist()


def k_tilde_lambda(x, tau, lam, spec: QuadratureSpec) -> float:
    """Evaluate K~_lambda(x, tau) in the v = coth u form on the fixed rule
    of ``_v_rule``."""
    x = _x4(x)
    return _k_tilde_rows(x[None, :], _tau_ray(tau, Lambda.from_seq(lam)), spec)[0]


def hermite_residual(x, tau, lam, spec: QuadratureSpec, h: float = 1e-3) -> float:
    """|H~_lambda K~_lambda| at x, zero away from x = 0 up to stencil and
    quadrature error.  For s in (h, h/2)

        D(s) = sum_l [K~(x + s e_l) - 2 K~(x) + K~(x - s e_l)] / s^2
               - (4|x|^2|tau|^2 + 4 lambda.tau) K~(x),

    and the residual is the Richardson extrapolation |4 D(h/2) - D(h)| / 3,
    O(h^4).  The 17 stencil values come from one ``_k_tilde_rows`` call, so
    they are those of 17 ``k_tilde_lambda`` evaluations.  The step must be
    positive and finite, and must not collapse the stencil: ValueError when
    x_l + h/2 == x_l or x_l - h/2 == x_l in some coordinate, or
    (h/2)^2 == 0.
    """
    x = _x4(x)
    lam = Lambda.from_seq(lam)
    xl = x.tolist()
    xsq = sum(v * v for v in xl)
    if not (math.sqrt(xsq) >= 0.3):
        raise ValueError("|x| >= 0.3 required away from the singular support")
    if not (0.0 < h < math.inf):
        raise ValueError("step must be positive and finite")
    half = 0.5 * h
    if half * half == 0.0 or any(v + half == v or v - half == v for v in xl):
        raise ValueError("step underflows at this point")
    ray = _tau_ray(tau, lam)
    k = _k_tilde_rows(x + h * _OFFSETS, ray, spec)
    center = k[0]
    lap = [sum(k[i + l] - 2.0 * center + k[i + 4 + l] for l in range(4)) / (s * s)
           for i, s in ((1, h), (9, half))]
    tsq, _, lt = ray
    return abs((4.0 * lap[1] - lap[0]) / 3.0 - (4.0 * xsq * tsq + 4.0 * lt) * center)


# ---------------------------------------------------------------------------
# group-space kernel, polar-reduced

# Grid points per block: node x u in the K_lambda sphere sum, whose block
# buffers are allocated once per call, so no call allocates a node x u
# array; r x node in fourier_consistency's transform sums.
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


def _k_lambda_components(xs, ts, lam: Lambda, spec: QuadratureSpec):
    """Polar-reduced kernel components at the points (xs[i], ts[i]).

    Writing P(n, u) = (|x|^2 coth u - i t.n)^-4
    and g(n) = |(lambda_1 n_1, lambda_2 n_2, lambda_3 n_3)|,

        K_0  =  c int int  cosh(g u) sinh^-2 u  Re P  du dsigma
        K_k  = -c int int  (lambda_k n_k / g) sinh(g u) sinh^-2 u  Im P
                                                              du dsigma

    with c = 6/(2 pi)^5.  This is the inverse Fourier transform in the
    central variable of the Hermite-kernel system: left multiplication by
    i_{lambda tau} = sum_k lambda_k tau_k i_k has eigenvalues +-i|g| r,
    whose eigenprojections split the transformed equation into two scalar
    Hermite problems with couplings +-|lambda o tau|; recombining their
    solutions gives the even (cosh) real part and odd (sinh) imaginary
    part above.  The naive replacement of both weights by exp(-lambda.n u)
    is exact only when the central variable is one-dimensional (where all
    the imaginary units involved commute); in the three-dimensional case
    it fails the defining equation, which ``delta_lambda_residual_on_k``
    makes measurable.

    Both integrands are even under n -> -n: g and the cosh/sinh weights
    are even, Re P is even in b = t.n, and Im P and the axis
    (lambda o n)/g are both odd.  So the sphere rule is the one folded
    onto antipodal pairs (``sphere2_nodes(order, fold=True)``, half the
    nodes).

    ``xs`` and ``ts`` hold one point per row, shapes (N, 4) and (N, 3).

    * Orbit tables.  The cosh/sinh weights depend on n only through g,
      which sign flips of n1 and n2 keep, so the two exp tables are built
      once per call on one node of each orbit (``_sign_orbits``: 272 of
      the 1024 folded nodes at order 32) and gathered per node.  The
      u-weight 2 wu/em^2 = (4 wu/em^2)/2 of ``_u_rule`` enters each
      exponent as its log, and the sphere weight is applied after the
      u-sum.
    * lambda = 0.  When g is 0 at every node (lambda = 0, or a lambda with
      -0.0 components) both tables are the same at every node: the even
      table is built on one row that multiplies every block by
      broadcasting, with no gather, and the odd table, exactly 0.0, is
      neither built nor summed; its sums stay 0.0.  The values are those
      of the orbit-table path bit for bit.
    * The w^4 form.  With a = |x|^2 coth u, b = t.n, A = a^2, B = b^2
      and r = A + B, P = w^4 for w = 1/(a - i b) = (a + i b)/r is

          Re P = (A^2 - 6AB + B^2)/r^4,    Im P = 4ab(A - B)/r^4,

      so each node's u-sums are the products table/r^4 reduced against
      the u-vectors A^2, A, 1 (even table) and aA, a (odd table), and
      are combined with the node's B and b afterwards.
    * Node blocks.  The folded nodes are walked in blocks of about
      _BLOCK_POINTS grid points, the rows inside each block, in buffers
      allocated once per call; the per-node sums are reduced over the
      nodes once at the end.  A single point allocates no node x u array,
      each row keeps the arithmetic of a single point, and no value
      depends on the block size.
    * Reductions.  Every sum is an einsum on operands whose shape does
      not depend on the number of rows, never a BLAS call: a threaded
      BLAS sum splits by thread, so the value would depend on the thread
      count.

    Returns c0 of shape (N,) and ck of shape (N, 3).
    """
    order = spec.sphere_order
    nodes, wS = sphere2_nodes(order, fold=True)
    ln = nodes * np.asarray(lam.as_tuple())[None, :]  # (lambda o n) per node
    g = np.linalg.norm(ln, axis=1)
    axis = ln / np.where(g > 0.0, g, 1.0)[:, None]    # 0 where lambda o n is
    u, coth, wu4 = _u_rule(_tail_end(2.0 - lam.norm(), spec))

    # 2 wu cosh(g u)/sinh^2 u and 2 wu sinh(g u)/sinh^2 u per orbit,
    # overflow-free: 4 e^{-2u} cosh(g u) = 2(e^{-(2-g)u} + e^{-(2+g)u}), the
    # same with a minus for sinh, and the weight enters each exponent as
    # log(2 wu/em^2) = log(wu4/2); the slow rate 2-g stays positive because
    # g <= |lambda| < 2.  With every g = 0 (lambda = 0) the even table is
    # one row and the odd one is zero.
    log_w = np.log(0.5 * wu4)
    flat = not g.any()
    if flat:
        even = -2.0 * u + log_w
        np.exp(even, out=even)
        even += even
    else:
        reps, orbit = _sign_orbits(order)
        g_rep = g[reps]
        even = np.outer(g_rep - 2.0, u)
        even += log_w
        np.exp(even, out=even)
        fast = np.outer(-(2.0 + g_rep), u)
        fast += log_w
        np.exp(fast, out=fast)
        odd = even - fast
        even += fast
        del fast

    # per-row setup and final sums run row by row on 1-D operands: one
    # (rows, nodes) einsum over more than 8192 nodes sums in buffered
    # chunks and gave rows that differ from single-row calls
    a = np.stack([np.einsum("j,j->", x, x) * coth for x in xs])
    A = a * a
    b = np.stack([np.einsum("nk,k->n", nodes, t) for t in ts])  # signed t.n
    B = b * b
    # the u-vectors of the even-table sums (A^2, A, 1) and of the odd ones
    vec_even = np.stack([A * A, A, np.ones_like(A)], axis=1)
    vec_odd = np.stack([a * A, a], axis=1)
    # per-node u-sums of table * vec / r^4, rows on axis 1; the odd sums
    # stay 0 when the odd table is
    sums = np.zeros((5,) + b.shape)
    n_nodes, n_u = len(nodes), len(u)
    step = max(1, _BLOCK_POINTS // n_u)
    work = np.empty((4, step, n_u))
    # r^-4 overflows where |x| is tiny (1e-20): the sums are then not
    # finite, which k_lambda raises on, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n_nodes, step):
            blk = slice(s, min(s + step, n_nodes))
            ev, od, q, prod = work[:, :blk.stop - s]
            if flat:
                ev = even                              # broadcast over nodes
            else:
                # mode="clip" writes into out directly; the default buffers it
                np.take(even, orbit[blk], axis=0, out=ev, mode="clip")
                np.take(odd, orbit[blk], axis=0, out=od, mode="clip")
            for i in range(len(xs)):
                np.add.outer(B[i, blk], A[i], out=q)   # r
                np.square(q, out=q)
                np.square(q, out=q)
                np.reciprocal(q, out=q)
                np.multiply(ev, q, out=prod)
                np.einsum("nu,ku->kn", prod, vec_even[i], out=sums[:3, i, blk])
                if not flat:
                    np.multiply(od, q, out=prod)
                    np.einsum("nu,ku->kn", prod, vec_odd[i], out=sums[3:, i, blk])
        re = sums[0] - 6.0 * B * sums[1] + B * B * sums[2]
        im = 4.0 * b * (sums[3] - B * sums[4])
    scale = 6.0 / (2.0 * math.pi) ** 5
    c0 = np.array([scale * np.einsum("n,n->", v, wS) for v in re])
    ck = np.array([-scale * np.einsum("n,n,nk->k", v, wS, axis) for v in im])
    return c0, ck


def k_lambda(x, t, lam, spec: QuadratureSpec) -> Quaternion:
    """Evaluate the polar-reduced group-space kernel K_lambda(x, t).

    Real for lambda = 0; homogeneous of degree -8 under (x, t) ->
    (d x, d^2 t) exactly at the level of the rule (shared nodes), and
    conjugated by t -> -t.  Raises QuadratureError where a component is
    not finite.
    """
    x = _x4(x)
    t = _t3(t)
    lam = Lambda.from_seq(lam)
    _check_lambda_ball(lam)
    if not (0.0 < float(x @ x) < math.inf):
        raise ValueError("x = 0 or non-finite x outside reduced-representation domain")
    if not (float(t @ t) < math.inf):
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
    the rule is the one folded onto antipodal pairs.
    """
    x = _x4(x)
    t = _t3(t)
    xsq = float(x @ x)
    if not (0.0 < xsq < math.inf):
        raise ValueError("x = 0 or non-finite x outside reduced-representation domain")
    if not (float(t @ t) < math.inf):
        raise ValueError("t must be finite")
    nodes, wS = sphere2_nodes(spec.sphere_order, fold=True)
    z = xsq + 1j * np.abs(nodes @ t)
    p = z ** -3.0
    return 2.0 / ((2.0 * math.pi) ** 5 * xsq) * float(np.dot(wS, p.real))


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
    xsq = float(x @ x)
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
    xsq = float(x @ x)
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
    xsq = float(x @ x)
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
    _check_lambda_ball(lam)
    xsq = float(x @ x)
    if not (1.0 <= math.sqrt(xsq) < math.inf):
        raise ValueError("finite |x| >= 1 keeps the oscillatory integral tame")
    if not (float(t @ t) < math.inf):
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
    _check_lambda_ball(lam)
    hnorm_sq = float(x @ x) + float(np.linalg.norm(t))
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

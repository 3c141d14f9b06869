"""Fundamental solutions of the sub-Laplacian family Delta_lambda.

Three evaluators and their cross-checks:

* ``k_tilde_lambda`` -- the Hermite-space kernel

      K~_lambda(x, tau) = (|tau|/4 pi^2) int_0^inf e^{-(lambda.n) u}
                          e^{-|tau| |x|^2 coth u} sinh^-2 u du,

  n = tau/|tau|, annihilated by the Hermite operator
  sum d^2/dx_l^2 - 4|x|^2|tau|^2 - 4 lambda.tau away from x = 0.

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
  one node per orbit of the folded rule under n1 -> -n1 and n2 -> -n2,
  and the sphere sum walks the nodes in fixed-size blocks; every sum is
  an einsum, never a BLAS call, so values do not depend on the BLAS
  thread count.  The real part of the construction
  at lambda = 0 is the classical inverse Fourier transform of the radial
  Hermite kernel; the lambda-coupling is derived in
  ``_k_lambda_components``.  The reduced representation needs |x| > 0
  and |lambda| < 2; values at x = 0 exist only by homogeneity and are
  deliberately not extrapolated.

* ``heis_k_closed`` / ``heis_k_quadrature`` -- the Heisenberg-type
  degeneration in the {1, i1} plane: the Gamma-product closed form

      (1/4 pi^3) G((2+l)/2) G((2-l)/2) (|x|^2-it)^{-(2+l)/2} (|x|^2+it)^{-(2-l)/2}

  against the shifted-contour integral
  (1/8 pi^3) int_R e^{-l u} [r^2 cosh(u + i phi)]^-2 du with
  r = (|x|^4+t^2)^{1/4}, e^{-i phi} = (|x|^2-it)/r^2.  The two printed
  forms agree with each other; both equal the direct unshifted u-integral
  with the sign of lambda (equivalently of t) flipped, which
  ``heis_contour_sign_check`` surfaces.

All integrals run on fixed Gauss-Legendre panels doubling away from 0
(``quad.panel_grid``, cached per grid) and truncated where
e^{-(2-|lambda|) u*} < abs_tol/10, so evaluations are deterministic and
vary smoothly with (x, t) inside finite-difference stencils.  The stencils
of ``hermite_residual`` and ``delta_lambda_residual_on_k`` evaluate all
their points in one call.  The Hermite stencil is one array pass over its
nine rows x + h * _OFFSETS: one einsum for their |x|^2, one expm1 for both
coth u and the u-weight 4 w/em^2, one exponent array and its exp, and one
einsum row reduction, with tau and lambda validated once and reduced to
Python floats.  The Delta_lambda stencil builds the lambda-dependent tables
once.  Every reduction is an einsum, whose sum order does not depend on the
number of rows, so the values are those of ``k_tilde_lambda`` and
``k_lambda`` at each point bit for bit.  Large-u factors
are computed in the form 4 e^{-(2+a)u} / (1-e^{-2u})^2, which neither
overflows nor cancels.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quat import Quaternion
from .quad import QuadratureSpec, QuadratureError, panel_grid, sphere2_nodes, gamma
from .diffops import Lambda, _delta_lambda_direct

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

def _coerce_lambda(lam) -> Lambda:
    if isinstance(lam, Lambda):
        return lam
    return Lambda.from_seq(lam)


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


def _coth(em: np.ndarray) -> np.ndarray:
    """coth u from em = expm1(-2u), which the callers also need for the
    sinh^-2 u weight."""
    return (2.0 + em) / (-em)


# ---------------------------------------------------------------------------
# Hermite-space kernel

# The nine rows of the Hermite stencil in units of the step: the centre,
# then +e_l and -e_l for l = 0..3.
_OFFSETS = np.concatenate([np.zeros((1, 4)), np.eye(4), -np.eye(4)])
_OFFSETS.setflags(write=False)


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
    """K~_lambda(x, tau) at every row x of ``xs`` (shape (N, 4)) on the
    fixed u-panel rule, which the rows share since they share the ray
    ``_tau_ray(tau, lambda)``.

    One array pass: the row norms, one exponent array and its exp, and one
    row reduction against the u-weights 4 w/em^2.  The reductions are
    einsums, whose sum order does not depend on the number of rows (a BLAS
    product's does), so each row equals its single-row evaluation.
    """
    _, tnorm, lt = ray
    a = lt / tnorm
    xsq = np.einsum("ij,ij->i", xs, xs)
    # the sum is NaN or inf when any row is, at a fraction of a per-row test
    xl = xsq.tolist()
    if 0.0 in xl or not (sum(xl) < math.inf):
        raise ValueError("x = 0 or non-finite x outside reduced-representation domain")
    u, w = panel_grid(0.0, 0.5, _tail_end(2.0 + a, spec))
    em = np.expm1(-2.0 * u)
    coth = _coth(em)
    expo = np.multiply.outer(tnorm * xsq, coth)
    np.subtract(-(a + 2.0) * u, expo, out=expo)
    np.exp(expo, out=expo)
    pref = tnorm / (4.0 * math.pi ** 2)
    return (pref * np.einsum("nu,u->n", expo, 4.0 * w / (em * em))).tolist()


def k_tilde_lambda(x, tau, lam, spec: QuadratureSpec) -> float:
    """Evaluate K~_lambda(x, tau) on the fixed u-panel rule."""
    x = _x4(x)
    return _k_tilde_rows(x[None, :], _tau_ray(tau, _coerce_lambda(lam)), spec)[0]


def hermite_residual(x, tau, lam, spec: QuadratureSpec, h: float = 1e-3) -> float:
    """|H~_lambda K~_lambda| at x by a second-order stencil in the four
    x-coordinates; zero away from x = 0 up to stencil + quadrature error.

    The nine stencil values come from one ``_k_tilde_rows`` call, so they
    are those of nine ``k_tilde_lambda`` evaluations.  The step must be
    positive and finite, and must not collapse the stencil: ValueError when
    x_l + h == x_l or x_l - h == x_l in some coordinate, or h*h == 0.
    """
    x = _x4(x)
    lam = _coerce_lambda(lam)
    xl = x.tolist()
    xsq = sum(v * v for v in xl)
    if not (math.sqrt(xsq) >= 0.3):
        raise ValueError("|x| >= 0.3 required away from the singular support")
    if not (0.0 < h < math.inf):
        raise ValueError("step must be positive and finite")
    hh = h * h
    if hh == 0.0 or any(v + h == v or v - h == v for v in xl):
        raise ValueError("step underflows at this point")
    ray = _tau_ray(tau, lam)
    k = _k_tilde_rows(x + h * _OFFSETS, ray, spec)
    center = k[0]
    lap = 0.0
    for l in range(4):
        lap += (k[1 + l] - 2.0 * center + k[5 + l]) / hh
    tsq, _, lt = ray
    return abs(lap - (4.0 * xsq * tsq + 4.0 * lt) * center)


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
      u-weight 2 wu/em^2 enters each exponent as its log, and the sphere
      weight is applied after the u-sum.
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
    reps, orbit = _sign_orbits(order)
    ln = nodes * np.asarray(lam.as_tuple())[None, :]  # (lambda o n) per node
    g = np.linalg.norm(ln, axis=1)
    axis = ln / np.where(g > 0.0, g, 1.0)[:, None]    # 0 where lambda o n is
    u, wu = panel_grid(0.0, 0.5, _tail_end(2.0 - lam.norm(), spec))

    # 2 wu cosh(g u)/sinh^2 u and 2 wu sinh(g u)/sinh^2 u per orbit,
    # overflow-free: 4 e^{-2u} cosh(g u) = 2(e^{-(2-g)u} + e^{-(2+g)u}), the
    # same with a minus for sinh, and the weight enters each exponent as
    # log(2 wu/em^2); the slow rate 2-g stays positive because
    # g <= |lambda| < 2.
    em = np.expm1(-2.0 * u)
    log_w = np.log(2.0 * wu / (em * em))
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
    coth = _coth(em)
    a = np.stack([np.einsum("j,j->", x, x) * coth for x in xs])
    A = a * a
    b = np.stack([np.einsum("nk,k->n", nodes, t) for t in ts])  # signed t.n
    B = b * b
    # the u-vectors of the even-table sums (A^2, A, 1) and of the odd ones
    vec_even = np.stack([A * A, A, np.ones_like(A)], axis=1)
    vec_odd = np.stack([a * A, a], axis=1)
    # per-node u-sums of table * vec / r^4, rows on axis 1
    sums = np.empty((5,) + b.shape)
    n_nodes, n_u = len(nodes), len(u)
    step = max(1, _BLOCK_POINTS // n_u)
    work = np.empty((4, step, n_u))
    for s in range(0, n_nodes, step):
        blk = slice(s, min(s + step, n_nodes))
        ev, od, q, prod = work[:, :blk.stop - s]
        # mode="clip" writes into out directly; the default mode buffers it
        np.take(even, orbit[blk], axis=0, out=ev, mode="clip")
        np.take(odd, orbit[blk], axis=0, out=od, mode="clip")
        for i in range(len(xs)):
            np.add.outer(B[i, blk], A[i], out=q)       # r
            np.square(q, out=q)
            np.square(q, out=q)
            np.reciprocal(q, out=q)
            np.multiply(ev, q, out=prod)
            np.einsum("nu,ku->kn", prod, vec_even[i], out=sums[:3, i, blk])
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
    conjugated by t -> -t.
    """
    x = _x4(x)
    t = _t3(t)
    lam = _coerce_lambda(lam)
    _check_lambda_ball(lam)
    if not (0.0 < float(x @ x) < math.inf):
        raise ValueError("x = 0 or non-finite x outside reduced-representation domain")
    if not (float(t @ t) < math.inf):
        raise ValueError("t must be finite")
    c0, ck = _k_lambda_components(x[None, :], t[None, :], lam, spec)
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


def heis_k_closed(x, t: float, lam: float) -> Quaternion:
    """Gamma-product closed form; components only in {1, i1}."""
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
    val = (gamma((2.0 + lam) / 2.0) * gamma((2.0 - lam) / 2.0)
           / (4.0 * math.pi ** 3)
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
    lam = _coerce_lambda(lam)
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
    u, wu = panel_grid(0.0, 0.5, _tail_end(2.0 - lam.norm(), spec))
    em = np.expm1(-2.0 * u)
    coth = _coth(em)
    wu4 = 4.0 * wu / (em * em)
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


def delta_lambda_residual_on_k(x, t, lam, spec: QuadratureSpec,
                               h=0.005, details: bool = False):
    """Normalized residual |Delta_lambda K_lambda| * ||p||^2 / |K| at (x, t).

    The kernel annihilates under Delta_lambda away from the origin, so the
    return is pure stencil truncation + quadrature noise; with the fixed
    node rule the noise term stays far below the O(h^2) truncation at the
    default step.  The stencil's points are evaluated in one batched
    kernel call, and |K| is its centre value.  ``details=True`` also
    returns the raw residual and the normalization scale.
    """
    x = _x4(x)
    t = _t3(t)
    lam = _coerce_lambda(lam)
    _check_lambda_ball(lam)
    hnorm_sq = float(x @ x) + float(np.linalg.norm(t))
    if not (0.5 <= math.sqrt(hnorm_sq) < math.inf and float(np.linalg.norm(x)) > 0.3):
        raise ValueError("probe point too close to the kernel singularity or not finite")

    def f(q):
        # the direct form passes the whole stencil, coordinates on axis 0
        pts = np.ascontiguousarray(q.T)
        c0, ck = _k_lambda_components(pts[:, :4], pts[:, 4:], lam, spec)
        return Quaternion(c0, *ck.T)

    p = np.concatenate([x, t])
    value, centre = _delta_lambda_direct(f, p, lam, h)
    raw = value.norm()
    scale = centre.norm() / hnorm_sq
    if details:
        return raw / scale, {"raw": raw, "scale": scale}
    return raw / scale

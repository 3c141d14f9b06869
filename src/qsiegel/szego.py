"""The Cauchy-Szego kernel of the quaternionic Siegel upper half-space.

The kernel is S(q, omega) = k * r(q, omega)^-5 with the pairing

    r(q, omega) = (q2 + conj(omega2))/2 - conj(omega1) q1,

whose real part is positive whenever both arguments lie in the domain
(it dominates the mean of the two heights).  The normalizing constant is
k = 3 / (8 pi^4), ``K_ANALYTIC``; ``verify_k`` recomputes it from the
defining volume integral, and ``verify_reproducing`` closes the
reproducing-property chain for the probe function F(q) = (q2 + 1)^-5 at
the domain point (0, 1), where F = 2^-5; that chain runs on the same
radial integral, so it is the normalization check again, as
K_ANALYTIC / (32 verify_k).  The boundary convolution kernel
is

    K_eps([w, t]) = c * (|w|^2 + eps + i.t)^-5,   c = 32 k = 12 / pi^4,

with c = ``C_KERNEL``; its eps -> 0 limit is homogeneous of degree -10
under the group dilations.  (A constant c = 6 / pi^4 is also in
circulation; it fails the k-chain by a factor 2 and is surfaced as a
diagnostic in the check suite.)
"""

from __future__ import annotations

import math

from .quat import Quaternion, real_power
from .quad import QuadratureSpec, QuadratureError, integrate_1d, integrate_nested
from .group import GroupElement
from .siegel import SiegelPoint

__all__ = [
    "K_ANALYTIC",
    "C_KERNEL",
    "r_pair",
    "szego_kernel",
    "k_eps",
    "verify_k",
    "verify_reproducing",
    "gamma_integral",
    "delta_integral",
    "radial_kernel_integral",
]

K_ANALYTIC = 3.0 / (8.0 * math.pi ** 4)
C_KERNEL = 32.0 * K_ANALYTIC     # the constant c of K_eps

_ALPHA = 2.0 * math.pi ** 2   # surface measure of S^3
_BETA = 4.0 * math.pi         # surface measure of S^2


def r_pair(q: SiegelPoint, omega: SiegelPoint) -> Quaternion:
    """r(q, omega) = (q2 + conj(omega2))/2 - conj(omega1) q1.

    Hermitian: r(q, omega) = conj(r(omega, q)); r(q, q) is real and equals
    the height of q.
    """
    return (q.q2 + omega.q2.conj()) * 0.5 - omega.q1.conj() * q.q1


def szego_kernel(q: SiegelPoint, omega: SiegelPoint) -> Quaternion:
    """S(q, omega) = k * r(q, omega)^-5; raises ZeroDivisionError at the
    pole r = 0 and ValueError when an argument has a NaN or infinite
    component (r is then NaN or infinite)."""
    r = r_pair(q, omega)
    n2 = r.norm_sq()
    if not n2 < math.inf:
        raise ValueError("Szego kernel of a NaN or infinite point")
    if n2 < 1e-280:
        raise ZeroDivisionError("Szego kernel pole: r(q, omega) = 0")
    return real_power(r, -5.0) * K_ANALYTIC


def k_eps(g: GroupElement, eps: float) -> Quaternion:
    """Boundary convolution kernel K_eps([w,t]) = c (|w|^2 + eps + i.t)^-5.

    For eps > 0 the base never vanishes; at eps = 0 the group identity is
    the kernel singularity and raises.
    """
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    base = Quaternion(g.w.norm_sq() + eps, *g.t)
    if base.norm_sq() == 0.0:
        raise ZeroDivisionError("K_0 singularity at the group identity")
    return real_power(base, -5.0) * C_KERNEL


def gamma_integral(spec: QuadratureSpec) -> float:
    """int_0^inf r^2 (r^2+1)^-5 dr; closed form 5 pi/256."""
    res = integrate_1d(lambda r: r * r * (r * r + 1.0) ** -5,
                       (0.0, math.inf), spec)
    _require(res, "gamma integral")
    return res.value


def delta_integral(spec: QuadratureSpec) -> float:
    """int_0^inf rho^3 (rho^2+1)^-7 drho; closed form 1/60."""
    res = integrate_1d(lambda rho: rho ** 3 * (rho * rho + 1.0) ** -7,
                       (0.0, math.inf), spec)
    _require(res, "delta integral")
    return res.value


def radial_kernel_integral(spec: QuadratureSpec) -> float:
    """The radial reduction II = int int r^2 rho^3 (r^2+(rho^2+1)^2)^-5.

    Weighted by the sphere measures it equals pi^4/384 / (alpha beta);
    both verify_k and verify_reproducing consume it.
    """
    res = integrate_nested(
        ((0.0, math.inf), (0.0, math.inf)),
        lambda rho, r: r * r * rho ** 3 * (r * r + (rho * rho + 1.0) ** 2) ** -5,
        spec)
    _require(res, "radial kernel integral")
    return res.value


def verify_k(spec: QuadratureSpec) -> float:
    """Recompute the Szego constant from its normalization integral.

    1/k = 4^5 * alpha * beta * II over the radial reduction II; the
    return must equal 3/(8 pi^4) up to quadrature error.
    """
    return 1.0 / (4.0 ** 5 * _ALPHA * _BETA * radial_kernel_integral(spec))


def verify_reproducing(spec: QuadratureSpec) -> float:
    """Reproducing-property chain value, expected 2^-5 = 0.03125.

    Evaluates k * integral over the boundary of r((0,1), q)^-5 F(q) dbeta
    for F(q) = (q2+1)^-5 through the same radial reduction as verify_k
    (the two integrals coincide after that substitution), so the value
    equals K_ANALYTIC / (32 verify_k(spec)) algebraically: it re-tests the
    normalization integral at the one pair q = p = (0, 1) where the
    reproducing identity reduces to it, not the identity elsewhere.
    """
    return 32.0 * K_ANALYTIC * _ALPHA * _BETA * radial_kernel_integral(spec)


def _require(res, what):
    if not res.converged:
        raise QuadratureError(f"{what} did not converge")

"""The quaternion H-type group: H x R^3 with a 3-dimensional center.

Elements are pairs [w, t] with w a quaternion and t in R^3.  The product is

    [w, t] * [omega, s] = [w + omega, t + s - 2 Im(conj(omega) * w)]

where Im takes the three imaginary components.  Left and right translations
preserve Lebesgue measure on R^7 (the group is nilpotent), the dilations
delta_r[w, t] = [r w, r^2 t] scale it by r^10, and the gauge
``homogeneous_norm`` is homogeneous of degree 1 under them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quat import Quaternion
from .quad import QuadratureSpec, QuadratureError, integrate_1d, integrate_nested

__all__ = [
    "GroupElement",
    "IDENTITY",
    "gmul",
    "dilate",
    "homogeneous_norm",
    "HOMOGENEOUS_DIM",
    "polar_constant",
]

HOMOGENEOUS_DIM = 10


@dataclass(frozen=True)
class GroupElement:
    """Group element [w, t]; ``t`` is stored as an immutable 3-tuple."""

    w: Quaternion
    t: tuple

    def __post_init__(self):
        t = tuple(float(v) for v in self.t)
        if len(t) != 3:
            raise ValueError("central component must have 3 entries")
        object.__setattr__(self, "t", t)

    def inverse(self) -> "GroupElement":
        return GroupElement(-self.w, tuple(-v for v in self.t))


IDENTITY = GroupElement(Quaternion(), (0.0, 0.0, 0.0))


def gmul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product g * h."""
    shift = h.w.conj() * g.w
    t = (g.t[0] + h.t[0] - 2.0 * shift.a,
         g.t[1] + h.t[1] - 2.0 * shift.b,
         g.t[2] + h.t[2] - 2.0 * shift.c)
    return GroupElement(g.w + h.w, t)


def dilate(r: float, g: GroupElement) -> GroupElement:
    """Anisotropic dilation [w, t] -> [r w, r^2 t], r > 0."""
    if r <= 0.0:
        raise ValueError("dilation factor must be positive")
    r = float(r)
    return GroupElement(g.w * r, tuple(r * r * v for v in g.t))


def homogeneous_norm(g: GroupElement) -> float:
    """Gauge (|w|^2 + |t|)^(1/2), 1-homogeneous under dilations."""
    return math.sqrt(g.w.norm_sq() + math.hypot(*g.t))


def polar_constant(f: Callable, spec: QuadratureSpec) -> float:
    """Polar-coordinate constant of the gauge.

    For a decaying radial profile f the Lebesgue integral of
    f(homogeneous_norm) over R^7 reduces in the polar coordinates
    (rho, r) = (|w|, |t|) to

        alpha * beta * int int f(sqrt(rho^2 + r)) rho^3 r^2 drho dr,

    alpha and beta being the surface measures of S^3 and S^2.  Dividing
    by int_0^inf f(s) s^9 ds gives a constant that must be independent
    of the profile; its value is 2 pi^3 / 3.  ``f`` is an array profile
    (an ndarray of radii to an ndarray of values, e.g. ``np.exp(-s)``);
    the double-exponential engine also resolves profiles that decay only
    algebraically.
    """
    alpha = 2.0 * math.pi ** 2   # surface measure of S^3 in R^4
    beta = 4.0 * math.pi         # surface measure of S^2 in R^3
    num = integrate_nested(
        ((0.0, math.inf), (0.0, math.inf)),
        lambda rho, r: f(np.sqrt(rho * rho + r)) * rho ** 3 * r * r,
        spec)
    den = integrate_1d(lambda s: f(s) * s ** 9, (0.0, math.inf), spec)
    if not (num.converged and den.converged):
        raise QuadratureError("polar constant integrals did not converge")
    if den.value == 0.0:
        raise ZeroDivisionError("degenerate radial profile")
    return alpha * beta * num.value / den.value

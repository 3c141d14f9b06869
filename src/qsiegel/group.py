"""The quaternion H-type group: H x R^3 with a 3-dimensional center.

Elements are pairs [w, t] with w a quaternion and t in R^3.  The product is

    [w, t] * [omega, s] = [w + omega, t + s - 2 Im(conj(omega) * w)]

where Im takes the three imaginary components.  Left and right translations
preserve Lebesgue measure on R^7 (the group is nilpotent), the dilations
delta_r[w, t] = [r w, r^2 t] scale it by r^10, and the gauge
``homogeneous_norm`` is homogeneous of degree 1 under them.

A GroupElement whose w has ndarray components and whose t holds ndarrays
(e.g. a (3, N) array) is a batch of N elements.  ``gmul``, ``inverse``,
``dilate`` (with a scalar or an (N,) array of factors) and
``homogeneous_norm`` act on it row by row with the scalar formulas, so each
row equals the scalar result bit for bit; scalar elements give Python
floats as before.  ``dilate`` raises when any factor is not positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quat import Quaternion, _any
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


def _real(v):
    """A float, or a float ndarray for a batch entry."""
    if isinstance(v, np.ndarray) and v.ndim:
        return v.astype(float, copy=False)
    return float(v)


# math.hypot row by row: np.hypot and the square root of the sum of squares
# round differently from it in a sizeable share of rows
_hypot3 = np.vectorize(math.hypot, otypes=[float])


@dataclass(frozen=True)
class GroupElement:
    """Group element [w, t]; ``t`` is stored as an immutable 3-tuple of
    floats, or of float ndarrays for a batch."""

    w: Quaternion
    t: tuple

    def __post_init__(self):
        t = tuple(_real(v) for v in self.t)
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
    """Anisotropic dilation [w, t] -> [r w, r^2 t], r > 0 (per row for an
    array r)."""
    if _any(r <= 0.0):
        raise ValueError("dilation factor must be positive")
    r = _real(r)
    return GroupElement(g.w * r, tuple(r * r * v for v in g.t))


def homogeneous_norm(g: GroupElement) -> float:
    """Gauge (|w|^2 + |t|)^(1/2), 1-homogeneous under dilations."""
    n2 = g.w.norm_sq()
    x, y, z = g.t
    if isinstance(n2 + x + y + z, np.ndarray):      # a batch
        return np.sqrt(n2 + _hypot3(x, y, z))
    return math.sqrt(n2 + math.hypot(x, y, z))


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

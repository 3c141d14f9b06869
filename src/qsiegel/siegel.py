"""The quaternionic Siegel upper half-space and its unit-ball model.

Points are pairs (q1, q2) in H^2; the domain is cut out by the height
function r(q) = Re(q2) - |q1|^2 (positive inside, zero on the boundary).
A Cayley pair exchanges it with the unit ball |h1|^2 + |h2|^2 < 1, the
H-type group acts by height-preserving affine maps, and the boundary is
parametrized by (q1, Im q2), on which the action restricts to the group
translation with unit Jacobian.

Points whose quaternions have ndarray components (and group elements of
the same batch shape) are batches, one point per row: ``height``, ``act``,
both Cayley maps, ``boundary_point`` and ``boundary_coords`` act on them
row by row with the scalar formulas, so each row equals the scalar result
bit for bit.  The pole and boundary guards raise when any single row
violates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat import Quaternion, ONE, _all, _any
from .group import GroupElement, _real

__all__ = [
    "SiegelPoint",
    "BallPoint",
    "PoleError",
    "BoundaryError",
    "height",
    "cayley_to_siegel",
    "cayley_to_ball",
    "act",
    "boundary_coords",
    "boundary_point",
    "rotate",
]

BOUNDARY_RTOL = 1e-9


class PoleError(ZeroDivisionError):
    """Cayley transform evaluated at its pole."""


class BoundaryError(ValueError):
    """Point is not on the boundary; carries the measured height."""

    def __init__(self, msg, height_value):
        super().__init__(msg)
        self.height = height_value


@dataclass(frozen=True)
class SiegelPoint:
    q1: Quaternion
    q2: Quaternion


@dataclass(frozen=True)
class BallPoint:
    h1: Quaternion
    h2: Quaternion


def height(p: SiegelPoint) -> float:
    """r(q) = Re(q2) - |q1|^2; positive inside the domain."""
    return p.q2.t - p.q1.norm_sq()


def cayley_to_siegel(b: BallPoint) -> SiegelPoint:
    """(h1, h2) -> (h1 (1+h2)^-1, (1-h2)(1+h2)^-1); pole at h2 = -1."""
    den = ONE + b.h2
    if _any(den.norm_sq() < 1e-300):
        raise PoleError("Cayley pole: 1 + h2 = 0")
    inv = den.inverse()
    return SiegelPoint(b.h1 * inv, (ONE - b.h2) * inv)


def cayley_to_ball(p: SiegelPoint) -> BallPoint:
    """(q1, q2) -> (q1 (1+h2), (1+q2)^-1 (1-q2)); pole at q2 = -1."""
    den = ONE + p.q2
    if _any(den.norm_sq() < 1e-300):
        raise PoleError("Cayley pole: 1 + q2 = 0")
    h2 = den.inverse() * (ONE - p.q2)
    return BallPoint(p.q1 * (ONE + h2), h2)


def act(g: GroupElement, p: SiegelPoint) -> SiegelPoint:
    """Affine action of [w, t]: preserves the height function.

    (q1, q2) -> (q1 + w, q2 + |w|^2 + 2 conj(w) q1 + i.t) where
    i.t = t1 i1 + t2 i2 + t3 i3.  Satisfies act(gmul(g, h), p) =
    act(g, act(h, p)).
    """
    q1 = p.q1 + g.w
    q2 = (p.q2 + Quaternion(g.w.norm_sq(), *g.t)
          + (g.w.conj() * p.q1) * 2.0)
    return SiegelPoint(q1, q2)


def boundary_coords(p: SiegelPoint) -> tuple:
    """Boundary parametrization (q1, Im q2) as a (Quaternion, 3-tuple).

    Requires |height(p)| <= 1e-9 * (1 + |q2|), else BoundaryError, which
    for a batch carries the height of the first row off the boundary.  A
    point with a NaN or infinite component fails the test.
    """
    r = height(p)
    bound = BOUNDARY_RTOL * (1.0 + p.q2.norm())
    on = (abs(r) <= bound) & (bound < math.inf)
    if not _all(on):
        if isinstance(on, np.ndarray):
            r = float(r[~on][0])
        raise BoundaryError(f"point is off the boundary (height {r})", r)
    return (p.q1, p.q2.imag())


def boundary_point(w: Quaternion, t) -> SiegelPoint:
    """Inverse of boundary_coords: (w, t) -> (w, |w|^2 + i.t)."""
    t = tuple(_real(v) for v in t)
    return SiegelPoint(w, Quaternion(w.norm_sq(), *t))


def rotate(R: np.ndarray, p: SiegelPoint) -> SiegelPoint:
    """Apply an orthogonal 4x4 matrix to the q1 component.

    Height is preserved because |R q1| = |q1|.  R must satisfy
    R^T R = I within 1e-12.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (4, 4) or np.max(np.abs(R.T @ R - np.eye(4))) > 1e-12:
        raise ValueError("rotation matrix is not orthogonal")
    return SiegelPoint(Quaternion(*(R @ p.q1.to_array())), p.q2)

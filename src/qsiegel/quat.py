"""Quaternion arithmetic over the basis (1, i1, i2, i3).

Components are IEEE doubles in the order (t, a, b, c) for q = t + a*i1 + b*i2 + c*i3.
The multiplication table is i1*i2 = i3, i2*i3 = i1, i3*i1 = i2 (anticommuting),
i_k**2 = -1, equivalently q*h = (t*s - u.v) + (t*v + s*u + u x v) for q = t + u,
h = s + v with u, v the imaginary 3-vectors.

A Quaternion whose components are equal-shape ndarrays (or broadcast against
them) is a batch of quaternions, one per row: ``+``, ``-``, ``*`` (by a
Quaternion, a real or an ndarray of reals), ``conj``, ``norm_sq``, ``norm``
and ``inverse`` then act row by row with the same formulas, so each row
equals the scalar result bit for bit, and ``to_matrix`` of (N,) components
is the (N, 4, 4) stack of the rows' matrices.  Scalar components give
Python floats as before; ``inverse`` raises when any row is zero
(ZeroDivisionError) or has a NaN or infinite component (ValueError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "ZERO",
    "ONE",
    "I1",
    "I2",
    "I3",
    "scalar_product",
    "to_matrix",
    "exp_imag",
    "real_power",
]


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion t + a*i1 + b*i2 + c*i3."""

    t: float = 0.0
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    # an ndarray operand defers to Quaternion's reflected operators, so
    # ``r * q`` with r an ndarray scales a batch like ``q * r``
    __array_ufunc__ = None

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.t + other.t, self.a + other.a,
                          self.b + other.b, self.c + other.c)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.t - other.t, self.a - other.a,
                          self.b - other.b, self.c - other.c)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Quaternion(-self.t, -self.a, -self.b, -self.c)

    def __mul__(self, other):
        if isinstance(other, _REAL):
            return Quaternion(self.t * other, self.a * other,
                              self.b * other, self.c * other)
        t, a, b, c = self.t, self.a, self.b, self.c
        s, x, y, z = other.t, other.a, other.b, other.c
        return Quaternion(
            t * s - a * x - b * y - c * z,
            t * x + s * a + (b * z - c * y),
            t * y + s * b + (c * x - a * z),
            t * z + s * c + (a * y - b * x),
        )

    def __rmul__(self, other):
        if isinstance(other, _REAL):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return NotImplemented

    def conj(self) -> "Quaternion":
        return Quaternion(self.t, -self.a, -self.b, -self.c)

    def norm_sq(self) -> float:
        return self.t * self.t + self.a * self.a + self.b * self.b + self.c * self.c

    def norm(self) -> float:
        n2 = self.norm_sq()
        return np.sqrt(n2) if isinstance(n2, np.ndarray) else math.sqrt(n2)

    __abs__ = norm

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if not _all(n2 < math.inf):
            raise ValueError("inverse of a NaN or infinite quaternion")
        if _any(n2 == 0.0):
            raise ZeroDivisionError("inverse of the zero quaternion")
        return Quaternion(self.t / n2, -self.a / n2, -self.b / n2, -self.c / n2)

    # -- views -----------------------------------------------------------

    def imag(self) -> tuple:
        return (self.a, self.b, self.c)

    def imag_norm(self) -> float:
        return math.hypot(self.a, self.b, self.c)

    def is_real(self, tol: float = 0.0) -> bool:
        return self.imag_norm() <= tol

    def components(self) -> tuple:
        return (self.t, self.a, self.b, self.c)

    def to_array(self) -> np.ndarray:
        return np.array(self.components(), dtype=float)

    @staticmethod
    def from_seq(seq) -> "Quaternion":
        t, a, b, c = (float(v) for v in seq)
        return Quaternion(t, a, b, c)

    def __repr__(self):
        return f"Quaternion({self.t!r}, {self.a!r}, {self.b!r}, {self.c!r})"


# reals a Quaternion multiplies component by component; an ndarray scales
# each row of a batch
_REAL = (int, float, np.ndarray)


def _any(cond) -> bool:
    """A scalar condition, or whether it holds in any row of a batch."""
    return bool(cond.any() if isinstance(cond, np.ndarray) else cond)


def _all(cond) -> bool:
    """A scalar condition, or whether it holds in every row of a batch.
    Guards test ``not _all(ok)``, which a NaN row fails."""
    return bool(cond.all() if isinstance(cond, np.ndarray) else cond)


def _coerce(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, (int, float)):
        return Quaternion(float(v))
    raise TypeError(f"cannot interpret {type(v).__name__} as a quaternion")


ZERO = Quaternion()
ONE = Quaternion(1.0)
I1 = Quaternion(0.0, 1.0)
I2 = Quaternion(0.0, 0.0, 1.0)
I3 = Quaternion(0.0, 0.0, 0.0, 1.0)


def scalar_product(q: Quaternion, h: Quaternion) -> float:
    """Euclidean scalar product <q, h> = Re(q * conj(h))."""
    return q.t * h.t + q.a * h.a + q.b * h.b + q.c * h.c


def to_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of left multiplication by q on column components.

    to_matrix(q) @ h.to_array() equals (q*h).to_array(); the transpose
    represents the conjugate, and det = |q|**4.  For a batch whose four
    components are (N,) arrays the result is the (N, 4, 4) stack of the
    rows' matrices.
    """
    t, a, b, c = q.components()
    m = np.array([
        [t, -a, -b, -c],
        [a, t, -c, b],
        [b, c, t, -a],
        [c, -b, a, t],
    ])
    if m.ndim > 2:      # a batch: (4, 4, N) entries to an (N, 4, 4) stack
        m = np.ascontiguousarray(np.moveaxis(m, (0, 1), (-2, -1)))
    return m


def exp_imag(v) -> Quaternion:
    """Exponential of the purely imaginary quaternion with 3-vector v.

    exp(v) = cos|v| + (v/|v|) sin|v|, continuous through v = 0.
    """
    v0, v1, v2 = (float(x) for x in v)
    n = math.hypot(v0, v1, v2)
    if n == 0.0:
        return ONE
    s = math.sin(n) / n
    return Quaternion(math.cos(n), v0 * s, v1 * s, v2 * s)


def real_power(q: Quaternion, p: float) -> Quaternion:
    """Principal real power q**p through the commutative plane of q.

    q = t + u embeds in the complex plane spanned by (1, u/|u|) as
    z = t + i|u|; the result is Re(z**p) + (u/|u|) Im(z**p) with the
    principal branch.  For real q the power is real, which requires t > 0
    or an integer p.
    """
    im = q.imag_norm()
    if im == 0.0:
        if q.t == 0.0:
            raise ZeroDivisionError("power of the zero quaternion")
        if q.t > 0.0:
            return Quaternion(q.t ** p)
        if float(p).is_integer():
            return Quaternion(q.t ** int(p))
        raise ValueError(
            "real_power of a negative real quaternion needs an integer exponent")
    z = complex(q.t, im) ** p
    s = z.imag / im
    return Quaternion(z.real, q.a * s, q.b * s, q.c * s)

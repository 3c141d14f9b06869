"""Left-invariant differential operators on the H-type group.

Coordinates are ordered (x0, x1, x2, x3, t1, t2, t3).  The module carries
a small exact operator algebra: coefficients are polynomials in x with
quaternion values, operators are maps {derivative multi-index ->
coefficient}, and composition applies the Leibniz rule, so commutators of
the horizontal fields X_l and of the quaternion-weighted operators H,
H-bar come out exactly (the coefficients involved are small dyadics).

Numerical application uses central finite differences: order-1 terms a
two-point stencil, order-2 terms the standard second/cross stencils, all
O(h^2).  One routine applies every QuatDiffOp: it evaluates each
coefficient at the point, drops the terms whose coefficient vanishes
there, and calls the field once on the distinct stencil points of the
rest.  The sub-Laplacian

    Delta_lambda = sum_l X_l^2 + 4 sum_k i_k lambda_k d/dt_k

is applied either directly, along lines, or nested.  The t-coefficients
of X_l do not depend on x_l, so X_l is constant along the straight line
p + s v_l, v_l = e_{x_l} + sum_k c_lk(x) e_{t_k}, and X_l^2 f(p) is the
second derivative of f along it.  The direct form takes that second
difference on each of the four lines, and first differences along the
t_k axes with lambda_k != 0, at the steps h and h/2, and
Richardson-extrapolates them (Richardson 1911): O(h^4) on at most 29
points, in one call of f.  The nested form applies each X_l as a
first-order stencil to the field X_l f, O(h^2); it is the independent
route the direct form is checked against.  The exact composition
sum_l X_l o X_l, whose expanded coordinate form is

    sum_l d^2/dx_l^2 + 4|x|^2 sum_k d^2/dt_k^2 + 4 sum_k (w i_k . d/dx) d/dt_k,

serves the box_b identity.

Fields and integrands follow one array contract: a field maps a (7, M)
array of points, coordinates on axis 0, to a Quaternion or a real, each
part an (M,) array or a constant that broadcasts.  Written with
elementwise operations (numpy functions, Quaternion arithmetic) it maps a
single point (7,) as well; a field written only for scalars (with
``math.sin``, say) does not work.  ``apply_op`` calls its field once, on
the stencil points of one point or of a (7, N) batch, and returns (N,)
components for a batch, so ``apply_op(op, f, ., h)`` is itself a field
and nested operators need no special code.  The Cauchy-Fueter integral
passes one row of sphere nodes at a time as a Quaternion with array
components.  ``crf_tangency_residual`` and ``dq_eval`` take batches the
same way, a SiegelPoint or Quaternions whose components are (N,) arrays,
one sample per entry, evaluated in one pass; each entry equals its own
call bit for bit, and a single point is a batch of one.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np

from .quat import Quaternion, ZERO, ONE, I1, I2, I3, scalar_product
from .quad import QuadratureSpec, QuadratureError, sphere3_angles

__all__ = [
    "QPoly",
    "QuatDiffOp",
    "make_x",
    "commutator",
    "h_field",
    "hbar_field",
    "apply_op",
    "delta_lambda_apply",
    "box_b_identity_residual",
    "crf_tangency_residual",
    "dq_eval",
    "cauchy_fueter_sphere",
]

N_COORDS = 7
_IMAG = (I1, I2, I3)


def _lam3(lam) -> tuple:
    """lambda, a 3-sequence of reals, as three Python floats."""
    l1, l2, l3 = map(float, lam)
    return l1, l2, l3


def _as_quat(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    return Quaternion(float(v))


def _as_components(v, m: int) -> np.ndarray:
    """(4, m) components of an array field's value at m points: a
    Quaternion or a real, each part a scalar or an (m,) array."""
    comps = v.components() if isinstance(v, Quaternion) else (v, 0.0, 0.0, 0.0)
    out = np.empty((4, m))
    for i, c in enumerate(comps):
        out[i] = c
    return out


# ---------------------------------------------------------------------------
# exact coefficient polynomials and operators

def _qzero(q: Quaternion) -> bool:
    return q.t == 0.0 and q.a == 0.0 and q.b == 0.0 and q.c == 0.0


class QPoly:
    """Polynomial in (x0..x3) with quaternion coefficients.

    Stored as {exponent 4-tuple: Quaternion}; zero coefficients are pruned
    so equality of the dicts is equality of the polynomials.
    """

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {k: v for k, v in (c or {}).items() if not _qzero(v)}

    @staticmethod
    def const(q) -> "QPoly":
        return QPoly({(0, 0, 0, 0): _as_quat(q)})

    @staticmethod
    def coord(l: int, coeff=1.0) -> "QPoly":
        e = [0, 0, 0, 0]
        e[l] = 1
        return QPoly({tuple(e): _as_quat(coeff)})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, ZERO) + v
        return QPoly(out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, s: float) -> "QPoly":
        return QPoly({k: v * s for k, v in self.c.items()})

    def left_mul(self, q: Quaternion) -> "QPoly":
        return QPoly({k: q * v for k, v in self.c.items()})

    def eval(self, x) -> Quaternion:
        """Value at x = (x0..x3), each a float or an (N,) array."""
        acc = ZERO
        for k, v in self.c.items():
            m = 1.0
            # repeated products, not powers: x*x is the square numpy takes
            # for an array, where pow(x, 2) may differ in the last bit
            for xi, ei in zip(x, k):
                for _ in range(ei):
                    m = m * xi
            acc = acc + v * m
        return acc

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.c == other.c

    def __hash__(self):
        raise TypeError("QPoly is mutable-dict backed, unhashable")

    def __repr__(self):
        return f"QPoly({self.c!r})"


@lru_cache(maxsize=None)
def _leibniz(alpha) -> tuple:
    """(gamma, alpha - gamma, binomial) of d^alpha (b g) = sum_gamma
    C(alpha, gamma) d^(alpha - gamma) b d^gamma g for an x-polynomial b:
    its t-derivatives vanish, so gamma keeps alpha's t-orders and
    alpha - gamma is an x multi-index (4-tuple)."""
    terms = []
    for gx in itertools.product(*(range(a + 1) for a in alpha[:4])):
        binom = math.prod(math.comb(a, g) for a, g in zip(alpha, gx))
        terms.append((gx + alpha[4:], tuple(a - g for a, g in zip(alpha, gx)), binom))
    return tuple(terms)


def _diff(c, delta) -> dict:
    """d^delta of the polynomial {exponent: Quaternion} c, in the same
    form, for an x multi-index delta; the factors multiply in one
    coordinate after another, falling."""
    if not any(delta):
        return c
    out = {}
    for e, v in c.items():
        if any(ei < di for ei, di in zip(e, delta)):
            continue
        for i, d in enumerate(delta):
            for j in range(d):
                v = v * float(e[i] - j)
        out[tuple(ei - di for ei, di in zip(e, delta))] = v
    return out


class QuatDiffOp:
    """Differential operator sum_alpha c_alpha(x) d^alpha.

    Keys are 7-tuples of derivative orders over (x0..x3, t1..t3); values
    are QPoly coefficients.  Quaternion coefficients act by left
    multiplication on quaternion-valued functions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    @staticmethod
    def single(key, coeff) -> "QuatDiffOp":
        poly = coeff if isinstance(coeff, QPoly) else QPoly.const(coeff)
        return QuatDiffOp({tuple(key): poly})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return QuatDiffOp(out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, s: float) -> "QuatDiffOp":
        return QuatDiffOp({k: v.scale(s) for k, v in self.terms.items()})

    def left_mul(self, q: Quaternion) -> "QuatDiffOp":
        return QuatDiffOp({k: v.left_mul(q) for k, v in self.terms.items()})

    def compose(self, other: "QuatDiffOp") -> "QuatDiffOp":
        """Operator product self . other via the Leibniz rule.

        The coefficients are accumulated as plain {exponent: Quaternion}
        dicts per derivative key, each coefficient of ``other`` is
        differentiated once per derivative it needs, and every QPoly is
        built once, at the end.
        """
        out = {}        # derivative key -> {exponent: Quaternion}
        derivs = {}     # (beta, alpha - gamma) -> that derivative of other's coefficient
        for alpha, a_poly in self.terms.items():
            leibniz = _leibniz(alpha)
            for beta, b_poly in other.terms.items():
                for gamma, delta, binom in leibniz:
                    deriv = derivs.get((beta, delta))
                    if deriv is None:
                        deriv = derivs[beta, delta] = _diff(b_poly.c, delta)
                    if not deriv:
                        continue
                    prod = {}
                    for ka, va in a_poly.c.items():
                        for kb, vb in deriv.items():
                            k = tuple(map(operator.add, ka, kb))
                            prod[k] = prod[k] + va * vb if k in prod else va * vb
                    acc = out.setdefault(tuple(map(operator.add, gamma, beta)), {})
                    for k, v in prod.items():
                        if binom != 1:
                            v = v * float(binom)
                        acc[k] = acc[k] + v if k in acc else v
        return QuatDiffOp({k: QPoly(c) for k, c in out.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, QuatDiffOp) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("QuatDiffOp is unhashable")

    def __repr__(self):
        return f"QuatDiffOp({self.terms!r})"


def commutator(a: QuatDiffOp, b: QuatDiffOp) -> QuatDiffOp:
    return a.compose(b) - b.compose(a)


# horizontal fields; the t-coefficient of X_l in column k is affine in x
# with the sign pattern fixed by the group law [w,t][omega,s] =
# [w+omega, t+s-2Im(conj(omega) w)]
_X_TCOEFF = (
    ((1, -2.0), (2, -2.0), (3, -2.0)),   # X0: -2x1, -2x2, -2x3
    ((0, 2.0), (3, -2.0), (2, 2.0)),     # X1:  2x0, -2x3,  2x2
    ((3, 2.0), (0, 2.0), (1, -2.0)),     # X2:  2x3,  2x0, -2x1
    ((2, -2.0), (1, 2.0), (0, 2.0)),     # X3: -2x2,  2x1,  2x0
)


def make_x(l: int) -> QuatDiffOp:
    """The l-th left-invariant horizontal field X_l, l in 0..3."""
    if l not in (0, 1, 2, 3):
        raise ValueError(f"field index {l} out of range 0..3")
    key = [0] * N_COORDS
    key[l] = 1
    terms = {tuple(key): QPoly.const(ONE)}
    for k, (coord, coeff) in enumerate(_X_TCOEFF[l]):
        tkey = [0] * N_COORDS
        tkey[4 + k] = 1
        terms[tuple(tkey)] = QPoly.coord(coord, coeff)
    return QuatDiffOp(terms)


def hbar_field() -> QuatDiffOp:
    """H-bar = (1/2)(X0 + i1 X1 + i2 X2 + i3 X3), weights on the left."""
    op = make_x(0)
    for k in range(3):
        op = op + make_x(k + 1).left_mul(_IMAG[k])
    return op.scale(0.5)


def h_field() -> QuatDiffOp:
    """H = (1/2)(X0 - i1 X1 - i2 X2 - i3 X3), weights on the left."""
    op = make_x(0)
    for k in range(3):
        op = op - make_x(k + 1).left_mul(_IMAG[k])
    return op.scale(0.5)


# ---------------------------------------------------------------------------
# finite-difference application

def _check_steps(p, s):
    """Raise ValueError unless every step of s, an array that broadcasts
    against the point or batch p, is positive and finite and moves every
    coordinate of p to a new value on either side, with s*s not
    underflowing."""
    # negated, so that a NaN step fails it too
    if not np.all((s > 0.0) & (s < math.inf)):
        raise ValueError("step must be positive and finite")
    # either side of the stencil collapsing onto p, or s*s underflowing in
    # the second-difference denominators
    if np.any((p + s == p) | (p - s == p) | (s * s == 0.0)):
        raise ValueError("step underflows at this point")


# the central-difference stencil of a term, by (derivative order, number
# of axes): the signs along the term's axes of the points that the
# combination in ``_apply`` reads, in that order
_SIGNS = {
    (0, 0): ((),),
    (1, 1): ((1,), (-1,)),
    (2, 1): ((1,), (0,), (-1,)),
    (2, 2): ((1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def _apply(op: QuatDiffOp, f, p, h):
    """(op f at p, f(p)) by central differences, with one call of f.

    p is a point (7,) or a batch (7, N), and both values are Quaternions
    with float or (N,) components.  Terms whose coefficient vanishes at
    every point are dropped; the distinct stencil offsets of the rest,
    the centre first, are evaluated at every point in one call of f on a
    (7, M*N) array, the N points of each offset side by side.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[0] != N_COORDS:
        raise ValueError("point must have 7 coordinates, or be a (7, N) batch")
    steps = np.broadcast_to(np.asarray(h, dtype=float), (N_COORDS,)).copy()
    _check_steps(p, steps.reshape((N_COORDS,) + (1,) * (p.ndim - 1)))
    pts = p.reshape(N_COORDS, -1)
    x = p[:4].tolist() if p.ndim == 1 else p[:4]
    index = {(0,) * N_COORDS: 0}
    terms = []
    for key, poly in op.terms.items():
        axes = [j for j, e in enumerate(key) if e]
        signs = _SIGNS.get((sum(key), len(axes)))
        if signs is None:
            raise ValueError("stencils cover derivative order <= 2 only")
        coeff = poly.eval(x)
        if not np.any(coeff.components()):
            continue
        at = []
        for sign in signs:
            off = [0] * N_COORDS
            for j, s in zip(axes, sign):
                off[j] = s
            at.append(index.setdefault(tuple(off), len(index)))
        terms.append((coeff, steps[axes], at))

    k = np.array(list(index), dtype=float).T
    q = pts[:, None, :] + steps[:, None, None] * k[:, :, None]
    m, n = q.shape[1:]
    vals = _as_components(f(q.reshape(N_COORDS, m * n)), m * n).reshape(4, m, n)
    if not np.isfinite(vals).all():
        raise ValueError("field evaluated to a non-finite value")
    # the value at each offset: float parts at one point, (N,) parts for a batch
    at_offset = [Quaternion(*c) for c in
                 (vals[:, :, 0].T.tolist() if p.ndim == 1 else vals.transpose(1, 0, 2))]

    total = ZERO
    for coeff, hs, at in terms:
        v = [at_offset[i] for i in at]
        if len(v) == 1:
            d = v[0]
        elif len(v) == 2:
            d = (v[0] - v[1]) * (0.5 / hs[0])
        elif len(v) == 3:
            d = (v[0] - v[1] * 2.0 + v[2]) * (1.0 / (hs[0] * hs[0]))
        else:
            d = (v[0] - v[1] - v[2] + v[3]) * (0.25 / (hs[0] * hs[1]))
        total = total + coeff * d
    return total, at_offset[0]


def apply_op(op: QuatDiffOp, f, p, h=1e-4) -> Quaternion:
    """Apply an operator of order <= 2 at p by central differences.

    Parameters
    ----------
    op : QuatDiffOp
    f : callable
        An array field: it is called once, with a (7, M) array of the M
        stencil points, coordinates on axis 0, and returns a Quaternion
        or a real, each part an (M,) array or a constant that broadcasts.
        A non-finite value at any point raises ValueError.
    p : array-like, shape (7,) or (7, N)
        One point, or a batch of N points evaluated in the same single
        call of f; the value then has (N,) components, each equal bit for
        bit to the call at that point alone.  ``apply_op(op, f, ., h)`` is
        therefore itself an array field and nests.
    h : float or length-7 array
        Step per coordinate; the default 1e-4 is scaled by nothing, pass
        h*(1 + |p|) explicitly for large points.
    """
    return _apply(op, f, p, h)[0]


@lru_cache(maxsize=1)
def _sum_x_squared() -> QuatDiffOp:
    """sum_l X_l o X_l, composed on first use rather than at import."""
    op = QuatDiffOp()
    for l in range(4):
        xl = make_x(l)
        op = op + xl.compose(xl)
    return op


@lru_cache(maxsize=1)
def _x_fields() -> tuple:
    """(X_0, .., X_3), built on first use; ``make_x`` stays a fresh copy."""
    return tuple(make_x(l) for l in range(4))


@lru_cache(maxsize=1)
def _box_b_ops() -> tuple:
    """(H, H-bar, -(1/4)(sum X_l o X_l + 8 sum i_k d/dt_k)) for
    ``box_b_identity_residual``, built on first use."""
    return (h_field(), hbar_field(),
            (_sum_x_squared() + _dt_op((8.0,) * 3)).scale(-0.25))


def _dt_op(weights) -> QuatDiffOp:
    """sum_k w_k i_k d/dt_k."""
    op = QuatDiffOp()
    for k, w in enumerate(weights):
        key = [0] * N_COORDS
        key[4 + k] = 1
        op = op + QuatDiffOp.single(key, _IMAG[k] * w)
    return op


def _delta_lambda_lines(f, p, lam, h):
    """(Delta_lambda f(p), f(p)) by second differences along the X_l lines.

    The t-coefficients of X_l do not depend on x_l, so X_l is constant
    along the line p + s v_l, v_l = e_{x_l} + sum_k c_lk(x) e_{t_k}, and
    X_l^2 f(p) = d^2/ds^2 f(p + s v_l).  For s in (h, h/2)

        D(s) = sum_l [f(p + s v_l) - 2 f(p) + f(p - s v_l)] / s^2
               + 4 sum_k lambda_k i_k [f(p + s e_tk) - f(p - s e_tk)] / (2s),

    the lambda term on the axes with lambda_k != 0 only, and the value is
    the Richardson extrapolation (4 D(h/2) - D(h)) / 3, exact on
    polynomials of degree 5 along each line, so O(h^4).  f is called once,
    on a (7, M) array, the centre first: M = 17 + 4 (number of nonzero
    lambda_k), at most 29.  p is a point (7,) or a batch (7, N), evaluated
    in the same one call, each column equal bit for bit to its point alone.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[0] != N_COORDS:
        raise ValueError("point must have 7 coordinates, or be a (7, N) batch")
    lam = _lam3(lam)
    axes = [k for k in range(3) if lam[k] != 0.0]
    h = float(h)
    pts = p.reshape(N_COORDS, -1)
    n = pts.shape[1]
    steps = (h, 0.5 * h)
    # every coordinate a line or an axis moves by exactly s
    moved = pts[[0, 1, 2, 3] + [4 + k for k in axes]]
    for s in steps:
        _check_steps(moved, s)

    # the four line directions v_l, then the unit t_k axes of the lambda term
    dirs = np.zeros((4 + len(axes), N_COORDS, n))
    for l, tcoeff in enumerate(_X_TCOEFF):
        dirs[l, l] = 1.0
        for k, (coord, c) in enumerate(tcoeff):
            dirs[l, 4 + k] = c * pts[coord]
    for i, k in enumerate(axes):
        dirs[4 + i, 4 + k] = 1.0
    # centre, then per step, per direction, the + and - side
    q = [pts]
    for s in steps:
        for d in dirs:
            q += [pts + s * d, pts - s * d]
    q = np.stack(q, axis=1)
    m = q.shape[1]
    vals = _as_components(f(q.reshape(N_COORDS, m * n)), m * n).reshape(4, m, n)
    if not np.isfinite(vals).all():
        raise ValueError("field evaluated to a non-finite value")

    centre = vals[:, 0]
    side = vals[:, 1:].reshape(4, 2, len(dirs), 2, n)   # step, direction, sign
    levels = []
    for j, s in enumerate(steps):
        plus, minus = side[:, j, :, 0], side[:, j, :, 1]
        d2 = plus[:, :4] - centre[:, None] * 2.0 + minus[:, :4]
        level = Quaternion(*((d2[:, 0] + d2[:, 1] + d2[:, 2] + d2[:, 3]) * (1.0 / (s * s))))
        for i, k in enumerate(axes):
            d1 = Quaternion(*((plus[:, 4 + i] - minus[:, 4 + i]) * (0.5 / s)))
            level = level + (_IMAG[k] * (4.0 * lam[k])) * d1
        levels.append(level)
    value = (levels[1] * 4.0 - levels[0]) * (1.0 / 3.0)
    if p.ndim == 1:
        return (Quaternion(*(float(c[0]) for c in value.components())),
                Quaternion(*centre[:, 0].tolist()))
    return value, Quaternion(*centre)


def delta_lambda_apply(f, p, lam, h=1e-4, form: str = "direct") -> Quaternion:
    """Apply Delta_lambda at p by finite differences.

    ``lam`` is a 3-sequence of reals.  form="direct" takes second
    differences of f along the straight lines of the four X_l, on which
    X_l is constant, and first differences along the t_k axes with
    lambda_k != 0, at the steps h and h/2, and Richardson-extrapolates
    them: O(h^4), at most 29 stencil points, all in one call of f; h is a
    float.  form="nested" applies each X_l to the field X_l f, itself
    evaluated by ``apply_op`` on the outer stencil's points, and adds the
    lambda term (five calls of f, O(h^2)); it is the independent route the
    two-form consistency checks compare against.  f follows the array
    contract of ``apply_op``; a non-finite value raises ValueError, and so
    does a step that is not positive and finite or that collapses a side
    of the stencil onto p.
    """
    if form == "direct":
        return _delta_lambda_lines(f, p, lam, h)[0]
    if form != "nested":
        raise ValueError(f"unknown form {form!r}")
    lam = _lam3(lam)
    total = ZERO
    for xl in _x_fields():
        total = total + apply_op(xl, lambda q, _xl=xl: apply_op(_xl, f, q, h), p, h)
    return total + apply_op(_dt_op([4.0 * l for l in lam]), f, p, h)


def box_b_identity_residual(f, p, h=1e-3) -> float:
    """Residual of -H(H-bar f) = -(1/4)(sum X_l^2 f + 8 sum i_k dt_k f).

    The left side nests two first-order stencil applications; the right
    side applies the symbolically expanded second-order operator.  Both
    are O(h^2), and the identity is exact, so the residual measures pure
    stencil disagreement (zero up to rounding on quadratics).  f follows
    the array contract of ``apply_op``; it is called twice.
    """
    h_op, hb, rhs_op = _box_b_ops()
    lhs = -apply_op(h_op, lambda q: apply_op(hb, f, q, h), p, h)
    rhs = apply_op(rhs_op, f, p, h)
    return (lhs - rhs).norm()


# ---------------------------------------------------------------------------
# tangential Cauchy-Riemann check on the boundary

def crf_tangency_residual(p, h: float = 1e-5):
    """|dbar_{q1} r + 2 q1 dbar_{q2} r| at boundary points.

    dbar is (1/2)(d/dx0 + sum i_m d/dx_m) per quaternion coordinate,
    evaluated by central differences on the height function r; the
    combination is tangential, so the residual is zero up to stencil
    rounding.  The step is h (1 + |p|), |p| the norm of the point's eight
    coordinates.  p is a SiegelPoint or a batch of them (components of
    shape (N,)); the 16 stencil points of all N points go through one
    ``height`` call, and a batch returns the (N,) residuals, each equal bit
    for bit to its point's own call, which returns a float.  Raises
    BoundaryError off the boundary (for a batch, carrying the height of
    the first point off it, as ``boundary_coords``), and ValueError for a
    step that is not positive and finite or that collapses a side of the
    stencil onto a point (as ``apply_op``).
    """
    from .siegel import SiegelPoint, height, boundary_coords

    boundary_coords(p)   # validates |height| within the boundary tolerance
    comps = np.broadcast_arrays(*p.q1.components(), *p.q2.components())
    base = np.array(comps, dtype=float).reshape(8, -1)
    # each column's norm by one BLAS dot, as np.linalg.norm takes it
    rows = np.ascontiguousarray(base.T)
    step = h * (1.0 + np.sqrt(np.matmul(rows[:, None], rows[:, :, None])[:, 0, 0]))
    _check_steps(base, step)
    # coordinate i moved by +step at stencil point 2i and by -step at 2i + 1
    pts = np.repeat(base[:, None, :], 16, axis=1)
    for i in range(8):
        pts[i, 2 * i] = base[i] + step
        pts[i, 2 * i + 1] = base[i] - step
    r = height(SiegelPoint(Quaternion(*pts[:4]), Quaternion(*pts[4:])))
    d = (r[0::2] - r[1::2]) / (2.0 * step)
    dbar_q1, dbar_q2 = Quaternion(*d[:4]) * 0.5, Quaternion(*d[4:]) * 0.5
    res = (dbar_q1 + Quaternion(*base[:4]) * dbar_q2 * 2.0).norm()
    return res if comps[0].ndim else float(res[0])


# ---------------------------------------------------------------------------
# the quaternionic volume 3-form and the sphere Cauchy integral

def _det3(m):
    (a, b, c), (d, e, f_), (g, h_, i) = m
    return (a * (e * i - f_ * h_)
            - b * (d * i - f_ * g)
            + c * (d * h_ - e * g))


def dq_eval(h2: Quaternion, h3: Quaternion, h4: Quaternion) -> Quaternion:
    """The quaternion-valued 3-form Dq on a triple of tangent vectors.

    Dq(h2, h3, h4) = sum_mu (-1)^mu M_mu e_mu with M_mu the 3x3 minors of
    the component rows; equivalently <h1, Dq(...)> = det[h1; h2; h3; h4]
    for every h1.  The arguments are Quaternions with float components or
    a batch of them, components that broadcast to (N,), one triple per
    column; a batch returns (N,) components, each column equal bit for
    bit to its own call.  Each triple is put in lexicographic order of its
    components before the minors are taken, so the form is exactly
    alternating: a repeated argument gives exactly zero in its own column,
    and a permutation flips only the sign bit.  Raises ValueError when any
    component of any argument is NaN or infinite.
    """
    comps = np.broadcast_arrays(*h2.components(), *h3.components(), *h4.components())
    rows = np.array(comps, dtype=float).reshape(3, 4, -1)   # argument, component, column
    if not np.isfinite(rows).all():
        raise ValueError("Dq of a NaN or infinite vector")
    # the lexicographic order of each column's triple, the first component
    # the primary key, and its parity
    order = np.lexsort(rows.transpose(1, 0, 2)[::-1], axis=0)
    inversions = ((order[0] > order[1]).astype(int) + (order[0] > order[2])
                  + (order[1] > order[2]))
    sign = 1.0 - 2.0 * (inversions % 2)
    r = np.take_along_axis(rows, order[:, None, :], axis=0)
    minors = [_det3(r[:, cols]) for cols in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))]
    value = np.array([minors[0], -minors[1], minors[2], -minors[3]]) * sign
    repeated = ((rows[0] == rows[1]).all(axis=0) | (rows[0] == rows[2]).all(axis=0)
                | (rows[1] == rows[2]).all(axis=0))
    value[:, repeated] = 0.0
    return Quaternion(*(value if comps[0].ndim else value[:, 0].tolist()))


def _cf_run(f, q0: Quaternion, radius: float, order: int) -> np.ndarray:
    """The mean of f over the sphere |q - q0| = radius, as 4 components.

    On the sphere the kernel (q - q0)^-1/|q - q0|^2 times Dq is the real
    surface element, so the integral is (1/(2 pi^2)) sum_i wpsi_i
    sin^2 psi_i sum_nodes (wtheta sin theta wphi) f(q0 + radius n).  One
    call of f per psi-row; each row is reduced by numpy's pairwise sum (a
    BLAS dot would split its sum by thread count).
    """
    psi, wpsi, theta, wtheta, phi, wphi = sphere3_angles(order)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    st, ct = np.sin(T).ravel(), np.cos(T).ravel()
    sf, cf = np.sin(P).ravel(), np.cos(P).ravel()
    w = (wtheta[:, None] * wphi[None, :]).ravel() * st
    q0c = q0.components()
    row = st.size
    sin_psi = np.sin(psi)
    sums = np.empty((4, psi.size))
    for i, (sp, cp) in enumerate(zip(sin_psi, np.cos(psi))):
        sst = sp * st
        n = (np.full(row, cp), sp * ct, sst * cf, sst * sf)
        q = Quaternion(*(radius * c + qc for c, qc in zip(n, q0c)))
        sums[:, i] = (_as_components(f(q), row) * w).sum(axis=1)
    return (sums * (wpsi * sin_psi * sin_psi)).sum(axis=1) * (1.0 / (2.0 * math.pi ** 2))


def cauchy_fueter_sphere(f, q0: Quaternion, radius: float,
                         spec: QuadratureSpec) -> Quaternion:
    """Cauchy-Fueter integral over the sphere |q - q0| = radius.

    The paper's integral (1/(2 pi^2)) oint (q - q0)^-1 / |q - q0|^2 . Dq
    . f(q) reproduces f(q0) for Fueter-regular f (and for affine f by
    symmetry).  On a sphere centred at q0 the kernel times Dq is the real
    surface element (Sudbery, Quaternionic analysis, 1979), so the
    integral is the mean of f over the sphere, and it is evaluated as that
    mean with the product rule of sphere3_angles.  ``dq_eval`` keeps the
    form Dq itself.

    ``f`` is an array integrand: it is called once per psi-row of nodes
    (2*sphere_order + 4 calls for the two rules), with a Quaternion whose
    components are (M,) arrays of node coordinates, and returns a
    Quaternion or a real, each part an (M,) array or a constant that
    broadcasts.  Write it with elementwise operations.  Nothing is cached:
    a call allocates only psi-row sized arrays.

    Raises ValueError for a radius that is not positive and finite or a
    non-finite q0, and QuadratureError when the two rules differ by more
    than the tolerance or either is not finite (an f that returns NaN or
    inf).
    """
    if not (0.0 < radius < math.inf):
        raise ValueError("radius must be positive and finite")
    if not all(map(math.isfinite, q0.components())):
        raise ValueError("centre q0 must be finite")
    base = _cf_run(f, q0, radius, spec.sphere_order)
    fine = _cf_run(f, q0, radius, spec.sphere_order + 4)
    drift = float(np.max(np.abs(fine - base)))
    if not (drift <= max(100.0 * spec.abs_tol, 1e-7 * (1.0 + float(np.max(np.abs(fine)))))):
        raise QuadratureError(
            f"sphere integral not converged: refinement moved by {drift:.3e}")
    return Quaternion(*fine)

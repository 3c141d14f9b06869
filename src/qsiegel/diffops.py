"""Left-invariant differential operators on the H-type group.

Coordinates are ordered (x0, x1, x2, x3, t1, t2, t3).  The module carries
a small exact operator algebra: coefficients are polynomials in x with
quaternion values, operators are maps {derivative multi-index ->
coefficient}, and composition applies the Leibniz rule, so commutators of
the horizontal fields X_l and of the quaternion-weighted operators H,
H-bar come out exactly (the coefficients involved are small dyadics).

Numerical application uses central finite differences: order-1 terms a
two-point stencil, order-2 terms the standard second/cross stencils, all
O(h^2).  The sub-Laplacian

    Delta_lambda = sum_l X_l^2 + 4 sum_k i_k lambda_k d/dt_k

is applied either in that nested sum-of-squares form or in the expanded
coordinate form

    sum_l d^2/dx_l^2 + 4|x|^2 sum_k d^2/dt_k^2
    + 4 sum_k ((w i_k . d/dx) + lambda_k i_k) d/dt_k,

both of which agree within stencil error.

Fields and integrands follow one array contract: a field maps a point of
R^7 to a float or a Quaternion, and written with elementwise operations
(numpy functions, Quaternion arithmetic) it equally maps a (7, M) array of
points, coordinates on axis 0, to a (M,) array or a Quaternion with (M,)
components.  The direct form of Delta_lambda evaluates its whole stencil
in one such call, and the Cauchy-Fueter integral passes one row of sphere
nodes at a time as a Quaternion with array components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quat import Quaternion, ZERO, ONE, I1, I2, I3, scalar_product
from .quad import QuadratureSpec, QuadratureError, sphere3_angles

__all__ = [
    "Lambda",
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


@dataclass(frozen=True)
class Lambda:
    """Parameter triple of the sub-Laplacian family."""

    l1: float = 0.0
    l2: float = 0.0
    l3: float = 0.0

    def as_tuple(self) -> tuple:
        return (self.l1, self.l2, self.l3)

    def norm(self) -> float:
        return math.hypot(self.l1, self.l2, self.l3)

    @staticmethod
    def from_seq(seq) -> "Lambda":
        a, b, c = (float(v) for v in seq)
        return Lambda(a, b, c)


def _as_quat(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    return Quaternion(float(v))


def _as_components(v, m: int) -> np.ndarray:
    """(4, m) components of an array field's value at m points: a
    Quaternion or a real, each part a scalar or an (m,) array."""
    comps = v.components() if isinstance(v, Quaternion) else (v, 0.0, 0.0, 0.0)
    return np.array([np.broadcast_to(np.asarray(c, dtype=float), (m,)) for c in comps])


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

    def mul(self, other: "QPoly") -> "QPoly":
        """Product; quaternion coefficients multiply in the given order."""
        out = {}
        for ka, va in self.c.items():
            for kb, vb in other.c.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                prod = va * vb
                out[k] = out.get(k, ZERO) + prod
        return QPoly(out)

    def diff(self, coord: int) -> "QPoly":
        """Partial derivative; t-coordinates (coord >= 4) give zero."""
        if coord >= 4:
            return QPoly()
        out = {}
        for k, v in self.c.items():
            if k[coord] == 0:
                continue
            e = list(k)
            e[coord] -= 1
            out[tuple(e)] = out.get(tuple(e), ZERO) + v * float(k[coord])
        return QPoly(out)

    def eval(self, x) -> Quaternion:
        acc = ZERO
        for k, v in self.c.items():
            m = 1.0
            for xi, ei in zip(x, k):
                if ei:
                    m *= float(xi) ** ei
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
        """Operator product self . other via the Leibniz rule."""
        out = {}
        for alpha, a_poly in self.terms.items():
            for beta, b_poly in other.terms.items():
                for gamma in itertools.product(*(range(ai + 1) for ai in alpha)):
                    binom = 1
                    deriv = b_poly
                    for i in range(N_COORDS):
                        binom *= math.comb(alpha[i], gamma[i])
                        for _ in range(alpha[i] - gamma[i]):
                            deriv = deriv.diff(i)
                        if deriv.is_zero():
                            break
                    if deriv.is_zero():
                        continue
                    key = tuple(g + b for g, b in zip(gamma, beta))
                    contrib = a_poly.mul(deriv).scale(float(binom))
                    out[key] = out[key] + contrib if key in out else contrib
        return QuatDiffOp(out)

    def order(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

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

def _check_steps(p, h):
    steps = np.broadcast_to(np.asarray(h, dtype=float), (N_COORDS,)).copy()
    if np.any(steps <= 0.0):
        raise ValueError("step must be positive")
    if np.any(p + steps == p):
        raise ValueError("step underflows at this point")
    return steps


class _StencilCache:
    """Caches field values on the lattice p + sum_j k_j h_j e_j.

    ``fill`` evaluates many offsets in one field call; a lookup of an
    offset not yet cached evaluates the field at that single point.
    """

    __slots__ = ("f", "p", "steps", "vals")

    def __init__(self, f, p, steps):
        self.f = f
        self.p = p
        self.steps = steps
        self.vals = {}

    def __call__(self, offsets) -> Quaternion:
        v = self.vals.get(offsets)
        if v is None:
            q = self.p + self.steps * np.asarray(offsets, dtype=float)
            v = _as_quat(self.f(q))
            if not all(map(math.isfinite, v.components())):
                raise ValueError("field evaluated to a non-finite value")
            self.vals[offsets] = v
        return v

    def fill(self, offsets):
        """Evaluate the field once at M distinct offsets, passed as a (7, M)
        array of points with coordinates on axis 0."""
        k = np.array(offsets, dtype=float).T
        q = self.p[:, None] + self.steps[:, None] * k
        vals = _as_components(self.f(q), len(offsets))
        if not np.isfinite(vals).all():
            raise ValueError("field evaluated to a non-finite value")
        for off, comp in zip(offsets, vals.T.tolist()):
            self.vals[off] = Quaternion(*comp)


def _stencil_cache(f, p, h) -> _StencilCache:
    p = np.asarray(p, dtype=float)
    if p.shape != (N_COORDS,):
        raise ValueError("point must have 7 coordinates")
    return _StencilCache(f, p, _check_steps(p, h))


def _offset(j, s):
    off = [0] * N_COORDS
    off[j] = s
    return tuple(off)


def _d1(cache, j):
    h = cache.steps[j]
    return (cache(_offset(j, 1)) - cache(_offset(j, -1))) * (0.5 / h)


def _d2(cache, j):
    h = cache.steps[j]
    center = cache((0,) * N_COORDS)
    return (cache(_offset(j, 1)) - center * 2.0 + cache(_offset(j, -1))) * (1.0 / (h * h))


def _cross_offset(j, k, sj, sk):
    off = [0] * N_COORDS
    off[j], off[k] = sj, sk
    return tuple(off)


def _dcross(cache, j, k):
    hj, hk = cache.steps[j], cache.steps[k]

    def at(sj, sk):
        return cache(_cross_offset(j, k, sj, sk))

    return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) * (0.25 / (hj * hk))


def apply_op(op: QuatDiffOp, f, p, h=1e-4) -> Quaternion:
    """Apply an operator of order <= 2 at p by central differences.

    Parameters
    ----------
    op : QuatDiffOp
    f : callable
        Maps a length-7 array to a float or Quaternion.  It is called once
        per stencil point, with a (7,) array; a field written for the
        array contract of this module works unchanged.
    p : array-like, length 7
    h : float or length-7 array
        Step per coordinate; the default 1e-4 is scaled by nothing, pass
        h*(1 + |p|) explicitly for large points.
    """
    cache = _stencil_cache(f, p, h)
    p = cache.p
    total = ZERO
    for key, poly in op.terms.items():
        order = sum(key)
        if order == 0:
            d = cache((0,) * N_COORDS)
        elif order == 1:
            d = _d1(cache, key.index(1))
        elif order == 2:
            axes = [i for i, e in enumerate(key) if e]
            if len(axes) == 1:
                d = _d2(cache, axes[0])
            else:
                d = _dcross(cache, axes[0], axes[1])
        else:
            raise ValueError("stencils cover derivative order <= 2 only")
        total = total + poly.eval(p[:4]) * d
    return total


def _delta_lambda_direct(f, p, lam: Lambda, h):
    """(Delta_lambda f(p), f(p)) by the direct form of delta_lambda_apply;
    f(p) is the centre value of its stencil."""
    cache = _stencil_cache(f, p, h)
    centre = (0,) * N_COORDS
    w = Quaternion(*cache.p[:4])
    xsq = w.norm_sq()
    wik = [(w * _IMAG[k]).components() for k in range(3)]
    cross = [(l, 4 + k) for k in range(3) for l in range(4) if wik[k][l] != 0.0]
    cache.fill([centre]
               + [_offset(j, s) for j in range(N_COORDS) for s in (1, -1)]
               + [_cross_offset(j, k, sj, sk)
                  for j, k in cross for sj in (1, -1) for sk in (1, -1)])
    total = ZERO
    for l in range(4):
        total = total + _d2(cache, l)
    for k in range(3):
        total = total + _d2(cache, 4 + k) * (4.0 * xsq)
    lam_t = lam.as_tuple()
    for k in range(3):
        for l, comp in enumerate(wik[k]):
            if comp != 0.0:
                total = total + _dcross(cache, l, 4 + k) * (4.0 * comp)
        if lam_t[k] != 0.0:
            total = total + _IMAG[k] * _d1(cache, 4 + k) * (4.0 * lam_t[k])
    return total, cache(centre)


def delta_lambda_apply(f, p, lam: Lambda, h=1e-4, form: str = "direct") -> Quaternion:
    """Apply Delta_lambda at p by finite differences.

    form="direct" assembles the expanded coordinate form from at most 63
    distinct stencil points and evaluates f once on all of them: f gets a
    (7, M) array of points, coordinates on axis 0, and returns a Quaternion
    or a real, each part an (M,) array or a constant that broadcasts.  A
    non-finite value at any point raises ValueError.
    form="nested" applies each X_l twice as first-order stencils and adds
    the lambda term, calling f on one (7,) point at a time; it is the
    independent route the two-form consistency checks compare against.
    A field written with elementwise operations serves both forms.
    """
    if form == "direct":
        return _delta_lambda_direct(f, p, lam, h)[0]
    cache = _stencil_cache(f, p, h)
    if form != "nested":
        raise ValueError(f"unknown form {form!r}")
    total = ZERO
    for l in range(4):
        xl = make_x(l)
        inner = lambda q, _xl=xl: apply_op(_xl, f, q, h)
        total = total + apply_op(xl, inner, cache.p, h)
    for k in range(3):
        total = total + _IMAG[k] * _d1(cache, 4 + k) * (4.0 * lam.as_tuple()[k])
    return total


def box_b_identity_residual(f, p, h=1e-3) -> float:
    """Residual of -H(H-bar f) = -(1/4)(sum X_l^2 f + 8 sum i_k dt_k f).

    The left side nests two first-order stencil applications; the right
    side applies the symbolically expanded second-order operator.  Both
    are O(h^2), and the identity is exact, so the residual measures pure
    stencil disagreement (zero up to rounding on quadratics).
    """
    hb = hbar_field()
    hh = h_field()
    lhs = -apply_op(hh, lambda q: apply_op(hb, f, q, h), p, h)
    rhs_op = QuatDiffOp()
    for l in range(4):
        xl = make_x(l)
        rhs_op = rhs_op + xl.compose(xl)
    for k in range(3):
        key = [0] * N_COORDS
        key[4 + k] = 1
        rhs_op = rhs_op + QuatDiffOp.single(key, _IMAG[k] * 8.0)
    rhs = apply_op(rhs_op.scale(-0.25), f, p, h)
    return (lhs - rhs).norm()


# ---------------------------------------------------------------------------
# tangential Cauchy-Riemann check on the boundary

def crf_tangency_residual(p, h: float = 1e-5) -> float:
    """|dbar_{q1} r + 2 q1 dbar_{q2} r| at a boundary point.

    dbar is (1/2)(d/dx0 + sum i_m d/dx_m) per quaternion coordinate,
    evaluated by central differences on the height function; the
    combination is tangential, so the residual is zero up to stencil
    rounding.  Raises BoundaryError off the boundary.
    """
    from .siegel import SiegelPoint, height, boundary_coords

    boundary_coords(p)   # validates |height| within the boundary tolerance
    base = np.array(p.q1.components() + p.q2.components())

    def r_of(v):
        return height(SiegelPoint(Quaternion(*v[:4]), Quaternion(*v[4:])))

    step = h * (1.0 + np.linalg.norm(base))

    def partial(i):
        up, dn = base.copy(), base.copy()
        up[i] += step
        dn[i] -= step
        return (r_of(up) - r_of(dn)) / (2.0 * step)

    def dbar(block):
        acc = Quaternion(partial(block))
        for m in range(3):
            acc = acc + _IMAG[m] * partial(block + 1 + m)
        return acc * 0.5

    res = dbar(0) + p.q1 * dbar(4) * 2.0
    return res.norm()


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
    for every h1.  Arguments are canonically ordered before evaluation so
    the form is exactly alternating: repeated arguments give exactly zero
    and permutations flip only the sign bit.
    """
    rows = [h2.components(), h3.components(), h4.components()]
    if rows[0] == rows[1] or rows[0] == rows[2] or rows[1] == rows[2]:
        return ZERO
    order = sorted(range(3), key=lambda i: rows[i])
    sign = 1.0
    # parity of the sorting permutation (3 elements: count inversions)
    for i in range(3):
        for j in range(i + 1, 3):
            if order[i] > order[j]:
                sign = -sign
    r = [rows[i] for i in order]
    minors = [
        _det3([[row[c] for c in cols] for row in r])
        for cols in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    ]
    return Quaternion(minors[0], -minors[1], minors[2], -minors[3]) * sign


def _cf_run(f, q0: Quaternion, radius: float, order: int):
    psi, wpsi, theta, wtheta, phi, wphi = sphere3_angles(order)
    W = (wpsi[:, None, None] * wtheta[None, :, None] * wphi[None, None, :]).ravel()
    T, M = np.meshgrid(theta, phi, indexing="ij")
    st, ct = np.sin(T).ravel(), np.cos(T).ravel()
    sf, cf = np.sin(M).ravel(), np.cos(M).ravel()
    zero = np.zeros_like(st)
    cols = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

    # one psi-row of nodes at a time: its geometry, one call of f on the
    # whole row, and the integrand written into its slice of ``integrand``
    row = st.size
    integrand = np.empty((4, psi.size * row))
    for i, (sin_psi, cos_psi) in enumerate(zip(np.sin(psi), np.cos(psi))):
        sp, cp = np.full(row, sin_psi), np.full(row, cos_psi)
        n = (cp, sp * ct, sp * st * cf, sp * st * sf)
        tp = tuple(radius * c for c in (-sp, cp * ct, cp * st * cf, cp * st * sf))
        tt = tuple(radius * c for c in (zero, -sp * st, sp * ct * cf, sp * ct * sf))
        tf = tuple(radius * c for c in (zero, zero, -sp * st * sf, sp * st * cf))

        # minors of the rows (tp, tt, tf); Dq = (M0, -M1, M2, -M3)
        minors = [_det3([[tp[c] for c in cs], [tt[c] for c in cs], [tf[c] for c in cs]])
                  for cs in cols]
        dq = Quaternion(minors[0], -minors[1], minors[2], -minors[3])

        d = tuple(radius * c for c in n)
        q_pts = tuple(dc + qc for dc, qc in zip(d, q0.components()))
        nsq = d[0] ** 2 + d[1] ** 2 + d[2] ** 2 + d[3] ** 2
        kern = Quaternion(d[0] / nsq ** 2, -d[1] / nsq ** 2,
                          -d[2] / nsq ** 2, -d[3] / nsq ** 2)

        fvals = Quaternion(*_as_components(f(Quaternion(*q_pts)), row))
        integrand[:, i * row:(i + 1) * row] = (kern * dq * fvals).components()

    scale = 1.0 / (2.0 * math.pi ** 2)
    # numpy's pairwise sum along each row: a BLAS dot splits its sum by
    # thread count, and einsum here accumulates sequentially (40x the error)
    integrand *= W
    return integrand.sum(axis=1) * scale


def cauchy_fueter_sphere(f, q0: Quaternion, radius: float,
                         spec: QuadratureSpec) -> Quaternion:
    """Cauchy-Fueter integral over the sphere |q - q0| = radius.

    Evaluates (1/(2 pi^2)) oint (q - q0)^-1 / |q - q0|^2 . Dq . f(q) with
    the product rule of sphere3_angles; the non-commutative product order
    kernel * Dq * f is essential.  Reproduces f(q0) for Fueter-regular f
    (and for affine f by symmetry).

    ``f`` is an array integrand: it is called once per psi-row of nodes
    (2*sphere_order + 4 calls for the two rules), with a Quaternion whose
    components are (M,) arrays of node coordinates, and returns a
    Quaternion or a real, each part an (M,) array or a constant that
    broadcasts.  Write it with elementwise operations.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    base = _cf_run(f, q0, radius, spec.sphere_order)
    fine = _cf_run(f, q0, radius, spec.sphere_order + 4)
    drift = float(np.max(np.abs(fine - base)))
    if drift > max(100.0 * spec.abs_tol, 1e-7 * (1.0 + float(np.max(np.abs(fine))))):
        raise QuadratureError(
            f"sphere integral not converged: refinement moved by {drift:.3e}")
    return Quaternion(*fine)

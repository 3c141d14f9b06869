"""Deterministic quadrature engine.

One `QuadratureSpec` controls every numerical integral in the package: a
vectorized double-exponential rule for 1-D integrals (tanh-sinh on finite
intervals, exp-sinh on half-lines, sinh-sinh on the full line), nested
iterated integration on top of it, cached composite Gauss-Legendre grids
with panels doubling away from an endpoint (``panel_grid``), tensor-product
rules on the spheres S^2 and S^3 (on S^2 also folded onto antipodal pairs,
for integrands even under n -> -n), and a Lanczos gamma function for
closed-form targets.

Identical spec + integrand give bit-identical results across runs: the
engine is single-threaded, its node tables are built from scalar formulas
in a fixed order, and every level sum is accumulated with `math.fsum`,
which is correctly rounded and so independent of the order of the terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "QuadResult",
    "integrate_1d",
    "integrate_nested",
    "gauss_rule",
    "panel_grid",
    "sphere2_nodes",
    "sphere3_angles",
    "gamma",
]


class QuadratureError(Exception):
    """Raised when an integral cannot be brought within its budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the quadrature engine.

    Attributes
    ----------
    rel_tol, abs_tol : float
        Target relative/absolute error; a 1-D integral is accepted once the
        difference of two successive double-exponential levels is below
        max(abs_tol, rel_tol*|value|).
    max_subdivisions : int
        Budget of distinct integrand evaluations (nodes) of one 1-D
        integral.  A level is evaluated only while it fits in the budget
        (the first level, at most 55 nodes, always runs); an integral that
        runs out returns its best estimate with converged=False.
    sphere_order : int
        Order of the Gauss-Legendre factor of the product rules on S^2
        and S^3; the azimuthal factor uses 2*sphere_order equispaced nodes.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 4000
    sphere_order: int = 32

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1 or self.sphere_order < 2:
            raise ValueError("budget out of range")


class QuadResult(NamedTuple):
    value: object          # float, or ndarray for vector integrands
    error: float
    converged: bool


def _tighter(spec: QuadratureSpec) -> QuadratureSpec:
    return replace(spec, rel_tol=spec.rel_tol * 0.1, abs_tol=spec.abs_tol * 0.1)


def _mag(v) -> float:
    return float(np.max(np.abs(v)))


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_rule(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


_PANEL_NODES = 24


@lru_cache(maxsize=128)
def panel_grid(lo: float, first: float, hi: float):
    """Composite Gauss-Legendre rule on [lo, hi] with panels doubling away
    from lo.

    The panel edges are lo, lo + first, then twice the previous edge until
    hi is reached (the last panel is cut at hi).  Returns read-only
    (nodes, weights) with _PANEL_NODES nodes per panel; the result is
    cached, so callers must not modify it.
    """
    edges = [lo, lo + first]
    while edges[-1] < hi:
        edges.append(min(2.0 * edges[-1], hi))
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x, w = _leggauss(_PANEL_NODES)
    # gauss_rule's mapping, all panels at once (one row per panel)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# double-exponential rules, nested levels
#
# Level L uses the nodes t = j h, h = 2^-L, |t| <= _DE_TMAX.  Level L + 1
# keeps every node of level L (the even j) and adds the odd j, so each level
# evaluates the integrand only at its new nodes.

_DE_TMAX = 6.8
_DE_LEVEL_MIN = 2
_DE_LEVEL_MAX = 12


def _de_factors(kind: str, t: float):
    """Reference factors of the node at t, independent of the interval.

    "finite": (tanh u, cosh t, cosh^2 u) with u = (pi/2) sinh t; the node
    on (a, b) is mid + half*tanh u, its weight half*(pi/2)*cosh t/cosh^2 u.
    "up"/"down" (a half-line): (e, e*(pi/2)*cosh t) with e = exp(u); the
    node is a + e or b - e.  "full": (sinh u, cosh u*(pi/2)*cosh t).
    """
    u = 0.5 * math.pi * math.sinh(t)
    if kind == "finite":
        ch = math.cosh(u)
        return math.tanh(u), math.cosh(t), ch * ch
    if kind == "full":
        return math.sinh(u), math.cosh(u) * 0.5 * math.pi * math.cosh(t)
    e = math.exp(u)
    return e, e * 0.5 * math.pi * math.cosh(t)


@lru_cache(maxsize=None)
def _de_table(kind: str, level: int):
    """Factor arrays of the nodes that ``level`` adds (all of them at the
    first level, the odd multiples of h after it), built lazily from the
    scalar formulas of ``_de_factors``."""
    h = 2.0 ** (-level)
    nmax = int(_DE_TMAX / h)
    rows = []
    for j in range(-nmax, nmax + 1):
        if level > _DE_LEVEL_MIN and j % 2 == 0:
            continue
        try:
            rows.append(_de_factors(kind, j * h))
        except OverflowError:
            continue
    cols = tuple(np.array(c, dtype=float) for c in zip(*rows))
    for c in cols:
        c.setflags(write=False)
    return cols


def _de_rule(kind: str, level: int, a: float, b: float):
    """Nodes and weights that ``level`` adds on the interval (a, b)."""
    cols = _de_table(kind, level)
    if kind == "finite":
        y, ct, chsq = cols
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * y
        w = half * 0.5 * math.pi * ct / chsq
        keep = (a < x) & (x < b)
    else:
        e, w = cols
        x = a + e if kind == "up" else (b - e if kind == "down" else e)
        keep = np.isfinite(x)
    keep &= np.isfinite(w) & (w != 0.0)
    return x[keep], w[keep]


def _eval_masked(f, x, w):
    """Terms w*f(x) at the nodes where f is finite.  An OverflowError or
    ZeroDivisionError raised by a scalar factor of f masks the batch."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fx = np.asarray(f(x))
    except (OverflowError, ZeroDivisionError):
        return None
    if np.iscomplexobj(fx):
        raise TypeError("complex integrand: return real and imaginary parts as columns")
    if fx.ndim not in (1, 2) or fx.shape[0] != x.size:
        raise ValueError(f"integrand returned shape {fx.shape} for {x.size} nodes")
    fx = fx.astype(float, copy=False)
    if fx.ndim == 1:
        ok = np.isfinite(fx)
        return w[ok] * fx[ok]
    ok = np.isfinite(fx).all(axis=1)
    return w[ok, None] * fx[ok]


def _double_exponential(f, kind, a, b, spec: QuadratureSpec) -> QuadResult:
    terms = []            # w*f(x) at every node evaluated so far
    evals = 0
    prev, err = None, math.inf
    for level in range(_DE_LEVEL_MIN, _DE_LEVEL_MAX + 1):
        x, w = _de_rule(kind, level, a, b)
        if prev is not None and evals + x.size > spec.max_subdivisions:
            break
        evals += x.size
        if x.size:
            t = _eval_masked(f, x, w)
            if t is not None:
                terms.append(t)
        h = 2.0 ** (-level)
        if not terms:
            cur = 0.0
        elif terms[0].ndim == 1:
            cur = h * math.fsum(np.concatenate(terms).tolist())
        else:
            cur = np.array([h * math.fsum(col) for col in np.concatenate(terms).T.tolist()])
        if prev is not None:
            err = _mag(cur - prev)
            if err <= max(spec.abs_tol, spec.rel_tol * _mag(cur)):
                return QuadResult(cur, err, True)
        prev = cur
    return QuadResult(prev, err, False)


# ---------------------------------------------------------------------------
# public entry points

def integrate_1d(f: Callable, interval: Sequence[float],
                 spec: QuadratureSpec) -> QuadResult:
    """Integrate a scalar- or vector-valued function over an interval.

    Parameters
    ----------
    f : callable
        Array integrand: maps an ndarray of N nodes to shape (N,), or to
        (N, k) for a vector-valued integrand (integrated componentwise,
        with the max-abs norm driving convergence).  Nodes where f is not
        finite are left out, as are all N when f raises OverflowError or
        ZeroDivisionError.  For a decaying integrand that happens only at
        extreme nodes, where the double-exponential weight makes the term
        negligible.  Complex values raise TypeError.
    interval : (a, b)
        Endpoints; either may be infinite.
    spec : QuadratureSpec
        ``max_subdivisions`` bounds the number of nodes f is evaluated at.

    Returns
    -------
    QuadResult
        ``(value, error, converged)``: the last level and its distance to
        the level before.  On budget exhaustion the best estimate is
        returned with ``converged=False``.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"empty interval ({a}, {b})")
    inf_a, inf_b = math.isinf(a), math.isinf(b)
    if inf_a and inf_b:
        kind = "full"
    elif inf_b:
        kind = "up"
    elif inf_a:
        kind = "down"
    else:
        kind = "finite"
    return _double_exponential(f, kind, a, b, spec)


def integrate_nested(dims: Sequence[Sequence[float]], f: Callable,
                     spec: QuadratureSpec) -> QuadResult:
    """Iterated integral over a box, outermost dimension first.

    ``f`` takes ``len(dims)`` arguments: a float for each outer dimension
    and, last, the ndarray of nodes of the innermost one, with the return
    shape of an ``integrate_1d`` integrand.  Each new outer node gets one
    vectorized inner integral, run with tolerances tightened by 10x; the
    error estimate combines the outer error with the worst relative error
    of the inner integrals, and the converged flag is the conjunction
    across levels.
    """
    dims = [tuple(d) for d in dims]
    if not dims:
        raise ValueError("no dimensions")
    if len(dims) == 1:
        return integrate_1d(f, dims[0], spec)
    inner_spec = _tighter(spec)
    inner_rel = 0.0
    all_conv = True

    def g(xs):
        nonlocal inner_rel, all_conv
        vals = []
        for x in xs.tolist():
            res = integrate_nested(dims[1:], lambda *rest: f(x, *rest), inner_spec)
            all_conv = all_conv and res.converged
            inner_rel = max(inner_rel, res.error / max(_mag(res.value), spec.abs_tol))
            vals.append(res.value)
        return np.array(vals, dtype=float)

    outer = integrate_1d(g, dims[0], spec)
    err = outer.error + inner_rel * _mag(outer.value)
    return QuadResult(outer.value, err, outer.converged and all_conv)


# ---------------------------------------------------------------------------
# sphere rules

@lru_cache(maxsize=32)
def sphere2_nodes(order: int, fold: bool = False):
    """Product rule on S^2: Gauss-Legendre in cos(theta) x trapezoid in phi.

    Returns read-only (nodes, weights) with nodes of shape (N, 3); weights
    sum to 4*pi and the rule is exact for spherical polynomials up to the
    order.

    ``fold=True`` gives the rule folded onto antipodal pairs, for
    integrands even under n -> -n: half the nodes, weights doubled.  Node
    (i, k) (ring i, azimuth k) has its antipode at (order-1-i,
    (k+order) mod 2*order), so the first order^2 nodes -- the rings with
    cos(theta) < 0 and, for odd order, the half k < order of the equator
    -- hold one node of each pair.
    """
    if fold:
        n, w = sphere2_nodes(order)
        half = order * order
        w2 = 2.0 * w[:half]
        w2.setflags(write=False)
        return n[:half], w2
    mu, wmu = _leggauss(order)
    m = 2 * order
    phi = 2.0 * math.pi * np.arange(m) / m
    st = np.sqrt(1.0 - mu ** 2)
    n = np.empty((order * m, 3))
    n[:, 0] = np.repeat(st, m) * np.tile(np.cos(phi), order)
    n[:, 1] = np.repeat(st, m) * np.tile(np.sin(phi), order)
    n[:, 2] = np.repeat(mu, m)
    w = np.repeat(wmu, m) * (2.0 * math.pi / m)
    n.setflags(write=False)
    w.setflags(write=False)
    return n, w


@lru_cache(maxsize=32)
def sphere3_angles(order: int):
    """Angular grid for S^3 in coordinates (psi, theta, phi).

    The parametrization n = (cos psi, sin psi cos theta,
    sin psi sin theta cos phi, sin psi sin theta sin phi) covers the unit
    sphere for psi, theta in (0, pi), phi in (0, 2 pi).  Returned weights
    are the bare product of the angular rules; the surface Jacobian
    sin^2(psi) sin(theta) is left to the integrand.
    """
    xp, wp = _leggauss(order)
    psi = 0.5 * math.pi * (xp + 1.0)
    wpsi = 0.5 * math.pi * wp
    theta, wtheta = psi.copy(), wpsi.copy()
    m = 2 * order
    phi = 2.0 * math.pi * np.arange(m) / m
    wphi = np.full(m, 2.0 * math.pi / m)
    for arr in (psi, wpsi, theta, wtheta, phi, wphi):
        arr.setflags(write=False)
    return psi, wpsi, theta, wtheta, phi, wphi


# ---------------------------------------------------------------------------
# gamma

_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function via the Lanczos approximation (g = 7, 9 terms).

    Accurate to ~1e-13 relative on the range used by the closed forms in
    this package; poles at non-positive integers raise ValueError.
    """
    if x <= 0.0 and float(x).is_integer():
        raise ValueError(f"gamma pole at {x}")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc

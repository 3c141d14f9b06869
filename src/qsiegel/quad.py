"""Deterministic quadrature engine.

One `QuadratureSpec` controls every numerical integral in the package: a
vectorized double-exponential rule for 1-D integrals (tanh-sinh on finite
intervals, exp-sinh on half-lines, sinh-sinh on the full line) whose one
level loop runs any number of integrals over the same interval as the rows
of one array, 2-D iterated integration on top of it (the inner integrals
of all the new nodes of an outer level are such rows, one integrand call
per inner level), cached composite Gauss-Legendre grids
with panels doubling away from an endpoint (``panel_grid``), tensor-product
rules on the spheres S^2 and S^3 (on S^2 also folded onto antipodal pairs,
for integrands even under n -> -n).

Identical spec + integrand give bit-identical results across runs: the
engine is single-threaded, its node tables are built from scalar formulas
in a fixed order, and each level adds to a row's running sum numpy's
pairwise sum of its new terms over all the level's nodes, whatever other
rows share the batch.
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
]


class QuadratureError(Exception):
    """Raised when an integral cannot be brought within its budget."""


# 40/abs_tol is the largest ratio a u-grid's tail end is set from; 400
# keeps it finite for the 10x tighter inner spec of integrate_nested
_ABS_TOL_MIN = 400.0 / np.finfo(float).max


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the quadrature engine.

    Attributes
    ----------
    rel_tol, abs_tol : float
        Target relative/absolute error; a 1-D integral is accepted once the
        difference of two successive double-exponential levels is below
        max(abs_tol, rel_tol*|value|).  Both lie in (0, 1), and abs_tol
        is at least 400 over the largest float (about 2.2e-306), so that
        400/abs_tol is finite; anything else raises ValueError.
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
        # negated, so that NaN fails too
        if not (0.0 < self.rel_tol < 1.0 and _ABS_TOL_MIN <= self.abs_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1), and 400/abs_tol "
                             "must be finite")
        if self.max_subdivisions < 1 or self.sphere_order < 2:
            raise ValueError("budget out of range")


class QuadResult(NamedTuple):
    value: object          # float, or ndarray for vector integrands
    error: float
    converged: bool
    evals: int             # integrand evaluations (nodes, or nested points)
    levels: int            # last double-exponential level run (outer level)


def _tighter(spec: QuadratureSpec) -> QuadratureSpec:
    return replace(spec, rel_tol=max(spec.rel_tol * 0.1, math.ulp(0.0)),
                   abs_tol=max(spec.abs_tol * 0.1, _ABS_TOL_MIN))


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
    return _panel_rule(lo, first, hi)


def _panel_rule(lo: float, first: float, hi: float):
    """``panel_grid`` uncached, for callers that cache a table derived
    from the rule."""
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


def _eval_masked(f, x, w, active):
    """Sums over all the nodes x of the terms w*f(x) of the rows
    ``active``: shape (rows,), or (rows, k) for a vector integrand, with
    0.0 wherever f is not finite (in any component).  An OverflowError or
    ZeroDivisionError raised by a scalar factor of f masks the batch
    (returns None)."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fx = np.asarray(f(x, active))
    except (OverflowError, ZeroDivisionError):
        return None
    if np.iscomplexobj(fx):
        raise TypeError("complex integrand: return real and imaginary parts as columns")
    if fx.ndim not in (2, 3) or fx.shape[:2] != (active.size, x.size):
        raise ValueError(f"integrand returned shape {fx.shape} for "
                         f"{active.size} row(s) of {x.size} nodes")
    fx = fx.astype(float, copy=False)
    # nodes last and contiguous, so that each row's sum is pairwise
    f3 = np.ascontiguousarray(fx.reshape(active.size, x.size, -1).transpose(0, 2, 1))
    s = np.where(np.isfinite(f3).all(axis=1, keepdims=True), w * f3, 0.0).sum(axis=2)
    return s if fx.ndim == 3 else s[:, 0]


def _double_exponential(f, interval, spec: QuadratureSpec, nrows: int):
    """The level loop of ``nrows`` integrals over one interval.

    ``f(x, active)`` gives the values at the nodes x of the rows whose
    indices are in the array ``active``: shape (rows, nodes), or
    (rows, nodes, k) for k components.  The rows share the nodes and the
    budget; each keeps its own running sum of the terms of every level so
    far (masked ones as 0.0), level value (h times that sum), error and
    convergence test, and leaves the loop at its first converged level.
    Returns one QuadResult per row.
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
    out = [None] * nrows
    active = np.arange(nrows)
    total = None          # sum of w*f(x) of the active rows at every node so far
    evals, last = 0, _DE_LEVEL_MIN
    prev, err = None, np.full(nrows, math.inf)
    for level in range(_DE_LEVEL_MIN, _DE_LEVEL_MAX + 1):
        x, w = _de_rule(kind, level, a, b)
        if prev is not None and evals + x.size > spec.max_subdivisions:
            break
        evals, last = evals + x.size, level
        s = _eval_masked(f, x, w, active) if x.size else None
        if s is not None:
            total = s if total is None else total + s
        cur = np.zeros(active.size) if total is None else 2.0 ** (-level) * total
        if prev is not None:
            by_row = (active.size, -1)
            err = np.abs(cur - prev).reshape(by_row).max(axis=1)
            mag = np.abs(cur).reshape(by_row).max(axis=1)
            done = err <= np.maximum(spec.abs_tol, spec.rel_tol * mag)
            for i in np.flatnonzero(done).tolist():
                out[active[i]] = QuadResult(_row(cur, i), float(err[i]), True,
                                            evals, level)
            if done.all():
                return out
            keep = ~done
            active, cur, err = active[keep], cur[keep], err[keep]
            if total is not None:
                total = total[keep]
        prev = cur
    for i, r in enumerate(active.tolist()):
        out[r] = QuadResult(_row(prev, i), float(err[i]), False, evals, last)
    return out


def _row(values, i):
    """Row i of the level sums: a float, or an ndarray of components."""
    return values[i].item() if values.ndim == 1 else values[i]


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
        ``(value, error, converged, evals, levels)``: the last level, its
        distance to the level before, whether that met the tolerance, the
        number of nodes f was evaluated at and the last level run.  On
        budget exhaustion the best estimate is returned with
        ``converged=False``.
    """
    return _double_exponential(lambda x, active: np.asarray(f(x))[None],
                               interval, spec, 1)[0]


def integrate_nested(dims: Sequence[Sequence[float]], f: Callable,
                     spec: QuadratureSpec) -> QuadResult:
    """Iterated integral over a box of one or two dimensions, outer first.

    With one dimension this is ``integrate_1d``.  With two, ``f(x, y)``
    gets the outer nodes as an (R, 1) array ``x`` and the inner nodes as
    an (N,) array ``y``, and returns scalar values that broadcast to
    (R, N).  Each outer level integrates the inner dimension for all of its
    new outer nodes at once, one call of f per inner level, with
    tolerances tightened by 10x; every outer node keeps its own inner
    terms, error and convergence test, as a separate ``integrate_1d`` of
    ``lambda y: f(x, y)`` would.  Inner values where f is not finite are
    left out element by element.  The error estimate combines the outer
    error with the worst relative error of the inner integrals, the
    converged flag is the conjunction of all of them, ``evals`` counts the
    (x, y) points f was evaluated at and ``levels`` is the outer level.
    """
    dims = [tuple(d) for d in dims]
    if not 1 <= len(dims) <= 2:
        raise ValueError("integrate_nested takes one or two dimensions")
    if len(dims) == 1:
        return integrate_1d(f, dims[0], spec)
    inner_spec = _tighter(spec)
    inner = []

    def g(xs):
        col = xs[:, None]
        rows = _double_exponential(
            lambda y, active: np.broadcast_to(f(col[active], y), (active.size, y.size)),
            dims[1], inner_spec, xs.size)
        inner.extend(rows)
        return np.array([r.value for r in rows])

    outer = integrate_1d(g, dims[0], spec)
    inner_rel = max([0.0] + [r.error / max(abs(r.value), spec.abs_tol) for r in inner])
    return QuadResult(outer.value, outer.error + inner_rel * abs(outer.value),
                      outer.converged and all(r.converged for r in inner),
                      sum(r.evals for r in inner), outer.levels)


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

"""Quadrature engine: rules, double-exponential levels, nesting, sphere."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qsiegel import szego
from qsiegel.group import polar_constant
from qsiegel.quad import (QuadratureSpec, _double_exponential, integrate_1d,
                          integrate_nested, panel_grid, sphere2_nodes)


def test_spec_validates_budgets():
    # a tolerance must be finite and in (0, 1), and 400/abs_tol finite: a
    # NaN or >= 1 abs_tol cut the u-grids to [0, 0.5], 1e-320 made their
    # tail end inf, and inf failed inside math.log
    for tol in (0.0, -1e-9, 1.0, 100.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=tol)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=tol)
    for tol in (1e-320, 5e-324, 2e-307, 2.3e-307, 2.2e-306):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=tol)
    QuadratureSpec(abs_tol=2.3e-306, rel_tol=1e-320)
    QuadratureSpec(abs_tol=0.999, rel_tol=0.999)
    # the inner spec of integrate_nested, 10x tighter, is valid even at the
    # smallest tolerances a spec accepts
    tiny = QuadratureSpec(abs_tol=2.3e-306, rel_tol=5e-324, max_subdivisions=100)
    res = integrate_nested(((0.0, 1.0), (0.0, 1.0)), lambda x, y: x * y, tiny)
    assert abs(res.value - 0.25) <= 1e-12
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_panel_grid_doubles_panels_and_is_cached():
    x, w = panel_grid(0.0, 0.5, 5.0)
    edges = (0.0, 0.5, 1.0, 2.0, 4.0, 5.0)          # the last panel cut at 5
    # each panel the 24-point Gauss-Legendre rule mapped from [-1, 1]
    g, gw = np.polynomial.legendre.leggauss(24)
    rules = [(0.5 * (a + b) + 0.5 * (b - a) * g, 0.5 * (b - a) * gw)
             for a, b in zip(edges[:-1], edges[1:])]
    assert np.array_equal(x, np.concatenate([r[0] for r in rules]))
    assert np.array_equal(w, np.concatenate([r[1] for r in rules]))
    assert abs(np.dot(w, x ** 7) - 5.0 ** 8 / 8.0) <= 1e-12 * 5.0 ** 8
    assert panel_grid(0.0, 0.5, 5.0)[0] is x
    with pytest.raises(ValueError):
        x[0] = 1.0
    # off zero the first panel is [lo, lo + first], then edges double
    x, w = panel_grid(16.0, 0.5, 18.0)
    assert x.size == 2 * 24 and abs(w.sum() - 2.0) <= 1e-14
    assert np.all((16.0 < x) & (x < 18.0))


def test_integrate_1d_smooth(spec):
    res = integrate_1d(np.exp, (0.0, 1.0), spec)
    assert res.converged
    assert abs(res.value - (math.e - 1.0)) <= 1e-12 * (math.e - 1.0)
    assert res.error <= 1e-9 * res.value


def test_integrate_1d_interval_validation(spec):
    with pytest.raises(ValueError):
        integrate_1d(np.exp, (1.0, 1.0), spec)


def test_integrate_1d_rejects_bad_integrand_values(spec):
    with pytest.raises(ValueError):
        integrate_1d(lambda s: 1.0, (0.0, 1.0), spec)
    # a cast to float would drop the imaginary part without a word
    with pytest.raises(TypeError):
        integrate_1d(lambda s: np.exp(1j * s), (0.0, 1.0), spec)


def test_integrate_1d_semi_infinite_gaussian(spec):
    res = integrate_1d(lambda s: np.exp(-s * s), (0.0, math.inf), spec)
    assert res.converged
    assert abs(res.value - 0.5 * math.sqrt(math.pi)) <= 1e-10


def test_integrate_1d_lower_half_line(spec):
    res = integrate_1d(lambda s: s * np.exp(2.0 * s), (-math.inf, 0.0), spec)
    assert res.converged
    assert abs(res.value + 0.25) <= 1e-10


def test_tanh_sinh_algebraic_tail(spec):
    # 1/(1+s^2)^2 decays only algebraically; the exp-sinh rule still
    # resolves it
    res = integrate_1d(lambda s: (1.0 + s * s) ** -2, (0.0, math.inf), spec)
    assert res.converged
    assert abs(res.value - math.pi / 4.0) <= 1e-10


def test_integrate_1d_doubly_infinite(spec):
    res = integrate_1d(lambda s: np.exp(-s * s), (-math.inf, math.inf), spec)
    assert abs(res.value - math.sqrt(math.pi)) <= 1e-9


def test_integrate_1d_vector_valued(spec):
    # int_0^inf s exp(-sA) ds = A^-2 for A = 2 + 3i: split into re/im
    def f(s):
        e = np.exp(-2.0 * s)
        return np.stack([s * e * np.cos(3.0 * s), -s * e * np.sin(3.0 * s)], axis=1)

    res = integrate_1d(f, (0.0, math.inf), spec)
    expected = np.array([-5.0, -12.0]) / 169.0
    assert res.converged and res.value.shape == (2,)
    np.testing.assert_allclose(res.value, expected, rtol=0, atol=1e-11)


def test_integrate_1d_deterministic(spec):
    f = lambda s: np.sin(s) / (1.0 + s * s)
    a = integrate_1d(f, (0.0, 10.0), spec)
    b = integrate_1d(f, (0.0, 10.0), spec)
    assert a.value == b.value and a.error == b.error


def test_integrate_1d_budget_exhaustion():
    tiny = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=2)
    res = integrate_1d(lambda s: np.exp(-s) * np.sin(40.0 * s), (0.0, 30.0), tiny)
    assert not res.converged


def test_budget_counts_integrand_evaluations():
    # past the first level, no level is started that would overrun the budget
    sizes = []

    def f(s):
        sizes.append(s.size)
        return np.exp(-s) * np.sin(40.0 * s)

    budget = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=300)
    res = integrate_1d(f, (0.0, 30.0), budget)
    assert not res.converged
    assert len(sizes) >= 2 and sum(sizes) <= 300
    # the result reports the evaluations and the last level run
    assert res.evals == sum(sizes)
    assert res.levels == 2 + len(sizes) - 1


def _final_level_nodes(level, a, b):
    """Every node of a tanh-sinh level on (a, b), from the scalar map."""
    h = 2.0 ** -level
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = []
    for j in range(-int(6.8 / h), int(6.8 / h) + 1):
        u = 0.5 * math.pi * math.sinh(j * h)
        x = mid + half * math.tanh(u)
        ch = math.cosh(u)
        w = half * 0.5 * math.pi * math.cosh(j * h) / (ch * ch)
        if a < x < b and math.isfinite(w) and w != 0.0:
            nodes.append(x)
    return sorted(nodes)


def test_levels_evaluate_each_node_once(spec):
    seen, calls = [], []

    def f(s):
        calls.append(s.size)
        seen.extend(s.tolist())
        return np.exp(-s) * np.cos(3.0 * s)

    res = integrate_1d(f, (0.5, 4.0), spec)
    assert res.converged and len(calls) >= 3
    # one batch per level, starting at level 2; together they are exactly
    # the final level's nodes, each seen once
    final = 2 + len(calls) - 1
    assert sorted(seen) == _final_level_nodes(final, 0.5, 4.0)
    exact = (math.exp(-0.5) * (math.cos(1.5) - 3.0 * math.sin(1.5))
             - math.exp(-4.0) * (math.cos(12.0) - 3.0 * math.sin(12.0))) / 10.0
    assert abs(res.value - exact) <= 1e-10 * abs(exact)


def test_integrand_overflow_at_extreme_nodes(spec):
    # s^9 overflows and e^-s underflows at the far exp-sinh nodes (inf * 0
    # is nan there); cosh s overflows against the Gaussian on the full line
    res = integrate_1d(lambda s: s ** 9 * np.exp(-s), (0.0, math.inf), spec)
    assert res.converged
    assert abs(res.value - math.factorial(9)) <= 1e-9 * math.factorial(9)
    res = integrate_1d(lambda s: np.exp(-s * s) * np.cosh(s),
                       (-math.inf, math.inf), spec)
    exact = math.sqrt(math.pi) * math.exp(0.25)
    assert res.converged
    assert abs(res.value - exact) <= 1e-9 * exact


_DE_ROWS = (
    lambda s: s * s * np.exp(-s),
    lambda s: 1.0 / (1.0 + s * s),
    # inf * 0 is NaN at the far exp-sinh nodes
    lambda s: s ** 3 * np.exp(s) * np.exp(-2.0 * s),
)


@pytest.mark.parametrize("vector", [False, True])
def test_de_rows_independent_of_their_companions(spec, vector):
    # each row's level sums run over the same nodes whatever rows share the
    # batch, so a row's result equals its single-row run bit for bit
    def batch(rows):
        def f(x, active):
            vals = np.array([rows[i](x) for i in active.tolist()])
            return np.stack((vals, vals * np.exp(-x)), axis=2) if vector else vals
        return f

    def key(res):
        return (np.asarray(res.value).tobytes(), res.error, res.converged,
                res.evals, res.levels)

    with np.errstate(all="ignore"):
        assert np.isnan(_DE_ROWS[2](np.array([1e300]))).all()
    together = _double_exponential(batch(_DE_ROWS), (0.0, math.inf), spec, 3)
    assert all(r.converged for r in together)
    assert len({r.levels for r in together}) > 1
    for i in (0, 1):
        alone = _double_exponential(batch(_DE_ROWS[i:i + 1]), (0.0, math.inf),
                                    spec, 1)
        assert key(together[i]) == key(alone[0])


def test_nested_scalar_factor_overflow(spec):
    # x ** 3 on a Python float beyond ~5.6e102 raises OverflowError; the
    # outer nodes arrive as an (R, 1) array, where it gives inf, and
    # inf * exp(-x - y) = inf * 0 is NaN: such rows are masked element by
    # element and the integral still converges
    with pytest.raises(OverflowError):
        1e200 ** 3
    res = integrate_nested(((0.0, math.inf), (0.0, math.inf)),
                           lambda x, y: x ** 3 * np.exp(-x - y), spec)
    assert res.converged
    assert abs(res.value - 6.0) <= 1e-9 * 6.0


def test_integrate_nested_fubini(spec):
    res = integrate_nested(((0.0, 1.0), (0.0, 2.0)),
                           lambda x, y: np.exp(-x - y), spec)
    exact = (1.0 - math.exp(-1.0)) * (1.0 - math.exp(-2.0))
    assert res.converged
    assert abs(res.value - exact) <= 1e-9 * exact


def test_integrate_nested_semi_infinite(spec):
    res = integrate_nested(((0.0, math.inf), (0.0, math.inf)),
                           lambda x, y: np.exp(-x * x - y * y), spec)
    assert abs(res.value - math.pi / 4.0) <= 1e-7


def _nested_reference(dims, f, spec):
    """The per-node loop integrate_nested replaced: one integrate_1d per
    outer node.  f gets x as a (1, 1) array, as integrate_nested's (R, 1)
    column: for a Python float ``rho ** 3`` would be libm's pow, which
    differs from numpy's array power in the last bit at some x."""
    inner_spec = replace(spec, rel_tol=spec.rel_tol * 0.1, abs_tol=spec.abs_tol * 0.1)
    inner_rel = 0.0
    all_conv = True

    def g(xs):
        nonlocal inner_rel, all_conv
        vals = []
        for x in xs.tolist():
            xa = np.array([[x]])
            res = integrate_1d(lambda y: np.broadcast_to(f(xa, y), (1, y.size))[0],
                               dims[1], inner_spec)
            all_conv = all_conv and res.converged
            mag = float(np.max(np.abs(res.value)))
            inner_rel = max(inner_rel, res.error / max(mag, spec.abs_tol))
            vals.append(res.value)
        return np.array(vals, dtype=float)

    outer = integrate_1d(g, dims[0], spec)
    err = outer.error + inner_rel * float(np.max(np.abs(outer.value)))
    return outer.value, err, outer.converged and all_conv


_NESTED_CASES = {
    # both polar profiles: half-line inner
    "polar_gauss": (((0.0, math.inf), (0.0, math.inf)),
                    lambda rho, r: np.exp(-(rho * rho + r)) * rho ** 3 * r * r),
    "polar_exp": (((0.0, math.inf), (0.0, math.inf)),
                  lambda rho, r: np.exp(-np.sqrt(rho * rho + r)) * rho ** 3 * r * r),
    # finite inner; the oscillation grows with x, so the rows converge at
    # different inner levels
    "finite": (((0.0, 6.0), (-1.0, 2.0)),
               lambda x, y: np.cos(x * y) * np.exp(-0.5 * y)),
    # full-line inner; exp(x y) overflows against exp(-y^2) far out, so
    # each row is masked on its own set of nodes
    "partly_non_finite": (((0.0, 3.0), (-math.inf, math.inf)),
                          lambda x, y: np.exp(x * y) * np.exp(-y * y)),
    # rows beyond x ~ 5.6e102 are NaN at every inner node
    "wholly_non_finite": (((0.0, math.inf), (0.0, math.inf)),
                          lambda x, y: x ** 3 * np.exp(-x - y)),
}


@pytest.mark.parametrize("case", sorted(_NESTED_CASES))
def test_nested_rows_equal_per_node_loop(spec, case):
    dims, f = _NESTED_CASES[case]
    calls = []

    def spy(x, y):
        calls.append((np.shape(x), np.shape(y)))
        return f(x, y)

    res = integrate_nested(dims, spy, spec)
    assert (res.value, res.error, res.converged) == _nested_reference(dims, f, spec)
    # outer nodes arrive as an (R, 1) column; the rows of one outer level
    # share each inner level's nodes, one call per inner level
    assert all(len(xs) == 2 and xs[1] == 1 and len(ys) == 1 for xs, ys in calls)
    assert res.evals == sum(xs[0] * ys[0] for xs, ys in calls)
    # at most one call per (outer level, inner level); levels run from 2
    # to 12
    assert len(calls) <= (res.levels - 1) * 11
    if case == "finite":
        # a converged row leaves the next inner level's call
        rows = [xs[0] for xs, _ in calls]
        assert any(b < a for a, b in zip(rows, rows[1:]))


def test_nested_dimension_count(spec):
    res = integrate_nested(((0.0, 1.0),), np.exp, spec)
    assert res == integrate_1d(np.exp, (0.0, 1.0), spec)
    for dims in ((), ((0.0, 1.0),) * 3):
        with pytest.raises(ValueError):
            integrate_nested(dims, lambda x, y, z: np.exp(-x - y - z), spec)


def test_de_verify_values_pinned(spec):
    # the six double-exponential values of the verify suite, bit for bit,
    # and each within 2 ulp of its value when every level was summed
    # with the correctly rounded math.fsum
    polar = 20.670851120199877
    pins = {
        "polar_gauss": (polar_constant(lambda s: np.exp(-s * s), spec), polar, polar),
        "polar_exp": (polar_constant(lambda s: np.exp(-s), spec), polar, polar),
        "gamma": (szego.gamma_integral(spec),
                  0.06135923151542564, 0.06135923151542565),
        "delta": (szego.delta_integral(spec),
                  0.016666666666666663, 0.016666666666666666),
        "verify_k": (szego.verify_k(spec),
                     0.0038497433455063164, 0.0038497433455063164),
        "verify_reproducing": (szego.verify_reproducing(spec),
                               0.03125000000000251, 0.03125000000000251),
    }
    for name, (got, pin, fsum_pin) in pins.items():
        assert got == pin, name
        assert abs(got - fsum_pin) <= 2.0 * math.ulp(fsum_pin), name


def test_sphere_nodes_weights():
    nodes, w = sphere2_nodes(16)
    assert nodes.shape == (len(w), 3)
    np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-14)
    assert abs(np.sum(w) - 4.0 * math.pi) <= 1e-12
    # odd moments vanish, second moments are 4pi/3 delta_ij
    np.testing.assert_allclose(w @ nodes, 0.0, atol=1e-13)
    sec = nodes.T @ (w[:, None] * nodes)
    np.testing.assert_allclose(sec, (4.0 * math.pi / 3.0) * np.eye(3), atol=1e-12)


def test_sphere_rule_spherical_harmonic_exactness():
    nodes, w = sphere2_nodes(8)
    # degree-4 polynomial: int n1^4 = 4pi/5
    assert abs(np.sum(w * nodes[:, 0] ** 4) - 4.0 * math.pi / 5.0) <= 1e-12


@pytest.mark.parametrize("order", [7, 8])
def test_sphere_rule_fold_onto_antipodal_pairs(order):
    nodes, w = sphere2_nodes(order)
    half, wh = sphere2_nodes(order, fold=True)
    assert half.shape == (len(w) // 2, 3) and wh.shape == (len(w) // 2,)
    assert abs(np.sum(wh) - 4.0 * math.pi) <= 1e-12
    # one node of each antipodal pair: the fold and its mirror image give
    # back the full node set
    both = np.vstack([half, -half])
    dist = np.linalg.norm(nodes[:, None, :] - both[None, :, :], axis=2)
    assert np.all(dist.min(axis=1) <= 1e-14)
    assert np.all(np.sort(dist, axis=1)[:, 1] > 1e-3)
    # even moments of the full rule
    n1, n2 = nodes[:, 0], nodes[:, 1]
    h1, h2 = half[:, 0], half[:, 1]
    for full, folded in ((n1 ** 2, h1 ** 2), (n1 ** 4, h1 ** 4),
                         (n1 ** 2 * n2 ** 2, h1 ** 2 * h2 ** 2)):
        assert abs(np.dot(wh, folded) - np.dot(w, full)) <= 1e-13
    assert sphere2_nodes(order, fold=True)[1] is wh
    with pytest.raises(ValueError):
        wh[0] = 1.0

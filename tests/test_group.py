"""H-type group law, dilations, homogeneous structure, polar constant."""

import math

import numpy as np
import pytest

from qsiegel.quat import Quaternion
from qsiegel.quad import integrate_1d
from qsiegel.group import (GroupElement, IDENTITY, gmul, dilate,
                           homogeneous_norm, polar_constant, HOMOGENEOUS_DIM)


def _rand_el(rng):
    return GroupElement(Quaternion(*rng.normal(size=4)), tuple(rng.normal(size=3)))


def test_homogeneous_dimension():
    # 4 horizontal directions + 2 * 3 central directions
    assert HOMOGENEOUS_DIM == 10


def test_group_law_center_increment(rng):
    # t'' = t + s - 2 Im(conj(omega) w), componentwise
    for _ in range(200):
        g, h = _rand_el(rng), _rand_el(rng)
        prod = gmul(g, h)
        assert prod.w == g.w + h.w
        im = (h.w.conj() * g.w).imag()
        for k in range(3):
            expect = g.t[k] + h.t[k] - 2.0 * im[k]
            assert abs(prod.t[k] - expect) <= 1e-12 * max(1.0, abs(expect))


def test_associativity(rng):
    for _ in range(2000):
        g, h, k = _rand_el(rng), _rand_el(rng), _rand_el(rng)
        a, b = gmul(gmul(g, h), k), gmul(g, gmul(h, k))
        assert (a.w - b.w).norm() <= 1e-11
        assert max(abs(x - y) for x, y in zip(a.t, b.t)) <= 1e-11


def test_identity_and_inverse(rng):
    for _ in range(500):
        g = _rand_el(rng)
        assert gmul(g, IDENTITY) == g
        assert gmul(IDENTITY, g) == g
        e = gmul(g, g.inverse())
        assert e.w.norm() <= 1e-12
        assert max(abs(x) for x in e.t) <= 1e-12


def test_noncommutative_center():
    g = GroupElement(Quaternion(1.0), (0.0, 0.0, 0.0))
    h = GroupElement(Quaternion(0.0, 1.0), (0.0, 0.0, 0.0))
    a, b = gmul(g, h), gmul(h, g)
    assert a.w == b.w
    assert a.t != b.t                     # central coordinates differ
    assert a.t[0] == -b.t[0] != 0.0


def test_dilation_is_automorphism(rng):
    for _ in range(500):
        g, h = _rand_el(rng), _rand_el(rng)
        r = float(rng.uniform(0.2, 3.0))
        a = dilate(r, gmul(g, h))
        b = gmul(dilate(r, g), dilate(r, h))
        assert (a.w - b.w).norm() <= 1e-12
        assert max(abs(x - y) for x, y in zip(a.t, b.t)) <= 1e-11


def test_dilation_norm_homogeneity(rng):
    for _ in range(500):
        g = _rand_el(rng)
        r = float(rng.uniform(0.1, 5.0))
        assert abs(homogeneous_norm(dilate(r, g)) - r * homogeneous_norm(g)) <= 1e-11


def test_homogeneous_norm_marginals():
    w = Quaternion(3.0, 0.0, 4.0, 0.0)
    assert abs(homogeneous_norm(GroupElement(w, (0.0, 0.0, 0.0))) - 5.0) <= 1e-14
    g = GroupElement(Quaternion(), (0.0, 9.0, 0.0))
    assert abs(homogeneous_norm(g) - 3.0) <= 1e-14


def test_norm_symmetric_under_inverse(rng):
    g = _rand_el(rng)
    assert abs(homogeneous_norm(g.inverse()) - homogeneous_norm(g)) <= 1e-12


def test_polar_constant_gaussian(spec):
    v = polar_constant(lambda s: np.exp(-s * s), spec)
    assert abs(v - 2.0 * math.pi ** 3 / 3.0) <= 1e-9 * v


def test_polar_constant_profile_independent(spec):
    v = polar_constant(lambda s: np.exp(-s), spec)
    w = polar_constant(lambda s: (1.0 + s * s) ** -6, spec)
    assert abs(v - 2.0 * math.pi ** 3 / 3.0) <= 1e-8 * v
    assert abs(w - 2.0 * math.pi ** 3 / 3.0) <= 1e-7 * w


def test_haar_dilation_factor(spec):
    # Lebesgue measure on (w, t) picks up delta^Q under dilation; measure
    # it from the two radial reductions of a product Gaussian
    def mass(delta):
        r4 = integrate_1d(lambda r: np.exp(-(delta * r) ** 2) * r ** 3,
                          (0.0, math.inf), spec)
        r3 = integrate_1d(lambda s: np.exp(-(delta ** 2 * s) ** 2) * s * s,
                          (0.0, math.inf), spec)
        return (2.0 * math.pi ** 2 * r4.value) * (4.0 * math.pi * r3.value)

    delta = 1.37
    measured = math.log(mass(1.0) / mass(delta)) / math.log(delta)
    assert abs(measured - HOMOGENEOUS_DIM) <= 1e-4 * HOMOGENEOUS_DIM


def test_integrability_threshold(spec):
    # |g|^-p is integrable near infinity iff p > Q; the polar reduction
    # shows the borderline divergence at p = Q = 10
    tail8 = integrate_1d(lambda s: s ** 9 * (1.0 + s) ** -8, (1.0, 200.0), spec)
    tail12 = integrate_1d(lambda s: s ** 9 * (1.0 + s) ** -12, (1.0, 2000.0), spec)
    assert tail8.value > 1e2          # grows with the cutoff, clearly divergent
    assert tail12.value < 1.0         # truncation tail is O(cutoff^-2)


def _row(g, i):
    """Row i of a batch as a scalar GroupElement."""
    return GroupElement(Quaternion(*(float(c[i]) for c in g.w.components())),
                        tuple(v[i] for v in g.t))


def test_batch_group_ops_equal_scalar_rows(rng):
    x = rng.normal(size=(14, 300))
    r = rng.uniform(0.1, 3.0, size=300)
    g = GroupElement(Quaternion(*x[:4]), x[4:7])
    h = GroupElement(Quaternion(*x[7:11]), x[11:14])
    prod, inv = gmul(g, h), g.inverse()
    dil, dil_one = dilate(r, g), dilate(1.7, g)
    norm = homogeneous_norm(g)
    assert isinstance(norm, np.ndarray)
    for i in range(300):
        gi, hi = _row(g, i), _row(h, i)
        assert _row(prod, i) == gmul(gi, hi)
        assert _row(inv, i) == gi.inverse()
        assert _row(dil, i) == dilate(float(r[i]), gi)
        assert _row(dil_one, i) == dilate(1.7, gi)
        # math.hypot per row, as in the scalar gauge
        assert norm[i] == homogeneous_norm(gi)


def test_scalar_group_ops_return_python_floats():
    g = GroupElement(Quaternion(0.3, -0.1, 0.2, 0.5), (0.4, -0.2, 0.7))
    assert type(homogeneous_norm(g)) is float
    assert all(type(v) is float for v in gmul(g, g).t)
    assert all(type(v) is float for v in dilate(np.float64(2.0), g).t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dilate_rejects_non_finite_factor(bad):
    # NaN fails every comparison, so the guard is the negated "r > 0"
    with pytest.raises(ValueError):
        dilate(bad, IDENTITY)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
def test_batch_dilate_rejects_any_nonpositive_factor(rng, bad):
    x = rng.normal(size=(7, 40))
    r = rng.uniform(0.1, 3.0, size=40)
    r[23] = bad
    with pytest.raises(ValueError):
        dilate(r, GroupElement(Quaternion(*x[:4]), x[4:]))

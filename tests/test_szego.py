"""Reproducing kernel of the domain: constants, pairing, convolution form."""

import math

import numpy as np
import pytest

from qsiegel.quat import Quaternion, ONE
from qsiegel.group import GroupElement
from qsiegel.siegel import SiegelPoint, boundary_point
from qsiegel.szego import (K_ANALYTIC, C_KERNEL, r_pair, szego_kernel,
                           k_eps, gamma_integral, delta_integral,
                           radial_kernel_integral, verify_k, verify_reproducing)


def test_analytic_constant():
    assert abs(K_ANALYTIC - 3.0 / (8.0 * math.pi ** 4)) <= 1e-18


def test_gamma_integral(spec):
    want = 5.0 * math.pi / 256.0
    assert abs(gamma_integral(spec) - want) <= 1e-9 * want


def test_delta_integral(spec):
    assert abs(delta_integral(spec) - 1.0 / 60.0) <= 1e-9 / 60.0


def test_radial_kernel_integral(spec):
    # combined radial reduction; pi/3072 = (pi^4/384) / (alpha beta)
    want = math.pi / 3072.0
    assert abs(radial_kernel_integral(spec) - want) <= 1e-8 * want


def test_verify_k(spec):
    got = verify_k(spec)
    assert abs(got - K_ANALYTIC) <= 1e-7 * K_ANALYTIC


def test_verify_reproducing(spec):
    assert abs(verify_reproducing(spec) - 2.0 ** -5) <= 1e-6


def test_verify_reproducing_is_the_normalization_again(spec):
    # the chain runs on verify_k's radial integral, so it equals
    # K_ANALYTIC / (32 verify_k) up to rounding: it adds no new integral
    want = K_ANALYTIC / (32.0 * verify_k(spec))
    assert abs(verify_reproducing(spec) - want) <= 4 * np.spacing(want)


def test_r_pair_hermitian(rng):
    for _ in range(200):
        p = SiegelPoint(Quaternion(*rng.normal(size=4)),
                        Quaternion(*rng.normal(size=4)))
        w = SiegelPoint(Quaternion(*rng.normal(size=4)),
                        Quaternion(*rng.normal(size=4)))
        assert (r_pair(p, w) - r_pair(w, p).conj()).norm() <= 1e-13


def test_r_pair_diagonal_is_height(rng):
    from qsiegel.siegel import height
    for _ in range(200):
        p = SiegelPoint(Quaternion(*rng.normal(size=4)),
                        Quaternion(*rng.normal(size=4)))
        r = r_pair(p, p)
        assert r.imag_norm() <= 1e-13
        assert abs(r.t - height(p)) <= 1e-13


def test_r_pair_vanishes_at_coincident_boundary(rng):
    bp = boundary_point(Quaternion(*rng.normal(size=4)), tuple(rng.normal(size=3)))
    assert r_pair(bp, bp).norm() <= 1e-13


def test_szego_kernel_base_point():
    # S((0,1), (0,1)) = k * 1^-5 = k
    base = SiegelPoint(Quaternion(), Quaternion(1.0))
    v = szego_kernel(base, base)
    assert (v - ONE * K_ANALYTIC).norm() <= 1e-15


def test_szego_kernel_pole(rng):
    bp = boundary_point(Quaternion(*rng.normal(size=4)), tuple(rng.normal(size=3)))
    with pytest.raises(ZeroDivisionError):
        szego_kernel(bp, bp)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_szego_kernel_rejects_non_finite_point(bad):
    base = SiegelPoint(Quaternion(), Quaternion(1.0))
    for p in (SiegelPoint(Quaternion(), Quaternion(bad)),
              SiegelPoint(Quaternion(0.0, bad), Quaternion(1.0)),
              SiegelPoint(Quaternion(), Quaternion(1.0, 0.0, 0.0, bad))):
        with pytest.raises(ValueError):
            szego_kernel(p, base)
        with pytest.raises(ValueError):
            szego_kernel(base, p)


def test_szego_kernel_hermitian(rng):
    for _ in range(50):
        p = SiegelPoint(Quaternion(*rng.normal(size=4)),
                        Quaternion(6.0 + abs(rng.normal()), *rng.normal(size=3)))
        w = SiegelPoint(Quaternion(*rng.normal(size=4)),
                        Quaternion(6.0 + abs(rng.normal()), *rng.normal(size=3)))
        a, b = szego_kernel(p, w), szego_kernel(w, p)
        assert (a - b.conj()).norm() <= 1e-12 * a.norm()


def test_k_eps_constant_and_decay():
    assert abs(C_KERNEL - 32.0 * K_ANALYTIC) <= 1e-18
    assert abs(C_KERNEL - 12.0 / math.pi ** 4) <= 1e-16
    g = GroupElement(Quaternion(1.0, 0.5, 0.0, 0.0), (0.3, -0.2, 0.1))
    v1 = k_eps(g, 1.0)
    v2 = k_eps(g, 4.0)
    assert v2.norm() < v1.norm()


def test_k_eps_identity_value():
    # at the group identity the base is eps, so K_eps = c eps^-5
    g = GroupElement(Quaternion(), (0.0, 0.0, 0.0))
    v = k_eps(g, 2.0)
    want = 32.0 * K_ANALYTIC * 2.0 ** -5
    assert abs(v.t - want) <= 1e-15
    assert v.imag_norm() == 0.0
    with pytest.raises(ZeroDivisionError):
        k_eps(g, 0.0)


def test_k_eps_cauchy_sequence():
    # pointwise limit as eps -> 0 exists away from the identity: successive
    # differences shrink linearly in eps
    g = GroupElement(Quaternion(0.9, -0.3, 0.2, 0.4), (0.5, 0.1, -0.7))
    eps = [0.2 * 2.0 ** -j for j in range(6)]
    vals = [k_eps(g, e) for e in eps]
    gaps = [(vals[j + 1] - vals[j]).norm() for j in range(5)]
    for j in range(4):
        assert gaps[j + 1] < 0.75 * gaps[j]


def test_k_eps_matches_kernel_at_lifted_point():
    # K_eps(g) = c r((0, eps?), .)^-5 structure: against the direct pairing
    # S(q, omega) with q the lifted boundary point raised by eps
    g = GroupElement(Quaternion(0.4, 0.1, -0.2, 0.3), (0.2, -0.5, 0.6))
    eps = 0.7
    v = k_eps(g, eps)
    w = g.w
    base = Quaternion(w.norm_sq() + eps, *g.t)
    want = Quaternion(32.0 * K_ANALYTIC) * _real_power_m5(base)
    assert (v - want).norm() <= 1e-14 * v.norm()


def _real_power_m5(q):
    from qsiegel.quat import real_power
    return real_power(q, -5.0)

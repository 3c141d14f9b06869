"""Quaternion arithmetic: multiplication table, matrix view, powers."""

import math

import numpy as np
import pytest

from qsiegel.quat import (Quaternion, ZERO, ONE, I1, I2, I3, scalar_product,
                          to_matrix, exp_imag, real_power)


def _rand(rng):
    return Quaternion(*rng.normal(size=4))


def test_unit_multiplication_table():
    assert I1 * I2 == I3
    assert I2 * I3 == I1
    assert I3 * I1 == I2
    assert I2 * I1 == -I3
    assert I3 * I2 == -I1
    assert I1 * I3 == -I2
    for u in (I1, I2, I3):
        assert u * u == Quaternion(-1.0)


def test_one_is_identity(rng):
    q = _rand(rng)
    assert ONE * q == q
    assert q * ONE == q


def test_norm_multiplicative(rng):
    for _ in range(10_000):
        q, h = _rand(rng), _rand(rng)
        assert abs((q * h).norm() - q.norm() * h.norm()) <= 1e-12 * q.norm() * h.norm()


def test_conjugation_antiautomorphism(rng):
    for _ in range(500):
        q, h = _rand(rng), _rand(rng)
        assert ((q * h).conj() - h.conj() * q.conj()).norm() <= 1e-13 * (q * h).norm()


def test_norm_via_conjugate(rng):
    q = _rand(rng)
    prod = q * q.conj()
    assert prod.imag_norm() <= 1e-13
    assert abs(prod.t - q.norm_sq()) <= 1e-12 * q.norm_sq()


def test_inverse(rng):
    for _ in range(200):
        q = _rand(rng)
        assert (q * q.inverse() - ONE).norm() <= 1e-12
        assert (q.inverse() * q - ONE).norm() <= 1e-12
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_scalar_product_is_real_part_of_qhbar(rng):
    for _ in range(200):
        q, h = _rand(rng), _rand(rng)
        assert abs(scalar_product(q, h) - (q * h.conj()).t) <= 1e-12


def test_matrix_is_left_multiplication(rng):
    for _ in range(500):
        q, h = _rand(rng), _rand(rng)
        np.testing.assert_allclose(to_matrix(q) @ h.to_array(),
                                   (q * h).to_array(), rtol=0, atol=1e-12)


def test_matrix_homomorphism(rng):
    for _ in range(500):
        q, h = _rand(rng), _rand(rng)
        np.testing.assert_allclose(to_matrix(q) @ to_matrix(h),
                                   to_matrix(q * h), rtol=0, atol=1e-12)


def test_matrix_transpose_is_conjugate(rng):
    # the transpose represents conj(q); M(q)^T = -M(q) only for Re q = 0
    q = _rand(rng)
    np.testing.assert_array_equal(to_matrix(q).T, to_matrix(q.conj()))
    p = Quaternion(0.0, 1.0, -2.0, 0.5)
    np.testing.assert_array_equal(to_matrix(p).T, -to_matrix(p))


def test_matrix_determinant(rng):
    for _ in range(500):
        q = _rand(rng)
        assert abs(np.linalg.det(to_matrix(q)) - q.norm() ** 4) <= 1e-12 * q.norm() ** 4


def test_exp_imag_unit_sphere(rng):
    for _ in range(200):
        v = rng.normal(size=3)
        assert abs(exp_imag(v).norm() - 1.0) <= 1e-14


def test_exp_imag_axis_euler():
    th = 0.7
    e = exp_imag((th, 0.0, 0.0))
    assert abs(e.t - math.cos(th)) <= 1e-15
    assert abs(e.a - math.sin(th)) <= 1e-15
    assert e.b == e.c == 0.0
    assert exp_imag((0.0, 0.0, 0.0)) == ONE


def test_exp_imag_inverse_is_negated_argument(rng):
    v = rng.normal(size=3)
    assert (exp_imag(v) * exp_imag(-v) - ONE).norm() <= 1e-15


def test_real_power_matches_repeated_product(rng):
    for _ in range(100):
        q = _rand(rng)
        assert (real_power(q, 2.0) - q * q).norm() <= 1e-12 * q.norm_sq()
        assert (real_power(q, 3.0) - q * q * q).norm() <= 1e-11 * q.norm() ** 3


def test_real_power_roundtrip(rng):
    for _ in range(100):
        q = _rand(rng)
        assert (real_power(q, 4.0) * real_power(q, -4.0) - ONE).norm() <= 1e-12


def test_real_power_sqrt(rng):
    q = _rand(rng)
    r = real_power(q, 0.5)
    assert (r * r - q).norm() <= 1e-12 * q.norm()


def test_real_power_norm_identity(rng):
    # |q^p| = |q|^p also for fractional p
    q = _rand(rng)
    assert abs(real_power(q, -2.5).norm() - q.norm() ** -2.5) <= 1e-12 * q.norm() ** -2.5


def test_real_power_real_edge_cases():
    assert real_power(Quaternion(-2.0), 3.0) == Quaternion(-8.0)
    assert real_power(Quaternion(4.0), 0.5) == Quaternion(2.0)
    with pytest.raises(ValueError):
        real_power(Quaternion(-2.0), 0.5)
    with pytest.raises(ZeroDivisionError):
        real_power(ZERO, 2.0)


def test_component_views():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert q.components() == (1.0, 2.0, 3.0, 4.0)
    assert q.imag() == (2.0, 3.0, 4.0)
    np.testing.assert_array_equal(q.to_array(), [1.0, 2.0, 3.0, 4.0])


def _row(q, i):
    """Row i of a batch as a scalar Quaternion."""
    return Quaternion(*(float(c[i]) for c in q.components()))


def test_batch_ops_equal_scalar_rows(rng):
    x = rng.normal(size=(8, 300))
    r = rng.uniform(0.1, 3.0, size=300)
    q, h = Quaternion(*x[:4]), Quaternion(*x[4:])
    prod, norm, inv = q * h, q.norm(), q.inverse()
    left, right = q * r, r * q
    mats = to_matrix(q)
    assert isinstance(norm, np.ndarray) and mats.shape == (300, 4, 4)
    for i in range(300):
        qi, hi = _row(q, i), _row(h, i)
        assert _row(prod, i) == qi * hi
        assert norm[i] == qi.norm()
        assert _row(inv, i) == qi.inverse()
        assert _row(left, i) == qi * float(r[i]) == _row(right, i)
        np.testing.assert_array_equal(mats[i], to_matrix(qi))


def test_scalar_ops_return_python_floats():
    q = Quaternion(1.0, 2.0, -3.0, 0.5)
    assert type(q.norm()) is float
    assert all(type(v) is float for v in q.inverse().components())
    assert all(type(v) is float for v in (q * 2.0).components())
    assert to_matrix(q).shape == (4, 4)


def test_batch_inverse_rejects_any_zero_row(rng):
    x = rng.normal(size=(4, 50))
    x[:, 31] = 0.0
    with pytest.raises(ZeroDivisionError):
        Quaternion(*x).inverse()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inverse_rejects_non_finite_rows(rng, bad):
    with pytest.raises(ValueError):
        Quaternion(1.0, 0.0, bad, 0.0).inverse()
    x = rng.normal(size=(4, 50))
    x[3, 17] = bad
    with pytest.raises(ValueError):
        Quaternion(*x).inverse()

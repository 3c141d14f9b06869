"""Siegel domain geometry: Cayley map, group action, boundary charts."""

import math

import numpy as np
import pytest

from qsiegel.quat import Quaternion
from qsiegel.group import GroupElement, gmul, dilate
from qsiegel.siegel import (SiegelPoint, BallPoint, PoleError, BoundaryError,
                            cayley_to_siegel, cayley_to_ball, act, height,
                            boundary_point, boundary_coords, rotate)


def _rand_quat(rng):
    return Quaternion(*rng.normal(size=4))


def _rand_el(rng):
    return GroupElement(_rand_quat(rng), tuple(rng.normal(size=3)))


def _interior_point(rng):
    # height > 0 guaranteed by construction
    q1 = _rand_quat(rng)
    q2 = Quaternion(q1.norm_sq() + abs(rng.normal()) + 0.1, *rng.normal(size=3))
    return SiegelPoint(q1, q2)


def _ball_interior(rng):
    while True:
        h = 0.5 * rng.normal(size=8)
        if np.dot(h, h) < 0.9:
            return BallPoint(Quaternion(*h[:4]), Quaternion(*h[4:]))


def test_height_positive_on_domain(rng):
    for _ in range(200):
        assert height(_interior_point(rng)) > 0.0


def test_cayley_roundtrip_ball(rng):
    for _ in range(1000):
        b = _ball_interior(rng)
        b2 = cayley_to_ball(cayley_to_siegel(b))
        assert (b.h1 - b2.h1).norm() <= 1e-11
        assert (b.h2 - b2.h2).norm() <= 1e-11


def test_cayley_roundtrip_siegel(rng):
    for _ in range(1000):
        p = _interior_point(rng)
        p2 = cayley_to_siegel(cayley_to_ball(p))
        scale = max(1.0, p.q2.norm())
        assert (p.q1 - p2.q1).norm() <= 1e-11 * scale
        assert (p.q2 - p2.q2).norm() <= 1e-11 * scale


def test_cayley_maps_into_ball(rng):
    for _ in range(500):
        b = cayley_to_ball(_interior_point(rng))
        assert b.h1.norm_sq() + b.h2.norm_sq() < 1.0


def test_cayley_center_of_ball():
    # the ball origin corresponds to the domain base point (0, 1)
    p = cayley_to_siegel(BallPoint(Quaternion(), Quaternion()))
    assert (p.q1 - Quaternion()).norm() <= 1e-15
    assert (p.q2 - Quaternion(1.0)).norm() <= 1e-15


def test_action_is_group_homomorphism(rng):
    for _ in range(1000):
        g, h = _rand_el(rng), _rand_el(rng)
        p = _interior_point(rng)
        a = act(gmul(g, h), p)
        b = act(g, act(h, p))
        scale = max(1.0, a.q2.norm())
        assert (a.q1 - b.q1).norm() <= 1e-10 * scale
        assert (a.q2 - b.q2).norm() <= 1e-10 * scale


def test_action_preserves_height(rng):
    for _ in range(1000):
        g, p = _rand_el(rng), _interior_point(rng)
        assert abs(height(act(g, p)) - height(p)) <= 1e-10 * max(1.0, height(p))


def test_action_preserves_boundary(rng):
    for _ in range(500):
        g = _rand_el(rng)
        bp = boundary_point(_rand_quat(rng), tuple(rng.normal(size=3)))
        assert abs(height(act(g, bp))) <= 1e-10


def test_identity_action_on_base_point():
    base = SiegelPoint(Quaternion(), Quaternion(1.0))
    g = GroupElement(Quaternion(0.3, -0.1, 0.2, 0.5), (0.4, -0.2, 0.7))
    p = act(g, base)
    # the orbit of the base point parametrizes the domain: q1 = w,
    # q2 = 1 + |w|^2 + i.t
    assert (p.q1 - g.w).norm() <= 1e-13
    assert abs(p.q2.t - (1.0 + g.w.norm_sq())) <= 1e-13
    assert max(abs(a - b) for a, b in zip(p.q2.imag(), g.t)) <= 1e-13


def test_boundary_roundtrip(rng):
    for _ in range(1000):
        w, t = _rand_quat(rng), tuple(rng.normal(size=3))
        bp = boundary_point(w, t)
        assert abs(height(bp)) <= 1e-12
        w2, t2 = boundary_coords(bp)
        assert (w2 - w).norm() <= 1e-12
        assert max(abs(a - b) for a, b in zip(t2, t)) <= 1e-12


def test_boundary_coords_rejects_interior(rng):
    with pytest.raises(ValueError):
        boundary_coords(_interior_point(rng))


@pytest.mark.parametrize("q1, q2", [
    ((math.nan, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0, 0.0), (0.0, math.nan, 0.0, 0.0)),
    ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, math.inf, 0.0)),
    ((math.inf, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))])
def test_boundary_coords_rejects_non_finite_point(q1, q2):
    with pytest.raises(BoundaryError):
        boundary_coords(SiegelPoint(Quaternion(*q1), Quaternion(*q2)))


def test_boundary_chart_intertwines_group_law(rng):
    # acting by g on the boundary point of h lands on the point of g*h
    for _ in range(300):
        g, h = _rand_el(rng), _rand_el(rng)
        moved = act(g, boundary_point(h.w, h.t))
        prod = gmul(g, h)
        w2, t2 = boundary_coords(moved)
        assert (w2 - prod.w).norm() <= 1e-11
        assert max(abs(a - b) for a, b in zip(t2, prod.t)) <= 1e-10


def test_dilation_on_boundary_chart(rng):
    # delta_r acts on boundary coordinates as (r w, r^2 t)
    g = _rand_el(rng)
    r = 1.7
    d = dilate(r, g)
    assert (d.w - g.w * r).norm() <= 1e-14
    assert max(abs(a - r * r * b) for a, b in zip(d.t, g.t)) <= 1e-13


def test_rotate_preserves_height(rng):
    q_mat, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    p = SiegelPoint(Quaternion(0.5, 0.1, -0.7, 0.2), Quaternion(2.0, 0.3, -0.1, 0.9))
    assert abs(height(rotate(q_mat, p)) - height(p)) <= 1e-12


def test_rotate_validates_matrix():
    p = SiegelPoint(Quaternion(), Quaternion(1.0))
    with pytest.raises(ValueError):
        rotate(np.eye(3), p)
    with pytest.raises(ValueError):
        rotate(2.0 * np.eye(4), p)


def _qrow(q, i):
    return Quaternion(*(float(c[i]) for c in q.components()))


def test_batch_geometry_equals_scalar_rows(rng):
    n = 200
    x = rng.normal(size=(23, n))
    g = GroupElement(Quaternion(*x[:4]), x[4:7])
    p = SiegelPoint(Quaternion(*x[7:11]), Quaternion(5.0 + np.abs(x[11]), *x[12:15]))
    b = BallPoint(Quaternion(*(0.3 * x[15:19])), Quaternion(*(0.3 * x[19:23])))
    moved, hp = act(g, p), height(p)
    to_siegel, to_ball = cayley_to_siegel(b), cayley_to_ball(p)
    bp = boundary_point(g.w, g.t)
    bw, bt = boundary_coords(bp)
    for i in range(n):
        gi = GroupElement(_qrow(g.w, i), tuple(v[i] for v in g.t))
        pi = SiegelPoint(_qrow(p.q1, i), _qrow(p.q2, i))
        bi = BallPoint(_qrow(b.h1, i), _qrow(b.h2, i))
        assert SiegelPoint(_qrow(moved.q1, i), _qrow(moved.q2, i)) == act(gi, pi)
        assert hp[i] == height(pi)
        assert SiegelPoint(_qrow(to_siegel.q1, i),
                           _qrow(to_siegel.q2, i)) == cayley_to_siegel(bi)
        assert BallPoint(_qrow(to_ball.h1, i), _qrow(to_ball.h2, i)) == cayley_to_ball(pi)
        bpi = boundary_point(gi.w, gi.t)
        assert SiegelPoint(_qrow(bp.q1, i), _qrow(bp.q2, i)) == bpi
        w2, t2 = boundary_coords(bpi)
        assert _qrow(bw, i) == w2 and tuple(v[i] for v in bt) == t2


def test_batch_cayley_rejects_any_pole_row(rng):
    x = 0.3 * rng.normal(size=(8, 30))
    x[4:, 11] = (-1.0, 0.0, 0.0, 0.0)
    with pytest.raises(PoleError):
        cayley_to_siegel(BallPoint(Quaternion(*x[:4]), Quaternion(*x[4:])))
    with pytest.raises(PoleError):
        cayley_to_ball(SiegelPoint(Quaternion(*x[:4]), Quaternion(*x[4:])))


def test_batch_boundary_coords_rejects_any_interior_row(rng):
    x = rng.normal(size=(7, 30))
    p = boundary_point(Quaternion(*x[:4]), x[4:])
    q2 = p.q2.components()[0].copy()
    q2[9] += 0.25
    with pytest.raises(BoundaryError) as err:
        boundary_coords(SiegelPoint(p.q1, Quaternion(q2, *p.q2.imag())))
    assert err.value.height == pytest.approx(0.25)
    q2[9] = math.nan
    with pytest.raises(BoundaryError) as err:
        boundary_coords(SiegelPoint(p.q1, Quaternion(q2, *p.q2.imag())))
    assert math.isnan(err.value.height)

"""Reference values for the benchmark, each on a route independent of the
evaluator it checks.

* ``kaplan_k0``       K_0(x, t) = 1/(4 pi^4 (|x|^4 + |t|^2)^2), the H-type
                      fundamental solution at lambda = 0 (Kaplan, Trans. AMS
                      258, 1980); checks ``greens.k_lambda``.
* ``k_tilde_closed``  e^{-|tau||x|^2}/(4 pi^2 |x|^2); checks
                      ``greens.k_tilde_lambda`` at lambda = 0.
* ``k_tilde_mp``      the v = coth u form
                      |tau|/(4 pi^2) int_1^inf e^{-c v} ((v-1)/(v+1))^{a/2} dv,
                      c = |tau||x|^2, a = lambda.tau/|tau|, in closed form
                      through mpmath's Tricomi U; checks
                      ``greens.k_tilde_lambda`` at lambda != 0.
* ``szego_closed``    k r^-5 with r = r(q, omega) and the integer power taken
                      by repeated products of the inverse, on plain 4-tuples;
                      checks ``szego.szego_kernel``.

``greens.heis_k_closed`` (the Gamma-product closed form) is the oracle for
``heis_k_quadrature``, and f(q0) the one for the Cauchy-Fueter integral;
both are evaluated by the workloads.  None of these functions touches the
nodes or grids of the code path it checks.
"""

from __future__ import annotations

import math

K_SZEGO = 3.0 / (8.0 * math.pi ** 4)
MP_DPS = 30               # working precision of the mpmath oracles


def tolerance(ref: float, abs_tol: float, rel_tol: float) -> float:
    """QuadratureSpec's acceptance rule max(abs_tol, rel_tol |ref|)."""
    return max(abs_tol, rel_tol * abs(ref))


def kaplan_k0(xsq: float, tnorm: float) -> float:
    return 1.0 / (4.0 * math.pi ** 4 * (xsq * xsq + tnorm * tnorm) ** 2)


def k_tilde_closed(xsq: float, taunorm: float) -> float:
    return math.exp(-taunorm * xsq) / (4.0 * math.pi ** 2 * xsq)


def k_tilde_mp(xsq: float, taunorm: float, a: float) -> float:
    """K~ at lambda != 0 from the v = coth u form.  With v = 1 + 2s,

        int_1^inf e^{-c v} ((v-1)/(v+1))^{a/2} dv
            = 2 e^{-c} Gamma(1 + a/2) U(1 + a/2, 2, 2c),

    U being Tricomi's confluent hypergeometric function; mpmath evaluates
    it to full precision up to the a -> -2 edge, where direct quadrature
    of the (v-1)^{a/2} endpoint singularity loses digits."""
    import mpmath as mp

    with mp.workdps(MP_DPS):
        c = mp.mpf(taunorm) * mp.mpf(xsq)
        mu = mp.mpf(a) / 2
        val = 2 * mp.exp(-c) * mp.gamma(1 + mu) * mp.hyperu(1 + mu, 2, 2 * c)
        return float(mp.mpf(taunorm) / (4 * mp.pi ** 2) * val)


def k_tilde_mp_quad(xsq: float, taunorm: float, a: float) -> float:
    """The same integral by mpmath quadrature, after v = 1 + s^{1/(1+a/2)}
    removes the endpoint singularity; a slow cross-check of k_tilde_mp."""
    import mpmath as mp

    with mp.workdps(MP_DPS):
        c = mp.mpf(taunorm) * mp.mpf(xsq)
        mu = mp.mpf(a) / 2
        k = 1 / (1 + mu)

        def g(s):
            w = s ** k
            return mp.exp(-c * w) * (w + 2) ** -mu

        val = mp.quad(g, [0, c ** -(1 + mu), mp.inf]) / (1 + mu)
        return float(mp.mpf(taunorm) / (4 * mp.pi ** 2) * mp.exp(-c) * val)


def qmul(p, q):
    """Quaternion product of two (t, a, b, c) tuples."""
    t1, a1, b1, c1 = p
    t2, a2, b2, c2 = q
    return (t1 * t2 - a1 * a2 - b1 * b2 - c1 * c2,
            t1 * a2 + a1 * t2 + b1 * c2 - c1 * b2,
            t1 * b2 + b1 * t2 + c1 * a2 - a1 * c2,
            t1 * c2 + c1 * t2 + a1 * b2 - b1 * a2)


def szego_closed(q1, q2, w1, w2):
    """k r(q, omega)^-5 for Siegel points q = (q1, q2), omega = (w1, w2),
    all given as (t, a, b, c) tuples."""
    w1c = (w1[0], -w1[1], -w1[2], -w1[3])
    w1q1 = qmul(w1c, q1)
    r = tuple(0.5 * (q2[i] + (w2[i] if i == 0 else -w2[i])) - w1q1[i]
              for i in range(4))
    nsq = sum(v * v for v in r)
    inv = (r[0] / nsq, -r[1] / nsq, -r[2] / nsq, -r[3] / nsq)
    p = inv
    for _ in range(4):
        p = qmul(p, inv)
    return tuple(K_SZEGO * v for v in p)

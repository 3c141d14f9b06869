"""The randomized algebra, group, siegel and diffops checks, run as batches."""

import numpy as np
import pytest

from qsiegel import checks, greens
from qsiegel.group import GroupElement

# computed values of the scalar-loop checks these batched checks replace
PINNED = {
    ("algebra", "norm_multiplicativity"): 4.727069398781696e-16,
    ("algebra", "matrix_homomorphism"): 1.7763568394002505e-15,
    ("algebra", "matrix_determinant"): 1.3091444984664301e-15,
    ("group", "associativity"): 7.105427357601002e-15,
    ("group", "inverse_identity"): 0.0,
    ("group", "dilation_norm_homogeneity"): 1.7763568394002505e-15,
    ("siegel", "cayley_roundtrip"): 3.4471818908360054e-16,
    ("siegel", "action_composition"): 1.4735466201043096e-14,
    ("siegel", "action_height_invariance"): 7.993605777301127e-15,
    ("siegel", "boundary_coordinate_roundtrip"): 0.0,
    ("diffops", "boundary_annihilation"): 2.2540421120516087e-11,
    ("diffops", "volume_pairing"): 1.2212453270876722e-15,
}


def _check(spec, suite, name):
    return dict(checks._SUITES[suite](spec))[name]


@pytest.mark.parametrize("suite, name", sorted(PINNED))
def test_batched_check_values_pinned(spec, suite, name):
    res = _check(spec, suite, name)()
    assert res.computed == PINNED[suite, name]
    assert res.passed


def test_cayley_roundtrip_keeps_its_samples(spec, monkeypatch):
    # 365 of the 1000 draws fall inside the ball of radius^2 0.96, all in
    # one batch through the module's Cayley map
    sizes = []
    real = checks.cayley_to_siegel

    def spy(b):
        sizes.append(np.shape(b.h1.t))
        return real(b)

    monkeypatch.setattr(checks, "cayley_to_siegel", spy)
    assert _check(spec, "siegel", "cayley_roundtrip")().passed
    assert sizes == [(365,)]


def test_diffops_suite_one_call_per_batched_check(spec, monkeypatch):
    # each randomized diffops check takes all its samples in one call
    calls = {"crf_tangency_residual": 0, "dq_eval": 0}

    def counted(name):
        real = getattr(checks, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(checks, name, counted(name))
    assert checks.run_suite("diffops", spec)["passed"]
    assert calls == {"crf_tangency_residual": 1, "dq_eval": 1}


@pytest.mark.parametrize("suite, name", [("group", "associativity"),
                                         ("group", "inverse_identity"),
                                         ("siegel", "action_composition")])
def test_nan_defect_fails_its_check(spec, monkeypatch, suite, name):
    # a scalar max(worst, nan) would keep worst; the batch maximum must not
    real = checks.gmul

    def nan_in_one_row(g, h):
        out = real(g, h)
        t0 = np.array(out.t[0])
        t0[17] = np.nan
        return GroupElement(out.w, (t0, out.t[1], out.t[2]))

    monkeypatch.setattr(checks, "gmul", nan_in_one_row)
    res = _check(spec, suite, name)()
    assert np.isnan(res.computed)
    assert not res.passed



@pytest.mark.parametrize("defect", [lambda c0, ck: (c0 * 1.001, ck),
                                    lambda c0, ck: (c0, -ck)],
                         ids=["c0_x1.001", "ck_negated"])
def test_kernel_defect_fails_annihilation_lambda(spec, monkeypatch, defect):
    # a kernel off by a 0.1% real part, or with its imaginary parts
    # flipped, is not annihilated by Delta_lambda at lambda != 0: the
    # residuals read about 5e-3 and 10, against a true 1.9e-7
    real = greens._k_lambda_components
    assert _check(spec, "greens", "kernel_annihilation_lambda")().passed
    monkeypatch.setattr(greens, "_k_lambda_components",
                        lambda *a: defect(*real(*a)))
    res = _check(spec, "greens", "kernel_annihilation_lambda")()
    assert not res.passed
    assert res.computed > 1e-3


def test_hermite_sign_defect_fails_annihilation(spec, monkeypatch):
    # K~ with the sign of mu = lambda.tau/(2|tau|) flipped on its one I path
    # solves the Hermite equation of -lambda, not of lambda: the check reads
    # about 0.8, against a true 2.3e-11
    real = greens._v_integral
    assert _check(spec, "greens", "hermite_annihilation")().passed
    monkeypatch.setattr(greens, "_v_integral", lambda c, mu: real(c, -mu))
    res = _check(spec, "greens", "hermite_annihilation")()
    assert not res.passed
    assert res.computed > 1e-2

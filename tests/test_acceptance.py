"""End-to-end acceptance criteria, read off one verify report.

Each criterion is a set of ``suite/name`` checks of the report of
``qsiegel verify --suite all``, run once in process: the samples, values
and bounds are the checks' own.  A criterion fails when one of its checks
is missing or fails, or when the run took longer than the budget.  Each
records one line, printed in the terminal summary.
"""

import time

import pytest

import conftest

from qsiegel import checks
from qsiegel.quad import QuadratureSpec

BUDGET_S = 5.0       # wall time of the whole report, about 0.1 s

CRITERIA = {
    1: ("quaternion algebra",
        ("algebra/unit_multiplication_table", "algebra/norm_multiplicativity",
         "algebra/matrix_homomorphism", "algebra/matrix_determinant")),
    2: ("group and geometry",
        ("group/associativity", "group/inverse_identity",
         "group/dilation_norm_homogeneity", "siegel/cayley_roundtrip",
         "siegel/action_composition", "siegel/action_height_invariance")),
    3: ("commutator table",
        ("diffops/bracket_table", "diffops/hbar_h_commutator_sign")),
    4: ("boundary tangency",
        ("diffops/boundary_annihilation", "siegel/boundary_coordinate_roundtrip")),
    5: ("sphere reproducing integral",
        ("diffops/reproducing_constant", "diffops/reproducing_identity")),
    6: ("kernel normalization constant",
        ("szego/k_constant", "szego/radial_height_integral",
         "szego/radial_shell_integral")),
    7: ("reproducing value (K_ANALYTIC/(32 verify_k))", ("szego/reproducing_value",)),
    8: ("one-dimensional center oracle", ("greens/heisenberg_oracle",)),
    9: ("kernel value oracles",
        ("greens/kernel_value", "greens/kernel_value_kaplan",
         "greens/kernel_value_axial", "greens/kernel_homogeneity_degree")),
    10: ("operator annihilation residuals",
         ("greens/hermite_annihilation", "greens/kernel_annihilation_lambda0",
          "greens/kernel_annihilation_lambda")),
}


@pytest.fixture(scope="module")
def report():
    """The checks of ``run_suite("all")`` by ``suite/name``, and its wall time."""
    t0 = time.perf_counter()
    rep = checks.run_suite("all", QuadratureSpec())
    runtime = time.perf_counter() - t0
    return {f"{c['suite']}/{c['name']}": c for c in rep["checks"]}, runtime


def _shortfalls(names, by_name):
    """The names that are missing from the report or fail there."""
    return [n for n in names if n not in by_name or not by_name[n]["pass"]]


def _describe(name, check):
    if check is None:
        return f"{name} missing"
    err = check["rel_err"] if check["tol_kind"] == "rel" else check["abs_err"]
    return f"{name} {'info' if err is None else format(err, '.1e')}"


def _criterion(num, report):
    by_name, runtime = report
    title, names = CRITERIA[num]
    bad = _shortfalls(names, by_name)
    status = "PASS" if not bad and runtime < BUDGET_S else "FAIL"
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {num:2d} [{status}] {title}: "
        + ", ".join(_describe(n, by_name.get(n)) for n in names)
        + f" [{runtime:.2f}s / limit {BUDGET_S:.0f}s]")
    assert not bad, f"criterion {num} ({title}): missing or failing {bad}"
    assert runtime < BUDGET_S, f"verify report over budget: {runtime:.2f}s"


def test_criterion_01_quaternion_algebra(report): _criterion(1, report)
def test_criterion_02_group_geometry(report): _criterion(2, report)
def test_criterion_03_commutator_table(report): _criterion(3, report)
def test_criterion_04_boundary_tangency(report): _criterion(4, report)
def test_criterion_05_cauchy_fueter(report): _criterion(5, report)
def test_criterion_06_szego_constant(report): _criterion(6, report)
def test_criterion_07_reproducing_value(report): _criterion(7, report)
def test_criterion_08_heisenberg_oracle(report): _criterion(8, report)
def test_criterion_09_kernel_consistency(report): _criterion(9, report)
def test_criterion_10_pde_residuals(report): _criterion(10, report)


def test_misspelt_or_failing_check_fails_its_criterion(report):
    by_name = dict(report[0])
    by_name["greens/kernel_value"] = dict(by_name["greens/kernel_value"], **{"pass": False})
    names = ("greens/kernel_valeu", "greens/kernel_value", "greens/heisenberg_oracle")
    assert _shortfalls(names, by_name) == ["greens/kernel_valeu", "greens/kernel_value"]

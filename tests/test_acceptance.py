"""Acceptance gate: the eleven release criteria, one test and verdict line each.

Each test prints a single ``criterion N ...: PASS/FAIL`` line (visible with
``pytest -s``, and in the captured-output section on failure) and then
asserts. Tolerances here are the contract; they are not to be loosened to
make a failing build green.
"""

import itertools
import json
import math

import numpy as np
import pytest

from mixnorm.cli import main
from mixnorm.exponents import (
    ExponentTuple,
    as_exponent,
    beckner_constant,
    beckner_power,
)
from mixnorm.gaussians import unit_gaussian
from mixnorm.grids import SPACE, GridSpec, SampledFunction
from mixnorm.inequalities import (
    check_hausdorff_young,
    check_restriction,
    check_same_order,
    check_variant,
    ensemble_trials,
    random_admissible_tuples,
    run_suite,
)
from mixnorm.sampling import gaussian_product, near_delta_family, shear_product
from mixnorm.sweeps import blowup_sweep, delta_divergence_demo, necessity_sweep
from mixnorm.transform import fourier, marginal_second, slice_second_zero

from test_mixed_norms import MINKOWSKI_SLACK, minkowski_orders

GRID2 = GridSpec.default()
GRID1 = GridSpec.default(d2=0)

EXPONENT_GRID = ("1", "4/3", "3/2", "2")
SHARP_GRID = ("4/3", "3/2", "2")


def verdict(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} ({title}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({title}) failed: {detail}"


@pytest.fixture(scope="module")
def ensembles2():
    return ensemble_trials(GRID2, 100, seed=500)


@pytest.fixture(scope="module")
def ensembles1():
    return ensemble_trials(GRID1, 100, seed=900)


@pytest.fixture(scope="module")
def blowup43():
    return blowup_sweep(2, "4/3")


@pytest.fixture(scope="module")
def blowup22():
    return blowup_sweep(2, 2)


def test_criterion_01_constants():
    endpoints_exact = beckner_constant(1) == 1.0 and beckner_constant(2) == 1.0
    oracle = (4.0 / 3.0) ** 0.375 * 4.0 ** (-0.125)
    oracle_error = abs(beckner_constant("4/3") - oracle)
    interior = np.linspace(1.0, 2.0, 52)[1:-1]
    all_below_one = all(beckner_constant(float(r)) < 1.0 for r in interior)
    ok = endpoints_exact and oracle_error <= 1e-12 and all_below_one
    verdict(
        1,
        "constants",
        ok,
        f"C_1 = C_2 = 1 exactly: {endpoints_exact}; |C_4/3 - oracle| = "
        f"{oracle_error:.2e}; C_r < 1 at 50 interior points: {all_below_one}",
    )


def test_criterion_02_transform_fidelity(ensembles2):
    gaussian = gaussian_product(GRID2, [1.0, 1.0])
    self_dual_error = float(np.max(np.abs(fourier(gaussian).values - gaussian.values)))

    plancherel_worst = 0.0
    contraction_worst = -math.inf
    cell = GRID2.spacing**2
    freq_cell = GRID2.freq_spacing**2
    for F in ensembles2:
        Fhat = fourier(F)
        space = math.sqrt(float(np.sum(np.abs(F.values) ** 2)) * cell)
        freq = math.sqrt(float(np.sum(np.abs(Fhat.values) ** 2)) * freq_cell)
        plancherel_worst = max(plancherel_worst, abs(space - freq) / space)
        l1 = float(np.sum(np.abs(F.values))) * cell
        contraction_worst = max(contraction_worst, float(np.max(np.abs(Fhat.values))) - l1)
    ok = self_dual_error <= 1e-6 and plancherel_worst <= 1e-6 and contraction_worst <= 1e-8
    verdict(
        2,
        "transform fidelity",
        ok,
        f"Gaussian self-duality {self_dual_error:.2e}; worst Plancherel "
        f"{plancherel_worst:.2e} over 100 ensembles; worst L1->Linf excess "
        f"{contraction_worst:.2e}",
    )


def test_criterion_03_two_path_identity(ensembles2):
    families = [
        gaussian_product(GRID2, [1.0, 1.0]),
        gaussian_product(GRID2, [0.7, 1.8]),
        shear_product(unit_gaussian(), unit_gaussian(), GRID2),
        shear_product(unit_gaussian().dilate(0.5, 0.5), unit_gaussian(), GRID2),
        near_delta_family(GRID2, unit_gaussian(), 0.5),
        near_delta_family(GRID2, unit_gaussian(), 0.25),
        near_delta_family(GRID2, unit_gaussian(), 0.5, shear=False),
    ]
    families.extend(ensembles2)
    worst = 0.0
    for F in families:
        sliced = slice_second_zero(fourier(F))
        direct = fourier(marginal_second(F))
        worst = max(worst, float(np.max(np.abs(sliced.values - direct.values))))
    ok = worst <= 1e-8
    verdict(
        3,
        "two-path identity",
        ok,
        f"max |slice-of-transform - transform-of-marginal| = {worst:.2e} "
        f"over {len(families)} functions from every family",
    )


def test_criterion_04_gaussian_sharpness():
    gaussian2 = gaussian_product(GRID2, [1.0, 1.0])
    gaussian1 = gaussian_product(GRID1, [1.0])
    worst = 0.0
    checks = 0
    for p in SHARP_GRID:
        worst = max(worst, abs(check_hausdorff_young(gaussian1, p).ratio - 1.0))
        worst = max(worst, abs(check_restriction(gaussian2, p).ratio - 1.0))
        checks += 2
    for p, s in itertools.product(SHARP_GRID, SHARP_GRID):
        worst = max(worst, abs(check_variant(gaussian2, p, s).ratio - 1.0))
        checks += 1
        if not as_exponent(p) > as_exponent(s):
            worst = max(worst, abs(check_same_order(gaussian2, p, s).ratio - 1.0))
            checks += 1
    ok = worst <= 1e-3
    verdict(
        4,
        "Gaussian sharpness",
        ok,
        f"worst |ratio - 1| = {worst:.2e} over {checks} extremal checks",
    )


def test_criterion_05_inequality_suites(ensembles2, ensembles1):
    reports = []
    for p in EXPONENT_GRID:
        reports += run_suite("hausdorff_young", ensembles1, p=p)
        reports += run_suite("restriction", ensembles2, p=p)
    for p, s in itertools.product(EXPONENT_GRID, EXPONENT_GRID):
        reports += run_suite("variant", ensembles2, p=p, s=s)
        if not as_exponent(p) > as_exponent(s):
            reports += run_suite("same_order", ensembles2, p=p, s=s)
    reports += run_suite(
        "bilinear", ensembles2, exponent_tuples=random_admissible_tuples(10, seed=77)
    )
    failures = [r for r in reports if not r.degenerate and not r.passed]
    degenerate = [r for r in reports if r.degenerate]
    worst = max(r.ratio for r in reports if r.ratio is not None)
    ok = not failures and not degenerate
    verdict(
        5,
        "inequality suites",
        ok,
        f"{len(reports)} checks across 100 trials per selection: "
        f"{len(failures)} failures, {len(degenerate)} degenerate, "
        f"worst ratio {worst:.4f}",
    )


def test_criterion_06_minkowski_orientation():
    unit_cells = GridSpec(1, 1, n=2, extent=2.0)
    identity = SampledFunction(unit_cells, np.eye(2, dtype=complex), SPACE)
    larger_outermost, smaller_outermost = minkowski_orders(identity, 2, 1)
    oracle_ok = (
        abs(larger_outermost - math.sqrt(2.0)) <= 1e-12
        and abs(smaller_outermost - 2.0) <= 1e-12
        and larger_outermost <= smaller_outermost + MINKOWSKI_SLACK
    )

    rng = np.random.default_rng(123)
    pool = [1, "4/3", "3/2", 2, 3, "inf"]
    random_ok = True
    for _ in range(1000):
        n = int(2 * rng.integers(1, 5))
        grid = GridSpec(1, 1, n=n, extent=float(n))
        F = SampledFunction(grid, rng.random((n, n)).astype(complex), SPACE)
        i, j = rng.choice(len(pool), size=2, replace=False)
        larger_outermost, smaller_outermost = minkowski_orders(F, pool[i], pool[j])
        random_ok = random_ok and larger_outermost <= smaller_outermost + MINKOWSKI_SLACK
    ok = oracle_ok and random_ok
    verdict(
        6,
        "Minkowski orientation",
        ok,
        f"identity oracle (sqrt2, 2) with verdict: {oracle_ok}; "
        f"1000 random nonnegative arrays within 1e-10: {random_ok}",
    )


def test_criterion_07_blowup_reproduction(blowup43, blowup22):
    slope_ok = abs(blowup43.fitted_slope - (-0.25)) <= 0.05
    increasing = all(b > a for a, b in zip(blowup43.observed, blowup43.observed[1:]))
    rhs = blowup43.details["rhs"]
    rhs_drift = (max(rhs) - min(rhs)) / min(rhs)
    rhs_ok = rhs_drift <= 1e-3
    flat_ok = abs(blowup22.fitted_slope) <= 0.02
    ok = slope_ok and increasing and rhs_ok and flat_ok
    verdict(
        7,
        "blowup reproduction",
        ok,
        f"(2,4/3) slope {blowup43.fitted_slope:.4f} vs -0.25; strictly "
        f"increasing: {increasing}; rhs drift {rhs_drift:.2e}; (2,2) slope "
        f"{blowup22.fitted_slope:.4f}",
    )


def test_criterion_08_oracle_agreement(blowup43, blowup22):
    errors = blowup43.details["oracle_max_error"] + blowup22.details["oracle_max_error"]
    worst = max(errors)
    ok = worst <= 1e-6
    verdict(
        8,
        "oracle agreement",
        ok,
        f"worst DFT vs closed-form error {worst:.2e} over {len(errors)} sweep points",
    )


def test_criterion_09_delta_divergence():
    sheared = delta_divergence_demo(2)
    increasing = all(b > a for a, b in zip(sheared.observed, sheared.observed[1:]))
    span = sheared.parameter_values[0] / sheared.parameter_values[-1]
    doubled = sheared.observed[-1] >= 2.0 * sheared.observed[0]
    control = delta_divergence_demo(2, shear=False)
    ceiling = beckner_power(2, GRID2.d1) * (1.0 + 1e-2)
    control_ok = max(control.observed) <= ceiling
    ok = increasing and span == 16.0 and doubled and control_ok
    verdict(
        9,
        "delta divergence",
        ok,
        f"sheared ratios increase {sheared.observed[0]:.3f} -> "
        f"{sheared.observed[-1]:.3f} over a 16:1 range (doubling: {doubled}); "
        f"no-shear control max {max(control.observed):.4f} <= {ceiling:.4f}",
    )


def test_criterion_10_necessity_sweep():
    admissible_tuple = ExponentTuple(2, 2, 2, 2, "inf")
    flat_first = necessity_sweep(admissible_tuple, axis="first")
    flat_second = necessity_sweep(admissible_tuple, axis="second")
    flat_ok = abs(flat_first.fitted_slope) <= 0.02 and abs(flat_second.fitted_slope) <= 0.02

    broken_r = necessity_sweep(ExponentTuple(2, 2, 2, 2, 2), axis="first")
    broken_st = necessity_sweep(ExponentTuple(2, 4, 2, 4, "inf"), axis="second")
    r_ok = broken_r.fitted_slope > 0 and abs(broken_r.fitted_slope - 0.5) <= 0.05
    st_ok = broken_st.fitted_slope < 0 and abs(broken_st.fitted_slope + 0.5) <= 0.05
    ok = flat_ok and r_ok and st_ok
    verdict(
        10,
        "necessity sweep",
        ok,
        f"admissible slopes ({flat_first.fitted_slope:+.4f}, "
        f"{flat_second.fitted_slope:+.4f}); broken r-relation "
        f"{broken_r.fitted_slope:+.4f} vs +0.5; broken s-t relation "
        f"{broken_st.fitted_slope:+.4f} vs -0.5",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    # library level: same seed, same payload bytes
    def payload():
        reports = run_suite("restriction", ensemble_trials(GRID2, 5, 7), p="4/3")
        return "".join(json.dumps(r.json_dict(), sort_keys=True) + "\n" for r in reports)

    library_ok = payload() == payload()

    # CLI level: identical configuration (including the output path), twice
    out = tmp_path / "suite.jsonl"
    argv = ["verify", "hausdorff-young", "--trials", "3", "--out", str(out)]
    assert main(argv) == 0
    first_run = out.read_text()
    assert main(argv) == 0
    second_run = out.read_text()
    capsys.readouterr()
    cli_ok = first_run == second_run and first_run != ""
    ok = library_ok and cli_ok
    verdict(
        11,
        "determinism",
        ok,
        f"library payloads identical: {library_ok}; CLI artifacts identical: {cli_ok}",
    )

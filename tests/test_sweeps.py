"""Scaling-law sweeps against continuum closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from mixnorm import sweeps
from mixnorm.exponents import ExponentTuple
from mixnorm.gaussians import GaussianMix, unit_gaussian
from mixnorm.grids import GridSpec
from mixnorm.sampling import GenerationError, shear_product
from mixnorm.sweeps import (
    SweepReport,
    blowup_sweep,
    default_epsilon_values,
    default_lambda_values,
    default_t_values,
    delta_divergence_demo,
    necessity_sweep,
)
from mixnorm.transform import fourier

GRID = GridSpec.default()

#: Wide grid for small-t dilations, whose shears outgrow the default extent.
WIDE = GridSpec(GRID.d1, GRID.d2, n=256, extent=32.0)


@pytest.fixture(scope="module")
def blowup_default():
    return blowup_sweep(2, "4/3")


@pytest.fixture(scope="module")
def delta_default():
    return delta_divergence_demo(2)


def closed_form_transform(f, g, t, grid):
    """The full closed-form transform array of the dilation-shear family at
    p = 2, from the factors that the blowup sweep's oracle uses."""
    row, ridge = sweeps._sheared_transform(f.dilate(t, 0.5), g, grid)
    return row[None, :] * ridge


class TestClosedFormTransform:
    def test_matches_dft_at_unit_dilation(self):
        f = g = unit_gaussian()
        F = shear_product(f, g, GRID)
        oracle = closed_form_transform(f, g, 1.0, GRID)
        assert np.max(np.abs(fourier(F).values - oracle)) <= 1e-6

    def test_matches_dft_along_the_sweep(self):
        f = g = unit_gaussian()
        for t in (0.5, 0.25):
            F = shear_product(f.dilate(t, 0.5), g, WIDE)
            oracle = closed_form_transform(f, g, t, WIDE)
            assert np.max(np.abs(fourier(F).values - oracle)) <= 1e-6

    def test_preserves_l2_mass(self):
        # shear and L^2-normalized dilation both preserve the L^2 norm
        oracle = closed_form_transform(unit_gaussian(), unit_gaussian(), 0.5, GRID)
        norm = math.sqrt(np.sum(np.abs(oracle) ** 2) * GRID.freq_spacing**2)
        assert norm == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-6)

    def test_zero_second_factor_gives_zero(self):
        silent = GaussianMix(0.0, 1.0)
        oracle = closed_form_transform(unit_gaussian(), silent, 1.0, GRID)
        assert np.all(oracle == 0.0)

    @pytest.mark.parametrize("n", [240, 256, 264])
    def test_the_hankel_ridge_is_fhat_at_every_frequency_sum(self, n):
        """Row i of the ridge, entry j, is fhat_t(xi_i + xi_j): the window
        arithmetic against a direct evaluation at all n^2 sums."""
        grid = GridSpec(1, 1, n, 16.0)
        f_t, g = unit_gaussian().dilate(0.5, 0.5), unit_gaussian()
        row, ridge = sweeps._sheared_transform(f_t, g, grid)
        xi = grid.freq_coords()
        direct = f_t.fourier().evaluate(np.add.outer(xi, xi)) * g.fourier().evaluate(xi)
        assert np.max(np.abs(row[None, :] * ridge - direct)) <= 1e-14


class TestBlowupSweep:
    def test_divergence_at_p2_s43(self, blowup_default):
        report = blowup_default
        assert report.passed
        assert report.expected_slope == pytest.approx(-0.25)
        assert abs(report.fitted_slope - (-0.25)) <= 0.05
        # t decreases along the sweep, so the ratio must climb
        assert all(b > a for a, b in zip(report.observed, report.observed[1:]))

    def test_observed_matches_continuum_formula(self, blowup_default):
        prefactor = 2.0 ** (-0.25) * (4.0 / 3.0) ** 0.375
        for t, ratio in zip(blowup_default.parameter_values, blowup_default.observed):
            continuum = t ** (-0.25) * (1.0 + t * t) ** 0.125 * prefactor
            assert ratio == pytest.approx(continuum, rel=1e-6)

    def test_rhs_is_dilation_invariant(self, blowup_default):
        expected_rhs = 2.0 ** (-0.25) * (4.0 / 3.0) ** (-0.375)
        for rhs in blowup_default.details["rhs"]:
            assert rhs == pytest.approx(expected_rhs, rel=1e-6)

    def test_dft_matches_the_closed_form_to_roundoff(self, blowup_default):
        assert max(blowup_default.details["oracle_max_error"]) <= 1e-14

    def test_dft_oracle_agreement_recorded(self):
        report = blowup_sweep(2, "4/3", t_values=(1.0, 0.5))
        assert all(err <= 1e-6 for err in report.details["oracle_max_error"])

    def test_peak_memory_stays_near_one_array_of_the_largest_grid(self):
        """At the largest grid the sweep holds one complex array: F reads
        the sampled buffer, is dropped, and the buffer is transformed in
        place into F-hat, so F and F-hat are never live at once. The peak
        stays a little over 1 array only if the previous point's F-hat, the
        oracle's full-grid temporaries and any second transform buffer are
        gone by then."""
        tracemalloc.start()
        try:
            report = blowup_sweep(2, "4/3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_max = max(grid["n"] for grid in report.details["grids"])
        assert peak <= 1.25 * 16 * n_max**2

    def test_equal_exponents_stay_flat(self):
        report = blowup_sweep(2, 2, t_values=(1.0, 0.5, 0.25, 0.125))
        assert report.passed
        assert report.expected_slope == 0.0
        assert abs(report.fitted_slope) <= 0.02
        assert "0.02" in report.criterion

    def test_exponent_gate(self):
        with pytest.raises(ValueError):
            blowup_sweep("4/3", "3/2")  # s > p
        with pytest.raises(ValueError):
            blowup_sweep(2, 1)  # s must exceed 1
        with pytest.raises(ValueError):
            blowup_sweep("5/2", 2)  # p must not exceed 2

    def test_an_overflowing_ratio_is_an_error(self):
        # at s = 1001/1000 the same-order norm overflows to inf by t = 1/8
        with pytest.raises(ValueError, match="positive and finite"):
            blowup_sweep(2, "1001/1000", t_values=(1.0, 0.125))


class TestDeltaDivergence:
    def test_sheared_family_diverges(self, delta_default):
        report = delta_default
        assert report.passed
        assert all(b > a for a, b in zip(report.observed, report.observed[1:]))
        assert report.observed[-1] >= 2.0 * report.observed[0]
        assert report.expected_slope == pytest.approx(-0.5)

    def test_observed_matches_continuum_formula(self, delta_default):
        report = delta_default
        for eps, ratio in zip(report.parameter_values, report.observed):
            continuum = ((1.0 + eps * eps) / (eps * eps)) ** 0.25
            assert ratio == pytest.approx(continuum, rel=1e-2)

    def test_unsheared_control_stays_bounded(self):
        report = delta_divergence_demo(2, shear=False)
        assert report.passed
        assert report.expected_slope == 0.0
        assert max(report.observed) <= 1.01

    @pytest.mark.parametrize("p", ["3/2", "4/3", "6/5"])
    def test_sheared_family_diverges_below_p_two(self, p):
        # The law eps^(-1/p') grows only 16^(1/p') over 16:1, under 2 for p < 4/3.
        report = delta_divergence_demo(p)
        assert report.passed
        floor = 16.0 ** (-report.expected_slope / 2)
        assert report.observed[-1] >= floor * report.observed[0]
        assert f"grow at least {floor:.6g}x" in report.criterion

    def test_growing_epsilon_fails(self):
        report = delta_divergence_demo(2, epsilon_values=(0.5, 1.0, 2.0))
        assert not report.passed

    def test_single_epsilon_is_rejected(self):
        # One point has no growth to measure; it must not pass vacuously.
        with pytest.raises(ValueError, match="two parameter values"):
            delta_divergence_demo(2, epsilon_values=(0.5,))

    def test_epsilon_floor_propagates(self):
        with pytest.raises(GenerationError):
            delta_divergence_demo(2, epsilon_values=(0.1, 0.05))

    def test_exponent_gate(self):
        with pytest.raises(ValueError):
            delta_divergence_demo(1)
        with pytest.raises(ValueError):
            delta_divergence_demo(3)


class TestNecessitySweep:
    ADMISSIBLE = ExponentTuple(2, 2, 2, 2, "inf")

    def test_admissible_tuple_sweeps_flat_both_axes(self):
        for axis in ("first", "second"):
            report = necessity_sweep(self.ADMISSIBLE, axis=axis)
            assert report.passed
            assert report.expected_slope == 0.0
            assert abs(report.fitted_slope) <= 0.02

    def test_broken_r_relation_shows_on_first_axis(self):
        broken = ExponentTuple(2, 2, 2, 2, 2)  # relation demands r = inf
        report = necessity_sweep(broken, axis="first")
        assert report.expected_slope == pytest.approx(0.5)
        assert abs(report.fitted_slope - 0.5) <= 0.05
        assert report.passed

    def test_broken_st_relation_shows_on_second_axis(self):
        broken = ExponentTuple(2, 4, 2, 4, "inf")  # 1/s + 1/t = 1/2
        report = necessity_sweep(broken, axis="second")
        assert report.expected_slope == pytest.approx(-0.5)
        assert abs(report.fitted_slope - (-0.5)) <= 0.05
        assert report.passed

    def test_broken_relation_is_invisible_on_the_other_axis(self):
        broken = ExponentTuple(2, 4, 2, 4, "inf")
        report = necessity_sweep(broken, axis="first")
        assert report.expected_slope == 0.0
        assert abs(report.fitted_slope) <= 0.02

    def test_r_floor_and_axis_validation(self):
        with pytest.raises(ValueError):
            necessity_sweep(ExponentTuple(8, 2, 8, 2, "4/3"))
        with pytest.raises(ValueError):
            necessity_sweep(self.ADMISSIBLE, axis="third")

    def test_non_positive_scales_rejected_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sweeps, "sample_separable", lambda *args: calls.append(args))
        for scales in ((-2.0, -1.0, -0.5), (0.0, 1.0), (1.0, 2.0, -1.0)):
            with pytest.raises(ValueError, match="dilation scales must be positive"):
                necessity_sweep(self.ADMISSIBLE, lambda_values=scales)
        assert calls == []

    def test_runaway_dilation_is_caught(self):
        with pytest.raises(GenerationError):
            necessity_sweep(self.ADMISSIBLE, lambda_values=(64.0, 128.0))
        with pytest.raises(GenerationError):
            necessity_sweep(self.ADMISSIBLE, lambda_values=(1.0 / 64.0, 1.0 / 128.0))

    def test_containment_errors_name_side_and_extent(self):
        with pytest.raises(GenerationError, match="axis 0 frequency-side") as err:
            necessity_sweep(self.ADMISSIBLE, lambda_values=(64.0, 128.0))
        assert err.value.required_extent is None
        with pytest.raises(GenerationError, match="axis 0 space-side") as err:
            necessity_sweep(self.ADMISSIBLE, lambda_values=(1.0 / 64.0, 1.0 / 128.0))
        assert err.value.required_extent > GRID.extent


@pytest.mark.parametrize(
    "values, message",
    [
        ((0.5,), "at least two parameter values"),
        ((1.0, 0.5, 0.75, 1.0 / 32.0), "must be strictly monotone"),
        ((1.0, 2.0, 1.5), "must be strictly monotone"),
        ((1.0, 0.0), "must be positive"),
    ],
)
@pytest.mark.parametrize(
    "sweep, sampler",
    [
        (lambda v: blowup_sweep(2, "4/3", v), "shear_product"),
        (lambda v: delta_divergence_demo(2, v), "near_delta_family"),
        (lambda v: necessity_sweep(TestNecessitySweep.ADMISSIBLE, v), "sample_separable"),
    ],
    ids=["blowup", "delta", "necessity"],
)
def test_unfit_parameters_rejected_before_sampling(monkeypatch, sweep, sampler, values, message):
    calls = []
    monkeypatch.setattr(sweeps, sampler, lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=message):
        sweep(values)
    assert calls == []


class TestDefaults:
    def test_t_values_halve_from_one(self):
        assert default_t_values() == (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)

    def test_epsilon_values_span_sixteen_to_one(self):
        values = default_epsilon_values(GRID)
        assert values == (2.0, 1.0, 0.5, 0.25, 0.125)
        assert values[0] / values[-1] == 16.0

    def test_epsilon_values_respect_the_floor(self):
        coarse = GridSpec.default(n=32)
        with pytest.raises(GenerationError):
            default_epsilon_values(coarse)

    def test_lambda_values_bracket_one(self):
        values = default_lambda_values()
        assert values[2] == 1.0
        assert values[0] == pytest.approx(0.5)
        assert values[-1] == pytest.approx(2.0)


class TestSweepReport:
    def test_monotone_parameters_required(self):
        with pytest.raises(ValueError):
            SweepReport("blowup", (1.0, 1.0), (1.0, 2.0), 0.0, 0.0, 0.0, True, "")
        with pytest.raises(ValueError):
            SweepReport("blowup", (1.0, 2.0), (1.0, -2.0), 0.0, 0.0, 0.0, True, "")

    @pytest.mark.parametrize("observed", [math.inf, math.nan])
    def test_observed_values_must_be_finite(self, observed):
        with pytest.raises(ValueError, match="positive and finite"):
            SweepReport("blowup", (1.0, 2.0), (1.0, observed), 0.0, 0.0, 0.0, True, "")

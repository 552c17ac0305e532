"""Generator families: containment, reproducibility, analytic closures."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mixnorm.gaussians import GaussianMix, SeparableSum, unit_gaussian
from mixnorm.grids import SPACE, GridSpec, SampledFunction
from mixnorm.sampling import (
    GenerationError,
    TAIL,
    _ensemble_scale_bounds,
    _periodized_bump,
    gaussian_product,
    near_delta_family,
    random_ensemble,
    shear_product,
)
from mixnorm.sweeps import _auto_grid
from mixnorm.transform import fourier

GRID2 = GridSpec.default()
GRID1 = GridSpec.default(d2=0)


class TestGaussianProduct:
    def test_unit_scales_give_the_self_dual_gaussian(self):
        F = gaussian_product(GRID2, [1.0, 1.0])
        x = GRID2.space_coords()
        expected = np.exp(-math.pi * x[:, None] ** 2) * np.exp(-math.pi * x[None, :] ** 2)
        np.testing.assert_allclose(F.values, expected, atol=1e-15)

    def test_values_strictly_positive(self):
        F = gaussian_product(GRID2, [0.9, 1.3])
        assert np.all(F.values.real > 0)
        assert np.all(F.values.imag == 0)

    def test_scale_count_must_match_dims(self):
        with pytest.raises(ValueError):
            gaussian_product(GRID2, [1.0])

    @pytest.mark.parametrize("scale", [0.0, -2.0, math.nan])
    def test_nonpositive_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            gaussian_product(GRID2, [1.0, scale])

    def test_wide_gaussian_rejected_with_required_extent(self):
        with pytest.raises(GenerationError) as err:
            gaussian_product(GRID2, [1e-4, 1.0])
        assert err.value.required_extent is not None
        assert err.value.required_extent > GRID2.extent

    def test_narrow_gaussian_rejected_on_the_frequency_side(self):
        # scale 1e4 fits in space easily but its transform does not
        with pytest.raises(GenerationError):
            gaussian_product(GRID2, [1e4, 1.0])

    def test_frequency_leak_reports_no_space_extent(self):
        # 36.32 is the frequency extent needed; as a space extent it makes
        # the leak worse (fraction 0.196 -> 0.569), so it is not offered
        with pytest.raises(GenerationError, match="refine the grid") as err:
            gaussian_product(GridSpec.default(d2=0, n=64), [30.0])
        assert err.value.required_extent is None
        assert "need frequency extent >= 36.32" in str(err.value)

    def test_space_leak_required_extent_suffices(self):
        with pytest.raises(GenerationError) as err:
            gaussian_product(GridSpec.default(d2=0, n=512), [0.02])
        assert err.value.required_extent == pytest.approx(46.89, abs=0.01)
        retry = GridSpec.default(d2=0, n=512, extent=err.value.required_extent)
        assert gaussian_product(retry, [0.02]).grid == retry

    def test_descriptor_attached(self):
        F = gaussian_product(GRID2, [1.0, 2.0])
        assert F.descriptor["family"] == "gaussian_product"
        assert F.descriptor["parameters"]["scales"] == [1.0, 2.0]


class TestRandomEnsemble:
    def test_seed_determines_values(self):
        a = random_ensemble(GRID2, 6, seed=11)
        b = random_ensemble(GRID2, 6, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        c = random_ensemble(GRID2, 6, seed=12)
        assert np.max(np.abs(a.values - c.values)) > 1e-6

    def test_single_term_transform_is_a_shifted_envelope(self):
        # K=1: the modulated Gaussian's transform magnitude is the
        # envelope translated to the modulation frequency.
        f = random_ensemble(GRID1, 1, seed=3)
        term = f.analytic.axes[0]
        shifted = term.fourier()
        xi = GRID1.freq_coords()
        np.testing.assert_allclose(
            np.abs(f.analytic.fourier().evaluate_grid([xi])),
            np.abs(shifted.evaluate(xi)),
            rtol=1e-12,
        )
        assert abs(shifted.center[0] - term.modulation[0]) < 1e-12

    def test_containment_on_both_sides(self):
        for seed in range(8):
            F = random_ensemble(GRID2, 6, seed=seed)
            sep = F.analytic
            for mix, transformed in zip(sep.axes, sep.fourier().axes):
                assert mix.mass_fraction_outside(GRID2.extent / 2.0) < 1e-8
                assert transformed.mass_fraction_outside(GRID2.freq_extent / 2.0) < 1e-8

    def test_complexity_validated(self):
        with pytest.raises(ValueError):
            random_ensemble(GRID2, 0, seed=1)

    def test_coarse_grid_rejected(self):
        tiny = GridSpec(1, 0, 32, 16.0)
        with pytest.raises(GenerationError):
            random_ensemble(tiny, 2, seed=0)

    @pytest.mark.parametrize("extent", [1e-300, 1e-160, 1e160, 1e200, 1e308])
    def test_extent_without_normal_scales_rejected(self, extent):
        with pytest.raises(GenerationError, match="no normal-float scales"):
            random_ensemble(GridSpec(1, 1, 256, extent), 2, seed=0)

    @pytest.mark.parametrize("n", [256, 1000, 4096])
    @pytest.mark.parametrize("power", [-8, -1, 0, 3, 4, 5, 10, 60])
    def test_scale_bounds_keep_their_bits_at_dyadic_extents(self, n, power):
        """Dividing by a power-of-two extent twice rounds as dividing by its
        square did, so ensembles on such grids keep every bit."""
        extent = 2.0**power
        log_tail = math.log(1.0 / TAIL)
        squared = (
            16.0 * log_tail / (math.pi * extent**2),
            math.pi * n**2 / (16.0 * extent**2 * log_tail),
        )
        assert _ensemble_scale_bounds(GridSpec(1, 1, n, extent)) == squared

    @pytest.mark.parametrize("seed", [0, 11, 21])
    def test_factor_rows_match_the_per_term_draws(self, seed):
        """Each axis's unfloored K x n factor matrix equals the terms drawn
        one at a time and evaluated on their own, bit for bit; scales are
        ``math.exp`` of the drawn log-scales, whose rounding differs from
        ``np.exp`` on some inputs."""
        K, d = 6, GRID2.ndim
        F = random_ensemble(GRID2, K, seed)
        rng = np.random.default_rng(seed)
        a_min, a_max = _ensemble_scale_bounds(GRID2)
        amplitudes = rng.normal(size=(K, 2))
        centers = rng.uniform(-GRID2.extent / 4.0, GRID2.extent / 4.0, size=(K, d))
        log_scales = rng.uniform(math.log(a_min), math.log(a_max), size=(K, d))
        mod_limit = GRID2.freq_extent / 4.0
        modulations = rng.uniform(-mod_limit, mod_limit, size=(K, d))
        x = GRID2.space_coords()
        for axis, mix in enumerate(F.analytic.axes):
            expected = np.stack([
                term_formula(
                    complex(*amplitudes[k]) if axis == 0 else 1.0,
                    math.exp(log_scales[k, axis]),
                    centers[k, axis],
                    modulations[k, axis],
                    x,
                )
                for k in range(K)
            ])
            np.testing.assert_array_equal(mix.term_values(x), expected)

    def test_one_group_shapes(self):
        f = random_ensemble(GRID1, 4, seed=5)
        assert f.values.shape == (GRID1.n,)
        assert f.side == SPACE


def term_formula(c, a, mu, beta, x):
    """One term ``c e^{-pi a (x-mu)^2} e^{2 pi i beta x}`` at x, evaluated on
    its own, with a real product where the term is unmodulated."""
    x = np.asarray(x, dtype=float)
    envelope = np.exp(-math.pi * a * (x - mu) ** 2)
    if beta == 0.0:
        return c * envelope.astype(np.complex128)
    return c * envelope * np.exp(2j * math.pi * beta * x)


def one_term(mix, k, x):
    """Term k of ``mix`` at x, by the one-term formula."""
    params = (mix.amplitude, mix.scale, mix.center, mix.modulation)
    return term_formula(*(p[k].item() for p in params), x)


def separable_of(terms):
    """The separable sum whose term k has one factor ``(c, a, mu, beta)``
    per axis in ``terms[k]``."""
    return SeparableSum(tuple(GaussianMix(*zip(*column)) for column in zip(*terms)))


def term_count(separable):
    return len(separable.axes[0].scale)


def per_term_sum(separable, coords):
    """The sampled sum built term by term from outer products, with the
    pointwise sum of the terms' magnitudes as its rounding scale."""
    out = np.zeros([len(c) for c in coords], dtype=np.complex128)
    scale = np.zeros(out.shape)
    for k in range(term_count(separable)):
        term = one_term(separable.axes[0], k, coords[0])
        for mix, axis_coords in zip(separable.axes[1:], coords[1:]):
            term = np.multiply.outer(term, one_term(mix, k, axis_coords))
        out += term
        scale += np.abs(term)
    return out, scale


class TestGaussianMix:
    def test_parameters_are_read_only_length_k_arrays(self):
        amplitude = np.array([1.0, 2.0j])
        mix = GaussianMix(amplitude, [1.0, 2.0], 0.5)
        assert mix.amplitude.dtype == np.complex128
        for p in (mix.amplitude, mix.scale, mix.center, mix.modulation):
            assert p.shape == (2,) and not p.flags.writeable
            with pytest.raises(ValueError):
                p[0] = 3.0
        np.testing.assert_array_equal(mix.center, [0.5, 0.5])
        amplitude[0] = 3.0  # the caller's array is copied, not frozen
        assert mix.amplitude[0] == 1.0

    def test_rejects_an_empty_mixture(self):
        with pytest.raises(ValueError, match="one length K >= 1"):
            GaussianMix([], [], [], [])

    @pytest.mark.parametrize("shapes", [(2, 3, 2, 2), (1, 2, 2, 2), (2, 2, 2, 0), (2, (2, 2))])
    def test_rejects_mismatched_lengths(self, shapes):
        params = [np.ones(shape) for shape in shapes]
        with pytest.raises(ValueError, match="one length K >= 1"):
            GaussianMix(*params)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
    def test_rejects_a_nonpositive_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            GaussianMix([1.0, 1.0], [1.0, scale])

    @pytest.mark.parametrize("shape", [(40,), (12, 12)])
    def test_evaluate_is_the_sequential_term_sum(self, shape):
        rng = np.random.default_rng(3)
        modulation = rng.uniform(-2.0, 2.0, size=5)
        modulation[[1, 3]] = 0.0  # unmodulated terms take the real product
        amplitude = rng.normal(size=5) + 1j * rng.normal(size=5)
        amplitude[3] = 0.7  # and a real amplitude
        mix = GaussianMix(amplitude, rng.uniform(0.5, 2.0, size=5), rng.uniform(-1, 1, size=5),
                          modulation)
        x = rng.uniform(-3.0, 3.0, size=shape)
        expected = one_term(mix, 0, x)
        for k in range(1, 5):
            expected = expected + one_term(mix, k, x)
        values = mix.evaluate(x)
        assert values.shape == shape
        np.testing.assert_array_equal(values, expected)


class TestEvaluateGrid:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 6])
    def test_matches_the_per_term_sum(self, ndim, count):
        rng = np.random.default_rng(10 * ndim + count)
        separable = separable_of([
            [(complex(*rng.normal(size=2)), *rng.uniform(0.5, 2.0, size=3)) for _ in range(ndim)]
            for _ in range(count)
        ])
        coords = [np.linspace(-3.0, 3.0, n) for n in (8, 10, 12)[:ndim]]
        values = separable.evaluate_grid(coords)
        expected, scale = per_term_sum(separable, coords)
        assert values.shape == expected.shape
        assert values.dtype == np.complex128 and values.flags.c_contiguous
        if ndim == 1:
            np.testing.assert_array_equal(values, expected)
        else:
            assert np.all(np.abs(values - expected) <= 8 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_far_tails_match_the_per_term_sum(self, ndim):
        separable, coords = far_tailed_sum(ndim)
        values = separable.evaluate_grid(coords)
        expected, scale = per_term_sum(separable, coords)
        assert np.abs(expected).min() < 1e-300
        # each dropped component is under the floor times its row's peak
        assert np.all(np.abs(values - expected) <= rounding(scale) + dropped(separable, coords))

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("amplitude", [2.0**-600, 2.0**600])
    def test_amplitude_scales_the_sample(self, ndim, amplitude):
        unit, coords = far_tailed_sum(ndim)
        first, rest = unit.axes[0], unit.axes[1:]
        scaled = SeparableSum((replace(first, amplitude=amplitude * first.amplitude), *rest))
        # the floor follows each row's peak, so a rescaled row keeps the
        # components its unit row keeps, also when only one term is rescaled;
        # an absolute floor of 2^-511 would keep none at 2^-600
        one_amplitude = first.amplitude.copy()
        one_amplitude[0] *= amplitude
        one_scaled = SeparableSum((replace(first, amplitude=one_amplitude), *rest))
        for separable in (scaled, one_scaled):
            for unit_row, row, exact in zip(
                unit._factor_rows(coords),
                separable._factor_rows(coords),
                unfloored_rows(separable, coords),
            ):
                kept = unit_row.view(float) != 0
                np.testing.assert_array_equal(
                    row.view(float), np.where(kept, exact.view(float), 0.0)
                )
        values = scaled.evaluate_grid(coords)
        expected = amplitude * unit.evaluate_grid(coords)
        _, scale = per_term_sum(unit, coords)
        # below the normal range each of the 4K real products and sums of
        # an entry rounds to a multiple of the smallest subnormal, 2^-1074
        subnormal = 4 * term_count(unit) * 2.0**-1074
        bound = amplitude * (rounding(scale) + dropped(unit, coords)) + subnormal
        assert np.all(np.abs(values - expected) <= bound)
        if amplitude > 1:  # no subnormal anywhere: a power of two scales exactly
            np.testing.assert_array_equal(values, expected)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_contraction_inputs_hold_no_far_tail(self, ndim):
        separable, coords = far_tailed_sum(ndim)
        rows = separable._factor_rows(coords)
        if ndim == 1:  # no products, so nothing is dropped
            np.testing.assert_array_equal(rows[0], unfloored_rows(separable, coords)[0])
            return
        floor = 2.0 ** (-1022 / ndim)
        for row, exact in zip(rows, unfloored_rows(separable, coords)):
            parts = np.abs(row.view(float))
            peak = np.abs(row).max(axis=1, keepdims=True)
            assert np.all((parts == 0) | (parts >= floor * peak))
            kept = parts != 0
            np.testing.assert_array_equal(row.view(float)[kept], exact.view(float)[kept])
        assert any(np.any(row == 0) for row in rows)


def far_tailed_sum(ndim):
    """Six random terms on [-12, 12] per axis, where every factor's tail
    falls below 1e-300."""
    rng = np.random.default_rng(40 + ndim)
    separable = separable_of([
        [
            (
                complex(*rng.normal(size=2)),
                rng.uniform(1.0, 2.0),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-2.0, 2.0),
            )
            for _ in range(ndim)
        ]
        for _ in range(6)
    ])
    return separable, [np.linspace(-12.0, 12.0, n) for n in (41, 42, 43)[:ndim]]


def unfloored_rows(separable, coords):
    """Each axis's K x n factor values, with no component dropped."""
    return [
        np.stack([one_term(mix, k, c) for k in range(term_count(separable))])
        for mix, c in zip(separable.axes, coords)
    ]


def rounding(scale):
    """The contraction's rounding bound on a sum with pointwise magnitude scale."""
    return 8 * np.finfo(float).eps * scale


def dropped(separable, coords):
    """A bound on what dropping each component under 2^(-1022/ndim) of its
    row's peak removes from an entry: each of ndim factors moves by at most
    sqrt(2) floors of its peak, so a term by at most 2 ndim floors of the
    product of its factors' peaks."""
    ndim = separable.ndim
    peaks = sum(
        math.prod(np.abs(one_term(mix, k, c)).max() for mix, c in zip(separable.axes, coords))
        for k in range(term_count(separable))
    )
    return 2 * ndim * 2.0 ** (-1022 / ndim) * peaks


def lp_norm(f: GaussianMix, p: float) -> float:
    """The continuum L^p norm of a one-term mixture, ``|c| (p a)^(-1/2p)``."""
    (c,), (a,) = f.amplitude, f.scale
    return abs(c) * (p * a) ** (-0.5 / p)


class TestDilation:
    def test_lp_norm_preserved(self):
        f = unit_gaussian()
        for p in (1.0, 4.0 / 3.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                g = f.dilate(t, 1 / p)
                assert lp_norm(g, p) == pytest.approx(lp_norm(f, p), rel=1e-12)

    def test_t_one_is_identity(self):
        f = unit_gaussian()
        x = GRID1.space_coords()
        np.testing.assert_allclose(f.dilate(1.0, 0.5).evaluate(x), f.evaluate(x), atol=1e-15)

    def test_small_t_spreads_support_until_rejection(self):
        # e^{-pi (t x)^2} is the Gaussian of scale t^2
        t = 0.01
        with pytest.raises(GenerationError) as err:
            gaussian_product(GRID1, [t * t])
        assert err.value.required_extent > GRID1.extent

    def test_large_t_rejected_on_bandwidth(self):
        t = 150.0
        with pytest.raises(GenerationError, match="refine the grid") as err:
            gaussian_product(GRID1, [t * t])
        assert err.value.required_extent is None

    def test_dilation_matches_direct_evaluation(self):
        t, p = 0.5, 2.0
        x = GRID1.space_coords()
        np.testing.assert_allclose(
            unit_gaussian().dilate(t, 1 / p).evaluate(x),
            t ** (1 / p) * np.exp(-math.pi * (t * x) ** 2),
            atol=1e-15,
        )


class TestShearProduct:
    def test_mixed_l2_norm_is_the_product_of_factors(self):
        # The shear is measure preserving slice by slice, so the L2 x L2
        # norm equals ||f||_2 ||g||_2.
        f = unit_gaussian()
        g = GaussianMix(1.0, 2.0)
        F = shear_product(f, g, GRID2)
        h = GRID2.spacing
        discrete = math.sqrt(float(np.sum(np.abs(F.values) ** 2)) * h * h)
        assert discrete == pytest.approx(lp_norm(f, 2) * lp_norm(g, 2), rel=1e-10)

    def test_values_follow_the_shear(self):
        f = unit_gaussian()
        F = shear_product(f, f, GRID2)
        x = GRID2.space_coords()
        i, j = 40, 200
        expected = math.exp(-math.pi * x[i] ** 2) * math.exp(-math.pi * (x[j] - x[i]) ** 2)
        assert F.values[i, j].real == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "f, g, grid",
        [
            (
                GaussianMix(1.0, 1.3, 0.4, 0.7),
                GaussianMix([0.5 + 0.2j, 1.0], [0.8, 2.0], [-0.3, 1.0], [-0.5, 0.0]),
                GridSpec(1, 1, 240, 16.0),
            ),
            (
                unit_gaussian().dilate(0.125, 0.5),
                unit_gaussian(),
                _auto_grid(unit_gaussian().dilate(0.125, 0.5), unit_gaussian()),
            ),
        ],
    )
    def test_matches_pointwise_evaluation(self, f, g, grid):
        x = grid.space_coords()
        direct = f.evaluate(x)[:, None] * g.evaluate(x[None, :] - x[:, None])
        values = shear_product(f, g, grid).values
        assert np.max(np.abs(values - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_out_receives_the_same_samples_and_stays_writable(self):
        f, g = unit_gaussian(), GaussianMix(1.0, 2.0)
        out = np.empty(GRID2.shape, dtype=np.complex128)
        F = shear_product(f, g, GRID2, out=out)
        assert np.array_equal(out, shear_product(f, g, GRID2).values)
        assert np.shares_memory(F.values, out) and F.values is not out
        assert out.flags.writeable and not F.values.flags.writeable
        assert F.descriptor == {"family": "shear", "parameters": {}, "seed": None}

    def test_support_failure_reports_extent(self):
        wide = GaussianMix(1.0, 0.02)
        with pytest.raises(GenerationError):
            shear_product(wide, wide, GRID2)

    def test_needs_one_plus_one_grid(self):
        f = unit_gaussian()
        with pytest.raises(ValueError):
            shear_product(f, f, GRID1)


class TestNearDelta:
    def test_inner_mass_is_one_for_every_slice(self):
        f = unit_gaussian()
        F = near_delta_family(GRID2, f, epsilon=0.25)
        h = GRID2.spacing
        x = GRID2.space_coords()
        inner = np.sum(np.abs(F.values), axis=1) * h
        expected = np.abs(f.evaluate(x))
        np.testing.assert_allclose(inner, expected, rtol=1e-12)

    def test_shear_moves_the_bump(self):
        f = unit_gaussian()
        F = near_delta_family(GRID2, f, epsilon=0.5, shear=True)
        x = GRID2.space_coords()
        # at x = 2 the bump should sit near y = -2
        i = int(np.argmin(np.abs(x - 2.0)))
        peak = x[int(np.argmax(np.abs(F.values[i])))]
        assert abs(peak + 2.0) < 0.1

    def test_no_shear_keeps_a_product(self):
        f = unit_gaussian()
        F = near_delta_family(GRID2, f, epsilon=0.5, shear=False)
        col = np.abs(F.values[:, GRID2.n // 2])
        row = np.abs(F.values[GRID2.n // 4, :])
        outer = np.outer(col, row)
        rebuilt = outer / np.abs(F.values[GRID2.n // 4, GRID2.n // 2])
        np.testing.assert_allclose(np.abs(F.values), rebuilt, atol=1e-12)

    def test_first_factor_must_fit_the_space_side(self):
        wide = GaussianMix(1.0, 1e-4)
        with pytest.raises(GenerationError, match="first-factor space-side") as err:
            near_delta_family(GRID2, wide, epsilon=0.5)
        assert err.value.required_extent > GRID2.extent

    def test_first_factor_must_fit_the_frequency_side(self):
        narrow = GaussianMix(1.0, 1e4)
        with pytest.raises(GenerationError, match="first-factor frequency-side"):
            near_delta_family(GRID2, narrow, epsilon=0.5)

    def test_epsilon_floor(self):
        f = unit_gaussian()
        with pytest.raises(GenerationError):
            near_delta_family(GRID2, f, epsilon=GRID2.spacing)

    @pytest.mark.parametrize("epsilon", [2.0, 0.125])
    @pytest.mark.parametrize(
        "grid, tol",
        [(GRID2, 0.0), (GridSpec(1, 1, 256, 12.0), 0.0), (GridSpec(1, 1, 240, 10.0), 1e-13)],
        ids=["default", "extent-12", "non-dyadic"],
    )
    def test_matches_pointwise_evaluation(self, grid, tol, epsilon):
        """The Hankel rows equal the bump at every sum x_i + x_j: exactly
        where the grid coordinates are dyadic, to roundoff elsewhere."""
        f = unit_gaussian()
        x = grid.space_coords()
        bump = _periodized_bump(x[None, :] + x[:, None], epsilon, grid.extent)
        direct = f.evaluate(x)[:, None] * bump
        values = near_delta_family(grid, f, epsilon).values
        if tol == 0.0:
            assert np.array_equal(values, direct)
        else:
            assert np.max(np.abs(values - direct)) <= tol * np.max(np.abs(direct))

    def test_periodization_keeps_mass_at_large_epsilon(self):
        f = unit_gaussian()
        F = near_delta_family(GRID2, f, epsilon=4.0, shear=True)
        h = GRID2.spacing
        inner = np.sum(F.values.real, axis=1) * h
        x = GRID2.space_coords()
        np.testing.assert_allclose(inner, np.exp(-math.pi * x**2), rtol=1e-10)


class TestDescriptors:
    def test_a_descriptor_rebuilds_its_function(self):
        """Its parameters are the generator's keyword arguments besides the
        grid and the seed."""
        F = gaussian_product(GRID2, [1.0, 2.0])
        rebuilt = gaussian_product(GRID2, **F.descriptor["parameters"])
        np.testing.assert_array_equal(rebuilt.values, F.values)
        F = random_ensemble(GRID2, 4, seed=21)
        rebuilt = random_ensemble(GRID2, **F.descriptor["parameters"], seed=F.descriptor["seed"])
        np.testing.assert_array_equal(rebuilt.values, F.values)

    def test_ensemble_descriptor_requires_seed(self):
        F = random_ensemble(GRID2, 2, seed=7)
        assert F.descriptor["seed"] == 7
        with pytest.raises(TypeError, match="seed"):
            random_ensemble(GRID2, **F.descriptor["parameters"])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: near_delta_family(GRID2, unit_gaussian(), 1.0),
            lambda: shear_product(unit_gaussian(), unit_gaussian(), GRID2),
        ],
        ids=["near_delta", "shear"],
    )
    def test_families_of_bare_mixtures_cannot_be_rebuilt(self, build):
        # the descriptor records no closed form of the factors, so the
        # generator cannot be called again from it
        F = build()
        generator = {"near_delta": near_delta_family, "shear": shear_product}
        with pytest.raises(TypeError, match="missing"):
            generator[F.descriptor["family"]](grid=GRID2, **F.descriptor["parameters"])

    def test_a_missing_descriptor_cannot_be_rebuilt(self):
        # only a generator records a recipe; a derived function has none
        F = random_ensemble(GRID2, 2, seed=3)
        assert F.descriptor is not None
        assert F.with_values(2 * F.values).descriptor is None
        assert fourier(F).descriptor is None
        assert SampledFunction(GRID2, F.values, SPACE).descriptor is None

    def test_sheared_family_descriptors(self):
        shear = shear_product(unit_gaussian(), unit_gaussian(), GRID2)
        assert shear.descriptor == {"family": "shear", "parameters": {}, "seed": None}
        delta = near_delta_family(GRID2, unit_gaussian(), 1.0, shear=False)
        assert delta.descriptor == {
            "family": "near_delta",
            "parameters": {"epsilon": 1.0, "shear": False},
            "seed": None,
        }

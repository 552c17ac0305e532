"""DFT fidelity: centered phases, partial transforms, exact identities."""

import math
import tracemalloc

import numpy as np
import pytest

from mixnorm.grids import FREQUENCY, SPACE, GridSpec, SampledFunction
from mixnorm.sampling import gaussian_product, near_delta_family, random_ensemble
from mixnorm.transform import (
    fourier,
    inverse_fourier,
    marginal_second,
    slice_second_zero,
)

GRID2 = GridSpec.default()
GRID1 = GridSpec.default(d2=0)


def l2(values, cell):
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * cell)


class TestFourier:
    def test_standard_gaussian_is_self_dual(self):
        F = gaussian_product(GRID2, [1.0, 1.0])
        Fhat = fourier(F)
        assert np.max(np.abs(Fhat.values - F.values)) <= 1e-6
        assert Fhat.side == (FREQUENCY, FREQUENCY)

    def test_shift_becomes_modulation(self):
        f = gaussian_product(GRID1, [1.0])
        shift = 16  # grid points
        a = shift * GRID1.spacing
        shifted = f.with_values(np.roll(f.values, shift))
        xi = GRID1.freq_coords()
        expected = fourier(f).values * np.exp(-2j * math.pi * a * xi)
        np.testing.assert_allclose(fourier(shifted).values, expected, atol=1e-8)

    def test_plancherel_on_ensembles(self):
        for seed in range(10):
            F = random_ensemble(GRID2, 6, seed=seed)
            space = l2(F.values, GRID2.spacing**2)
            freq = l2(fourier(F).values, GRID2.freq_spacing**2)
            assert abs(space - freq) / space <= 1e-6

    def test_contraction_into_sup_norm(self):
        for seed in range(10):
            F = random_ensemble(GRID2, 6, seed=100 + seed)
            l1 = float(np.sum(np.abs(F.values))) * GRID2.spacing**2
            peak = float(np.max(np.abs(fourier(F).values)))
            assert peak <= l1 + 1e-8

    def test_side_mismatch_rejected(self):
        F = gaussian_product(GRID2, [1.0, 1.0])
        Fhat = fourier(F)
        with pytest.raises(ValueError):
            fourier(Fhat)
        with pytest.raises(ValueError):
            inverse_fourier(F)

    def test_partial_then_partial_equals_full(self):
        for seed in range(5):
            F = random_ensemble(GRID2, 5, seed=seed)
            full = fourier(F, "all")
            composed = fourier(fourier(F, "second"), "first")
            assert np.max(np.abs(full.values - composed.values)) <= 1e-10
            assert composed.side == (FREQUENCY, FREQUENCY)

    def test_round_trip_is_identity(self):
        for axes in ("first", "second", "all"):
            F = random_ensemble(GRID2, 4, seed=42)
            back = inverse_fourier(fourier(F, axes), axes)
            rel = np.max(np.abs(back.values - F.values)) / np.max(np.abs(F.values))
            assert rel <= 1e-10
            assert back.side == F.side

    def test_selector_validation(self):
        f = gaussian_product(GRID1, [1.0])
        with pytest.raises(ValueError):
            fourier(f, "second")
        with pytest.raises(ValueError):
            fourier(f, "sideways")

    def test_one_transform_holds_one_array_beyond_its_input(self):
        grid = GridSpec.default(n=512, extent=32.0)
        F = random_ensemble(grid, 6, seed=7)
        fourier(F)  # warm-up: lazily built FFT plans are not the transform's arrays
        tracemalloc.start()
        try:
            fourier(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * F.values.nbytes


#: (d1, d2) -> sizes n: halves below the 64-slab swap block (16, 72), and
#: halves that are not a multiple of it (200, 1980).
SHIFT_CASES = [
    (d1, d2, n)
    for (d1, d2), sizes in {
        (1, 0): (16, 200, 1980),
        (1, 1): (16, 200, 1980),
        (2, 1): (16, 72),
        (1, 2): (16, 72),
    }.items()
    for n in sizes
]


@pytest.mark.parametrize("d1, d2, n", SHIFT_CASES)
def test_transform_equals_the_shift_formula_bit_for_bit(d1, d2, n):
    """h^±k · fftshift(fftn/ifftn(ifftshift(v))) over the selected axes,
    with ``==``: the in-place shift is the same permutation of the same
    FFT output."""
    grid = GridSpec(d1, d2, n, 16.0)
    rng = np.random.default_rng(n + 10 * d1 + 100 * d2)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    selected = {"first": grid.first_axes, "second": grid.second_axes}
    selected["all"] = grid.first_axes + grid.second_axes
    groups = 1 if d2 == 0 else 2
    for selector, axes in selected.items():
        if not axes:
            continue
        for transform, kernel, side, k in (
            (fourier, np.fft.fftn, SPACE, len(axes)),
            (inverse_fourier, np.fft.ifftn, FREQUENCY, -len(axes)),
        ):
            F = SampledFunction(grid, values, (side,) * groups)
            shifted = np.fft.ifftshift(values, axes=axes)
            expected = np.fft.fftshift(kernel(shifted, axes=axes), axes=axes) * grid.spacing**k
            assert np.array_equal(transform(F, selector).values, expected)


class TestGridSpec:
    def test_dimensions_and_validation(self):
        grid = GridSpec.default(d1=2, d2=1)
        assert grid.ndim == 3
        assert grid.first_axes == (0, 1)
        assert grid.second_axes == (2,)
        with pytest.raises(ValueError, match="first factor"):
            GridSpec(0, 1)
        with pytest.raises(ValueError, match="second factor"):
            GridSpec(1, -1)


class TestSampledFunction:
    def test_wrong_shape_rejected(self):
        # the transforms rely on this check; they do not repeat it
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(GRID1, np.zeros((GRID1.n, GRID1.n)), (SPACE,))
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(GRID2, np.zeros(GRID2.n), (SPACE, SPACE))


class TestSliceAndMarginal:
    def test_slice_of_product_gaussian(self):
        # slicing at xi'' = 0 picks up the full integral of the second factor
        F = gaussian_product(GRID2, [1.0, 2.0])
        sliced = slice_second_zero(fourier(F))
        xi = GRID1.freq_coords()
        g2_integral = 2.0 ** (-0.5)  # integral of exp(-2 pi x^2)
        expected = np.exp(-math.pi * xi**2) * g2_integral
        np.testing.assert_allclose(sliced.values, expected, atol=1e-10)

    def test_slice_requires_full_frequency_side(self):
        F = gaussian_product(GRID2, [1.0, 1.0])
        with pytest.raises(ValueError):
            slice_second_zero(F)
        with pytest.raises(ValueError):
            slice_second_zero(fourier(F, "first"))

    def test_odd_function_slices_to_zero(self):
        x = GRID2.space_coords()
        values = np.exp(-math.pi * x[:, None] ** 2) * (
            x[None, :] * np.exp(-math.pi * x[None, :] ** 2)
        )
        F = SampledFunction(GRID2, values, (SPACE, SPACE))
        assert np.max(np.abs(slice_second_zero(fourier(F)).values)) <= 1e-10
        assert np.max(np.abs(marginal_second(F).values)) <= 1e-10

    def test_marginal_of_product_gaussian(self):
        F = gaussian_product(GRID2, [1.0, 2.0])
        marg = marginal_second(F)
        x = GRID1.space_coords()
        expected = np.exp(-math.pi * x**2) * 2.0 ** (-0.5)
        np.testing.assert_allclose(marg.values, expected, atol=1e-12)
        assert marg.side == (SPACE,)
        assert marg.grid.d2 == 0

    def test_marginal_of_near_delta_recovers_f(self):
        f = gaussian_product(GRID1, [1.0])
        F = near_delta_family(GRID2, f, epsilon=0.3)
        marg = marginal_second(F)
        assert np.max(np.abs(marg.values - f.values)) <= 1e-3

    def test_two_path_identity_on_families(self):
        families = [
            gaussian_product(GRID2, [1.0, 1.0]),
            gaussian_product(GRID2, [0.8, 1.9]),
            near_delta_family(GRID2, gaussian_product(GRID1, [1.0]), 0.5),
            near_delta_family(GRID2, gaussian_product(GRID1, [1.0]), 0.25, shear=False),
        ]
        families += [random_ensemble(GRID2, 6, seed=s) for s in range(6)]
        for F in families:
            sliced = slice_second_zero(fourier(F))
            direct = fourier(marginal_second(F))
            assert np.max(np.abs(sliced.values - direct.values)) <= 1e-8

    def test_one_group_grid_has_nothing_to_slice(self):
        f = gaussian_product(GRID1, [1.0])
        with pytest.raises(ValueError):
            marginal_second(f)
        with pytest.raises(ValueError):
            slice_second_zero(fourier(f))

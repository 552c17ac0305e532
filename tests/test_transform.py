"""DFT fidelity: centered phases, sides, exact identities."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from mixnorm.gaussians import unit_gaussian
from mixnorm.grids import FREQUENCY, SPACE, GridSpec, SampledFunction
from mixnorm.sampling import gaussian_product, near_delta_family, random_ensemble
from mixnorm.transform import fourier, fourier_in_place, marginal_second, slice_second_zero

GRID2 = GridSpec.default()
GRID1 = GridSpec.default(d2=0)


def l2(values, cell):
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * cell)


class TestFourier:
    def test_standard_gaussian_is_self_dual(self):
        F = gaussian_product(GRID2, [1.0, 1.0])
        Fhat = fourier(F)
        assert np.max(np.abs(Fhat.values - F.values)) <= 1e-6
        assert Fhat.side == FREQUENCY

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
        message = "F is on the frequency side; the forward transform needs the space side"
        with pytest.raises(ValueError, match=f"^{message}$"):
            fourier(Fhat)

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


def _space_values(grid: GridSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


#: Both entries, each from a fresh writable complex128 array of samples.
ENTRIES = {
    "fourier": lambda values, grid: fourier(SampledFunction(grid, values, SPACE)),
    "fourier_in_place": fourier_in_place,
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("d1, d2, n", SHIFT_CASES)
def test_transform_equals_the_shift_formula_bit_for_bit(d1, d2, n, entry):
    """h^k · fftshift(fftn(ifftshift(v))) over every axis, with ``==``: the
    in-place shifts are the same permutations around the same FFT."""
    grid = GridSpec(d1, d2, n, 16.0)
    values = _space_values(grid, n + 10 * d1 + 100 * d2)
    expected = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(values))) * grid.spacing**grid.ndim
    Fhat = ENTRIES[entry](values, grid)
    assert Fhat.side == FREQUENCY and Fhat.grid == grid
    assert np.array_equal(Fhat.values, expected)


class TestFourierInPlace:
    GRID = GridSpec.default(n=64)

    def test_the_result_adopts_the_input_buffer(self):
        values = _space_values(self.GRID, 1)
        Fhat = fourier_in_place(values, self.GRID)
        assert Fhat.values is values
        assert not values.flags.writeable

    def test_allocates_no_second_grid_array(self):
        grid = GridSpec.default(n=512, extent=32.0)
        fourier_in_place(_space_values(grid, 2), grid)  # warm-up: lazily built FFT plans
        values = _space_values(grid, 3)
        tracemalloc.start()
        try:
            fourier_in_place(values, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * values.nbytes

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda v: SampledFunction(TestFourierInPlace.GRID, v, SPACE).values, "writable"),
            (lambda v: v.real.copy(), r"complex128 samples, got float64"),
            (lambda v: v.astype(np.complex64), r"complex128 samples, got complex64"),
            (lambda v: v[:, :-2].copy(), r"shape \(64, 64\), got \(64, 62\)"),
            (lambda v: v.reshape(-1).copy(), r"shape \(64, 64\), got \(4096,\)"),
        ],
        ids=["read-only", "float64", "complex64", "narrow", "flat"],
    )
    def test_an_unfit_array_is_rejected_before_it_is_written(self, make, message):
        values = make(_space_values(self.GRID, 4))
        before = values.copy()
        with pytest.raises(ValueError, match=message):
            fourier_in_place(values, self.GRID)
        assert np.array_equal(values, before)


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

    @pytest.mark.parametrize("extent", [0.0, -16.0, math.inf, -math.inf, math.nan])
    def test_extent_must_be_positive_and_finite(self, extent):
        with pytest.raises(ValueError, match="extent must be positive and finite"):
            GridSpec(1, 1, 256, extent)


class TestSampledFunction:
    def test_wrong_shape_rejected(self):
        # the transforms rely on this check; they do not repeat it
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(GRID1, np.zeros((GRID1.n, GRID1.n)), SPACE)
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(GRID2, np.zeros(GRID2.n), SPACE)

    @pytest.mark.parametrize("side", [(SPACE, SPACE), "sideways"])
    def test_a_side_is_space_or_frequency(self, side):
        message = f"side must be 'space' or 'frequency', got {side!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SampledFunction(GRID2, np.zeros(GRID2.shape), side)

    def test_a_bad_side_leaves_the_callers_array_writable(self):
        """The side is checked before the array is adopted."""
        a = np.zeros(GRID2.shape, dtype=np.complex128)
        with pytest.raises(ValueError, match="side"):
            SampledFunction(GRID2, a, "spce")
        assert a.flags.writeable


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

    def test_odd_function_slices_to_zero(self):
        x = GRID2.space_coords()
        values = np.exp(-math.pi * x[:, None] ** 2) * (
            x[None, :] * np.exp(-math.pi * x[None, :] ** 2)
        )
        F = SampledFunction(GRID2, values, SPACE)
        assert np.max(np.abs(slice_second_zero(fourier(F)).values)) <= 1e-10
        assert np.max(np.abs(marginal_second(F).values)) <= 1e-10

    def test_marginal_of_product_gaussian(self):
        F = gaussian_product(GRID2, [1.0, 2.0])
        marg = marginal_second(F)
        x = GRID1.space_coords()
        expected = np.exp(-math.pi * x**2) * 2.0 ** (-0.5)
        np.testing.assert_allclose(marg.values, expected, atol=1e-12)
        assert marg.side == SPACE
        assert marg.grid.d2 == 0

    def test_marginal_of_near_delta_recovers_f(self):
        f = unit_gaussian()
        F = near_delta_family(GRID2, f, epsilon=0.3)
        marg = marginal_second(F)
        assert np.max(np.abs(marg.values - f.evaluate(GRID1.space_coords()))) <= 1e-3

    def test_two_path_identity_on_families(self):
        families = [
            gaussian_product(GRID2, [1.0, 1.0]),
            gaussian_product(GRID2, [0.8, 1.9]),
            near_delta_family(GRID2, unit_gaussian(), 0.5),
            near_delta_family(GRID2, unit_gaussian(), 0.25, shear=False),
        ]
        families += [random_ensemble(GRID2, 6, seed=s) for s in range(6)]
        for F in families:
            sliced = slice_second_zero(fourier(F))
            direct = fourier(marginal_second(F))
            assert np.max(np.abs(sliced.values - direct.values)) <= 1e-8

    @pytest.mark.parametrize("d1", [1, 2])
    def test_an_empty_second_group_keeps_every_axis(self, d1):
        """With d2 = 0 the marginal is f and the slice is all of f-hat."""
        f = random_ensemble(GridSpec.default(d1=d1, d2=0), 6, seed=3)
        marginal = marginal_second(f)
        assert marginal.grid == f.grid and np.array_equal(marginal.values, f.values)
        fhat = fourier(f)
        sliced = slice_second_zero(fhat)
        assert sliced.grid == fhat.grid and np.array_equal(sliced.values, fhat.values)

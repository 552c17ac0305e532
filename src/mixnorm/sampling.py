"""Generators for the test-function families used by the harnesses.

All families are built from closed-form Gaussian mixtures, so the
sheared families evaluate their factors in closed form at the sheared
arguments instead of interpolating arrays. Every generator enforces that
the essential mass of the function, on both the space and the frequency
side, stays inside the grid; a family that does not fit raises
``GenerationError`` naming the space or frequency extent that would be
needed.

Each generator tags its function with a descriptor, the plain dict
``{"family", "parameters", "seed"}``.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gaussians import GaussianMix, SeparableSum
from .grids import FREQUENCY, SPACE, GridSpec, SampledFunction

__all__ = [
    "GenerationError",
    "gaussian_product",
    "random_ensemble",
    "shear_product",
    "near_delta_family",
]

#: Amplitude tail level defining the essential support of a Gaussian term.
TAIL = 1e-15

#: Largest tolerated per-term mass fraction outside the grid. Much stricter
#: than the 99.9 percent containment contract, so sums with cancellation
#: still satisfy it comfortably.
TAIL_FRACTION_LIMIT = 1e-8

#: Amplitude tail for worst-case radius-sum gates (sheared supports). The
#: radii there add even though the worst cases rarely align, so the gate
#: uses a milder amplitude cutoff; 1e-8 edge amplitude keeps truncation
#: two orders below the 1e-6 oracle budget.
RADIUS_TAIL = 1e-8


class GenerationError(ValueError):
    """A family does not fit the requested grid.

    ``required_extent`` (when set) is an extent per axis that would make
    the construction fit at the same point count.
    """

    def __init__(self, message: str, required_extent: float | None = None):
        self.required_extent = required_extent
        if required_extent is not None:
            message = f"{message} (required extent >= {required_extent:.4g})"
        super().__init__(message)


def _check_terms(mix: GaussianMix, grid: GridSpec, label: str) -> None:
    """Reject a mixture whose mass leaks outside the grid, checking the
    space side and then the frequency side.

    Only a space-side leak sets ``required_extent``; a frequency-side
    leak names the frequency extent it needs, which is not a space extent.
    """
    for side, side_mix, extent in (
        (SPACE, mix, grid.extent),
        (FREQUENCY, mix.fourier(), grid.freq_extent),
    ):
        worst = side_mix.mass_fraction_outside(extent / 2.0)
        if worst <= TAIL_FRACTION_LIMIT:
            continue
        needed = 2.0 * side_mix.support_radius(TAIL)
        message = f"{label} {side}-side mass leaks outside the grid (fraction {worst:.3g})"
        if side == SPACE:
            raise GenerationError(message, required_extent=needed)
        raise GenerationError(f"{message}; refine the grid (need frequency extent >= {needed:.4g})")


def sample_separable(
    separable: SeparableSum, grid: GridSpec, descriptor: dict | None = None
) -> SampledFunction:
    """Sample ``separable`` on the space grid once every axis fits on both sides."""
    for axis, mix in enumerate(separable.axes):
        _check_terms(mix, grid, f"axis {axis}")
    values = separable.evaluate_grid([grid.space_coords()] * grid.ndim)
    return SampledFunction(grid, values, SPACE, descriptor, separable)


def gaussian_product(grid: GridSpec, scales: Sequence[float]) -> SampledFunction:
    """Sample ``prod_i exp(-pi * a_i * x_i**2)`` on the product grid.

    With every scale equal to 1 this is the standard Gaussian, equal to
    its own Fourier transform. Values are strictly positive.
    """
    scales = [float(a) for a in scales]
    if len(scales) != grid.ndim:
        raise ValueError(f"expected {grid.ndim} scales, got {len(scales)}")
    separable = SeparableSum(tuple(GaussianMix(1.0, a) for a in scales))
    descriptor = {"family": "gaussian_product", "parameters": {"scales": scales}, "seed": None}
    return sample_separable(separable, grid, descriptor)


def _ensemble_scale_bounds(grid: GridSpec) -> tuple[float, float]:
    log_tail = math.log(1.0 / TAIL)
    # Divided by the extent twice: its square can leave the float range.
    a_min = 16.0 * log_tail / math.pi / grid.extent / grid.extent
    a_max = math.pi * grid.n**2 / (16.0 * log_tail) / grid.extent / grid.extent
    if not all(sys.float_info.min <= a < math.inf for a in (a_min, a_max)):
        raise GenerationError(
            f"extent {grid.extent:.4g} leaves the random ensemble no normal-float scales"
        )
    if a_min > a_max:
        raise GenerationError(
            "grid too coarse for the random ensemble; "
            f"need at least {int(16 * log_tail / math.pi) + 1} points per axis"
        )
    return a_min, a_max


def random_ensemble(grid: GridSpec, complexity: int, seed: int) -> SampledFunction:
    """A sum of ``complexity`` randomized modulated Gaussians.

    Centers stay in the central half of the domain, scales are bounded so
    the essential support fits the grid, modulations are bounded so the
    essential bandwidth fits the frequency extent, and amplitudes are
    complex Gaussian. The draw is fully determined by the seed.
    """
    if complexity < 1:
        raise ValueError(f"complexity must be >= 1, got {complexity}")
    a_min, a_max = _ensemble_scale_bounds(grid)
    d = grid.ndim
    rng = np.random.default_rng(seed)
    # each row's two draws are the real and imaginary part of one amplitude
    amplitudes = rng.normal(size=(complexity, 2)).view(np.complex128)[:, 0]
    centers = rng.uniform(-grid.extent / 4.0, grid.extent / 4.0, size=(complexity, d))
    log_scales = rng.uniform(math.log(a_min), math.log(a_max), size=(complexity, d))
    mod_limit = grid.freq_extent / 4.0
    modulations = rng.uniform(-mod_limit, mod_limit, size=(complexity, d))
    # math.exp, not np.exp: the two round differently on some inputs
    scales = [[math.exp(v) for v in column] for column in log_scales.T.tolist()]
    mixes = map(GaussianMix, [amplitudes] + [1.0] * (d - 1), scales, centers.T, modulations.T)
    separable = SeparableSum(tuple(mixes))
    parameters = {"complexity": complexity}
    descriptor = {"family": "random_ensemble", "parameters": parameters, "seed": seed}
    return sample_separable(separable, grid, descriptor)


def shear_product(
    f_first: GaussianMix, g_second: GaussianMix, grid: GridSpec, out: np.ndarray | None = None
) -> SampledFunction:
    """Sample the sheared product ``F(x, y) = f(x) g(y - x)`` exactly.

    The sheared second argument is evaluated in closed form at the 2n - 1
    grid lags. Fails when the sheared support or the combined bandwidth
    leaves the grid.

    With ``out``, a complex128 array of ``grid.shape``, the samples are
    written into it and F reads them through a read-only view, so ``out``
    stays the caller's writable buffer: a caller that drops F may then
    transform it in place.
    """
    if grid.d1 != 1 or grid.d2 != 1:
        raise ValueError("the shear construction needs a 1+1 dimensional grid")
    r_f = f_first.support_radius(RADIUS_TAIL)
    r_g = g_second.support_radius(RADIUS_TAIL)
    if r_f + r_g > grid.extent / 2.0:
        raise GenerationError(
            "sheared support leaves the grid", required_extent=2.0 * (r_f + r_g)
        )
    b_f = f_first.bandwidth_radius(RADIUS_TAIL)
    b_g = g_second.bandwidth_radius(RADIUS_TAIL)
    if b_f + b_g > grid.freq_extent / 2.0:
        raise GenerationError(
            "sheared bandwidth exceeds the frequency extent; refine the grid "
            f"(need frequency extent >= {2.0 * (b_f + b_g):.4g})"
        )
    # On the uniform grid x_j - x_i = (j - i) h, so g(y - x) is Toeplitz:
    # row i is the window of the 2n - 1 lag values starting at lag -i.
    lags = g_second.evaluate(grid.spacing * np.arange(1 - grid.n, grid.n))
    toeplitz = sliding_window_view(lags, grid.n)[::-1]
    values = np.multiply(f_first.evaluate(grid.space_coords())[:, None], toeplitz, out=out)
    descriptor = {"family": "shear", "parameters": {}, "seed": None}
    return SampledFunction(grid, values if out is None else out.view(), SPACE, descriptor)


def _periodized_bump(u: np.ndarray, epsilon: float, period: float) -> np.ndarray:
    """Unit-mass Gaussian of width epsilon, wrapped onto the periodic axis.

    Periodizing keeps the mass per period exactly 1 for every center, so
    the inner integral of the near-delta family is 1 regardless of where
    the shear puts the bump.
    """
    wrapped = (u + period / 2.0) % period - period / 2.0
    images = int(math.ceil(3.0 * epsilon / period)) + 1
    out = np.zeros_like(wrapped)
    for m in range(-images, images + 1):
        shifted = wrapped + m * period
        out += np.exp(-math.pi * shifted**2 / epsilon**2)
    return out / epsilon


def near_delta_family(
    grid: GridSpec, f: GaussianMix, epsilon: float, shear: bool = True
) -> SampledFunction:
    """Couple ``f`` with a unit-mass bump: ``F(x, y) = f(x) d_eps(y + x)``.

    With ``shear=False`` the bump sits at ``y = 0`` for every x, giving
    the uncoupled product control. ``epsilon`` must be at least twice the
    grid spacing so the bump is resolvable; for each x the inner integral
    over y is 1 up to sampling error well below 1e-3.
    """
    if grid.d1 != 1 or grid.d2 != 1:
        raise ValueError("the near-delta construction needs a 1+1 dimensional grid")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon < 2.0 * grid.spacing:
        raise GenerationError(
            f"epsilon {epsilon:.4g} below the resolvability threshold "
            f"{2.0 * grid.spacing:.4g}; refine the grid"
        )
    _check_terms(f, grid, "first-factor")
    x = grid.space_coords()
    if shear:
        # x_i + x_j = 2 x_0 + (i + j) h, so the bump is Hankel: row i is the
        # window of the 2n - 1 sums starting at index i.
        sums = 2.0 * x[0] + grid.spacing * np.arange(2 * grid.n - 1)
        bump = sliding_window_view(_periodized_bump(sums, float(epsilon), grid.extent), grid.n)
    else:
        row = _periodized_bump(x, float(epsilon), grid.extent)
        bump = np.broadcast_to(row, (grid.n, grid.n))
    values = f.evaluate(x)[:, None] * bump
    parameters = {"epsilon": float(epsilon), "shear": bool(shear)}
    descriptor = {"family": "near_delta", "parameters": parameters, "seed": None}
    return SampledFunction(grid, values, SPACE, descriptor)


"""Generators for the test-function families used by the harnesses.

All families are built from closed-form Gaussian mixtures, so dilations
and shears re-evaluate the analytic object at the new arguments instead
of interpolating arrays. Every generator enforces that the essential
mass of the function, on both the space and the frequency side, stays
inside the grid; a family that does not fit raises ``GenerationError``
naming the space or frequency extent that would be needed.

Each generator tags its function with a descriptor, the plain dict
``{"family", "parameters", "seed"}`` that ``sample_descriptor`` rebuilds
the function from; a family built on other functions nests their
descriptors in its parameters.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exponents import ExponentLike, as_exponent
from .gaussians import GaussianMix, GaussianTerm, SeparableSum
from .grids import FREQUENCY, SPACE, GridSpec, SampledFunction

__all__ = [
    "GenerationError",
    "gaussian_product",
    "random_ensemble",
    "dilate_first_axis",
    "shear_product",
    "near_delta_family",
    "sample_descriptor",
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


def _check_terms(terms: Sequence[GaussianTerm], grid: GridSpec, side: str, label: str) -> None:
    """Reject terms whose mass on ``side`` leaks outside the grid.

    Only a space-side leak sets ``required_extent``; a frequency-side
    leak names the frequency extent it needs, which is not a space extent.
    """
    radius = (grid.extent if side == SPACE else grid.freq_extent) / 2.0
    worst = max(term.mass_fraction_outside(radius) for term in terms)
    if worst <= TAIL_FRACTION_LIMIT:
        return
    needed = 2.0 * max(term.support_radius(TAIL) for term in terms)
    message = f"{label} {side}-side mass leaks outside the grid (fraction {worst:.3g})"
    if side == SPACE:
        raise GenerationError(message, required_extent=needed)
    raise GenerationError(f"{message}; refine the grid (need frequency extent >= {needed:.4g})")


def check_containment(separable: SeparableSum, grid: GridSpec) -> None:
    """Space- and frequency-side containment, axis by axis."""
    transformed = separable.fourier()
    for axis in range(separable.ndim):
        _check_terms(separable.axis_terms(axis), grid, SPACE, f"axis {axis}")
        _check_terms(transformed.axis_terms(axis), grid, FREQUENCY, f"axis {axis}")


def sample_separable(
    separable: SeparableSum, grid: GridSpec, descriptor: dict | None = None
) -> SampledFunction:
    """Sample ``separable`` on the space grid once it fits on both sides."""
    check_containment(separable, grid)
    values = separable.evaluate_grid([grid.space_coords()] * grid.ndim)
    sides = (SPACE,) if grid.d2 == 0 else (SPACE, SPACE)
    return SampledFunction(grid, values, sides, descriptor, separable)


def _as_mix(f: SampledFunction | GaussianMix) -> GaussianMix:
    if isinstance(f, GaussianMix):
        return f
    analytic = getattr(f, "analytic", None)
    if isinstance(analytic, GaussianMix):
        return analytic
    if isinstance(analytic, SeparableSum) and analytic.ndim == 1:
        return GaussianMix(analytic.axis_terms(0))
    raise TypeError(
        "an analytic one-factor Gaussian family is required for exact re-evaluation"
    )


def gaussian_product(grid: GridSpec, scales: Sequence[float]) -> SampledFunction:
    """Sample ``prod_i exp(-pi * a_i * x_i**2)`` on the product grid.

    With every scale equal to 1 this is the standard Gaussian, equal to
    its own Fourier transform. Values are strictly positive.
    """
    scales = [float(a) for a in scales]
    if len(scales) != grid.ndim:
        raise ValueError(f"expected {grid.ndim} scales, got {len(scales)}")
    if any(a <= 0 for a in scales):
        raise ValueError(f"scales must be positive, got {scales}")
    separable = SeparableSum((tuple(GaussianTerm(1.0, a) for a in scales),))
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
    amplitudes = rng.normal(size=(complexity, 2))
    centers = rng.uniform(-grid.extent / 4.0, grid.extent / 4.0, size=(complexity, d))
    log_scales = rng.uniform(math.log(a_min), math.log(a_max), size=(complexity, d))
    mod_limit = grid.freq_extent / 4.0
    modulations = rng.uniform(-mod_limit, mod_limit, size=(complexity, d))

    terms = []
    for k in range(complexity):
        amp = complex(amplitudes[k, 0], amplitudes[k, 1])
        factors = [
            GaussianTerm(
                amp if axis == 0 else 1.0,
                math.exp(log_scales[k, axis]),
                centers[k, axis],
                modulations[k, axis],
            )
            for axis in range(d)
        ]
        terms.append(tuple(factors))
    parameters = {"complexity": complexity}
    descriptor = {"family": "random_ensemble", "parameters": parameters, "seed": seed}
    return sample_separable(SeparableSum(tuple(terms)), grid, descriptor)


def dilate_first_axis(f: SampledFunction, t: float, p: ExponentLike) -> SampledFunction:
    """Sample ``t**(1/p) f(t x)`` by exact analytic re-evaluation.

    The continuum L^p norm of the result equals that of ``f``. Rejects
    dilations whose essential support or bandwidth leaves the grid of
    ``f``, reporting what the grid would need.
    """
    if not t > 0:
        raise ValueError(f"dilation parameter must be positive, got {t}")
    exponent = as_exponent(p)
    mix = _as_mix(f)
    grid = f.grid
    if grid.d2 != 0 or grid.d1 != 1:
        raise ValueError("dilation acts on one-factor functions")
    dilated = mix.dilate(float(t), float(exponent.reciprocal))
    _check_terms(dilated.terms, grid, SPACE, "dilated")
    _check_terms(dilated.fourier().terms, grid, FREQUENCY, "dilated")
    values = dilated.evaluate(grid.space_coords())
    base = getattr(f, "descriptor", None)
    parameters = {"kind": "dilate", "t": float(t), "p": str(exponent), "base": base}
    descriptor = {"family": "dilation_shear", "parameters": parameters, "seed": None}
    return SampledFunction(grid, values, (SPACE,), descriptor, dilated)


def shear_product(
    f_first: SampledFunction | GaussianMix,
    g_second: SampledFunction | GaussianMix,
    grid: GridSpec,
) -> SampledFunction:
    """Sample the sheared product ``F(x, y) = f(x) g(y - x)`` exactly.

    Both inputs must be analytic one-factor families; the sheared second
    argument is evaluated in closed form at the 2n - 1 grid lags. Fails when
    the sheared support or the combined bandwidth leaves the grid.
    """
    if grid.d1 != 1 or grid.d2 != 1:
        raise ValueError("the shear construction needs a 1+1 dimensional grid")
    fm = _as_mix(f_first)
    gm = _as_mix(g_second)
    r_f = fm.support_radius(RADIUS_TAIL)
    r_g = gm.support_radius(RADIUS_TAIL)
    if r_f + r_g > grid.extent / 2.0:
        raise GenerationError(
            "sheared support leaves the grid", required_extent=2.0 * (r_f + r_g)
        )
    b_f = fm.bandwidth_radius(RADIUS_TAIL)
    b_g = gm.bandwidth_radius(RADIUS_TAIL)
    if b_f + b_g > grid.freq_extent / 2.0:
        raise GenerationError(
            "sheared bandwidth exceeds the frequency extent; refine the grid "
            f"(need frequency extent >= {2.0 * (b_f + b_g):.4g})"
        )
    # On the uniform grid x_j - x_i = (j - i) h, so g(y - x) is Toeplitz:
    # row i is the window of the 2n - 1 lag values starting at lag -i.
    lags = gm.evaluate(grid.spacing * np.arange(1 - grid.n, grid.n))
    toeplitz = sliding_window_view(lags, grid.n)[::-1]
    values = fm.evaluate(grid.space_coords())[:, None] * toeplitz
    f_base, g_base = getattr(f_first, "descriptor", None), getattr(g_second, "descriptor", None)
    parameters = {"kind": "shear", "f": f_base, "g": g_base}
    descriptor = {"family": "dilation_shear", "parameters": parameters, "seed": None}
    return SampledFunction(grid, values, (SPACE, SPACE), descriptor)


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
    grid: GridSpec,
    f: SampledFunction | GaussianMix,
    epsilon: float,
    shear: bool = True,
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
    fm = _as_mix(f)
    _check_terms(fm.terms, grid, SPACE, "first-factor")
    _check_terms(fm.fourier().terms, grid, FREQUENCY, "first-factor")
    x = grid.space_coords()
    if shear:
        # x_i + x_j = 2 x_0 + (i + j) h, so the bump is Hankel: row i is the
        # window of the 2n - 1 sums starting at index i.
        sums = 2.0 * x[0] + grid.spacing * np.arange(2 * grid.n - 1)
        bump = sliding_window_view(_periodized_bump(sums, float(epsilon), grid.extent), grid.n)
    else:
        row = _periodized_bump(x, float(epsilon), grid.extent)
        bump = np.broadcast_to(row, (grid.n, grid.n))
    values = fm.evaluate(x)[:, None] * bump
    base = getattr(f, "descriptor", None)
    parameters = {"epsilon": float(epsilon), "shear": bool(shear), "f": base}
    descriptor = {"family": "near_delta", "parameters": parameters, "seed": None}
    return SampledFunction(grid, values, (SPACE, SPACE), descriptor)


def sample_descriptor(descriptor: dict | None, grid: GridSpec) -> SampledFunction:
    """Rebuild a sampled function from its descriptor dict on the given grid."""
    if descriptor is None:
        raise ValueError("the input had no descriptor, so it cannot be rebuilt")
    family = descriptor["family"]
    params = descriptor.get("parameters", {})
    if family == "gaussian_product":
        return gaussian_product(grid, params["scales"])
    if family == "random_ensemble":
        if descriptor.get("seed") is None:
            raise ValueError("a random ensemble descriptor needs a seed")
        return random_ensemble(grid, params["complexity"], descriptor["seed"])
    if family == "near_delta":
        f = sample_descriptor(params["f"], grid.first_factor())
        return near_delta_family(grid, f, params["epsilon"], shear=params.get("shear", True))
    if family == "dilation_shear":
        kind = params.get("kind")
        if kind == "dilate":
            base = sample_descriptor(params["base"], grid)
            return dilate_first_axis(base, params["t"], params["p"])
        if kind == "shear":
            f = sample_descriptor(params["f"], grid.first_factor())
            g = sample_descriptor(params["g"], grid.first_factor())
            return shear_product(f, g, grid)
        raise ValueError(f"unknown dilation_shear kind {kind!r}")
    raise ValueError(f"family {family!r} cannot be reconstructed from a descriptor")

"""Centered, continuum-normalized Fourier transforms on product grids.

``fourier`` approximates F̂(ξ) = ∫ e^{−2πi x·ξ} F(x) dx by one h-scaled,
centered n-dimensional DFT over every axis. Both grids are centered
with N even, so per axis

    F̂(ξ_k) = h · (−1)^{N/2} · (−1)^k · FFT[(−1)^j F(x_j)]_k
            = h · fftshift(FFT[ifftshift(F)])_k

With N even, fftshift and ifftshift both swap the two halves of an axis,
so both can be done in place. ``fourier`` keeps its input and shifts a
copy of it, so it holds two grid arrays, its input and its result.
``fourier_in_place`` takes a caller's writable space-side array and
transforms it where it lies, so it holds one grid array: the result
adopts the input's buffer. Both run the same FFT, unshift and scaling
on the same shifted values, so their results agree bit for bit.

There is no inverse: every check measures F̂ on the frequency side.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grids import FREQUENCY, SPACE, GridSpec, SampledFunction

__all__ = [
    "fourier",
    "fourier_in_place",
    "slice_second_zero",
    "marginal_second",
]


#: Slabs of the first shifted axis per swap block of ``_swap_halves``.
_SWAP_BLOCK = 64


def _swap_halves(values: np.ndarray, axes: list[int]) -> None:
    """``fftshift`` in place over ``axes``, each of even length n.

    The shift moves every point by n/2 along each of ``axes``, which swaps
    each orthant of those axes with the opposite one. The swaps go 64
    slabs of the first of ``axes`` at a time, so the scratch copy is small.
    When that axis is axis 0 the two sides of a swap also lie apart in
    memory, so NumPy makes no copy of its own.
    """
    first, *rest = sorted(axes)
    half = values.shape[first] // 2
    halves = (slice(None, half), slice(half, None))
    for start in range(0, half, _SWAP_BLOCK):
        end = min(start + _SWAP_BLOCK, half)
        for corner in itertools.product((0, 1), repeat=len(rest)):
            low = [slice(None)] * values.ndim
            high = [slice(None)] * values.ndim
            low[first], high[first] = slice(start, end), slice(half + start, half + end)
            for axis, side in zip(rest, corner):
                low[axis], high[axis] = halves[side], halves[1 - side]
            low, high = values[tuple(low)], values[tuple(high)]
            # The copy of low is freed here, before the next swap's.
            low[...], high[...] = high, low.copy()


def fourier(F: SampledFunction) -> SampledFunction:
    """Forward transform over every axis, from the space side to the
    frequency side.

    Unitary from sampled L² to sampled L² up to discretization error, and
    contractive from L¹ to L^∞.
    """
    if F.side != SPACE:
        raise ValueError(f"F is on the {F.side} side; the forward transform needs the space side")
    # ifftshift returns a fresh array, faster than a copy swapped in place.
    return _transform_shifted(np.fft.ifftshift(F.values), F.grid)


def fourier_in_place(values: np.ndarray, grid: GridSpec) -> SampledFunction:
    """``fourier`` of the space-side samples ``values``, written over them.

    ``values`` must be a writable complex128 array of ``grid.shape`` that
    no live ``SampledFunction`` reads. The caller gives it up: the
    frequency-side result adopts the same buffer and makes it read-only,
    so no second grid array is allocated. An array that does not qualify
    is rejected before it is written.
    """
    if values.dtype != np.complex128:
        raise ValueError(f"fourier_in_place needs complex128 samples, got {values.dtype}")
    if values.shape != grid.shape:
        raise ValueError(f"fourier_in_place needs samples of shape {grid.shape}, got {values.shape}")
    if not values.flags.writeable:
        raise ValueError("fourier_in_place needs writable samples")
    _swap_halves(values, list(range(values.ndim)))  # ifftshift, as N is even
    return _transform_shifted(values, grid)


def _transform_shifted(values: np.ndarray, grid: GridSpec) -> SampledFunction:
    """FFT, ``fftshift`` and h^k scaling, in place on ``values``: the
    ``ifftshift``-ed samples, in an array that nothing else reads."""
    axes = list(range(values.ndim))
    np.fft.fftn(values, axes=axes, out=values)
    _swap_halves(values, axes)
    values *= grid.spacing ** len(axes)
    return SampledFunction(grid, values, FREQUENCY)


def slice_second_zero(Fhat: SampledFunction) -> SampledFunction:
    """Restrict a full frequency-side array to the hyperplane ξ'' = 0.

    The centered dual grid puts 0 at index n//2 on every axis, so the
    restriction is an exact extraction (all of Fhat when d2 = 0). Equals
    the transform of the second-group marginal up to quadrature error.
    """
    grid = Fhat.grid
    if Fhat.side != FREQUENCY:
        raise ValueError("slice_second_zero needs the frequency-side array")
    values = Fhat.values
    zero = grid.n // 2
    for axis in reversed(grid.second_axes):
        values = np.take(values, zero, axis=axis)
    return SampledFunction(grid.first_factor(), values, FREQUENCY)


def marginal_second(F: SampledFunction) -> SampledFunction:
    """Integrate out the second group: f(x') = ∫ F(x', x'') dx''.

    Plain h-weighted Riemann sum, which on the periodic grid is the
    trapezoid rule and is spectrally accurate for the generated
    families. With d2 = 0 the marginal is F itself, of weight h⁰ = 1.
    """
    grid = F.grid
    if F.side != SPACE:
        raise ValueError("marginal_second needs the space-side array")
    weight = grid.spacing ** grid.d2
    values = weight * F.values.sum(axis=grid.second_axes)
    return SampledFunction(grid.first_factor(), values, SPACE)

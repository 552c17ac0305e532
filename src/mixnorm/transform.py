"""Centered, continuum-normalized Fourier transforms on product grids.

``fourier`` approximates F̂(ξ) = ∫ e^{−2πi x·ξ} F(x) dx by one h-scaled,
centered n-dimensional DFT over all transformed axes. Both grids are
centered with N even, so per axis

    F̂(ξ_k) = h · (−1)^{N/2} · (−1)^k · FFT[(−1)^j F(x_j)]_k
            = h · fftshift(FFT[ifftshift(F)])_k

With N even, fftshift swaps the two halves of an axis, so it is undone
in place on the FFT's own buffer: a transform holds two grid arrays, its
input and its result.

Transforms act on whole axis groups (first, second, or all), matching
the partial-transform structure of the inequalities: a full transform is
the composition of the second-group and first-group partial transforms.
There is no inverse: every check measures F̂ on the frequency side.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grids import FREQUENCY, SPACE, GridSpec, SampledFunction

__all__ = [
    "fourier",
    "slice_second_zero",
    "marginal_second",
]


def _normalize_selector(grid: GridSpec, axes: str) -> tuple[int, ...]:
    """Map a group selector to the tuple of group indices it names."""
    if axes == "all":
        return (0,) if grid.d2 == 0 else (0, 1)
    if axes == "first":
        return (0,)
    if axes == "second":
        if grid.d2 == 0:
            raise ValueError("grid has no second axis group")
        return (1,)
    raise ValueError(f"axes selector must be 'first', 'second', or 'all', got {axes!r}")


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


def fourier(F: SampledFunction, axes: str = "all") -> SampledFunction:
    """Forward transform over the selected axis groups, each of which moves
    from the space side to the frequency side.

    With ``axes="all"`` this is unitary from sampled L² to sampled L² up
    to discretization error, and contractive from L¹ to L^∞.
    """
    side = list(F.side)
    axes_list: list[int] = []
    for group in _normalize_selector(F.grid, axes):
        if side[group] != SPACE:
            raise ValueError(
                f"group {group} is on the {side[group]} side; "
                "cannot apply a forward transform there"
            )
        side[group] = FREQUENCY
        axes_list += F.group_axes(group)
    # ifftshift returns a fresh array, so the FFT may write into it and
    # the result is shifted back in place: no third grid array.
    values = np.fft.ifftshift(F.values, axes=axes_list)
    np.fft.fftn(values, axes=axes_list, out=values)
    _swap_halves(values, axes_list)
    values *= F.grid.spacing ** len(axes_list)
    return SampledFunction(F.grid, values, tuple(side))


def slice_second_zero(Fhat: SampledFunction) -> SampledFunction:
    """Restrict a full frequency-side array to the hyperplane ξ'' = 0.

    The centered dual grid puts 0 at index n//2 on every axis, so the
    restriction is an exact extraction, no interpolation. Equals the
    transform of the second-group marginal up to quadrature error.
    """
    grid = Fhat.grid
    if grid.d2 == 0:
        raise ValueError("grid has no second axis group to slice away")
    if any(entry != FREQUENCY for entry in Fhat.side):
        raise ValueError("slice_second_zero needs the full frequency-side array")
    values = Fhat.values
    zero = grid.n // 2
    for axis in reversed(grid.second_axes):
        values = np.take(values, zero, axis=axis)
    return SampledFunction(grid.first_factor(), values, (FREQUENCY,))


def marginal_second(F: SampledFunction) -> SampledFunction:
    """Integrate out the second group: f(x') = ∫ F(x', x'') dx''.

    Plain h-weighted Riemann sum, which on the periodic grid is the
    trapezoid rule and is spectrally accurate for the generated
    families.
    """
    grid = F.grid
    if grid.d2 == 0:
        raise ValueError("grid has no second axis group to integrate")
    if any(entry != SPACE for entry in F.side):
        raise ValueError("marginal_second needs the space-side array")
    weight = grid.spacing ** grid.d2
    values = weight * F.values.sum(axis=grid.second_axes)
    return SampledFunction(grid.first_factor(), values, (SPACE,))

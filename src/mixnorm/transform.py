"""Centered, continuum-normalized Fourier transforms on product grids.

The forward map approximates F̂(ξ) = ∫ e^{−2πi x·ξ} F(x) dx by one
h-scaled, centered n-dimensional DFT over all transformed axes. Both
grids are centered with N even, so per axis

    F̂(ξ_k) = h · (−1)^{N/2} · (−1)^k · FFT[(−1)^j F(x_j)]_k
            = h · fftshift(FFT[ifftshift(F)])_k

Transforms act on whole axis groups (first, second, or all), matching
the partial-transform structure of the inequalities: a full transform is
the composition of the second-group and first-group partial transforms.
"""

from __future__ import annotations

import numpy as np

from .grids import FREQUENCY, SPACE, GridSpec, SampledFunction

__all__ = [
    "fourier",
    "inverse_fourier",
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


def _transform(F: SampledFunction, axes: str, forward: bool) -> SampledFunction:
    """Transform the selected groups, flipping each one's side.

    Forward followed by inverse on the same axes is the identity up to
    roundoff, since the shifts cancel and so do FFT/IFFT.
    """
    want = SPACE if forward else FREQUENCY
    flip = FREQUENCY if forward else SPACE
    side = list(F.side)
    axes_list: list[int] = []
    for group in _normalize_selector(F.grid, axes):
        if side[group] != want:
            direction = "forward" if forward else "inverse"
            raise ValueError(
                f"group {group} is on the {side[group]} side; "
                f"cannot apply a {direction} transform there"
            )
        side[group] = flip
        axes_list += F.group_axes(group)
    kernel = np.fft.fftn if forward else np.fft.ifftn
    # ifftshift returns a fresh array, so the kernel may write into it.
    shifted = np.fft.ifftshift(F.values, axes=axes_list)
    values = np.fft.fftshift(kernel(shifted, axes=axes_list, out=shifted), axes=axes_list)
    values *= F.grid.spacing ** (len(axes_list) if forward else -len(axes_list))
    return SampledFunction(F.grid, values, tuple(side))


def fourier(F: SampledFunction, axes: str = "all") -> SampledFunction:
    """Forward transform over the selected axis groups.

    With ``axes="all"`` this is unitary from sampled L² to sampled L² up
    to discretization error, and contractive from L¹ to L^∞.
    """
    return _transform(F, axes, forward=True)


def inverse_fourier(F: SampledFunction, axes: str = "all") -> SampledFunction:
    """Inverse transform over the selected axis groups."""
    return _transform(F, axes, forward=False)


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

"""Product grids and sampled functions on them.

A grid discretizes a product domain R^d1 x R^d2 with the same even point
count N and extent L on every axis. The space grid on each axis is
``x_j = -L/2 + j*L/N``; the frequency grid is the centered dual grid
``xi_k = (k - N/2)/L`` with spacing 1/L and extent N/L. N even puts 0 on
both grids, which hyperplane slicing relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["GridSpec", "SampledFunction", "NonFiniteValues", "SPACE", "FREQUENCY"]

SPACE = "space"
FREQUENCY = "frequency"


class NonFiniteValues(ValueError):
    """Samples that hold an infinity or a NaN; no ``SampledFunction`` does."""


#: Construction serials of ``SampledFunction`` objects.
_SERIALS = itertools.count()


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization shared by the space and frequency sides."""

    d1: int
    d2: int  # 0 for a single-factor domain, whose second axis group is empty
    n: int = 256
    extent: float = 16.0

    def __post_init__(self):
        if self.d1 < 1:
            raise ValueError(f"first factor dimension must be >= 1, got {self.d1}")
        if self.d2 < 0:
            raise ValueError(f"second factor dimension must be >= 0, got {self.d2}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 2, got {self.n}")
        if not 0 < self.extent < np.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")

    @classmethod
    def default(cls, d1: int = 1, d2: int = 1, n: int = 256, extent: float = 16.0) -> "GridSpec":
        return cls(d1, d2, n, extent)

    @property
    def spacing(self) -> float:
        return self.extent / self.n

    @property
    def freq_spacing(self) -> float:
        return 1.0 / self.extent

    @property
    def freq_extent(self) -> float:
        return self.n / self.extent

    @property
    def ndim(self) -> int:
        return self.d1 + self.d2

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.ndim

    @property
    def first_axes(self) -> tuple[int, ...]:
        return tuple(range(self.d1))

    @property
    def second_axes(self) -> tuple[int, ...]:
        return tuple(range(self.d1, self.ndim))

    def space_coords(self) -> np.ndarray:
        """Per-axis space sample points, covering [-L/2, L/2)."""
        return -0.5 * self.extent + self.spacing * np.arange(self.n)

    def freq_coords(self) -> np.ndarray:
        """Per-axis centered dual-grid frequencies; index n//2 is 0."""
        return (np.arange(self.n) - self.n // 2) * self.freq_spacing

    def first_factor(self) -> "GridSpec":
        """The same grid restricted to the first axis group."""
        return GridSpec(self.d1, 0, self.n, self.extent)


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a product grid, on one side of it.

    ``side`` is "space" or "frequency" for the whole function.
    ``descriptor`` is the recipe dict that ``sampling`` tags the function
    with, or None. ``analytic`` optionally carries the
    closed-form object behind the samples: ``sampling.sample_separable``
    keeps the separable Gaussian sum it sampled.
    A function is immutable: ``values`` is stored read-only, and
    reassigning any field raises ``dataclasses.FrozenInstanceError``.
    A complex128 array is adopted, not copied: ``values`` is the caller's
    array, now read-only. Any other dtype is converted into a new array,
    so the caller's stays writeable.
    Construction starts the empty memo of reductions that ``mixed_norms``
    keeps per function and draws a ``_serial``. Unlike ``id()``, a serial
    is never reused, so a memo entry keyed by another function's serial
    cannot outlive that function.
    """

    grid: GridSpec
    values: np.ndarray
    side: str
    descriptor: dict[str, Any] | None = None
    analytic: Any = None

    def __post_init__(self):
        if self.side not in (SPACE, FREQUENCY):
            raise ValueError(f"side must be 'space' or 'frequency', got {self.side!r}")
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteValues("sampled values must all be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_reductions", {})
        object.__setattr__(self, "_serial", next(_SERIALS))

    @property
    def cell_width(self) -> float:
        """Per-axis cell width on the function's side of the grid."""
        return self.grid.spacing if self.side == SPACE else self.grid.freq_spacing

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, values, self.side)

"""Product grids and sampled functions on them.

A grid discretizes a product domain R^d1 x R^d2 with the same even point
count N and extent L on every axis. The space grid on each axis is
``x_j = -L/2 + j*L/N``; the frequency grid is the centered dual grid
``xi_k = (k - N/2)/L`` with spacing 1/L and extent N/L. N even puts 0 on
both grids, which hyperplane slicing relies on.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
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
    d2: int  # 0 for a single-factor domain: marginals, slices, plain Hausdorff-Young
    n: int = 256
    extent: float = 16.0

    def __post_init__(self):
        if self.d1 < 1:
            raise ValueError(f"first factor dimension must be >= 1, got {self.d1}")
        if self.d2 < 0:
            raise ValueError(f"second factor dimension must be >= 0, got {self.d2}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 2, got {self.n}")
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")

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
    """Complex samples on a product grid, tagged per axis group.

    ``side`` holds one entry per axis group ("space" or "frequency"), so
    partially transformed functions are representable. ``descriptor`` is
    the recipe dict that ``sampling`` builds and rebuilds the function
    from, or None. ``analytic`` optionally carries the closed-form object
    behind the samples; the dilation and shear constructors require it
    for exact re-evaluation.
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
    side: tuple[str, ...]
    descriptor: dict[str, Any] | None = None
    analytic: Any = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteValues("sampled values must all be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "side", tuple(self.side))
        expected_groups = 1 if self.grid.d2 == 0 else 2
        if len(self.side) != expected_groups or any(s not in (SPACE, FREQUENCY) for s in self.side):
            raise ValueError(f"side must have {expected_groups} entries of 'space'/'frequency'")
        object.__setattr__(self, "_reductions", {})
        object.__setattr__(self, "_serial", next(_SERIALS))

    def group_axes(self, group: int) -> tuple[int, ...]:
        if group == 0:
            return self.grid.first_axes
        if group == 1 and self.grid.d2 > 0:
            return self.grid.second_axes
        raise ValueError(f"no axis group {group} on this grid")

    def group_spacing(self, group: int) -> float:
        """Cell width on the given group's side of the grid."""
        return self.grid.spacing if self.side[group] == SPACE else self.grid.freq_spacing

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, values, self.side)

    def save(self, path: str | Path) -> None:
        """Write raw row-major complex128 bytes plus a JSON sidecar.

        The flat layout orders axes as all first-group axes then all
        second-group axes. The sidecar at ``<path>.json`` carries the
        grid, the sides, and the descriptor when present.
        """
        path = Path(path)
        path.write_bytes(np.ascontiguousarray(self.values).tobytes())
        sidecar = {
            "dtype": "complex128",
            "order": "C",
            "d1": self.grid.d1,
            "d2": self.grid.d2,
            "n": self.grid.n,
            "extent": self.grid.extent,
            "side": list(self.side),
            "descriptor": self.descriptor,
        }
        path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "SampledFunction":
        path = Path(path)
        sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        grid = GridSpec(sidecar["d1"], sidecar["d2"], sidecar["n"], sidecar["extent"])
        values = np.frombuffer(path.read_bytes(), dtype=np.complex128).reshape(grid.shape)
        return cls(grid, values.copy(), tuple(sidecar["side"]), sidecar.get("descriptor"))

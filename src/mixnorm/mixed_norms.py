"""Mixed Lebesgue norms on product grids.

``mixed_norm`` evaluates the inner norm first, over one axis group, then
the outer norm over the other group. Quadrature is the plain Riemann sum
with cell weight spacing**(axes in group); an exponent of infinity takes
an exact maximum of absolute values with no measure factor.

Each function's memo belongs to this module alone. An inner reduction of
F or of F-hat is kept under (spectrum, inner group, inner exponent), so a
repeated norm redoes only the outer layer; ``slice_norm`` keeps the slice
magnitude under ("slice", partner serial). A one-group function (d2 = 0)
has an empty second group, which a reduction leaves as it is (weight
h⁰ = 1): its (p, 1) norm is its L^p norm, and its memo keeps |F|.

A memo miss reads the complex array in blocks of whole rows of axis 0,
about 4 MiB each, and takes each block's magnitudes, powers and sums on
their own. No full-grid float array is made but a one-group |F|, and
every stage equals the one reduced from the whole array, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import Exponent, ExponentLike, as_exponent
from .grids import NonFiniteValues, SampledFunction
from .transform import fourier, marginal_second

__all__ = [
    "MixedNormSpec",
    "mixed_norm",
    "spectrum_norm",
    "slice_norm",
]


@dataclass(frozen=True)
class MixedNormSpec:
    """Which group gets which exponent, and in which evaluation order.

    The inner norm is evaluated first, over axis group ``inner_group``
    (0 for the first, 1 for the second); the outer norm covers the other.
    """

    outer_exponent: Exponent
    inner_group: int
    inner_exponent: Exponent

    def __post_init__(self):
        if self.inner_group not in (0, 1):
            raise ValueError(f"inner group must be 0 or 1, got {self.inner_group!r}")
        object.__setattr__(self, "outer_exponent", as_exponent(self.outer_exponent))
        object.__setattr__(self, "inner_exponent", as_exponent(self.inner_exponent))

    @classmethod
    def standard(cls, outer: ExponentLike, inner: ExponentLike) -> "MixedNormSpec":
        """L^outer over the first group of the L^inner over the second."""
        return cls(outer, 1, inner)


def _powers(values: np.ndarray, a: float, top: float | None = None) -> np.ndarray:
    """``values**a``, except that for 2 < a <= 12 a term whose power is
    under 2^-1022 of the largest power is 0. ``top`` is the largest value of
    the array that ``values`` is a block of; by default ``values.max()``.

    glibc's pow takes a slow path wherever its result underflows, on nearly
    a third of a sampled ensemble at a = 9. A skipped term cannot move a sum
    that holds the largest term, and a row made only of skipped terms has a
    norm under 2^-83 of the largest row's on grids of up to 2^22 points per
    group, so no outer layer sees it either; above a = 12 that bound fails.
    A NaN maximum skips nothing, so NaN still propagates.
    """
    if not 2.0 < a <= 12.0:
        return values**a
    floor = (values.max() if top is None else top) * 2.0 ** (-1022.0 / a)
    if not floor > 0.0:
        return values**a
    return np.power(values, a, out=np.zeros_like(values), where=values >= floor)


#: Bytes of complex input per block of a memo-miss reduction. A 256² array
#: is one block.
_BLOCK_BYTES = 4 << 20


# An overflow in a reduction gives an infinite side, which marks the report
# degenerate, so it is not warned about.
@np.errstate(over="ignore")
def _inner_stages(
    values: np.ndarray, layers: list[tuple[tuple[int, ...], float]], e: Exponent
) -> list[np.ndarray]:
    """One norm layer of ``np.abs(values)`` per (axes, weight) pair in
    ``layers``, read in blocks of whole rows of axis 0.

    A layer over trailing axes reduces each row on its own. NumPy reduces
    leading axes, axis 0 among them, one row after another, so each block
    is folded to rows and reduced with the previous blocks' result as its
    first row; adding per-block sums would not give the same bits.
    """
    rows = max(1, _BLOCK_BYTES // values[0].nbytes)
    blocks = [values[i : i + rows] for i in range(0, len(values), rows)]
    a = float(e)
    top = None
    if len(blocks) > 1 and 2.0 < a <= 12.0:
        # _powers' floor comes from the whole array; np.max, unlike max, keeps a NaN
        top = np.max([np.abs(block).max() for block in blocks])
    reduce = np.maximum.reduce if a == math.inf else np.add.reduce
    parts: list[list[np.ndarray]] = [[] for _ in layers]
    for block in blocks:
        terms = np.abs(block)
        if a not in (1.0, math.inf):
            terms = _powers(terms, a, top)
        for (axes, _), part in zip(layers, parts):
            if 0 not in axes:
                part.append(reduce(terms, axis=axes))
                continue
            folded = terms.reshape(-1, *terms.shape[len(axes) :])
            if part:  # a leading layer's part is its one running result
                folded = np.concatenate((part.pop()[None], folded))
            part.append(reduce(folded, axis=0))
    stages = [np.concatenate(part) if len(part) > 1 else part[0] for part in parts]
    if a == math.inf:
        return stages
    if a == 1.0:
        return [weight * stage for (_, weight), stage in zip(layers, stages)]
    return [(weight * stage) ** (1.0 / a) for (_, weight), stage in zip(layers, stages)]


def _memo_norm(F: SampledFunction, spec: MixedNormSpec, spectrum: bool) -> float:
    """The ``spec`` norm of F, or of its transform when ``spectrum`` is set.
    F's memo holds the inner reduction; F is transformed only on a miss.

    Variant and same-order take their inner spectrum norms over opposite
    groups at the same exponents, so a spectrum miss fills both groups'
    reductions from one transform and one power pass.
    """
    key = (spectrum, spec.inner_group, spec.inner_exponent)
    stage = F._reductions.get(key)
    if stage is None:
        G = fourier(F) if spectrum else F
        groups = (0, 1) if spectrum else (spec.inner_group,)
        axes = (F.grid.first_axes, F.grid.second_axes)
        layers = [(axes[g], G.cell_width ** len(axes[g])) for g in groups]
        stages = _inner_stages(G.values, layers, spec.inner_exponent)
        for group, stage in zip(groups, stages):
            F._reductions[(spectrum, group, spec.inner_exponent)] = stage
        stage = F._reductions[key]

    # The inner reduction only removes trailing or leading group axes,
    # so the surviving axes are exactly the outer group's.
    spacing = F.grid.freq_spacing if spectrum else F.cell_width
    return _magnitude_norm(stage, spacing**stage.ndim, spec.outer_exponent)


def mixed_norm(F: SampledFunction, spec: MixedNormSpec) -> float:
    return _memo_norm(F, spec, spectrum=False)


def spectrum_norm(F: SampledFunction, spec: MixedNormSpec) -> float:
    """``mixed_norm(fourier(F), spec)``, transforming F only when its memo
    lacks the inner reduction."""
    return _memo_norm(F, spec, spectrum=True)


@np.errstate(over="ignore")
def _magnitude_norm(magnitude: np.ndarray, weight: float, a: Exponent) -> float:
    """The L^a norm over every axis of an array of magnitudes with cell weight ``weight``."""
    a = float(a)
    if a == math.inf:
        return float(magnitude.max())
    if a == 1.0:  # x**1.0 == x, but NumPy still makes a full pass for it
        return float(weight * magnitude.sum())
    return float((weight * _powers(magnitude, a).sum()) ** (1.0 / a))


def slice_norm(
    F: SampledFunction, a: ExponentLike, partner: SampledFunction | None = None
) -> float:
    """L^a norm on the slice xi'' = 0 of F-hat, or of (F·partner)-hat.

    At the centered grid's zero index the slice is exactly the transform
    of the x''-marginal; with no second group (d2 = 0) it is the whole
    transform. F's memo keeps the slice magnitude, keyed by the partner's
    serial, so each further exponent only reduces it. A product, marginal
    or transform that overflows gives an infinite norm, which marks its
    trial degenerate, and is not kept.
    """
    if partner is not None and (partner.grid != F.grid or partner.side != F.side):
        raise ValueError("factors must share a grid and side")
    key = ("slice", None if partner is None else partner._serial)
    magnitude = F._reductions.get(key)
    if magnitude is None:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                product = F if partner is None else F.with_values(F.values * partner.values)
                magnitude = np.abs(fourier(marginal_second(product)).values)
        except NonFiniteValues:
            return math.inf
        F._reductions[key] = magnitude
    return _magnitude_norm(magnitude, F.grid.freq_spacing ** F.grid.d1, as_exponent(a))


"""Mixed Lebesgue norms on product grids, plus the comparison oracles.

``mixed_norm`` evaluates the inner norm first, over one axis group, then
the outer norm over the other group. Quadrature is the plain Riemann sum
with cell weight spacing**(axes in group); an exponent of infinity takes
an exact maximum of absolute values with no measure factor.

Inner reductions are memoised per function, so repeated norms of one
function, or of its spectrum, redo only the outer layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exponents import Exponent, ExponentLike, as_exponent, holder_exponents
from .grids import SampledFunction

__all__ = [
    "MixedNormSpec",
    "MinkowskiComparison",
    "DegenerateTrial",
    "mixed_norm",
    "plain_norm",
    "minkowski_compare",
    "holder_compare",
]

#: Slack for the exact comparison oracles; these identities hold to
#: roundoff, not merely to quadrature accuracy.
COMPARISON_TOL = 1e-10

_GROUPS = ("first", "second")


class DegenerateTrial(ValueError):
    """A ratio has a zero denominator; the trial carries no information."""


@dataclass(frozen=True)
class MixedNormSpec:
    """Which group gets which exponent, and in which evaluation order.

    The inner norm is evaluated first. The two selectors must name
    different groups, so together they cover every axis.
    """

    outer_axes: str
    outer_exponent: Exponent
    inner_axes: str
    inner_exponent: Exponent

    def __post_init__(self):
        for name in (self.outer_axes, self.inner_axes):
            if name not in _GROUPS:
                raise ValueError(f"axis selector must be one of {_GROUPS}, got {name!r}")
        if self.outer_axes == self.inner_axes:
            raise ValueError("outer and inner selectors must partition the axes")
        object.__setattr__(self, "outer_exponent", as_exponent(self.outer_exponent))
        object.__setattr__(self, "inner_exponent", as_exponent(self.inner_exponent))

    @classmethod
    def standard(cls, outer: ExponentLike, inner: ExponentLike) -> "MixedNormSpec":
        """L^outer over the first group of the L^inner over the second."""
        return cls("first", as_exponent(outer), "second", as_exponent(inner))

    @classmethod
    def reversed(cls, outer: ExponentLike, inner: ExponentLike) -> "MixedNormSpec":
        """L^outer over the second group of the L^inner over the first."""
        return cls("second", as_exponent(outer), "first", as_exponent(inner))


def _group_index(name: str) -> int:
    return 0 if name == "first" else 1


def _powers(values: np.ndarray, a: float) -> np.ndarray:
    """``values**a``, except that for 2 < a <= 12 a term whose power is
    under 2^-1022 of the largest power is 0.

    glibc's pow takes a slow path wherever its result underflows, on nearly
    a third of a sampled ensemble at a = 9. A skipped term cannot move a sum
    that holds the largest term, and a row made only of skipped terms has a
    norm under 2^-83 of the largest row's on grids of up to 2^22 points per
    group, so no outer layer sees it either; above a = 12 that bound fails.
    A NaN maximum skips nothing, so NaN still propagates.
    """
    floor = values.max() * 2.0 ** (-1022.0 / a) if 2.0 < a <= 12.0 else 0.0
    if not floor > 0.0:
        return values**a
    return np.power(values, a, out=np.zeros_like(values), where=values >= floor)


def _reduce_each(
    values: np.ndarray, layers: list[tuple[tuple[int, ...], float]], e: Exponent
) -> list[np.ndarray]:
    """One norm layer per (axes, weight) pair in ``layers``, from one power pass."""
    if e.is_infinite:
        return [values.max(axis=axes) for axes, _ in layers]
    a = float(e.value)
    if a == 1.0:  # x**1.0 == x, but NumPy still makes a full pass for it
        return [weight * values.sum(axis=axes) for axes, weight in layers]
    powers = _powers(values, a)
    return [(weight * powers.sum(axis=axes)) ** (1.0 / a) for axes, weight in layers]


def _reduce(values: np.ndarray, axes: tuple[int, ...], weight: float, e: Exponent) -> np.ndarray:
    """One norm layer over the given axes."""
    return _reduce_each(values, [(axes, weight)], e)[0]


def _memo_norm(F: SampledFunction, spec: MixedNormSpec, source: str, build: Callable) -> float:
    """The ``spec`` norm of ``build()``, which is F ("samples") or its transform
    ("spectrum"). F's memo holds the inner reduction; ``build`` runs on a miss.

    Variant and same-order take their inner spectrum norms over opposite
    groups at the same exponents, so a spectrum miss fills both groups'
    reductions from one transform and one power pass.
    """
    if F.grid.d2 == 0:
        raise ValueError("mixed norms need both axis groups; use plain_norm instead")
    key = (source, spec.inner_axes, spec.inner_exponent)
    if key not in F._reductions:
        G = build()
        groups = _GROUPS if source == "spectrum" else (spec.inner_axes,)
        layers = []
        for name in groups:
            axes = G.group_axes(_group_index(name))
            layers.append((axes, G.group_spacing(_group_index(name)) ** len(axes)))
        magnitude = np.abs(G.values)
        del G  # frees a spectrum before the reduction makes its temporaries
        stages = _reduce_each(magnitude, layers, spec.inner_exponent)
        for name, stage in zip(groups, stages):
            F._reductions[(source, name, spec.inner_exponent)] = stage
    stage = F._reductions[key]

    # The inner reduction only removes trailing or leading group axes,
    # so the surviving axes are exactly the outer group's, renumbered
    # from zero.
    outer_axes = tuple(range(stage.ndim))
    outer_group = _group_index(spec.outer_axes)
    spacing = F.group_spacing(outer_group) if source == "samples" else F.grid.freq_spacing
    return float(_reduce(stage, outer_axes, spacing ** len(outer_axes), spec.outer_exponent))


def mixed_norm(F: SampledFunction, spec: MixedNormSpec) -> float:
    return _memo_norm(F, spec, "samples", lambda: F)


def plain_norm(F: SampledFunction, a: ExponentLike) -> float:
    """The unmixed L^a norm over every axis at once."""
    weight = 1.0
    for group in range(len(F.side)):
        weight *= F.group_spacing(group) ** len(F.group_axes(group))
    return _magnitude_norm(np.abs(F.values), weight, a)


def _magnitude_norm(magnitude: np.ndarray, weight: float, a: ExponentLike) -> float:
    """The L^a norm over every axis of an array of magnitudes with cell weight ``weight``."""
    return float(_reduce(magnitude, tuple(range(magnitude.ndim)), weight, as_exponent(a)))


class MinkowskiComparison(NamedTuple):
    larger_outermost: float
    smaller_outermost: float
    holds: bool


def minkowski_compare(
    F: SampledFunction, a: ExponentLike, b: ExponentLike
) -> MinkowskiComparison:
    """Both evaluation orders of the (a, b) mixed norm, larger-exponent-
    outermost first, with the verdict ``first <= second + 1e-10``.

    ``a`` is bound to the first group and ``b`` to the second throughout;
    only the evaluation order changes between the two numbers. On the
    identity matrix with unit cells and (a, b) = (2, 1) this returns
    (sqrt(2), 2).
    """
    ea, eb = as_exponent(a), as_exponent(b)
    if ea == eb:
        raise ValueError("equal exponents compare trivially; use distinct a, b")
    if np.any(F.values.imag != 0.0):
        raise ValueError("comparison is stated for norms; pass absolute values")
    if np.any(F.values.real < 0.0):
        raise ValueError(f"negative values present (min {F.values.real.min():.3g})")
    a_outermost = mixed_norm(F, MixedNormSpec("first", ea, "second", eb))
    b_outermost = mixed_norm(F, MixedNormSpec("second", eb, "first", ea))
    if ea > eb:
        larger, smaller = a_outermost, b_outermost
    else:
        larger, smaller = b_outermost, a_outermost
    return MinkowskiComparison(larger, smaller, larger <= smaller + COMPARISON_TOL)


def holder_compare(
    F: SampledFunction,
    G: SampledFunction,
    exps: tuple[ExponentLike, ExponentLike, ExponentLike, ExponentLike],
) -> float:
    """Ratio of the product's (u, v) mixed norm to the factor norms.

    ``exps`` is (p, s, q, t): F measured in (p, s), G in (q, t), and the
    product in 1/u = 1/p + 1/q, 1/v = 1/s + 1/t. The ratio never exceeds
    1 + 1e-10.
    """
    if F.grid != G.grid:
        raise ValueError("factors must live on the same grid")
    if F.side != G.side:
        raise ValueError(f"factors on different sides: {F.side} vs {G.side}")
    p, s, q, t = exps
    u, v = holder_exponents(p, q, s, t)
    product = F.with_values(F.values * G.values)
    denominator = mixed_norm(F, MixedNormSpec.standard(p, s)) * mixed_norm(
        G, MixedNormSpec.standard(q, t)
    )
    if denominator == 0.0:
        raise DegenerateTrial("both factor norms vanish; the ratio is undefined")
    return mixed_norm(product, MixedNormSpec.standard(u, v)) / denominator

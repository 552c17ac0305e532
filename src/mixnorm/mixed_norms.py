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


def _reduce(values: np.ndarray, axes: tuple[int, ...], weight: float, e: Exponent) -> np.ndarray:
    """One norm layer over the given axes."""
    if e.is_infinite:
        return values.max(axis=axes)
    a = float(e.value)
    if a == 1.0:  # x**1.0 == x, but NumPy still makes a full pass for it
        return weight * values.sum(axis=axes)
    return (weight * (values**a).sum(axis=axes)) ** (1.0 / a)


def _memo_norm(F: SampledFunction, spec: MixedNormSpec, source: str, build: Callable) -> float:
    """The ``spec`` norm of ``build()``, which is F ("samples") or its transform
    ("spectrum"). F's memo holds the inner reduction; ``build`` runs on a miss."""
    if F.grid.d2 == 0:
        raise ValueError("mixed norms need both axis groups; use plain_norm instead")
    key = (source, spec.inner_axes, spec.inner_exponent)
    stage = F._reductions.get(key)
    if stage is None:
        G = build()
        inner_group = _group_index(spec.inner_axes)
        inner_axes = G.group_axes(inner_group)
        inner_weight = G.group_spacing(inner_group) ** len(inner_axes)
        magnitude = np.abs(G.values)
        del G  # frees a spectrum before _reduce makes its temporaries
        stage = _reduce(magnitude, inner_axes, inner_weight, spec.inner_exponent)
        F._reductions[key] = stage

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
    all_axes = tuple(range(F.values.ndim))
    return float(_reduce(np.abs(F.values), all_axes, weight, as_exponent(a)))


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

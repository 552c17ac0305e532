"""Closed-form Gaussian mixtures used as analytic test functions.

Every generated family reduces to sums of K terms of the shape

    c * exp(-pi * a * (x - mu)**2) * exp(2j * pi * beta * x),

held by a ``GaussianMix`` as one length-K array per parameter, and by a
``SeparableSum`` as one mixture per axis. The terms are closed under the
Fourier transform (convention ``F f(xi) = integral exp(-2 pi i x xi) f(x) dx``)
and under dilation. That closure gives the exact transforms of dilated and
sheared families, closed-form L^p norms that the sampled norms are checked
against, and the tail bounds that the containment checks and grid sizes of
``sampling`` and ``sweeps`` rest on.

``SeparableSum.evaluate_grid`` samples a sum of K products as one rank-K
contraction of per-axis factor values. On two or more axes it first drops
each factor component under 2^(-1022/ndim) of its row's peak, so that no
product of far tails is subnormal: subnormal arithmetic is about a hundred
times slower than normal, and a dropped product is under 2^(-1022/ndim) of
its term's peak, far below a rounding of the term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GaussianMix", "SeparableSum", "unit_gaussian"]


@dataclass(frozen=True, eq=False)
class GaussianMix:
    """K terms ``c e^{-pi a (x-mu)^2} e^{2 pi i beta x}``; a scalar parameter
    is shared by every term. The parameters are stored read-only."""

    amplitude: np.ndarray
    scale: np.ndarray = 1.0
    center: np.ndarray = 0.0
    modulation: np.ndarray = 0.0

    def __post_init__(self):
        names = ("amplitude", "scale", "center", "modulation")
        params = [np.asarray(getattr(self, name)) for name in names]
        shapes = {p.shape for p in params if p.ndim} or {(1,)}  # a scalar is shared by every term
        shape = shapes.pop()
        if shapes or len(shape) != 1 or shape[0] == 0:
            raise ValueError(f"parameters need one length K >= 1, got {[p.shape for p in params]}")
        for name, p, dtype in zip(names, params, (complex, float, float, float)):
            p = np.broadcast_to(p, shape).astype(dtype)
            p.flags.writeable = False
            object.__setattr__(self, name, p)
        if not np.all(self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")

    def term_values(self, x: np.ndarray) -> np.ndarray:
        """The K terms' values at ``x``, stacked along a new first axis."""
        x = np.asarray(x, dtype=float)
        c, a, mu, beta = (
            p.reshape((-1,) + (1,) * x.ndim)
            for p in (self.amplitude, self.scale, self.center, self.modulation)
        )
        return c * np.exp(-math.pi * a * (x - mu) ** 2) * np.exp(2j * math.pi * beta * x)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.term_values(x).sum(axis=0)

    def fourier(self) -> "GaussianMix":
        """Exact transform; a width-a Gaussian maps to width 1/a.

        Modulation and center trade places (up to sign) and the constant
        ``a**-1/2 e^{2 pi i mu beta}`` folds into the amplitude.
        """
        root = np.sqrt(self.scale)  # divides each part: NumPy's complex quotient rounds twice
        amp = self.amplitude.real / root + 1j * (self.amplitude.imag / root)
        amp = amp * np.exp(2j * math.pi * self.center * self.modulation)
        return GaussianMix(amp, 1.0 / self.scale, self.modulation, -self.center)

    def dilate(self, t: float, norm_reciprocal: float) -> "GaussianMix":
        """Map f to ``t**(1/p) f(t x)``; ``norm_reciprocal`` is 1/p.

        With 1/p = 0 this is the plain substitution x -> t x.
        """
        if not t > 0:
            raise ValueError(f"dilation parameter must be positive, got {t}")
        return GaussianMix(
            self.amplitude * t**norm_reciprocal,
            self.scale * t * t,
            self.center / t,
            self.modulation * t,
        )

    def support_radius(self, tail: float) -> float:
        """Distance from the origin beyond which every term is under tail * |c|."""
        radii = np.abs(self.center) + np.sqrt(math.log(1.0 / tail) / (math.pi * self.scale))
        return float(radii.max())

    def bandwidth_radius(self, tail: float) -> float:
        return self.fourier().support_radius(tail)

    def mass_fraction_outside(self, radius: float) -> float:
        """The largest fraction of a term's L^2 mass outside [-radius, radius]."""
        roots = np.sqrt(2.0 * math.pi * self.scale).tolist()
        return max(
            0.5 * (math.erfc(c * (radius - mu)) + math.erfc(c * (radius + mu)))
            for c, mu in zip(roots, self.center.tolist())
        )


@dataclass(frozen=True)
class SeparableSum:
    """A sum of K products on R^ndim: ``axes`` holds one K-term mixture per
    axis, and term k is the product of every axis's term k. ``fourier``
    transforms every axis, which gives the full transform in closed form."""

    axes: tuple[GaussianMix, ...]

    def __post_init__(self):
        if not self.axes or len({mix.scale.size for mix in self.axes}) != 1:
            raise ValueError("a separable sum needs one or more axes, each with the same K")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def evaluate_grid(self, axis_coords: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
        if len(axis_coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinate axes, got {len(axis_coords)}")
        # The sum over K terms of outer products is a rank-K contraction:
        # stack each axis's factor values into a K x n matrix, far tails
        # dropped (see _factor_rows), fold the leading axes together term by
        # term (a Khatri-Rao product), and contract the terms against the
        # last axis in one matmul.
        rows = self._factor_rows(axis_coords)
        if self.ndim == 1:
            return rows[0].sum(axis=0)
        left = rows[0]
        for right in rows[1:-1]:
            left = (left[:, :, None] * right[:, None, :]).reshape(len(left), -1)
        return (left.T @ rows[-1]).reshape([len(c) for c in axis_coords])

    def _factor_rows(self, axis_coords) -> list[np.ndarray]:
        """Each axis's factor values as a K x n matrix, one row per term."""
        rows = [mix.term_values(coords) for mix, coords in zip(self.axes, axis_coords)]
        if self.ndim > 1:
            # Zero each real and imaginary component under 2^(-1022/ndim) of
            # its row's peak modulus. A product of kept components is then at
            # least 2^-1022 of the peaks' product, so at O(1) amplitudes the
            # contraction forms no subnormal, and a dropped product is under
            # 2^(-1022/ndim) of its term's peak (2^-511 on a plane). The floor
            # follows each row, so a rescaled term keeps the same components.
            floor = 2.0 ** (-1022.0 / self.ndim)
            for row in rows:
                parts = row.view(np.float64)  # real and imaginary parts
                peak = np.abs(row).max(axis=1, keepdims=True)
                parts[np.abs(parts) < floor * peak] = 0.0
        return rows

    def fourier(self) -> "SeparableSum":
        return SeparableSum(tuple(mix.fourier() for mix in self.axes))


def unit_gaussian() -> GaussianMix:
    """The standard Gaussian ``e^{-pi x^2}``, fixed point of the transform."""
    return GaussianMix(1.0)

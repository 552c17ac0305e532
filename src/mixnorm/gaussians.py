"""Closed-form Gaussian mixtures used as analytic test functions.

Every generated family reduces to terms of the shape

    c * exp(-pi * a * (x - mu)**2) * exp(2j * pi * beta * x)

which are closed under the Fourier transform (convention
``F f(xi) = integral exp(-2 pi i x xi) f(x) dx``) and under dilation; no
method forms a product of terms. That closure gives the exact transforms
of dilated and sheared families, closed-form L^p norms that the sampled
norms are checked against, and the tail bounds that the containment
checks and grid sizes of ``sampling`` and ``sweeps`` rest on.

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
from math import erfc

import numpy as np

__all__ = ["GaussianTerm", "GaussianMix", "SeparableSum", "unit_gaussian"]


@dataclass(frozen=True)
class GaussianTerm:
    """One modulated Gaussian, ``c e^{-pi a (x-mu)^2} e^{2 pi i beta x}``."""

    amplitude: complex = 1.0
    scale: float = 1.0
    center: float = 0.0
    modulation: float = 0.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        envelope = np.exp(-math.pi * self.scale * (x - self.center) ** 2)
        if self.modulation == 0.0:
            return self.amplitude * envelope.astype(np.complex128)
        return self.amplitude * envelope * np.exp(2j * math.pi * self.modulation * x)

    def fourier(self) -> "GaussianTerm":
        """Exact transform; a width-a Gaussian maps to width 1/a.

        Modulation and center trade places (up to sign) and the constant
        ``a**-1/2 e^{2 pi i mu beta}`` folds into the amplitude.
        """
        amp = (
            self.amplitude
            / math.sqrt(self.scale)
            * np.exp(2j * math.pi * self.center * self.modulation)
        )
        return GaussianTerm(complex(amp), 1.0 / self.scale, self.modulation, -self.center)

    def dilate(self, t: float, norm_reciprocal: float) -> "GaussianTerm":
        """Map f to ``t**(1/p) f(t x)``; ``norm_reciprocal`` is 1/p.

        With 1/p = 0 this is the plain substitution x -> t x.
        """
        if not t > 0:
            raise ValueError(f"dilation parameter must be positive, got {t}")
        return GaussianTerm(
            self.amplitude * t**norm_reciprocal,
            self.scale * t * t,
            self.center / t,
            self.modulation * t,
        )

    def lp_norm(self, p: float) -> float:
        """Continuum L^p norm: ``|c| (p a)^(-1/2p)``; sup norm at p=inf."""
        if math.isinf(p):
            return abs(self.amplitude)
        return abs(self.amplitude) * (p * self.scale) ** (-0.5 / p)

    def support_radius(self, tail: float) -> float:
        """Distance from the origin beyond which |f| is under tail * |c|."""
        return abs(self.center) + math.sqrt(math.log(1.0 / tail) / (math.pi * self.scale))

    def mass_fraction_outside(self, radius: float) -> float:
        """Fraction of the L^2 mass outside [-radius, radius]."""
        c = math.sqrt(2.0 * math.pi * self.scale)
        return 0.5 * (erfc(c * (radius - self.center)) + erfc(c * (radius + self.center)))


@dataclass(frozen=True)
class GaussianMix:
    """A finite sum of one-dimensional Gaussian terms."""

    terms: tuple[GaussianTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a mixture needs at least one term")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = self.terms[0].evaluate(x)
        for term in self.terms[1:]:
            out = out + term.evaluate(x)
        return out

    def fourier(self) -> "GaussianMix":
        return GaussianMix(tuple(t.fourier() for t in self.terms))

    def dilate(self, t: float, norm_reciprocal: float) -> "GaussianMix":
        return GaussianMix(tuple(term.dilate(t, norm_reciprocal) for term in self.terms))

    def lp_norm(self, p: float) -> float:
        if len(self.terms) != 1:
            raise ValueError("closed-form L^p norms are available for single terms only")
        return self.terms[0].lp_norm(p)

    def support_radius(self, tail: float) -> float:
        return max(term.support_radius(tail) for term in self.terms)

    def bandwidth_radius(self, tail: float) -> float:
        return self.fourier().support_radius(tail)


@dataclass(frozen=True)
class SeparableSum:
    """A sum of products of per-axis Gaussian terms on R^ndim.

    Each entry of ``terms`` holds one Gaussian term per axis; the value of
    the entry at a point is the product of its factors. ``fourier``
    transforms every factor, which gives the full transform in closed form.
    """

    terms: tuple[tuple[GaussianTerm, ...], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a separable sum needs at least one term")
        ndim = len(self.terms[0])
        if ndim < 1 or any(len(t) != ndim for t in self.terms):
            raise ValueError("every term needs the same positive number of axis factors")

    @property
    def ndim(self) -> int:
        return len(self.terms[0])

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
            left = (left[:, :, None] * right[:, None, :]).reshape(len(self.terms), -1)
        return (left.T @ rows[-1]).reshape([len(c) for c in axis_coords])

    def _factor_rows(self, axis_coords) -> list[np.ndarray]:
        """Each axis's factor values as a K x n matrix, one row per term."""
        rows = [
            np.stack([term.evaluate(coords) for term in self.axis_terms(axis)])
            for axis, coords in enumerate(axis_coords)
        ]
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
        return SeparableSum(tuple(tuple(f.fourier() for f in factors) for factors in self.terms))

    def axis_terms(self, axis: int) -> tuple[GaussianTerm, ...]:
        return tuple(factors[axis] for factors in self.terms)


def unit_gaussian() -> GaussianMix:
    """The standard Gaussian ``e^{-pi x^2}``, fixed point of the transform."""
    return GaussianMix((GaussianTerm(),))

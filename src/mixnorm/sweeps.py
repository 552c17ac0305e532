"""Scaling-law sweeps: where the mixed-norm bounds break, and how fast.

Three parameter sweeps, each summarized by a log-log slope fit:

* ``blowup_sweep`` drives the dilation-shear family toward small t and
  watches the same-order norm ratio diverge like t^(1/s' - 1/p').
* ``delta_divergence_demo`` shrinks a sheared near-delta and watches the
  s = 1 ratio climb without bound.
* ``necessity_sweep`` dilates one coordinate group of a bilinear trial;
  the ratio drifts with a slope equal to the exponent-relation mismatch,
  so an admissible tuple gives slope zero.

Every sweep samples analytic Gaussian data. Only ``blowup_sweep`` checks
its DFT against a closed-form transform, at each point, and reports the
largest oracle error per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exponents import Exponent, ExponentLike, ExponentTuple, as_exponent, beckner_power
from .gaussians import GaussianMix, SeparableSum, unit_gaussian
from .grids import GridSpec
from .inequalities import SUITE_TOL, bilinear_sides
from .mixed_norms import MixedNormSpec, mixed_norm, spectrum_norm
from .sampling import TAIL, GenerationError, near_delta_family, sample_separable, shear_product
from .transform import fourier_in_place

__all__ = [
    "SweepReport",
    "blowup_sweep",
    "delta_divergence_demo",
    "necessity_sweep",
    "default_t_values",
    "default_epsilon_values",
    "default_lambda_values",
]

#: Safety factor between a family's essential radius and the grid edge
#: when a sweep chooses its own grid.
MARGIN = 1.15

SLOPE_TOL = 0.05
FLAT_TOL = 0.02


@dataclass(frozen=True)
class SweepReport:
    """One sweep: parameters, observations, and the fitted power law."""

    kind: str
    parameter_values: tuple[float, ...]
    observed: tuple[float, ...]
    fitted_slope: float
    expected_slope: float
    residual: float
    passed: bool
    criterion: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        _sweep_parameters(self.parameter_values, "parameter values")
        if not all(0 < v < math.inf for v in self.observed):
            raise ValueError(f"observed values must be positive and finite, got {self.observed}")


def _sweep_parameters(values: Sequence[float], name: str) -> tuple[float, ...]:
    """``values`` as a tuple, if a log-log slope can be fitted over them:
    at least two, all positive, strictly monotone. Each sweep checks its
    parameters before it samples a point."""
    values = tuple(values)
    if len(values) < 2:
        raise ValueError("a slope fit needs at least two parameter values")
    if not all(v > 0 for v in values):
        raise ValueError(f"{name} must be positive, got {values}")
    diffs = np.diff(values)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError(f"{name} must be strictly monotone, got {values}")
    return values


def default_t_values() -> tuple[float, ...]:
    """Dilations 1, 1/2, ..., 1/32, halving each step."""
    return tuple(0.5**k for k in range(6))


def default_epsilon_values(grid: GridSpec = GridSpec.default()) -> tuple[float, ...]:
    """Five widths spanning 16:1, stopping above the resolvability floor."""
    top = grid.extent / 8.0
    values = tuple(top * 0.5**k for k in range(5))
    if values[-1] < 2.0 * grid.spacing:
        raise GenerationError(
            f"epsilon range reaches {values[-1]:.4g}, below the floor "
            f"{2.0 * grid.spacing:.4g}; refine the grid"
        )
    return values


def default_lambda_values() -> tuple[float, ...]:
    """Five geometric dilation scales centered at 1 (1/2 up to 2)."""
    return tuple(2.0 ** (k / 2) for k in range(-2, 3))


def _slope_report(
    kind: str, parameters: tuple[float, ...], observed: list, expected: float, details: dict,
    verdict: tuple[bool, str] | None = None,
) -> SweepReport:
    """Fit the log-log slope by least squares, with the max absolute
    deviation as the residual. The sweep passes within ``FLAT_TOL`` of a
    flat law, else ``SLOPE_TOL``, unless ``verdict`` gives its own
    ``(passed, criterion)``."""
    logx = np.log(np.asarray(parameters, dtype=float))
    logy = np.log(np.asarray(observed, dtype=float))
    slope, intercept = map(float, np.polyfit(logx, logy, 1))
    if verdict is None:
        tol = FLAT_TOL if expected == 0.0 else SLOPE_TOL
        verdict = (abs(slope - expected) <= tol, f"|fitted_slope - expected_slope| <= {tol}")
    return SweepReport(
        kind=kind,
        parameter_values=parameters,
        observed=tuple(observed),
        fitted_slope=slope,
        expected_slope=expected,
        residual=float(np.max(np.abs(logy - (slope * logx + intercept)))),
        passed=verdict[0],
        criterion=verdict[1],
        details=details,
    )


def _sheared_transform(
    f: GaussianMix, g: GaussianMix, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The transform of ``shear_product(f, g, grid)`` in closed form, without
    any DFT: the blowup sweep's independent oracle.

    F(x, y) = f(x) g(y - x) transforms to fhat(xi + eta) ghat(eta), which is
    ``row[None, :] * ridge``: ``row`` holds the n values of ghat(eta) and
    ``ridge`` is an n x n view of 2n - 1 values of fhat.
    """
    # xi_i + xi_j = (i + j - 2 (n // 2)) dxi, so fhat(xi + eta) is Hankel:
    # row i is the window of the 2n - 1 sums starting at index i.
    sums = (np.arange(2 * grid.n - 1) - 2 * (grid.n // 2)) * grid.freq_spacing
    ridge = sliding_window_view(f.fourier().evaluate(sums), grid.n)
    return g.fourier().evaluate(grid.freq_coords()), ridge


def _auto_grid(fm: GaussianMix, gm: GaussianMix) -> GridSpec:
    """Smallest even fast-FFT grid containing the sheared pair."""
    radius = fm.support_radius(TAIL) + gm.support_radius(TAIL)
    bandwidth = fm.bandwidth_radius(TAIL) + gm.bandwidth_radius(TAIL)
    extent = 2.0 * MARGIN * radius
    n = int(math.ceil(extent * 2.0 * MARGIN * bandwidth))
    n = max(n + n % 2, 16)
    while _rough_part(n) != 1:
        n += 2
    return GridSpec(1, 1, n, extent)


def _rough_part(n: int) -> int:
    """n without its factors 2, 3, 5, 7 and 11; FFTs are fastest where this is 1."""
    for prime in (2, 3, 5, 7, 11):
        while n % prime == 0:
            n //= prime
    return n


def blowup_sweep(
    p: ExponentLike,
    s: ExponentLike,
    t_values: Sequence[float] | None = None,
) -> SweepReport:
    """Ratio of the same-order norms on the dilation-shear family.

    Expected growth t^(1/s' - 1/p'): negative slope, hence blowup as
    t -> 0, whenever s < p; flat at s = p. The right side is invariant
    in t by construction, and each point cross-checks the DFT against
    the closed-form transform.
    """
    p, s = as_exponent(p), as_exponent(s)
    one, two = Exponent(1), Exponent(2)
    if not (one < s <= p <= two):
        raise ValueError(f"blowup sweep needs 1 < s <= p <= 2, got p={p}, s={s}")
    t_values = _sweep_parameters(
        default_t_values() if t_values is None else t_values, "dilation parameters"
    )
    f = unit_gaussian()
    g = unit_gaussian()
    p_recip = float(p.reciprocal)

    observed = []
    rhs_values = []
    oracle_errors = []
    grids = []
    lhs_spec = MixedNormSpec.standard(p.conjugate(), s.conjugate())
    rhs_spec = MixedNormSpec.standard(p, s)
    for t in t_values:
        f_t = f.dilate(t, p_recip)
        point_grid = _auto_grid(f_t, g)
        # F reads the sweep's own buffer through a read-only view and is
        # dropped before the buffer is transformed in place, so F and Fhat
        # never coexist: the sweep holds one grid array at a time.
        values = np.empty(point_grid.shape, dtype=np.complex128)
        F = shear_product(f_t, g, point_grid, out=values)
        rhs = mixed_norm(F, rhs_spec)
        del F
        Fhat = fourier_in_place(values, point_grid)
        del values  # Fhat owns the buffer now
        row, ridge = _sheared_transform(f_t, g, point_grid)
        # the oracle is built 64 rows at a time, never as a full grid
        blocks = range(0, point_grid.n, 64)
        diffs = [np.abs(Fhat.values[i : i + 64] - row * ridge[i : i + 64]).max() for i in blocks]
        oracle_errors.append(float(max(diffs)))
        lhs = mixed_norm(Fhat, lhs_spec)
        del Fhat  # else it is still alive while the next point is sampled
        observed.append(lhs / rhs)
        rhs_values.append(rhs)
        grids.append({"n": point_grid.n, "extent": point_grid.extent})

    expected = float(s.conjugate().reciprocal - p.conjugate().reciprocal)
    return _slope_report(
        "blowup",
        t_values,
        observed,
        expected,
        {
            "p": str(p),
            "s": str(s),
            "rhs": rhs_values,
            "oracle_max_error": oracle_errors,
            "grids": grids,
        },
    )


def delta_divergence_demo(
    p: ExponentLike,
    epsilon_values: Sequence[float] | None = None,
    grid: GridSpec = GridSpec.default(),
    shear: bool = True,
) -> SweepReport:
    """The s = 1 ratio under a shrinking sheared near-delta.

    With the shear on, the ratio grows without bound as epsilon shrinks,
    asymptotically like epsilon^(-1/p'); the pass criterion is strict
    growth plus at least half of that law's log-growth across the range.
    With the shear off the same ratio stays below the restriction bound,
    which is the control criterion.
    """
    p = as_exponent(p)
    if not (Exponent(1) < p <= Exponent(2)):
        raise ValueError(f"the divergence regime needs p in (1, 2], got {p}")
    epsilon_values = _sweep_parameters(
        default_epsilon_values(grid) if epsilon_values is None else epsilon_values, "widths"
    )
    f = unit_gaussian()
    lhs_spec = MixedNormSpec.standard(p.conjugate(), "inf")
    rhs_spec = MixedNormSpec.standard(p, 1)
    observed = []
    for epsilon in epsilon_values:
        F = near_delta_family(grid, f, epsilon, shear=shear)
        lhs = spectrum_norm(F, lhs_spec)
        rhs = mixed_norm(F, rhs_spec)
        observed.append(lhs / rhs)

    if shear:
        expected = -(1.0 - float(p.reciprocal))  # asymptotic exponent -1/p'
        floor = math.sqrt((epsilon_values[0] / epsilon_values[-1]) ** -expected)
        increasing = all(b > a for a, b in zip(observed, observed[1:]))
        passed = increasing and observed[-1] >= floor * observed[0]
        criterion = (
            f"ratios strictly increase as epsilon shrinks and grow at least {floor:.6g}x "
            "(half the log-growth of epsilon^(-1/p'))"
        )
    else:
        ceiling = beckner_power(p, grid.d1) * (1.0 + SUITE_TOL)
        passed = max(observed) <= ceiling
        criterion = f"ratios stay below the restriction bound {ceiling:.6g}"
        expected = 0.0
    return _slope_report(
        "delta",
        epsilon_values,
        observed,
        expected,
        {"p": str(p), "shear": shear, "grid": {"n": grid.n, "extent": grid.extent}},
        verdict=(passed, criterion),
    )


def necessity_sweep(
    exponents: ExponentTuple,
    lambda_values: Sequence[float] | None = None,
    grid: GridSpec = GridSpec.default(),
    axis: str = "first",
) -> SweepReport:
    """Drift of the bilinear ratio under one-group dilations.

    Dilating the first group by lambda scales the ratio like
    lambda^(1/r - (1 - 1/p - 1/q)); dilating the second group, like
    lambda^(1/s + 1/t - 1). Either exponent vanishes exactly when the
    corresponding relation holds, so admissible tuples sweep flat and a
    violated relation shows up as the predicted slope. The tuple is
    deliberately not gated on admissibility; only r >= 2 is required so
    the bound's constant stays defined.
    """
    if axis not in ("first", "second"):
        raise ValueError(f"axis must be 'first' or 'second', got {axis!r}")
    if exponents.r < Exponent(2):
        raise ValueError("necessity sweeps need r >= 2 so the constant is defined")
    if grid.d1 != 1 or grid.d2 != 1:
        raise ValueError("necessity sweeps run on the 1+1 dimensional grid")
    lambda_values = _sweep_parameters(
        default_lambda_values() if lambda_values is None else lambda_values, "dilation scales"
    )
    observed = []
    for lam in lambda_values:
        dilated, unit = GaussianMix(1.0, lam**2), unit_gaussian()
        factors = (dilated, unit) if axis == "first" else (unit, dilated)
        F = sample_separable(SeparableSum(factors), grid)
        lhs, bound = bilinear_sides(F, F, exponents)
        observed.append(lhs / bound)

    if axis == "first":
        mismatch = exponents.r.reciprocal - (
            1 - exponents.p.reciprocal - exponents.q.reciprocal
        )
    else:
        mismatch = exponents.s.reciprocal + exponents.t.reciprocal - 1
    expected = float(grid.d1 if axis == "first" else grid.d2) * float(mismatch)
    return _slope_report(
        "necessity",
        lambda_values,
        observed,
        expected,
        {
            "axis": axis,
            "exponents": exponents.as_dict(),
            "grid": {"n": grid.n, "extent": grid.extent},
        },
    )

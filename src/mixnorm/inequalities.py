"""Ratio harnesses for the mixed-norm Fourier inequalities.

Each check evaluates one inequality as lhs / bound on a concrete sampled
function and wraps the outcome in a ``RatioReport``. A report passes
exactly when the ratio is at most 1 + ``SUITE_TOL``, the discretization
error budget of the random-ensemble suites; a zero or non-finite bound
marks the trial degenerate, which never counts as a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exponents import (
    Exponent,
    ExponentLike,
    ExponentTuple,
    InadmissibleExponents,
    admissible,
    as_exponent,
    beckner_power,
)
from .grids import GridSpec, SampledFunction
from .mixed_norms import MixedNormSpec, mixed_norm, plain_norm, slice_norm, spectrum_norm
from .sampling import random_ensemble

# Unused here: the benchmark's self-test reads this binding to check that
# its tracer restores every binding it wraps.
from .transform import fourier  # noqa: F401

__all__ = [
    "RatioReport",
    "INEQUALITY_IDS",
    "SUITE_TOL",
    "check_restriction",
    "check_bilinear",
    "check_variant",
    "check_same_order",
    "check_hausdorff_young",
    "random_admissible_tuples",
    "ensemble_trials",
    "ensemble_stream",
    "run_suite",
]

INEQUALITY_IDS = ("restriction", "bilinear", "variant", "same_order", "hausdorff_young")

SUITE_TOL = 1e-2

_HALF = Fraction(1, 2)
_ONE = Exponent(1)


@dataclass(frozen=True)
class RatioReport:
    """One inequality trial: left side, bound, and the verdict."""

    inequality_id: str
    lhs: float
    bound: float
    ratio: float | None
    passed: bool
    degenerate: bool = False
    descriptors: dict = field(default_factory=dict)

    def json_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "lhs": self.lhs,
            "bound": self.bound,
            "ratio": self.ratio,
            "tolerance": SUITE_TOL,
            "pass": self.passed,
            "degenerate": self.degenerate,
            "descriptors": self.descriptors,
        }


def _build_report(
    inequality_id: str,
    lhs: float,
    bound: float,
    exponents: dict,
    functions: dict,
) -> RatioReport:
    descriptors = {"exponents": exponents, "functions": functions}
    if bound <= 0.0 or not math.isfinite(bound) or not math.isfinite(lhs):
        return RatioReport(inequality_id, lhs, bound, None, False, True, descriptors)
    ratio = lhs / bound
    return RatioReport(
        inequality_id, lhs, bound, ratio, ratio <= 1.0 + SUITE_TOL, False, descriptors
    )


def _require_range(e: Exponent, name: str) -> None:
    if not _HALF <= e.reciprocal <= 1:  # 1 <= e <= 2
        raise ValueError(f"{name} must lie in [1, 2], got {e}")


def _transform_bound(F: SampledFunction, p: Exponent, s: Exponent) -> float:
    """C_p^{d1} C_s^{d2} times the (p, s) mixed norm of F, shared by the
    variant and same-order bounds."""
    d = F.grid
    return (
        beckner_power(p, d.d1)
        * beckner_power(s, d.d2)
        * mixed_norm(F, MixedNormSpec.standard(p, s))
    )


def check_restriction(F: SampledFunction, p: ExponentLike) -> RatioReport:
    """Frequency-hyperplane restriction against the (p, 1) mixed norm.

    lhs is the p'-norm of F-hat on the slice xi'' = 0; the bound is
    C_p^{d1} times the mixed (p, 1) norm of F.
    """
    p = as_exponent(p)
    _require_range(p, "p")
    lhs = slice_norm(F, p.conjugate())
    bound = beckner_power(p, F.grid.d1) * mixed_norm(F, MixedNormSpec.standard(p, _ONE))
    return _build_report("restriction", lhs, bound, {"p": str(p)}, {"F": F.descriptor})


def check_bilinear(
    F: SampledFunction, G: SampledFunction, exponents: ExponentTuple
) -> RatioReport:
    """Bilinear restriction of a product F·G under an admissible tuple."""
    verdict = admissible(exponents)
    if not verdict:
        raise InadmissibleExponents(verdict.reason, exponents)
    if F.grid != G.grid or F.side != G.side:
        raise ValueError("factors must share a grid and side")
    lhs = slice_norm(F, exponents.r, G)
    bound = (
        beckner_power(exponents.r.conjugate(), F.grid.d1)
        * mixed_norm(F, MixedNormSpec.standard(exponents.p, exponents.s))
        * mixed_norm(G, MixedNormSpec.standard(exponents.q, exponents.t))
    )
    return _build_report(
        "bilinear",
        lhs,
        bound,
        exponents.as_dict(),
        {"F": F.descriptor, "G": G.descriptor},
    )


def check_variant(F: SampledFunction, p: ExponentLike, s: ExponentLike) -> RatioReport:
    """Reversed-order transform bound: L^{s'} over xi'' outside L^{p'} over xi'."""
    p, s = as_exponent(p), as_exponent(s)
    _require_range(p, "p")
    _require_range(s, "s")
    lhs = spectrum_norm(F, MixedNormSpec.reversed(s.conjugate(), p.conjugate()))
    bound = _transform_bound(F, p, s)
    return _build_report("variant", lhs, bound, {"p": str(p), "s": str(s)}, {"F": F.descriptor})


def check_same_order(F: SampledFunction, p: ExponentLike, s: ExponentLike) -> RatioReport:
    """Same-order transform bound, valid only for p <= s.

    The regime p > s is exactly where the inequality fails; those
    exponents are rejected here and exercised by the sweep module.
    """
    p, s = as_exponent(p), as_exponent(s)
    _require_range(p, "p")
    _require_range(s, "s")
    if p > s:
        raise ValueError(
            f"p = {p} exceeds s = {s}; the same-order bound fails there "
            "(see the blowup sweep)"
        )
    lhs = spectrum_norm(F, MixedNormSpec.standard(p.conjugate(), s.conjugate()))
    bound = _transform_bound(F, p, s)
    return _build_report("same_order", lhs, bound, {"p": str(p), "s": str(s)}, {"F": F.descriptor})


def check_hausdorff_young(f: SampledFunction, p: ExponentLike) -> RatioReport:
    """Plain sharp Hausdorff-Young on a one-group function."""
    p = as_exponent(p)
    _require_range(p, "p")
    if f.grid.d2 != 0:
        raise ValueError("hausdorff_young applies to one-group functions")
    lhs = slice_norm(f, p.conjugate())
    bound = beckner_power(p, f.grid.d1) * plain_norm(f, p)
    return _build_report("hausdorff_young", lhs, bound, {"p": str(p)}, {"f": f.descriptor})


def random_admissible_tuples(count: int, seed: int) -> list[ExponentTuple]:
    """Random rational tuples satisfying the exponent relations exactly.

    Sampling works in reciprocal space with small denominators: split
    1/r' = 1/p + 1/q with r' in [1, 2], pick conjugate (s, t), and set r
    from the defining relation. Every tuple passes ``admissible``.
    """
    rng = np.random.default_rng(seed)
    tuples: list[ExponentTuple] = []
    while len(tuples) < count:
        d = int(rng.integers(2, 13))
        n = int(rng.integers((d + 1) // 2, d + 1))  # 1/r' = n/d in [1/2, 1]
        k = int(rng.integers(0, n + 1))
        e = int(rng.integers(2, 13))
        m = int(rng.integers(0, e + 1))
        p = Exponent.from_reciprocal(Fraction(k, d))
        q = Exponent.from_reciprocal(Fraction(n - k, d))
        s = Exponent.from_reciprocal(Fraction(m, e))
        t = Exponent.from_reciprocal(Fraction(e - m, e))
        r = Exponent.from_reciprocal(1 - Fraction(n, d))
        candidate = ExponentTuple(p, s, q, t, r)
        if admissible(candidate):
            tuples.append(candidate)
    return tuples


def ensemble_stream(grid: GridSpec, count: int, seed: int) -> Iterator[SampledFunction]:
    """The seeded six-term random-ensemble trials, sampled one at a time.

    Trial ``index`` draws from seed ``seed + index``, so a stream and its
    list hold the same functions; a count below 1 yields nothing.
    """
    for index in range(count):
        yield random_ensemble(grid, 6, seed + index)


def ensemble_trials(grid: GridSpec, count: int, seed: int) -> list[SampledFunction]:
    """Deterministic list of six-term random-ensemble trial functions."""
    return list(ensemble_stream(grid, count, seed))


def run_suite(
    inequality_id: str,
    functions: Iterable[SampledFunction],
    p: ExponentLike | None = None,
    s: ExponentLike | None = None,
    exponent_tuples: Sequence[ExponentTuple] | None = None,
) -> list[RatioReport]:
    """Evaluate one inequality on every supplied function.

    ``functions`` is iterated once, and each function is checked as it
    arrives and released before the next is drawn, so a generator keeps
    the suite's arrays to one trial (three for bilinear).

    For the bilinear check each function is paired with its successor
    (cyclically; a lone function pairs with itself) and evaluated under
    every tuple in ``exponent_tuples``. Reports come back tuple-major:
    every pair under the first tuple, then every pair under the next.

    The ``p`` and ``s`` that the inequality reads become ``Exponent``s once
    per call, so every check shares their conjugates, constants and strings.
    """
    if inequality_id not in INEQUALITY_IDS:
        raise ValueError(f"unknown inequality {inequality_id!r}; pick from {INEQUALITY_IDS}")
    if p is not None and inequality_id != "bilinear":
        p = as_exponent(p)
    if s is not None and inequality_id in ("variant", "same_order"):
        s = as_exponent(s)
    if inequality_id == "bilinear":
        reports = _bilinear_suite(iter(functions), exponent_tuples)
    else:
        reports = []
        for F in functions:
            if inequality_id == "restriction":
                reports.append(check_restriction(F, p))
            elif inequality_id == "variant":
                reports.append(check_variant(F, p, s))
            elif inequality_id == "same_order":
                reports.append(check_same_order(F, p, s))
            else:
                reports.append(check_hausdorff_young(F, p))
            del F  # else F stays alive while the next function is sampled
    if not reports:
        raise ValueError("a suite needs at least one trial function")
    return reports


def _bilinear_suite(
    functions: Iterator[SampledFunction], exponent_tuples: Sequence[ExponentTuple] | None
) -> list[RatioReport]:
    """Pair-major evaluation of the cyclic pairs, reordered tuple-major.

    Only the first function (for the closing pair) and the current pair
    stay alive; each pair runs under every tuple before the next is drawn.
    """
    first = F = next(functions, None)
    if first is None:
        return []
    if not exponent_tuples:
        raise ValueError("the bilinear suite needs exponent tuples")
    by_tuple: list[list[RatioReport]] = [[] for _ in exponent_tuples]
    for G in functions:
        for reports, exps in zip(by_tuple, exponent_tuples):
            reports.append(check_bilinear(F, G, exps))
        F = G
    for reports, exps in zip(by_tuple, exponent_tuples):
        reports.append(check_bilinear(F, first, exps))
    return [report for reports in by_tuple for report in reports]

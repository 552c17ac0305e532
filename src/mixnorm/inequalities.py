"""Ratio harnesses for the mixed-norm Fourier inequalities.

One table, ``INEQUALITIES``, describes each inequality's selections;
``INEQUALITY_IDS``, ``run_suite`` and the ``verify`` targets read it.

Each check evaluates one inequality as lhs / bound on a concrete sampled
function and wraps the outcome in a ``RatioReport``. A report passes
exactly when the ratio is at most 1 + ``SUITE_TOL``, the discretization
error budget of the random-ensemble suites. A left side or bound that is
zero, subnormal or not finite marks the trial degenerate, which never
counts as a pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .exponents import (
    Exponent,
    ExponentLike,
    ExponentTuple,
    InadmissibleExponents,
    admissible,
    as_exponent,
    beckner_constant,
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
    "INEQUALITIES",
    "INEQUALITY_IDS",
    "SUITE_TOL",
    "check_restriction",
    "check_bilinear",
    "check_variant",
    "check_same_order",
    "check_hausdorff_young",
    "bilinear_sides",
    "random_admissible_tuples",
    "ensemble_trials",
    "ensemble_stream",
    "run_suite",
]

class _Inequality(NamedTuple):
    """The exponents a selection sets (all five: an ``ExponentTuple``, checked
    on pairs of functions), and whether its functions have one group (d2 = 0)."""

    exponents: tuple[str, ...]
    one_group: bool = False

    @property
    def pairs(self) -> bool:
        return len(self.exponents) == 5


INEQUALITIES = {
    "restriction": _Inequality(("p",)),
    "bilinear": _Inequality(("p", "s", "q", "t", "r")),
    "variant": _Inequality(("p", "s")),
    "same_order": _Inequality(("p", "s")),
    "hausdorff_young": _Inequality(("p",), one_group=True),
}

INEQUALITY_IDS = tuple(INEQUALITIES)

SUITE_TOL = 1e-2

_TINY = sys.float_info.min  # the smallest normal float
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
        """The row as JSON values: a non-finite side, which only a degenerate
        row holds, is written as null, as its ratio is."""
        return {
            "inequality_id": self.inequality_id,
            "lhs": self.lhs if math.isfinite(self.lhs) else None,
            "bound": self.bound if math.isfinite(self.bound) else None,
            "ratio": self.ratio,
            "tolerance": SUITE_TOL,
            "pass": self.passed,
            "degenerate": self.degenerate,
            "descriptors": self.descriptors,
        }


def _build_report(
    inequality_id: str, lhs: float, bound: float, exponents: dict, functions: dict
) -> RatioReport:
    descriptors = {"exponents": exponents, "functions": functions}
    if not (_TINY <= lhs < math.inf and _TINY <= bound < math.inf):
        return RatioReport(inequality_id, lhs, bound, None, False, True, descriptors)
    ratio = lhs / bound
    return RatioReport(
        inequality_id, lhs, bound, ratio, ratio <= 1.0 + SUITE_TOL, False, descriptors
    )


def _selections(inequality_id: str, p=None, s=None, exponent_tuples=None) -> list[tuple]:
    """The exponent arguments of each check a selection makes, checked:
    a pairs selection's tuples are admissible; otherwise each exponent has a
    ``beckner_constant``, so lies in [1, 2] (the exponent keeps the value, so
    a repeated check costs no comparison), and same-order's p is at most s."""
    entry = INEQUALITIES.get(inequality_id)
    if entry is None:
        raise ValueError(f"unknown inequality {inequality_id!r}; pick from {INEQUALITY_IDS}")
    if entry.pairs:
        if not exponent_tuples:
            raise ValueError(f"the {inequality_id} suite needs exponent tuples")
        for exponents in exponent_tuples:
            verdict = admissible(exponents)
            if not verdict:
                raise InadmissibleExponents(verdict.reason, exponents)
        return [(exponents,) for exponents in exponent_tuples]
    given = dict(zip(("p", "s"), (p, s)))
    missing = [name for name in entry.exponents if given[name] is None]
    if missing:
        raise ValueError(f"the {inequality_id} suite needs {' and '.join(missing)}")
    exponents = tuple(as_exponent(given[name]) for name in entry.exponents)
    for name, e in zip(entry.exponents, exponents):
        try:
            beckner_constant(e)
        except ValueError:
            raise ValueError(f"{name} must lie in [1, 2], got {e}") from None
    if inequality_id == "same_order" and exponents[0] > exponents[1]:
        raise ValueError(
            f"p = {exponents[0]} exceeds s = {exponents[1]}; the same-order bound fails "
            "there (see the blowup sweep)"
        )
    return [exponents]


def _slice_check(inequality_id: str, F: SampledFunction, p: ExponentLike) -> RatioReport:
    """Restriction, or Hausdorff-Young on one group, where the slice is
    all of F-hat and the (p, 1) norm is the L^p norm."""
    [(p,)] = _selections(inequality_id, p)
    one_group = INEQUALITIES[inequality_id].one_group
    if one_group and F.grid.d2 != 0:  # mixed_norm rejects a one-group restriction
        raise ValueError(f"{inequality_id} applies to one-group functions")
    lhs = slice_norm(F, p.conjugate())
    norm = plain_norm(F, p) if one_group else mixed_norm(F, MixedNormSpec.standard(p, _ONE))
    bound = beckner_power(p, F.grid.d1) * norm
    functions = {"f" if one_group else "F": F.descriptor}
    return _build_report(inequality_id, lhs, bound, {"p": str(p)}, functions)


def _spectrum_check(inequality_id: str, F: SampledFunction, p, s, inner_group: int) -> RatioReport:
    """The mixed norm of F-hat with p' on the first group and s' on the
    second, inner norm over ``inner_group``, against C_p^{d1} C_s^{d2}
    times the (p, s) mixed norm of F: variant (0) or same-order (1)."""
    [(p, s)] = _selections(inequality_id, p, s)
    conjugates = (p.conjugate(), s.conjugate())
    lhs_spec = MixedNormSpec(conjugates[1 - inner_group], inner_group, conjugates[inner_group])
    lhs = spectrum_norm(F, lhs_spec)
    bound = beckner_power(p, F.grid.d1) * beckner_power(s, F.grid.d2)
    bound *= mixed_norm(F, MixedNormSpec.standard(p, s))
    exponents = {"p": str(p), "s": str(s)}
    return _build_report(inequality_id, lhs, bound, exponents, {"F": F.descriptor})


def check_restriction(F: SampledFunction, p: ExponentLike) -> RatioReport:
    """Frequency-hyperplane restriction against the (p, 1) mixed norm.

    lhs is the p'-norm of F-hat on the slice xi'' = 0; the bound is
    C_p^{d1} times the mixed (p, 1) norm of F.
    """
    return _slice_check("restriction", F, p)


def bilinear_sides(F: SampledFunction, G: SampledFunction, exponents: ExponentTuple) -> tuple:
    """The left side and bound of the bilinear inequality for F·G, with no
    admissibility gate: the r-norm of (F·G)-hat on the slice xi'' = 0, and
    C_{r'}^{d1} times the (p, s) norm of F and the (q, t) norm of G. The
    constant needs r >= 2."""
    if F.grid != G.grid or F.side != G.side:
        raise ValueError("factors must share a grid and side")
    lhs = slice_norm(F, exponents.r, G)
    bound = beckner_power(exponents.r.conjugate(), F.grid.d1)
    bound *= mixed_norm(F, MixedNormSpec.standard(exponents.p, exponents.s))
    bound *= mixed_norm(G, MixedNormSpec.standard(exponents.q, exponents.t))
    return lhs, bound


def check_bilinear(F: SampledFunction, G: SampledFunction, exponents: ExponentTuple) -> RatioReport:
    """Bilinear restriction of a product F·G under an admissible tuple."""
    _selections("bilinear", exponent_tuples=[exponents])
    lhs, bound = bilinear_sides(F, G, exponents)
    functions = {"F": F.descriptor, "G": G.descriptor}
    return _build_report("bilinear", lhs, bound, exponents.as_dict(), functions)


def check_variant(F: SampledFunction, p: ExponentLike, s: ExponentLike) -> RatioReport:
    """Reversed-order transform bound: L^{s'} over xi'' outside L^{p'} over xi'."""
    return _spectrum_check("variant", F, p, s, inner_group=0)


def check_same_order(F: SampledFunction, p: ExponentLike, s: ExponentLike) -> RatioReport:
    """Same-order transform bound, valid only for p <= s.

    The regime p > s is exactly where the inequality fails; those
    exponents are rejected here and exercised by the sweep module.
    """
    return _spectrum_check("same_order", F, p, s, inner_group=1)


def check_hausdorff_young(f: SampledFunction, p: ExponentLike) -> RatioReport:
    """Plain sharp Hausdorff-Young on a one-group function."""
    return _slice_check("hausdorff_young", f, p)


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

    The selection, ``p`` (and ``s``) or the bilinear ``exponent_tuples``
    as the ``INEQUALITIES`` entry names, is converted and checked once,
    before the first function is drawn; every check shares its exponents.

    ``functions`` is iterated once, and each function is checked as it
    arrives and released before the next is drawn, so a generator keeps
    the suite's arrays to one trial (three for bilinear). A bilinear trial
    is a function and its successor, cyclically, under every tuple; the
    reports come back tuple-major.
    """
    selections = _selections(inequality_id, p, s, exponent_tuples)
    if INEQUALITIES[inequality_id].pairs:
        trials = _cyclic_pairs(iter(functions))
    else:  # a map, unlike a generator, keeps no function while drawing the next
        trials = map(lambda F: (F,), functions)
    # Looked up at call time, so that a wrapper set on the module attribute runs.
    check = globals()[f"check_{inequality_id}"]
    by_selection: list[list[RatioReport]] = [[] for _ in selections]
    for trial in trials:
        for reports, selection in zip(by_selection, selections):
            reports.append(check(*trial, *selection))
        del trial  # else its functions stay alive while the next is sampled
    if not by_selection[0]:
        raise ValueError("a suite needs at least one trial function")
    return [report for reports in by_selection for report in reports]


def _cyclic_pairs(functions: Iterator[SampledFunction]) -> Iterator[tuple]:
    """Each function with its successor, then the last with the first; a
    lone function pairs with itself."""
    first = F = next(functions, None)
    for G in functions:
        yield F, G
        F = G
    if first is not None:
        yield F, first

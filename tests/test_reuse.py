"""Reuse inside the checks: the marginal path for the ξ'' = 0 slice, the
per-function memo of slices and inner-norm reductions, and what the perf
tracer sees.

Every fast path is compared with a direct computation on a fresh object:
``slice_second_zero(fourier(·))`` for restriction and bilinear, and
``mixed_norm(fourier(F), spec)`` for variant and same-order.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from mixnorm import mixed_norms, sweeps
from mixnorm.exponents import Exponent, ExponentTuple, as_exponent, beckner_power
from mixnorm.gaussians import SeparableSum
from mixnorm.grids import FREQUENCY, GridSpec, SampledFunction
from mixnorm.inequalities import (
    INEQUALITY_IDS,
    check_bilinear,
    check_hausdorff_young,
    check_restriction,
    check_same_order,
    check_variant,
    ensemble_stream,
    ensemble_trials,
    random_admissible_tuples,
    run_suite,
)
from mixnorm.mixed_norms import MixedNormSpec, mixed_norm
from mixnorm.transform import fourier, slice_second_zero
from test_mixed_norms import plain_norm

GRID = GridSpec.default()
#: The first trial functions of the criterion-5 suite; the pair (2, 3) has
#: a bilinear lhs 2.7e6 times below ‖F·G‖₁ under some tuples.
ENSEMBLE = ensemble_trials(GRID, 4, 500)
TUPLES = random_admissible_tuples(10, 77)
#: The criterion-5 exponent grid.
EXPONENTS = ("1", "4/3", "3/2", "2")

PAIRS = list(itertools.product(EXPONENTS, EXPONENTS))
SELECTIONS = (
    [("restriction", p) for p in EXPONENTS]
    + [("variant", pair) for pair in PAIRS]
    + [("same_order", (p, s)) for p, s in PAIRS if not as_exponent(p) > as_exponent(s)]
    + [("bilinear", exps) for exps in TUPLES]
)

#: The fast paths and the direct computations differ only by roundoff.
REL = 1e-12


def fresh(F):
    """The same samples in a new object, whose memo starts empty."""
    return SampledFunction(F.grid, F.values, F.side, F.descriptor)


def run_check(inequality, F, G, exps):
    if inequality == "restriction":
        return check_restriction(F, exps)
    if inequality == "bilinear":
        return check_bilinear(F, G, exps)
    check = check_variant if inequality == "variant" else check_same_order
    return check(F, *exps)


def direct(inequality, F, G, exps):
    """lhs, bound, and the scale roundoff in the lhs is relative to, computed
    on fresh objects through the full transform and its slice."""
    if inequality == "restriction":
        p = as_exponent(exps)
        lhs = plain_norm(slice_second_zero(fourier(fresh(F))), p.conjugate())
        bound = beckner_power(p, 1) * mixed_norm(fresh(F), MixedNormSpec.standard(p, 1))
        return lhs, bound, lhs
    if inequality == "bilinear":
        product = F.with_values(F.values * G.values)
        lhs = plain_norm(slice_second_zero(fourier(product)), exps.r)
        bound = (
            beckner_power(exps.r.conjugate(), 1)
            * mixed_norm(fresh(F), MixedNormSpec.standard(exps.p, exps.s))
            * mixed_norm(fresh(G), MixedNormSpec.standard(exps.q, exps.t))
        )
        # Every slice entry is at most ‖F·G‖₁, and both paths round at
        # that scale, so a lhs far below it keeps fewer correct digits.
        return lhs, bound, max(lhs, plain_norm(product, 1))
    p, s = (as_exponent(e) for e in exps)
    if inequality == "variant":
        spec = MixedNormSpec(s.conjugate(), 0, p.conjugate())
    else:
        spec = MixedNormSpec.standard(p.conjugate(), s.conjugate())
    lhs = mixed_norm(fourier(fresh(F)), spec)
    bound = beckner_power(p, 1) * beckner_power(s, 1) * mixed_norm(
        fresh(F), MixedNormSpec.standard(p, s)
    )
    return lhs, bound, lhs


def selection_id(selection):
    inequality, exps = selection
    if isinstance(exps, ExponentTuple):
        return f"{inequality}-{'-'.join(exps.as_dict().values())}"
    return f"{inequality}-{'-'.join(exps) if isinstance(exps, tuple) else exps}"


def assert_matches_direct(inequality, F, G, exps):
    first = run_check(inequality, F, G, exps)
    lhs, bound, scale = direct(inequality, F, G, exps)
    assert abs(first.lhs - lhs) <= REL * scale
    assert abs(first.bound - bound) <= REL * bound
    assert first.passed and first.ratio is not None
    second = run_check(inequality, F, G, exps)
    assert second.ratio == first.ratio
    assert (second.lhs, second.bound) == (first.lhs, first.bound)


class TestFastPathsMatchTheDirectComputation:
    @pytest.mark.parametrize("selection", SELECTIONS, ids=selection_id)
    def test_each_selection_on_fresh_objects(self, selection):
        inequality, exps = selection
        functions = [fresh(F) for F in ENSEMBLE]
        for index, F in enumerate(functions):
            G = functions[(index + 1) % len(functions)]
            assert_matches_direct(inequality, F, G, exps)

    def test_every_selection_on_shared_objects(self):
        """One memo serves the whole suite. On this grid the space cell
        (12/256) and the frequency cell (1/12) differ."""
        F, G = ensemble_trials(GridSpec(1, 1, 256, 12.0), 2, 41)
        for inequality, exps in SELECTIONS:
            assert_matches_direct(inequality, F, G, exps)
            assert_matches_direct(inequality, G, F, exps)


class TestMemo:
    SPEC = MixedNormSpec.standard("4/3", "3/2")

    @pytest.mark.parametrize(
        "name, value", [("values", 3.0 * ENSEMBLE[0].values), ("side", FREQUENCY)]
    )
    def test_fields_cannot_be_reassigned(self, name, value):
        F = fresh(ENSEMBLE[0])
        norm = mixed_norm(F, self.SPEC)
        before = getattr(F, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(F, name, value)
        assert getattr(F, name) is before
        assert mixed_norm(F, self.SPEC) == norm

    @pytest.mark.parametrize("bad", ["shape", np.nan, np.inf])
    def test_bad_values_are_rejected_at_construction(self, bad):
        F = fresh(ENSEMBLE[0])
        if bad == "shape":
            values = np.ones((3, 3))
        else:
            values = np.array(F.values)
            values[3, 5] = bad
        with pytest.raises(ValueError):
            SampledFunction(GRID, values, F.side)
        with pytest.raises(ValueError):
            F.with_values(values)

    def test_values_are_read_only(self):
        F = fresh(ENSEMBLE[0])
        with pytest.raises(ValueError):
            F.values[0, 0] = 1
        assert not F.with_values(np.ones(GRID.shape)).values.flags.writeable

    def test_a_complex_array_is_adopted_and_a_real_one_converted(self):
        adopted = np.array(ENSEMBLE[0].values)
        F = SampledFunction(GRID, adopted, ENSEMBLE[0].side)
        assert F.values is adopted
        assert not adopted.flags.writeable
        converted = np.ones(GRID.shape)
        G = SampledFunction(GRID, converted, ENSEMBLE[0].side)
        assert G.values is not converted
        assert converted.flags.writeable

    def test_with_values_starts_with_an_empty_memo(self):
        F = fresh(ENSEMBLE[0])
        norm = mixed_norm(F, self.SPEC)
        check_same_order(F, "4/3", "3/2")
        assert F._reductions
        G = F.with_values(2.0 * F.values)
        assert G._reductions == {}
        assert mixed_norm(G, self.SPEC) == pytest.approx(2.0 * norm, rel=REL)

    def test_memo_holds_only_short_vectors(self):
        F, G = fresh(ENSEMBLE[0]), fresh(ENSEMBLE[1])
        for inequality, exps in SELECTIONS:
            run_check(inequality, F, G, exps)
            if inequality == "bilinear":
                run_check(inequality, G, F, exps)
        stages = list(F._reductions.values())
        assert stages
        for stage in stages:
            assert isinstance(stage, np.ndarray)
            assert stage.ndim == 1 and stage.size <= GRID.n
            assert stage.dtype == np.float64
        assert sum(stage.nbytes for stage in stages) <= 64 * 1024


class TestSliceMemo:
    """F's memo keeps one slice magnitude per partner, keyed by the
    partner's serial, so no other product is ever reduced."""

    ROUNDS = 5

    def test_each_partner_keeps_its_own_slice(self):
        F, G, H = (fresh(E) for E in ENSEMBLE[:3])
        check_restriction(F, "4/3")
        for partner in (G, H):
            check_bilinear(F, partner, TUPLES[0])
        assert sum(key[0] == "slice" for key in F._reductions) == 3
        assert check_restriction(F, "4/3").lhs == check_restriction(fresh(F), "4/3").lhs
        for partner in (G, H):
            expected = check_bilinear(fresh(F), fresh(partner), TUPLES[0])
            assert check_bilinear(F, partner, TUPLES[0]).lhs == expected.lhs

    def test_a_new_partner_never_hits_a_freed_partners_entry(self):
        """Each round frees a partner of F, then builds new partners until
        one takes the freed ``id()``. CPython hands the address back within
        a round nearly always, and within one of ``ROUNDS`` all but never."""
        F = fresh(ENSEMBLE[0])
        expected = check_bilinear(fresh(ENSEMBLE[0]), fresh(ENSEMBLE[2]), TUPLES[0]).lhs
        alive = []  # holds every miss, so the allocator soon hands out the freed id
        for _ in range(self.ROUNDS):
            G = fresh(ENSEMBLE[1])
            check_bilinear(F, G, TUPLES[0])
            freed = id(G)
            del G
            for _ in range(1000):
                G = fresh(ENSEMBLE[2])
                if id(G) == freed:
                    assert check_bilinear(F, G, TUPLES[0]).lhs == expected
                    return
                alive.append(G)
        pytest.fail(f"no new partner took a freed partner's id in {self.ROUNDS} rounds")


class TestSpectrumFill:
    """A spectrum miss reduces both groups at its inner exponent."""

    EXPONENTS = ("inf", 4, 3, 2)

    @pytest.mark.parametrize("inner", EXPONENTS)
    def test_one_transform_serves_both_orientations(self, monkeypatch, inner):
        F = fresh(ENSEMBLE[0])
        ranks = counter(monkeypatch, mixed_norms, "fourier")
        for outer in self.EXPONENTS:
            for inner_group in (1, 0):
                spec = MixedNormSpec(outer, inner_group, inner)
                assert mixed_norms.spectrum_norm(F, spec) == mixed_norm(fourier(fresh(F)), spec)
        assert ranks == [2]


def counter(monkeypatch, module, name):
    """Wrap ``module.name`` and record the array rank of each call's input."""
    ranks = []
    original = getattr(module, name)

    def counted(F, *args, **kwargs):
        ranks.append(F.values.ndim)
        return original(F, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return ranks


def call_log(monkeypatch, owner, name):
    """Wrap ``owner.name`` and log one entry per call."""
    calls = []
    original = getattr(owner, name)

    def logged(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)
    return calls


class TestTracerView:
    """The calls go through module attributes, where the perf tracer wraps them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return {
            "fourier": counter(monkeypatch, mixed_norms, "fourier"),
            "marginal": counter(monkeypatch, mixed_norms, "marginal_second"),
        }

    def test_restriction_and_bilinear_take_the_marginal(self, calls):
        F, G = fresh(ENSEMBLE[0]), fresh(ENSEMBLE[1])
        check_restriction(F, "4/3")
        assert calls["marginal"] == [2] and calls["fourier"] == [1]
        check_bilinear(F, G, TUPLES[0])
        assert calls["marginal"] == [2, 2] and calls["fourier"] == [1, 1]

    def test_one_marginal_per_function_and_partner(self, calls):
        F, G = fresh(ENSEMBLE[0]), fresh(ENSEMBLE[1])
        for p in EXPONENTS:
            check_restriction(F, p)
        assert calls["marginal"] == [2] and calls["fourier"] == [1]
        for exps in TUPLES:
            check_bilinear(F, G, exps)
            check_bilinear(G, F, exps)
        assert calls["marginal"] == [2] * 3 and calls["fourier"] == [1] * 3

    def test_hausdorff_young_transforms_each_function_once(self, calls):
        """Its marginal over the empty second group is f itself."""
        f = ensemble_trials(GridSpec.default(d2=0), 1, 500)[0]
        for p in EXPONENTS:
            lhs = plain_norm(fourier(fresh(f)), as_exponent(p).conjugate())
            assert check_hausdorff_young(f, p).lhs == lhs
        assert calls["marginal"] == [1] and calls["fourier"] == [1]

    def test_variant_and_same_order_transform_at_most_four_times(self, calls):
        F = fresh(ENSEMBLE[0])
        for inequality, exps in SELECTIONS:
            if inequality in ("variant", "same_order"):
                run_check(inequality, F, None, exps)
        assert calls["marginal"] == []
        assert 0 < calls["fourier"].count(2) <= 4

    def test_necessity_sweep_takes_the_marginal(self, monkeypatch):
        fourier_ranks = counter(monkeypatch, mixed_norms, "fourier")
        marginal_ranks = counter(monkeypatch, mixed_norms, "marginal_second")
        lambdas = (0.5, 1.0, 2.0)
        sweeps.necessity_sweep(ExponentTuple(2, 2, 2, 2, "inf"), lambdas)
        assert marginal_ranks == [2] * len(lambdas)
        assert fourier_ranks == [1] * len(lambdas)

    def test_one_sample_per_sweep_point(self, monkeypatch):
        """The tracer marks a necessity point at its grid evaluation; the
        blowup points each build one sheared sample."""
        grid_calls = call_log(monkeypatch, SeparableSum, "evaluate_grid")
        shear_calls = call_log(monkeypatch, sweeps, "shear_product")
        lambdas = (0.5, 1.0, 2.0)
        sweeps.necessity_sweep(ExponentTuple(2, 2, 2, 2, "inf"), lambdas)
        assert len(grid_calls) == len(lambdas) and shear_calls == []
        t_values = (1.0, 0.5)
        sweeps.blowup_sweep(2, "4/3", t_values)
        assert len(shear_calls) == len(t_values) and len(grid_calls) == len(lambdas)


class CountingSlot:
    """Stands in for one of ``Exponent``'s slots and counts the values
    stored into it."""

    def __init__(self, slot):
        self.slot, self.stores = slot, 0

    def __get__(self, obj, owner=None):
        return self if obj is None else self.slot.__get__(obj, owner)

    def __set__(self, obj, value):
        self.stores += 1
        self.slot.__set__(obj, value)


class TestExponentDerivations:
    """An exponent's float, string, conjugate and sharp constant are set
    when it is made, so once a 1-trial ``run_suite`` has made its exponents,
    a 40-trial one stores nothing into any of an exponent's slots."""

    def stores(self, monkeypatch, run) -> dict:
        slots = {name: CountingSlot(Exponent.__dict__[name]) for name in Exponent.__slots__}
        with monkeypatch.context() as patch:
            for name, slot in slots.items():
                patch.setattr(Exponent, name, slot)
            run()
        return {name: slot.stores for name, slot in slots.items()}

    @pytest.mark.parametrize("inequality", INEQUALITY_IDS)
    def test_count_does_not_grow_with_the_trials(self, monkeypatch, inequality):
        grid = GridSpec.default(d2=0) if inequality == "hausdorff_young" else GRID
        kwargs = {"p": "4/3", "s": "3/2"}
        if inequality == "bilinear":
            kwargs = {"exponent_tuples": random_admissible_tuples(2, 77)}
        run_suite(inequality, ensemble_stream(grid, 1, 500), **kwargs)
        many = self.stores(
            monkeypatch, lambda: run_suite(inequality, ensemble_stream(grid, 40, 500), **kwargs)
        )
        assert set(many.values()) == {0}
        # the counters do see an exponent being made: 1/n is new for n above every denominator
        n = 2 * max(recip.denominator for recip in Exponent._instances) + 1
        made = self.stores(monkeypatch, lambda: Exponent.from_reciprocal(Fraction(1, n)))
        assert min(made.values()) > 0

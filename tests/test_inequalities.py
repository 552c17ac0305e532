"""Ratio harnesses: Gaussian equality cases, random suites, report verdicts."""

import itertools
import math

import numpy as np
import pytest

from mixnorm.exponents import ExponentTuple, InadmissibleExponents, as_exponent, beckner_power
from mixnorm.grids import SPACE, GridSpec, SampledFunction
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
from mixnorm.mixed_norms import MixedNormSpec, mixed_norm, slice_norm
from mixnorm.sampling import gaussian_product, random_ensemble
from mixnorm.transform import fourier, slice_second_zero

GRID2 = GridSpec.default()
GRID1 = GridSpec.default(d2=0)
GAUSSIAN2 = gaussian_product(GRID2, [1.0, 1.0])
GAUSSIAN1 = gaussian_product(GRID1, [1.0])

#: Product Gaussians meet each bound to within this of equality.
GAUSSIAN_TOL = 1e-3


def separable(f, g):
    """Tensor product of two one-group functions on the full grid."""
    return SampledFunction(GRID2, np.outer(f.values, g.values), (SPACE, SPACE))


class TestGaussianSharpness:
    """Product Gaussians meet every bound with equality."""

    @pytest.mark.parametrize("p", ["2", "4/3", "3/2"])
    def test_restriction(self, p):
        report = check_restriction(GAUSSIAN2, p)
        assert report.passed and not report.degenerate
        assert report.ratio == pytest.approx(1.0, abs=GAUSSIAN_TOL)

    def test_bilinear(self):
        exps = ExponentTuple(2, 2, 2, 2, "inf")
        report = check_bilinear(GAUSSIAN2, GAUSSIAN2, exps)
        assert report.ratio == pytest.approx(1.0, abs=GAUSSIAN_TOL)

    def test_variant(self):
        report = check_variant(GAUSSIAN2, "4/3", "3/2")
        assert report.ratio == pytest.approx(1.0, abs=GAUSSIAN_TOL)

    def test_same_order(self):
        report = check_same_order(GAUSSIAN2, "4/3", "3/2")
        assert report.ratio == pytest.approx(1.0, abs=GAUSSIAN_TOL)

    def test_hausdorff_young(self):
        report = check_hausdorff_young(GAUSSIAN1, "4/3")
        assert report.ratio == pytest.approx(1.0, abs=GAUSSIAN_TOL)

    @pytest.mark.parametrize("d1, d2", [(2, 1), (1, 2)])
    def test_unequal_group_dimensions(self, d1, d2):
        """With d1 != d2 the constants C_p^{d1} and C_p^{d1} C_s^{d2} tell
        the groups apart, so a constant that swaps them moves a ratio."""
        F = gaussian_product(GridSpec(d1, d2, 64, 12.0), [1.0] * (d1 + d2))
        exponents = ("1", "4/3", "3/2", "2")  # the criterion-5 grid
        reports = [check_restriction(F, p) for p in exponents]
        for p, s in itertools.product(exponents, exponents):
            reports.append(check_variant(F, p, s))
            if not as_exponent(p) > as_exponent(s):
                reports.append(check_same_order(F, p, s))
        assert max(abs(r.ratio - 1.0) for r in reports) <= 1e-12


class TestRandomSuites:
    """Small random-ensemble suites; the acceptance module runs the full ones."""

    def test_restriction_suite(self):
        reports = run_suite("restriction", ensemble_trials(GRID2, 8, seed=50), p="4/3")
        assert all(r.passed and not r.degenerate for r in reports)

    def test_variant_and_same_order_suites(self):
        trials = ensemble_trials(GRID2, 8, seed=60)
        for inequality_id in ("variant", "same_order"):
            reports = run_suite(inequality_id, trials, p="4/3", s="3/2")
            assert all(r.passed for r in reports)

    def test_hausdorff_young_suite(self):
        reports = run_suite(
            "hausdorff_young", ensemble_trials(GRID1, 8, seed=70), p="3/2"
        )
        assert all(r.passed for r in reports)

    def test_bilinear_suite(self):
        reports = run_suite(
            "bilinear",
            ensemble_trials(GRID2, 4, seed=80),
            exponent_tuples=random_admissible_tuples(3, seed=81),
        )
        assert len(reports) == 12
        assert all(r.passed for r in reports)

    def test_unknown_id_and_missing_tuples(self):
        with pytest.raises(ValueError):
            run_suite("sharp", [GAUSSIAN2], p=2)
        with pytest.raises(ValueError):
            run_suite("bilinear", [GAUSSIAN2])


class TestStreamingSuite:
    """``run_suite`` consumes any iterable once, checking each function as it arrives."""

    SELECTIONS = [
        ("restriction", GRID2, {"p": "4/3"}),
        ("variant", GRID2, {"p": "4/3", "s": "3/2"}),
        ("same_order", GRID2, {"p": "4/3", "s": "3/2"}),
        ("hausdorff_young", GRID1, {"p": "3/2"}),
        ("bilinear", GRID2, {"exponent_tuples": random_admissible_tuples(3, seed=91)}),
    ]

    @pytest.mark.parametrize("inequality_id, grid, kwargs", SELECTIONS)
    @pytest.mark.parametrize("count", [1, 4])
    def test_generator_gives_the_list_reports(self, inequality_id, grid, kwargs, count):
        listed = run_suite(inequality_id, ensemble_trials(grid, count, 90), **kwargs)
        streamed = run_suite(inequality_id, ensemble_stream(grid, count, 90), **kwargs)
        assert streamed == listed
        assert len(listed) == count * len(kwargs.get("exponent_tuples", [None]))

    @pytest.mark.parametrize("count", [1, 3, 4])
    def test_bilinear_reports_are_tuple_major_over_cyclic_pairs(self, count):
        tuples = random_admissible_tuples(3, seed=92)
        trials = ensemble_trials(GRID2, count, 93)
        expected = [
            check_bilinear(F, trials[(index + 1) % count], exps)
            for exps in tuples
            for index, F in enumerate(trials)
        ]
        reports = run_suite("bilinear", iter(trials), exponent_tuples=tuples)
        assert reports == expected
        seeds = [
            (r.descriptors["functions"]["F"]["seed"], r.descriptors["functions"]["G"]["seed"])
            for r in reports
        ]
        pairs = [(93 + i, 93 + (i + 1) % count) for i in range(count)]
        assert seeds == pairs * len(tuples)
        assert [r.descriptors["exponents"] for r in reports[::count]] == [
            exps.as_dict() for exps in tuples
        ]

    ONE_OF_EACH = [
        ("restriction", {"p": 2}),
        ("bilinear", {"exponent_tuples": random_admissible_tuples(2, seed=94)}),
    ]

    @pytest.mark.parametrize("inequality_id, kwargs", ONE_OF_EACH)
    def test_empty_generator_rejected(self, inequality_id, kwargs):
        with pytest.raises(ValueError, match="at least one"):
            run_suite(inequality_id, ensemble_stream(GRID2, 0, 1), **kwargs)

    @pytest.mark.parametrize("inequality_id, kwargs", ONE_OF_EACH)
    def test_input_is_iterated_once(self, inequality_id, kwargs):
        trials = ensemble_trials(GRID2, 3, 95)

        class OneShot:
            iterations = 0

            def __iter__(self):
                OneShot.iterations += 1
                return iter(trials)

        reports = run_suite(inequality_id, OneShot(), **kwargs)
        assert OneShot.iterations == 1
        assert reports == run_suite(inequality_id, trials, **kwargs)


class TestValidation:
    def test_inadmissible_reasons_surface(self):
        bad_st = ExponentTuple(2, 3, 2, 3, "inf")
        with pytest.raises(InadmissibleExponents) as err:
            check_bilinear(GAUSSIAN2, GAUSSIAN2, bad_st)
        assert err.value.reason == "s-t-relation"

        bad_r = ExponentTuple(2, 2, 2, 2, 2)
        with pytest.raises(InadmissibleExponents) as err:
            check_bilinear(GAUSSIAN2, GAUSSIAN2, bad_r)
        assert err.value.reason == "r-relation"

        small_r = ExponentTuple(8, 2, 8, 2, "4/3")
        with pytest.raises(InadmissibleExponents) as err:
            check_bilinear(GAUSSIAN2, GAUSSIAN2, small_r)
        assert err.value.reason == "r-range"

    def test_exponent_ranges(self):
        with pytest.raises(ValueError):
            check_restriction(GAUSSIAN2, 3)
        with pytest.raises(ValueError):
            check_variant(GAUSSIAN2, "5/2", 2)
        with pytest.raises(ValueError):
            check_hausdorff_young(GAUSSIAN2, 2)  # two-group input

    def test_same_order_rejects_reversed_exponents(self):
        with pytest.raises(ValueError, match="blowup"):
            check_same_order(GAUSSIAN2, "3/2", "4/3")

    def test_empty_suite_rejected(self):
        # an empty suite would report zero failures and pass vacuously
        with pytest.raises(ValueError, match="at least one"):
            run_suite("restriction", [], p=2)


class TestStructure:
    def test_ratio_is_scale_invariant(self):
        F = random_ensemble(GRID2, 6, seed=90)
        scaled = F.with_values(-3.7j * F.values)
        for check in (
            lambda G: check_restriction(G, "4/3"),
            lambda G: check_variant(G, "4/3", "3/2"),
            lambda G: check_same_order(G, "4/3", "3/2"),
        ):
            assert check(scaled).ratio == pytest.approx(check(F).ratio, rel=1e-12)

    def test_separable_ratios_factor(self):
        f = random_ensemble(GRID1, 4, seed=91)
        g = random_ensemble(GRID1, 4, seed=92)
        F = separable(f, g)
        p, s = "4/3", "3/2"
        product_of_factors = (
            check_hausdorff_young(f, p).ratio * check_hausdorff_young(g, s).ratio
        )
        variant = check_variant(F, p, s)
        same_order = check_same_order(F, p, s)
        assert variant.ratio == pytest.approx(product_of_factors, rel=1e-6)
        assert same_order.ratio == pytest.approx(product_of_factors, rel=1e-6)
        assert variant.bound == pytest.approx(same_order.bound, rel=1e-12)

    def test_bilinear_factors_through_restriction(self):
        # slice norm of (FG)-hat <= restriction bound on FG <= bilinear bound
        F = random_ensemble(GRID2, 6, seed=93)
        G = random_ensemble(GRID2, 6, seed=94)
        exps = random_admissible_tuples(1, seed=95)[0]
        report = check_bilinear(F, G, exps)
        product = F.with_values(F.values * G.values)
        r_conj = exps.r.conjugate()
        middle = beckner_power(r_conj, 1) * mixed_norm(
            product, MixedNormSpec.standard(r_conj, 1)
        )
        assert report.lhs <= middle * (1.0 + 1e-2)
        assert middle <= report.bound * (1.0 + 1e-10)

    def test_reports_hold_their_functions_descriptors(self):
        F = random_ensemble(GRID2, 6, seed=96)
        G = random_ensemble(GRID2, 6, seed=97)
        assert check_restriction(F, "4/3").descriptors["functions"]["F"] is F.descriptor
        bilinear = check_bilinear(F, G, random_admissible_tuples(1, seed=98)[0])
        functions = bilinear.descriptors["functions"]
        assert functions["F"] is F.descriptor and functions["G"] is G.descriptor

    def test_zero_function_is_degenerate(self):
        zero = SampledFunction(GRID2, np.zeros(GRID2.shape, complex), (SPACE, SPACE))
        report = check_restriction(zero, "4/3")
        assert report.degenerate and not report.passed and report.ratio is None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_product_is_degenerate(self):
        # at 2^600 each factor is finite but F·G overflows
        scale = 2.0**600
        F = random_ensemble(GRID2, 6, seed=11)
        G = random_ensemble(GRID2, 6, seed=12)
        F, G = F.with_values(scale * F.values), G.with_values(scale * G.values)
        for exps in random_admissible_tuples(10, seed=77):
            report = check_bilinear(F, G, exps)
            assert report.degenerate and not report.passed and report.ratio is None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("k", [1022, 1023])
    def test_overflowing_marginal_is_degenerate(self, k):
        # F is finite, but its x''-marginal overflows
        F = random_ensemble(GRID2, 6, seed=11)
        F = F.with_values(2.0**k * F.values)
        report = check_restriction(F, "4/3")
        assert report.degenerate and not report.passed and report.ratio is None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_slice_transform_is_infinite_and_not_kept(self):
        # the marginal, 2^1019, is finite; its 256-point DFT sum is not
        F = SampledFunction(GRID2, np.full(GRID2.shape, 2.0**1015, complex), (SPACE, SPACE))
        assert slice_norm(F, 4) == math.inf
        assert ("slice", None) not in F._reductions


class TestTupleGenerator:
    def test_deterministic_and_admissible(self):
        first = random_admissible_tuples(25, seed=3)
        second = random_admissible_tuples(25, seed=3)
        assert first == second
        assert len(first) == 25
        from mixnorm.exponents import admissible

        assert all(admissible(t) for t in first)

    def test_distinct_seeds_differ(self):
        assert random_admissible_tuples(10, seed=1) != random_admissible_tuples(10, seed=2)


class TestIdentifiers:
    def test_identifier_tuple_is_frozen(self):
        assert INEQUALITY_IDS == (
            "restriction",
            "bilinear",
            "variant",
            "same_order",
            "hausdorff_young",
        )

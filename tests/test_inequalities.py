"""Ratio harnesses: Gaussian equality cases, random suites, report verdicts."""

import itertools
import math
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixnorm import inequalities
from mixnorm.exponents import (
    Exponent,
    ExponentTuple,
    InadmissibleExponents,
    as_exponent,
    beckner_constant,
    beckner_power,
)
from mixnorm.gaussians import GaussianMix
from mixnorm.grids import SPACE, GridSpec, SampledFunction
from mixnorm.inequalities import (
    INEQUALITIES,
    INEQUALITY_IDS,
    bilinear_sides,
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
from mixnorm.sampling import GenerationError, gaussian_product, random_ensemble, shear_product

GRID2 = GridSpec.default()
GRID1 = GridSpec.default(d2=0)
GAUSSIAN2 = gaussian_product(GRID2, [1.0, 1.0])
GAUSSIAN1 = gaussian_product(GRID1, [1.0])

#: Product Gaussians meet each bound to within this of equality.
GAUSSIAN_TOL = 1e-3


def separable(f, g):
    """Tensor product of two one-group functions on the full grid."""
    return SampledFunction(GRID2, np.outer(f.values, g.values), SPACE)


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


def gaussian_norm(k: float, e: Exponent) -> float:
    """The L^e norm of e^{-pi k x^2} on R: (e k)^(-1/2e), and 1 at e = inf."""
    return 1.0 if e.reciprocal == 0 else (float(e) * k) ** (-0.5 * float(e.reciprocal))


def mixed_norm_closed_form(B, p: Exponent, s: Exponent, inner_group: int) -> float:
    """The mixed norm of e^{-pi z^T B z} on R x R, B real positive definite:
    L^s over group ``inner_group`` first, then L^p over the other. With b
    the inner group's diagonal entry, completing the square leaves the
    inner norm (s b)^(-1/2s) e^{-pi (det B / b) x^2} of the outer variable."""
    (b00, b01), (_, b11) = B
    inner = (b00, b11)[inner_group]
    det = b00 * b11 - b01 * b01
    return gaussian_norm(inner, s) * gaussian_norm(det / inner, p)


@st.composite
def sheared_gaussians(draw):
    """F(x, y) = f(x) g(y - x) with f and g unit-height Gaussians of scales
    a and c in [1/4, 4], one of 256 or 512 points per axis on extent 16, and
    p <= s in [1, 2]. F is the real Gaussian e^{-pi z^T B z} with
    B = [[a + c, -c], [-c, c]], and F-hat is (ac)^(-1/2) e^{-pi z^T B^-1 z}
    with B^-1 = [[1/a, 1/a], [1/a, 1/a + 1/c]].

    Every power |F-hat|^e' that the checks sum on the frequency grid, e'
    the conjugate of p or s, is a Gaussian of scale at most e' (1/a + 1/c),
    so its Riemann sum at spacing 1/16 is exact to 2 e^(-pi 16^2 / scale).
    Draws where that exceeds 2 e^-35 (1.3e-15), or where the shear does not
    fit the grid, are rejected."""
    a, c = (2.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(2))
    grid = GridSpec(1, 1, draw(st.sampled_from([256, 512])), 16.0)
    reciprocals = sorted(draw(st.fractions(Fraction(1, 2), 1, max_denominator=12)) for _ in "ps")
    s, p = map(Exponent.from_reciprocal, reciprocals)
    conjugates = [float(e.conjugate()) for e in (p, s)]
    scale = max([e for e in conjugates if e < math.inf], default=0.0) * (1.0 / a + 1.0 / c)
    assume(scale * 35.0 <= math.pi * grid.extent**2)
    try:
        F = shear_product(GaussianMix(1.0, a), GaussianMix(1.0, c), grid)
    except GenerationError:
        assume(False)
    return F, a, c, p, s


def assert_sheared_equality(F, a, c, p, s):
    """Restriction and variant are equalities on any sheared Gaussian, and
    same-order matches its closed form, each to 1e-14."""
    assert abs(check_restriction(F, p).ratio - 1.0) <= 1e-14
    assert abs(check_variant(F, p, s).ratio - 1.0) <= 1e-14
    B = ((a + c, -c), (-c, c))
    B_inverse = ((1.0 / a, 1.0 / a), (1.0 / a, 1.0 / a + 1.0 / c))
    lhs = (a * c) ** -0.5 * mixed_norm_closed_form(B_inverse, p.conjugate(), s.conjugate(), 1)
    bound = beckner_power(p, 1) * beckner_power(s, 1) * mixed_norm_closed_form(B, p, s, 1)
    assert check_same_order(F, p, s).ratio == pytest.approx(lhs / bound, rel=1e-14, abs=0)


class TestShearedGaussians:
    @settings(deadline=None)
    @given(case=sheared_gaussians())
    def test_ratios_equal_their_closed_forms(self, case):
        assert_sheared_equality(*case)

    @pytest.mark.parametrize("factor", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_a_constant_off_by_1e_12_is_caught(self, monkeypatch, factor):
        F = shear_product(GaussianMix(1.0, 2.0), GaussianMix(1.0, 0.5), GridSpec(1, 1, 256, 16.0))
        case = (F, 2.0, 0.5, as_exponent("6/5"), as_exponent("3/2"))
        assert_sheared_equality(*case)
        monkeypatch.setattr(
            inequalities, "beckner_power", lambda r, d: factor * beckner_power(r, d)
        )
        with pytest.raises(AssertionError):
            assert_sheared_equality(*case)


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
        # one exponents dict per tuple, shared by its reports
        for index, report in enumerate(reports):
            assert report.descriptors["exponents"] is tuples[index // count].as_dict()

    ONE_OF_EACH = [
        ("restriction", {"p": 2}),
        ("bilinear", {"exponent_tuples": random_admissible_tuples(2, seed=94)}),
    ]

    @pytest.mark.parametrize("inequality_id, kwargs", ONE_OF_EACH)
    def test_empty_generator_rejected(self, inequality_id, kwargs):
        with pytest.raises(ValueError, match="at least one"):
            run_suite(inequality_id, ensemble_stream(GRID2, 0, 1), **kwargs)

    @pytest.mark.parametrize("inequality_id, grid, kwargs", SELECTIONS)
    def test_a_trial_is_released_before_the_next_is_drawn(self, inequality_id, grid, kwargs):
        """While a function is drawn the suite holds no earlier one; a
        bilinear suite holds the first (for the closing pair) and the
        current one."""
        held = 2 if INEQUALITIES[inequality_id].pairs else 0
        drawn = []

        def stream():
            for F in ensemble_stream(grid, 4, 96):
                assert sum(ref() is not None for ref in drawn) <= held
                drawn.append(weakref.ref(F))
                yield F
                del F

        assert len(run_suite(inequality_id, stream(), **kwargs)) > 0
        assert len(drawn) == 4

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: check_restriction(GAUSSIAN1, 2),
            lambda: check_bilinear(GAUSSIAN1, GAUSSIAN1, ExponentTuple(2, 2, 2, 2, "inf")),
            lambda: bilinear_sides(GAUSSIAN1, GAUSSIAN1, ExponentTuple(2, 2, 2, 2, "inf")),
            lambda: check_variant(GAUSSIAN1, "4/3", "3/2"),
            lambda: check_same_order(GAUSSIAN1, "4/3", "3/2"),
            lambda: check_hausdorff_young(GAUSSIAN2, 2),
        ],
        ids=["restriction", "bilinear", "bilinear_sides", "variant", "same_order",
             "hausdorff_young"],
    )
    def test_a_function_with_the_wrong_group_count_is_rejected(self, call):
        with pytest.raises(ValueError, match=r"does not apply to functions with d2 = [01]$"):
            call()

    def test_same_order_rejects_reversed_exponents(self):
        with pytest.raises(ValueError, match="blowup"):
            check_same_order(GAUSSIAN2, "3/2", "4/3")

    def test_empty_suite_rejected(self):
        # an empty suite would report zero failures and pass vacuously
        with pytest.raises(ValueError, match="at least one"):
            run_suite("restriction", [], p=2)

    @pytest.mark.parametrize(
        "inequality_id, kwargs, message",
        [
            ("sharp", {"p": 2}, "unknown inequality 'sharp'"),
            ("restriction", {"p": 3}, r"p must lie in \[1, 2\], got 3"),
            ("hausdorff_young", {"p": 3}, r"p must lie in \[1, 2\], got 3"),
            ("variant", {"p": 2, "s": "5/2"}, r"s must lie in \[1, 2\], got 5/2"),
            ("same_order", {"p": "3/2", "s": "4/3"}, "p = 3/2 exceeds s = 4/3"),
            (
                "bilinear",
                {"exponent_tuples": [ExponentTuple(4, 2, 4, 2, 2), ExponentTuple(2, 3, 2, 3, 4)]},
                "violates s-t-relation",
            ),
            ("bilinear", {}, "needs exponent tuples"),
            ("restriction", {}, "the restriction suite needs p$"),
            ("hausdorff_young", {"s": 2}, "the hausdorff_young suite needs p$"),
            ("variant", {"p": "4/3"}, "the variant suite needs s$"),
            ("same_order", {}, "the same_order suite needs p and s$"),
        ],
    )
    def test_bad_selection_is_rejected_before_a_function_is_drawn(
        self, inequality_id, kwargs, message
    ):
        def undrawable():
            pytest.fail("the suite drew a function")
            yield

        with pytest.raises(ValueError, match=message):
            run_suite(inequality_id, undrawable(), **kwargs)

    @given(
        inequality_id=st.sampled_from(["restriction", "variant", "same_order", "hausdorff_young"]),
        reciprocals=st.lists(st.fractions(0, 1, max_denominator=12), min_size=2, max_size=2),
    )
    def test_a_selection_is_accepted_exactly_where_each_constant_is_defined(
        self, inequality_id, reciprocals
    ):
        def defined(e):
            try:
                beckner_constant(e)
            except ValueError:
                return False
            return True

        p, s = map(Exponent.from_reciprocal, reciprocals)
        expected = all(defined(e) for e in (p, s)[: len(INEQUALITIES[inequality_id].exponents)])
        if inequality_id == "same_order":
            expected = expected and p <= s
        try:
            inequalities._selections(inequality_id, p, s)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == expected

    def test_a_repeated_check_makes_no_fraction_comparison(self, monkeypatch):
        F = random_ensemble(GRID2, 6, seed=11)
        p, s = Exponent("4/3"), Exponent(2)
        first = [check(F, p, s) for check in (check_variant, check_same_order)]
        calls = []
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):

            def counted(a, b, compare=getattr(Fraction, name)):
                calls.append(compare.__name__)
                return compare(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        second = [check(F, p, s) for check in (check_variant, check_same_order)]
        monkeypatch.undo()
        assert calls == []
        assert second == first


#: The seed-11 ensemble; each map below leaves its three ratios unchanged.
ENSEMBLE = random_ensemble(GRID2, 6, seed=11)


def three_ratios(values):
    """Restriction (4/3), variant and same-order (4/3, 2) ratios of ``values``."""
    G = ENSEMBLE.with_values(values)
    return np.array([
        check_restriction(G, "4/3").ratio,
        check_variant(G, "4/3", 2).ratio,
        check_same_order(G, "4/3", 2).ratio,
    ])


def modulated(values, bins, axis):
    """``values`` times a plane wave of ``bins`` frequency bins along ``axis``:
    a cyclic shift of the spectrum by ``bins`` along that axis."""
    wave = np.exp(2j * np.pi * bins * GRID2.space_coords() / GRID2.extent)
    return values * (wave[:, None] if axis == 0 else wave[None, :])


class TestMetamorphic:
    """Maps that permute the spectrum within each axis, or rotate its phase,
    keep every ratio to 1e-12; a shift of the restriction's hyperplane does not."""

    BASE = three_ratios(ENSEMBLE.values)

    @settings(max_examples=6, deadline=None)
    @given(shift=st.integers(1, GRID2.n - 1), axis=st.sampled_from([0, 1]))
    def test_a_cyclic_shift(self, shift, axis):
        shifted = np.roll(ENSEMBLE.values, shift, axis=axis)
        np.testing.assert_allclose(three_ratios(shifted), self.BASE, rtol=1e-12, atol=0)

    @settings(max_examples=4, deadline=None)
    @given(phase=st.floats(0.0, 2.0 * math.pi))
    def test_a_global_phase(self, phase):
        rotated = np.exp(1j * phase) * ENSEMBLE.values
        np.testing.assert_allclose(three_ratios(rotated), self.BASE, rtol=1e-12, atol=0)

    def test_complex_conjugation(self):
        conjugate = np.conj(ENSEMBLE.values)
        np.testing.assert_allclose(three_ratios(conjugate), self.BASE, rtol=1e-12, atol=0)

    @settings(max_examples=4, deadline=None)
    @given(bins=st.integers(-16, 16).filter(bool))
    def test_a_modulation_along_the_first_group(self, bins):
        ratios = three_ratios(modulated(ENSEMBLE.values, bins, axis=0))
        np.testing.assert_allclose(ratios, self.BASE, rtol=1e-12, atol=0)

    def test_a_modulation_along_the_second_group_moves_only_the_restriction(self):
        restriction, *others = three_ratios(modulated(ENSEMBLE.values, 3, axis=1))
        assert abs(restriction / self.BASE[0] - 1) > 0.1
        np.testing.assert_allclose(others, self.BASE[1:], rtol=1e-12, atol=0)


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
        zero = SampledFunction(GRID2, np.zeros(GRID2.shape, complex), SPACE)
        report = check_restriction(zero, "4/3")
        assert report.degenerate and not report.passed and report.ratio is None

    def test_overflowing_product_is_degenerate(self):
        # at 2^600 each factor is finite but F·G overflows
        scale = 2.0**600
        F = random_ensemble(GRID2, 6, seed=11)
        G = random_ensemble(GRID2, 6, seed=12)
        F, G = F.with_values(scale * F.values), G.with_values(scale * G.values)
        for exps in random_admissible_tuples(10, seed=77):
            report = check_bilinear(F, G, exps)
            assert report.degenerate and not report.passed and report.ratio is None

    @pytest.mark.parametrize("k", [1022, 1023])
    def test_overflowing_marginal_is_degenerate(self, k):
        # F is finite, but its x''-marginal overflows
        F = random_ensemble(GRID2, 6, seed=11)
        F = F.with_values(2.0**k * F.values)
        report = check_restriction(F, "4/3")
        assert report.degenerate and not report.passed and report.ratio is None

    def test_overflowing_slice_transform_is_infinite_and_not_kept(self):
        # the marginal, 2^1019, is finite; its 256-point DFT sum is not
        F = SampledFunction(GRID2, np.full(GRID2.shape, 2.0**1015, complex), SPACE)
        assert slice_norm(F, 4) == math.inf
        assert ("slice", None) not in F._reductions

    @pytest.mark.parametrize(
        "lhs, bound",
        [
            (0.0, 1.0),
            (5e-324, 1.0),
            (1.0, 0.0),
            (1.0, 5e-324),
            (1.0, -1.0),
            (math.inf, 1.0),
            (1.0, math.inf),
            (math.nan, 1.0),
            (1.0, math.nan),
        ],
    )
    def test_a_side_that_is_not_a_finite_normal_float_is_degenerate(self, lhs, bound):
        report = inequalities._build_report("restriction", lhs, bound, {}, {})
        assert report.degenerate and not report.passed and report.ratio is None

    def test_the_smallest_normal_sides_are_decided(self):
        tiny = sys.float_info.min
        report = inequalities._build_report("restriction", tiny, tiny, {}, {})
        assert report.passed and not report.degenerate and report.ratio == 1.0

    @staticmethod
    def scaled_reports(c: float) -> list:
        """Each inequality's reports on the seed-11 ensembles scaled by c:
        restriction and Hausdorff-Young at p = 4/3, variant and same-order at
        (4/3, 2), bilinear with the seed-12 partner under the ten tuples of
        seed 77."""
        F, G = (random_ensemble(GRID2, 6, seed=seed) for seed in (11, 12))
        f = random_ensemble(GRID1, 6, seed=11)
        F, G, f = (h.with_values(c * h.values) for h in (F, G, f))
        return [
            check_restriction(F, "4/3"),
            check_hausdorff_young(f, "4/3"),
            check_variant(F, "4/3", 2),
            check_same_order(F, "4/3", 2),
            *(check_bilinear(F, G, exps) for exps in random_admissible_tuples(10, seed=77)),
        ]

    def test_an_underflowed_side_is_degenerate_not_a_pass(self):
        # at 1e-160 each left side underflows below the smallest normal float
        for report in self.scaled_reports(1e-160):
            assert report.lhs < sys.float_info.min
            assert report.degenerate and not report.passed and report.ratio is None

    def test_unscaled_reports_pass(self):
        for report in self.scaled_reports(1.0):
            assert report.passed and not report.degenerate
            assert report.ratio == report.lhs / report.bound


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


class TestTable:
    """``INEQUALITIES`` is the one list of inequalities: the public checks
    are its ids, and ``run_suite`` calls each through the module attribute
    that the benchmark's tracer wraps."""

    def test_public_checks_are_the_table_ids(self):
        assert INEQUALITY_IDS == tuple(INEQUALITIES)
        checks = {name for name in inequalities.__all__ if name.startswith("check_")}
        assert checks == {f"check_{inequality_id}" for inequality_id in INEQUALITY_IDS}

    @pytest.mark.parametrize("inequality_id, grid, kwargs", TestStreamingSuite.SELECTIONS)
    def test_run_suite_calls_the_module_attribute(self, monkeypatch, inequality_id, grid, kwargs):
        name = f"check_{inequality_id}"
        check = getattr(inequalities, name)
        calls = []

        def wrapper(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(inequalities, name, wrapper)
        reports = run_suite(inequality_id, ensemble_trials(grid, 2, 97), **kwargs)
        assert len(calls) == len(reports) > 0


@st.composite
def admissible_tuples(draw) -> ExponentTuple:
    """(p, s, q, t, r) with 1/p + 1/q = 1/r' in [1/2, 1] and 1/s + 1/t = 1."""
    r_conj = draw(st.fractions(Fraction(1, 2), 1, max_denominator=12))
    p = draw(st.fractions(0, r_conj, max_denominator=12))
    s = draw(st.fractions(0, 1, max_denominator=12))
    reciprocals = (p, s, r_conj - p, 1 - s, 1 - r_conj)
    return ExponentTuple(*map(Exponent.from_reciprocal, reciprocals))


@pytest.fixture(scope="module")
def ensemble():
    return ensemble_trials(GRID2, 6, seed=60)


class TestTheorem:
    """The paper's equivalence of the bilinear and the restriction
    inequality, as two discrete identities that hold to roundoff for any
    admissible tuple."""

    @settings(deadline=None)  # the first example transforms each function
    @given(exponents=admissible_tuples(), pair=st.integers(0, 4))
    def test_bilinear_ratio_is_a_restriction_ratio_of_the_product(self, ensemble, exponents, pair):
        """ratio(F, G) = restriction ratio(F·G) at r' times
        ||FG||_(r',1) / (||F||_(p,s) ||G||_(q,t))."""
        F, G = ensemble[pair], ensemble[pair + 1]
        product = F.with_values(F.values * G.values)
        r_conj = exponents.r.conjugate()
        factors = mixed_norm(F, MixedNormSpec.standard(exponents.p, exponents.s)) * mixed_norm(
            G, MixedNormSpec.standard(exponents.q, exponents.t)
        )
        holder = mixed_norm(product, MixedNormSpec.standard(r_conj, 1)) / factors
        expected = check_restriction(product, r_conj).ratio * holder
        assert check_bilinear(F, G, exponents).ratio == pytest.approx(expected, rel=1e-12)

    @settings(deadline=None)  # the first example transforms each function
    @given(exponents=admissible_tuples(), index=st.integers(0, 5))
    def test_every_restriction_ratio_is_a_bilinear_ratio(self, ensemble, exponents, index):
        """F = sgn(H)|H|^(r'/p) and G = |H|^(r'/q), with s = p/r' and
        t = q/r', make Hölder an equality: ratio(F, G) = restriction ratio(H)."""
        assume(exponents.p.reciprocal != 0 and exponents.q.reciprocal != 0)
        H = ensemble[index]
        r_conj = exponents.r.conjugate()
        a = exponents.p.reciprocal / r_conj.reciprocal  # r'/p = 1/s
        magnitude = np.abs(H.values)
        phase = np.divide(H.values, magnitude, out=np.zeros_like(H.values), where=magnitude > 0)
        F = H.with_values(phase * magnitude ** float(a))
        G = H.with_values(magnitude ** float(1 - a))
        s, t = Exponent.from_reciprocal(a), Exponent.from_reciprocal(1 - a)
        factored = ExponentTuple(exponents.p, s, exponents.q, t, exponents.r)
        expected = check_restriction(H, r_conj).ratio
        assert check_bilinear(F, G, factored).ratio == pytest.approx(expected, rel=1e-12)

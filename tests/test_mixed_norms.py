"""Mixed-norm quadrature against closed forms, and the Minkowski and Hölder inequalities."""

import math
import tracemalloc

import numpy as np
import pytest

from mixnorm import mixed_norms
from mixnorm.exponents import Exponent, as_exponent
from mixnorm.grids import FREQUENCY, SPACE, GridSpec, SampledFunction
from mixnorm.mixed_norms import MixedNormSpec, mixed_norm, slice_norm, spectrum_norm
from mixnorm.sampling import gaussian_product, random_ensemble
from mixnorm.transform import fourier

GRID2 = GridSpec.default()
GRID1 = GridSpec.default(d2=0)

#: Unit cells: spacing 1 on both axes, so Riemann weights drop out.
UNIT_CELLS = GridSpec(1, 1, n=2, extent=2.0)

#: Total measure 1, so the norm of the constant 1 is 1 for every exponent.
UNIT_MASS = GridSpec(1, 1, n=4, extent=1.0)


def on_grid(grid, values):
    return SampledFunction(grid, np.asarray(values, dtype=complex), SPACE)


def plain_norm(F, a):
    """The unmixed L^a norm over every axis at once, from the whole magnitude array."""
    return mixed_norms._magnitude_norm(np.abs(F.values), F.cell_width**F.grid.ndim, as_exponent(a))


def assert_plain_riemann_sums(outer, inner):
    F = random_ensemble(GRID2, 6, seed=3)
    h = GRID2.spacing

    def layer(values, a, axis):
        if a == 1:
            return h * values.sum(axis=axis)
        return (h * (values**2.0).sum(axis=axis)) ** 0.5

    expected = layer(layer(np.abs(F.values), inner, 1), outer, 0)
    assert mixed_norm(F, MixedNormSpec.standard(outer, inner)) == expected


def assert_skipped_powers_leave_every_bit(inner):
    h = GRID2.spacing

    def layer(values, a, axis):
        if a == math.inf:
            return values.max(axis=axis)
        if a == 1:
            return h * values.sum(axis=axis)
        return (h * (values**a).sum(axis=axis)) ** (1.0 / a)

    base = random_ensemble(GRID2, 6, seed=500).values
    for k in (-1000, -150, -100, -50, 0, 60, 1000):
        F = SampledFunction(GRID2, 2.0**k * base, SPACE)
        for inner_group in (1, 0):
            with np.errstate(over="ignore"):
                stage = layer(np.abs(F.values), inner, inner_group)
            for outer in ("1", "4/3", "3/2", "2", "3", "8", "inf"):
                expected = layer(stage, float(as_exponent(outer).value), 0)
                with np.errstate(over="ignore"):
                    assert mixed_norm(F, MixedNormSpec(outer, inner_group, inner)) == expected


def whole_array_stage(values, axes, weight, a):
    """An inner layer reduced from the whole magnitude array at once."""
    magnitude = np.abs(values)
    if a == math.inf:
        return magnitude.max(axis=axes)
    if a == 1.0:
        return weight * magnitude.sum(axis=axes)
    return (weight * mixed_norms._powers(magnitude, a).sum(axis=axes)) ** (1.0 / a)


class TestMixedNormSpec:
    @pytest.mark.parametrize("group", [-1, 2, "second"])
    def test_inner_group_is_0_or_1(self, group):
        with pytest.raises(ValueError):
            MixedNormSpec(2, group, 2)

    def test_constructors_orient_the_groups(self):
        spec = MixedNormSpec.standard("4/3", 2)
        assert spec == MixedNormSpec("4/3", 1, 2)
        assert str(spec.outer_exponent) == "4/3"


class TestMixedNorm:
    def test_constant_one_on_unit_mass_grid(self):
        F = on_grid(UNIT_MASS, np.ones((4, 4)))
        for outer, inner in [(2, 1), (1, 2), ("4/3", 3), ("inf", 2), (2, "inf")]:
            assert mixed_norm(F, MixedNormSpec.standard(outer, inner)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_identity_matrix_both_orders(self):
        F = on_grid(UNIT_CELLS, np.eye(2))
        # inner l^1 over columns gives row sums (1, 1); outer l^2 gives sqrt(2)
        assert mixed_norm(F, MixedNormSpec.standard(2, 1)) == pytest.approx(math.sqrt(2))
        # inner l^2 over rows gives column norms (1, 1); outer l^1 gives 2
        assert mixed_norm(F, MixedNormSpec(1, 0, 2)) == pytest.approx(2.0)

    def test_matches_explicit_quadrature(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        F = SampledFunction(GRID2, values, SPACE)
        h = GRID2.spacing
        inner = (h * np.sum(np.abs(values) ** 2.0, axis=1)) ** 0.5
        expected = (h * np.sum(inner ** (4.0 / 3.0))) ** 0.75
        got = mixed_norm(F, MixedNormSpec.standard("4/3", 2))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("inner_group", [1, 0], ids=["standard", "reversed"])
    def test_each_layer_takes_its_own_groups_cell(self, inner_group):
        """On this grid the space cell (12/256) and the frequency cell (1/12)
        differ, so both layers of a frequency-side function must weigh by
        the frequency cell."""
        grid = GridSpec(1, 1, 256, 12.0)
        values = np.abs(np.random.default_rng(6).standard_normal(grid.shape))
        F = SampledFunction(grid, values, FREQUENCY)
        cell = 1 / 12
        spec = MixedNormSpec(2, inner_group, 1)
        inner = cell * values.sum(axis=spec.inner_group)
        expected = (cell * np.sum(inner**2.0)) ** 0.5
        assert mixed_norm(F, spec) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("outer, inner", [(1, 1), (2, 1), (1, 2)])
    def test_exponent_one_is_the_plain_riemann_sum(self, outer, inner):
        assert_plain_riemann_sums(outer, inner)

    @pytest.mark.parametrize("inner", [3, 4, 5, 8, 9, 12, 20, 100])
    def test_skipped_powers_leave_every_bit(self, inner):
        """Powers under 2^-1022 of the largest are skipped; every two-layer
        norm still equals the one built from plain ``values**a``, at scales
        where the terms underflow, and where the outcome is 0 or inf."""
        assert_skipped_powers_leave_every_bit(inner)

    def test_product_gaussian_closed_form(self):
        F = gaussian_product(GRID2, [1.0, 2.0])
        p, s = 4.0 / 3.0, 2.0
        expected = (p * 1.0) ** (-0.5 / p) * (s * 2.0) ** (-0.5 / s)
        got = mixed_norm(F, MixedNormSpec.standard("4/3", 2))
        assert got == pytest.approx(expected, abs=1e-4)

    def test_infinite_inner_takes_exact_max(self):
        F = gaussian_product(GRID2, [1.0, 2.0])
        # sup over y is attained at the y = 0 grid line, value 1
        got = mixed_norm(F, MixedNormSpec.standard(2, "inf"))
        assert got == pytest.approx((2.0 * 1.0) ** (-0.25), abs=1e-4)

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        F = on_grid(UNIT_MASS, rng.random((4, 4)))
        spec = MixedNormSpec.standard(3, "3/2")
        base = mixed_norm(F, spec)
        scaled = mixed_norm(F.with_values(-2.5j * F.values), spec)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        spec = MixedNormSpec.standard(2, 4)
        for _ in range(50):
            F = on_grid(UNIT_MASS, rng.standard_normal((4, 4)))
            G = on_grid(UNIT_MASS, rng.standard_normal((4, 4)))
            total = mixed_norm(F.with_values(F.values + G.values), spec)
            assert total <= mixed_norm(F, spec) + mixed_norm(G, spec) + 1e-10


#: The exponents of the one-group comparisons, 1 and infinity included.
ONE_GROUP_EXPONENTS = ["1", "4/3", "3/2", "2", "3", "9", "inf"]


class TestEmptySecondGroup:
    """A one-group function (d2 = 0) has the empty axis tuple as its second
    group, whose reduction is the identity with cell weight h⁰ = 1."""

    @pytest.fixture(scope="class", params=[1, 2], ids=["d1=1", "d1=2"])
    def f(self, request):
        return random_ensemble(GridSpec.default(d1=request.param, d2=0), 6, seed=3)

    @pytest.mark.parametrize("inner", ["1", "inf"])
    @pytest.mark.parametrize("p", ONE_GROUP_EXPONENTS)
    def test_an_inner_one_or_infinity_gives_the_plain_norm_bit_for_bit(self, f, p, inner):
        assert mixed_norm(f, MixedNormSpec.standard(p, inner)) == plain_norm(f, p)

    @pytest.mark.parametrize("inner", ["4/3", "2", "3"])
    def test_another_inner_exponent_gives_it_to_rounding(self, f, inner):
        """The inner layer raises each |f| to the power s and back."""
        for p in ONE_GROUP_EXPONENTS:
            got = mixed_norm(f, MixedNormSpec.standard(p, inner))
            assert got == pytest.approx(plain_norm(f, p), rel=1e-15, abs=0)

    @pytest.mark.parametrize("p", ONE_GROUP_EXPONENTS)
    def test_a_spectrum_norm_is_the_plain_norm_of_the_transform(self, f, p):
        assert spectrum_norm(f, MixedNormSpec.standard(p, 1)) == plain_norm(fourier(f), p)


class TestBlockedReduction:
    """A memo miss reads its array in blocks of whole rows of axis 0; what
    it keeps and returns equals the whole-array reduction bit for bit."""

    @pytest.fixture
    def seven_rows(self, monkeypatch):
        """Split a 256² array into 36 blocks of 7 rows and one of 4."""
        monkeypatch.setattr(mixed_norms, "_BLOCK_BYTES", 7 * 256 * 16)

    @pytest.mark.usefixtures("seven_rows")
    @pytest.mark.parametrize("outer, inner", [(1, 1), (2, 1), (1, 2)])
    def test_exponent_one_is_the_plain_riemann_sum(self, outer, inner):
        assert_plain_riemann_sums(outer, inner)

    @pytest.mark.usefixtures("seven_rows")
    @pytest.mark.parametrize("inner", [3, 4, 5, 8, 9, 12, 20, 100])
    def test_skipped_powers_leave_every_bit(self, inner):
        assert_skipped_powers_leave_every_bit(inner)

    @pytest.mark.parametrize(
        "grid, rows",
        [(GRID2, 7), (GridSpec(2, 1, 40, 8.0), 3), (GridSpec(1, 2, 40, 8.0), 3)],
        ids=["(1,1)", "(2,1)", "(1,2)"],
    )
    @pytest.mark.parametrize("inner", ["inf", 1, "3/2", 2, 4, 20])
    def test_every_stage_equals_the_whole_array_reduction(self, grid, rows, inner, monkeypatch):
        """Ragged blocks (256 = 36·7 + 4 and 40 = 13·3 + 1 rows), both
        orientations, and the spectrum miss that fills both groups. On the
        (2, 1) grid the leading layer reduces axes (0, 1) together."""
        e = as_exponent(inner)
        rng = np.random.default_rng(8)
        phases = np.exp(2j * np.pi * rng.random(grid.shape))
        values = gaussian_product(grid, [1.0] * grid.ndim).values * phases
        monkeypatch.setattr(mixed_norms, "_BLOCK_BYTES", rows * values[0].nbytes)
        for spectrum, norm in ((False, mixed_norm), (True, spectrum_norm)):
            for inner_group in (1, 0):
                F = on_grid(grid, values)
                spec = MixedNormSpec("4/3", inner_group, inner)
                norm(F, spec)
                G = fourier(F) if spectrum else F
                for group in (0, 1) if spectrum else (spec.inner_group,):
                    axes = (grid.first_axes, grid.second_axes)[group]
                    weight = G.cell_width ** len(axes)
                    expected = whole_array_stage(G.values, axes, weight, float(e))
                    assert np.array_equal(F._reductions[(spectrum, group, e)], expected)

    def test_a_nan_in_a_later_block_skips_nothing(self, monkeypatch):
        """The skip floor comes from the whole array's maximum, so a NaN in
        any block keeps row 0's tiny powers as a single block would."""
        values = np.full((4, 8), 1e-80, dtype=complex)
        values[1] = 1.0
        values[3, 0] = np.nan
        monkeypatch.setattr(mixed_norms, "_BLOCK_BYTES", 2 * values[0].nbytes)
        stage = mixed_norms._inner_stages(values, [((1,), 1.0)], as_exponent(4))[0]
        assert np.array_equal(stage, whole_array_stage(values, (1,), 1.0, 4.0), equal_nan=True)
        assert stage[0] > 0.0

    def test_a_miss_holds_under_half_an_array(self):
        grid = GridSpec.default(n=1024)
        F = random_ensemble(grid, 6, seed=7)
        spec = MixedNormSpec.standard("4/3", 3)
        mixed_norm(random_ensemble(GRID2, 6, seed=7), spec)  # warm-up: first-call caches
        tracemalloc.start()
        try:
            mixed_norm(F, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * F.values.nbytes
        expected = whole_array_stage(F.values, (1,), grid.spacing, 3.0)
        assert np.array_equal(F._reductions[(False, 1, as_exponent(3))], expected)


class TestSliceNorm:
    @pytest.mark.parametrize(
        "partner",
        [
            lambda: random_ensemble(GRID1, 6, seed=4),
            lambda: random_ensemble(GridSpec(1, 1, 256, 12.0), 6, seed=4),
            lambda: fourier(random_ensemble(GRID2, 6, seed=4)),
        ],
        ids=["one-group", "extent-12", "frequency-side"],
    )
    def test_a_partner_on_another_grid_or_side_is_rejected(self, partner):
        """F·partner would broadcast or mix sides; nothing is kept."""
        F = random_ensemble(GRID2, 6, seed=3)
        with pytest.raises(ValueError, match="factors must share a grid and side"):
            slice_norm(F, 4, partner())
        assert F._reductions == {}


class TestPlainNorm:
    def test_gaussian_l2(self):
        assert plain_norm(gaussian_product(GRID1, [1.0]), 2) == pytest.approx(
            2.0 ** (-0.25), abs=1e-6
        )
        assert plain_norm(gaussian_product(GRID2, [1.0, 1.0]), 2) == pytest.approx(
            2.0 ** (-0.5), abs=1e-6
        )

    def test_sup_norm(self):
        assert plain_norm(gaussian_product(GRID2, [1.0, 1.0]), "inf") == 1.0

    def test_agrees_with_mixed_when_exponents_match(self):
        rng = np.random.default_rng(13)
        F = on_grid(UNIT_MASS, rng.random((4, 4)))
        assert plain_norm(F, "3/2") == pytest.approx(
            mixed_norm(F, MixedNormSpec.standard("3/2", "3/2")), rel=1e-12
        )


#: Slack for the Minkowski ordering, which holds to roundoff, not merely to
#: quadrature accuracy.
MINKOWSKI_SLACK = 1e-10


def minkowski_orders(F, a, b) -> tuple[float, float]:
    """The (a, b) mixed norm of F in both evaluation orders, larger exponent
    outermost first. ``a`` is bound to the first group and ``b`` to the
    second throughout; Minkowski's integral inequality says the first
    number is at most the second (Benedek and Panzone, 1961)."""
    a, b = as_exponent(a), as_exponent(b)
    a_outermost = mixed_norm(F, MixedNormSpec(a, 1, b))
    b_outermost = mixed_norm(F, MixedNormSpec(b, 0, a))
    return (a_outermost, b_outermost) if a > b else (b_outermost, a_outermost)


class TestMinkowskiCompare:
    def test_identity_matrix_oracle(self):
        F = on_grid(UNIT_CELLS, np.eye(2))
        assert minkowski_orders(F, 2, 1) == (pytest.approx(math.sqrt(2)), pytest.approx(2.0))

    def test_holds_on_random_arrays(self):
        rng = np.random.default_rng(21)
        pool = [1, "4/3", "3/2", 2, 3, "inf"]
        for trial in range(1000):
            shape = (2 * rng.integers(1, 4), 2 * rng.integers(1, 4))
            n = int(shape[0])
            grid = GridSpec(1, 1, n=n, extent=float(n))
            values = rng.random(shape[0] * shape[0]).reshape(shape[0], shape[0])
            F = on_grid(grid, values)
            a, b = rng.choice(len(pool), size=2, replace=False)
            larger_outermost, smaller_outermost = minkowski_orders(F, pool[a], pool[b])
            assert larger_outermost <= smaller_outermost + MINKOWSKI_SLACK

    def test_separable_arrays_give_equality(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            f = rng.random(4)
            g = rng.random(4)
            F = on_grid(UNIT_MASS, np.outer(f, g))
            larger_outermost, smaller_outermost = minkowski_orders(F, "5/2", "4/3")
            assert larger_outermost == pytest.approx(smaller_outermost, rel=1e-10)


def holder_ratio(F, G, p, s, q, t) -> float:
    """||FG||_(u,v) / (||F||_(p,s) ||G||_(q,t)), with 1/u = 1/p + 1/q and
    1/v = 1/s + 1/t; Hölder's inequality says it is at most 1."""
    p, s, q, t = map(as_exponent, (p, s, q, t))
    u = Exponent.from_reciprocal(p.reciprocal + q.reciprocal)
    v = Exponent.from_reciprocal(s.reciprocal + t.reciprocal)
    product = F.with_values(F.values * G.values)
    factors = mixed_norm(F, MixedNormSpec.standard(p, s)) * mixed_norm(
        G, MixedNormSpec.standard(q, t)
    )
    return mixed_norm(product, MixedNormSpec.standard(u, v)) / factors


class TestHolder:
    def test_matched_gaussians_reach_equality(self):
        F = gaussian_product(GRID2, [1.0, 2.0])
        assert holder_ratio(F, F, 2, 2, 2, 2) == pytest.approx(1.0, abs=1e-12)
        assert holder_ratio(F, F, 4, 4, 4, 4) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_gaussians_fall_short(self):
        F = gaussian_product(GRID2, [1.0, 2.0])
        G = gaussian_product(GRID2, [2.0, 1.0])
        # closed form: ||FG||_1 = 1/3, factor norms 2^(-1/2) * 2^(-1)
        assert holder_ratio(F, G, 2, 2, 2, 2) == pytest.approx(
            2.0 * math.sqrt(2.0) / 3.0, abs=1e-6
        )

    def test_random_arrays_never_exceed_one(self):
        rng = np.random.default_rng(31)
        pool = [("4/3", 2, 4, 2), (2, 2, 2, 2), (3, "3/2", "3/2", 3)]
        for trial in range(200):
            F = on_grid(UNIT_MASS, rng.random((4, 4)))
            G = on_grid(UNIT_MASS, rng.random((4, 4)))
            assert holder_ratio(F, G, *pool[trial % len(pool)]) <= 1.0 + 1e-10

    def test_infinite_partner_is_identity(self):
        # 1/inf = 0 adds nothing: ||F·1||_(p,s) / (||F||_(p,s) · 1) = 1
        F = random_ensemble(GRID2, 6, seed=32)
        one = F.with_values(np.ones(GRID2.shape, complex))
        assert holder_ratio(F, one, 3, "3/2", "inf", "inf") == 1.0

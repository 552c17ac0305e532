"""Exponent arithmetic, admissibility gates, and the sharp constants."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixnorm.exponents import (
    Admissibility,
    Exponent,
    ExponentTuple,
    InadmissibleExponents,
    admissible,
    as_exponent,
    beckner_constant,
    beckner_power,
)

rationals = st.fractions(min_value=1, max_value=1000, max_denominator=64)
#: Reciprocals of exponents in [1, inf]; 0 is the exponent inf.
reciprocals = st.fractions(min_value=0, max_value=1, max_denominator=1000)


def derived(e: Exponent) -> tuple:
    """Every value set when an exponent is made, floats as their bits."""
    values = (float(e).hex(), str(e), e.conjugate().reciprocal)
    if Exponent(1) <= e <= Exponent(2):
        values += (beckner_constant(e).hex(),)
    return values


def derived_directly(recip: Fraction) -> tuple:
    """The same values from the reciprocal alone, with no exponent in play."""
    value = math.inf if recip == 0 else 1 / recip
    values = (float(value).hex(), "inf" if recip == 0 else str(value), 1 - recip)
    if Fraction(1, 2) <= recip <= 1:
        if recip in (1, Fraction(1, 2)):
            constant = 1.0
        else:
            rv = float(value)
            tv = rv / (rv - 1.0)
            constant = rv ** (1.0 / (2.0 * rv)) * tv ** (-1.0 / (2.0 * tv))
        values += (constant.hex(),)
    return values


class TestExponent:
    def test_parsing_forms_agree(self):
        assert Exponent(2) == Exponent("2") == Exponent(2.0) == Exponent(Fraction(2))
        assert Exponent("4/3") == Exponent(Fraction(4, 3))
        assert Exponent("1.5") == Exponent(Fraction(3, 2))
        assert Exponent("inf").reciprocal == 0
        assert Exponent(math.inf).reciprocal == 0

    def test_reciprocal_storage_is_exact_for_rationals(self):
        e = Exponent("4/3")
        assert e.reciprocal == Fraction(3, 4)
        assert e.value == Fraction(4, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Exponent("2/3")
        with pytest.raises(ValueError):
            Exponent(0.25)
        with pytest.raises(ValueError):
            Exponent.from_reciprocal(Fraction(3, 2))

    @pytest.mark.parametrize("text", ["1/0", "0/0", " 3/0 "])
    def test_a_zero_denominator_is_a_value_error_naming_the_text(self, text):
        with pytest.raises(ValueError, match=f"exponent '{text.strip()}' has a zero denominator"):
            Exponent(text)

    def test_values_at_the_ends_of_the_float_range_are_made(self):
        # every derived value is set when the exponent is made, so none may raise
        huge = Exponent(10**400)
        assert float(huge) == math.inf and huge.conjugate().conjugate() is huge
        near_one = Exponent(1 + Fraction(1, 2**60))
        assert float(near_one) == 1.0 and beckner_constant(near_one) == 1.0

    def test_rejects_negative_infinity_and_nan(self):
        with pytest.raises(ValueError):
            Exponent(-math.inf)
        with pytest.raises(ValueError):
            Exponent(math.nan)

    def test_string_round_trip(self):
        for text in ("1", "4/3", "3/2", "2", "7", "inf"):
            assert str(Exponent(text)) == text

    def test_ordering_runs_opposite_to_reciprocals(self):
        assert Exponent(1) < Exponent("4/3") < Exponent(2) < Exponent("inf")
        assert Exponent(2) <= Exponent(2)
        assert not Exponent(2) < Exponent(2)

    def test_compares_only_with_exponents(self):
        """Equal exponents hash alike; anything else is unequal and unordered."""
        assert not Exponent(2) == 0.5
        assert Exponent(2) != "abc"
        assert Exponent(2) != 2
        assert len({Exponent(2), Exponent("2")}) == 1
        assert len({2, Exponent(2)}) == 2
        with pytest.raises(TypeError):
            Exponent(2) < 3
        with pytest.raises(TypeError):
            Exponent(2) >= "1"

    @given(reciprocals, reciprocals)
    def test_equality_and_hash_agree_with_the_reciprocals(self, a, b):
        # the second reciprocal is a new Fraction, so only its value is shared
        for x, y in ((a, b), (a, a), (b, b)):
            ex, ey = Exponent.from_reciprocal(x), Exponent.from_reciprocal(Fraction(str(y)))
            assert (ex is ey) == (x == y)
            assert (ex == ey) == (x == y) and (ex != ey) == (x != y)
            assert (ey == ex) == (x == y)
            if x == y:
                assert hash(ex) == hash(ey)
        e = Exponent.from_reciprocal(a)
        assert e == e and not e != e

    @given(reciprocals, reciprocals)
    def test_order_runs_opposite_to_the_reciprocals(self, a, b):
        ea, eb = Exponent.from_reciprocal(a), Exponent.from_reciprocal(b)
        assert (ea < eb) == (a > b) and (ea > eb) == (a < b)
        assert (ea <= eb) == (a >= b) and (ea >= eb) == (a <= b)

    @given(rationals)
    def test_conjugate_is_an_involution(self, value):
        e = Exponent(value)
        assert e.conjugate().conjugate() == e
        if e.reciprocal != 0 and e.value != 1:
            total = e.reciprocal + e.conjugate().reciprocal
            assert total == 1

    def test_conjugate_endpoints(self):
        assert Exponent(1).conjugate() == Exponent("inf")
        assert Exponent("inf").conjugate() == Exponent(1)
        assert Exponent(2).conjugate() == Exponent(2)
        assert Exponent("4/3").conjugate() == Exponent(4)

    def test_float_inputs_become_exact_fractions(self):
        e = Exponent(1.37)
        assert e.reciprocal == 1 / Fraction(1.37)
        assert float(e) == 1.37

    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_float_round_trip_is_exact(self, x):
        assert float(Exponent(x)) == x


class TestKeptValues:
    """There is one exponent per reciprocal, and its float, string,
    conjugate and sharp constant, set when it is made, equal a direct
    derivation bit for bit."""

    @given(reciprocals)
    def test_kept_values_match_a_direct_derivation(self, recip):
        e = Exponent.from_reciprocal(recip)
        assert derived(e) == derived_directly(recip)
        assert e.conjugate().conjugate() is e

    @given(reciprocals)
    def test_pickle_and_deepcopy_keep_equality_and_hash(self, recip):
        e = Exponent.from_reciprocal(recip)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        twins = [pickle.loads(pickle.dumps(e, protocol)) for protocol in protocols]
        for twin in (*twins, copy.deepcopy(e), copy.copy(e)):
            assert twin is e

    @given(reciprocals)
    def test_every_spelling_of_a_reciprocal_is_one_object(self, recip):
        e = Exponent.from_reciprocal(recip)
        value = math.inf if recip == 0 else 1 / recip
        spellings = [Exponent(str(e)), Exponent(value), Exponent(e), as_exponent(value)]
        spellings += [Exponent.from_reciprocal(Fraction(str(recip))), copy.deepcopy(e)]
        if value == math.inf or float(value) == value:  # the float is exact
            spellings.append(Exponent(float(value)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            spellings.append(pickle.loads(pickle.dumps(Exponent(value), protocol)))
        assert all(twin is e for twin in spellings)
        assert e.conjugate().conjugate() is e and e.conjugate().reciprocal == 1 - recip

    @given(reciprocals)
    def test_text_and_fraction_inputs_agree_on_every_kept_value(self, recip):
        if recip == 0:
            forms = [Exponent("inf"), Exponent(math.inf)]
        else:
            forms = [Exponent(str(1 / recip)), Exponent(1 / recip)]
        assert derived(forms[0]) == derived(forms[1]) == derived_directly(recip)

    def test_four_thirds_in_both_spellings(self):
        assert derived(Exponent("4/3")) == derived(Exponent(Fraction(4, 3)))


class TestAdmissibility:
    def test_canonical_tuple_passes(self):
        verdict = admissible(ExponentTuple(4, 2, 4, 2, 2))
        assert verdict
        assert verdict.reason is None

    def test_endpoint_tuple_passes(self):
        # 1/p + 1/q = 1/2 + 1/2 = 1, so r = inf
        assert admissible(ExponentTuple(2, 1, 2, "inf", "inf"))

    def test_violations_name_the_first_failed_relation(self):
        assert admissible(ExponentTuple(4, 2, 4, 3, 2)).reason == "s-t-relation"
        assert admissible(ExponentTuple(2, 2, 2, 2, 2)).reason == "r-relation"
        assert admissible(ExponentTuple(8, 2, 8, 2, "4/3")).reason == "r-range"

    def test_relations_are_exact_not_within_a_tolerance(self):
        # 1/r = 1 - 1/4 - 1/4 demands r = 2; one ulp above 2 is rejected.
        assert admissible(ExponentTuple(4, 2, 4, 2, 2.0))
        off = ExponentTuple(4, 2, 4, 2, math.nextafter(2.0, math.inf))
        assert admissible(off).reason == "r-relation"

    def test_verdict_is_falsy_on_failure(self):
        verdict = admissible(ExponentTuple(2, 2, 2, 2, 2))
        assert isinstance(verdict, Admissibility)
        assert not verdict

    def test_a_tuple_is_decided_once(self):
        exps = ExponentTuple(4, 2, 4, 2, 2)
        assert admissible(exps) is admissible(exps)

    def test_inadmissible_error_carries_reason(self):
        error = InadmissibleExponents("r-relation", ExponentTuple(2, 2, 2, 2, 2))
        assert error.reason == "r-relation"
        assert "r-relation" in str(error)

    @given(st.fractions(min_value="1/12", max_value="1/2", max_denominator=12),
           st.fractions(min_value=0, max_value=1, max_denominator=12))
    def test_constructed_tuples_are_admissible(self, r_recip, s_recip):
        # Split 1/r' = 1 - 1/r into halves for 1/p and 1/q.
        conj_recip = 1 - r_recip
        p = Exponent.from_reciprocal(conj_recip / 2)
        s = Exponent.from_reciprocal(s_recip)
        t = Exponent.from_reciprocal(1 - s_recip)
        exps = ExponentTuple(p, s, p, t, Exponent.from_reciprocal(r_recip))
        assert admissible(exps)


class TestBecknerConstant:
    def test_endpoints_are_exactly_one(self):
        assert beckner_constant(1) == 1.0
        assert beckner_constant(2) == 1.0

    def test_four_thirds_against_direct_arithmetic(self):
        # (4/3)^{3/8} * 4^{-1/8}, the r' = 4 case written out by hand
        oracle = (4.0 / 3.0) ** 0.375 * 4.0 ** (-0.125)
        assert abs(beckner_constant("4/3") - oracle) <= 1e-12
        assert beckner_constant("4/3") == pytest.approx(0.936687074375248, abs=1e-15)

    def test_strictly_below_one_inside_the_interval(self):
        for r in np.linspace(1.02, 1.98, 50):
            assert beckner_constant(float(r)) < 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            beckner_constant(3)
        with pytest.raises(ValueError):
            beckner_constant("inf")

    def test_powers(self):
        c = beckner_constant("4/3")
        assert beckner_power("4/3", 2) == pytest.approx(c * c, rel=1e-15)
        assert beckner_power("4/3", 2) == pytest.approx(0.8773826753016614, abs=1e-15)
        assert beckner_power("3/2", 0) == 1.0

    def test_symmetry_in_conjugate_pair(self):
        # r^{1/2r} (r')^{-1/2r'} with r in [1,2]; the formula is not
        # symmetric, but C_r relates to C_{r'} through the Gaussian ratio.
        # Spot-check the defining formula directly at r = 3/2.
        r, rc = 1.5, 3.0
        assert beckner_constant("3/2") == pytest.approx(
            r ** (1 / (2 * r)) * rc ** (-1 / (2 * rc)), rel=1e-15
        )


class TestExponentTuple:
    def test_coercion_and_dict(self):
        exps = ExponentTuple("4", "2", 4, Fraction(2), 2)
        assert exps.p == Exponent(4)
        assert exps.as_dict() == {"p": "4", "s": "2", "q": "4", "t": "2", "r": "2"}

    def test_str_is_readable(self):
        text = str(ExponentTuple(2, 1, 2, "inf", "inf"))
        assert "p=2" in text and "t=inf" in text

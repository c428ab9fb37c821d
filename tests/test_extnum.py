import copy
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stairspec.diagram import validate
from stairspec.extnum import (
    DEFAULT_TOL,
    EXT_INF,
    BandDomainError,
    ExtReal,
    Membership,
    band_member,
    envelope_pair_member,
    pow_ext,
)
from stairspec.params import compute_params
from stairspec.regions import gamma3_region

import membership_reference as ref
from conftest import half_lines_profile
from membership_reference import exponent_pairs, square_points

ZERO = ExtReal(0)
_ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


class TestExtReal:
    def test_reciprocal_conventions(self):
        assert ZERO.reciprocal() == EXT_INF
        assert EXT_INF.reciprocal() == ZERO
        assert ExtReal(Fraction(2, 3)).reciprocal() == ExtReal(Fraction(3, 2))

    def test_total_order(self):
        values = [ZERO, ExtReal(Fraction(1, 3)), ExtReal(1), ExtReal(Fraction(7, 2)), EXT_INF]
        assert values == sorted(values)
        assert all(v < EXT_INF for v in values[:-1])
        assert not EXT_INF < EXT_INF

    def test_parse_and_str(self):
        assert str(ExtReal(Fraction(1, 2))) == "1/2"
        assert str(ExtReal(3)) == "3/1"
        assert str(EXT_INF) == "inf"
        assert ExtReal.parse("inf") == EXT_INF
        assert ExtReal.parse("5/10") == ExtReal(Fraction(1, 2))
        assert ExtReal.parse("2") == ExtReal(2)
        with pytest.raises(BandDomainError):
            ExtReal.parse("-1/2")
        with pytest.raises(BandDomainError):
            ExtReal.parse("bogus")

    def test_rejects_negative(self):
        with pytest.raises(BandDomainError):
            ExtReal(Fraction(-1, 2))

    def test_float_and_pow(self):
        assert float(EXT_INF) == math.inf
        assert float(ExtReal(Fraction(1, 2))) == 0.5
        assert pow_ext(0.5, EXT_INF) == 0.0
        assert pow_ext(1.0, EXT_INF) == 1.0
        assert pow_ext(0.25, ExtReal(Fraction(1, 2))) == 0.5
        assert pow_ext(1.0 - 2**-53, ExtReal(10**400)) == 0.0
        assert pow_ext(1.0, ExtReal(10**400)) == 1.0

    def test_exponent_beyond_float64_answers_as_a_float_one(self):
        """float() saturates at DBL_MAX, which decides every point as 10**300 does."""
        huge, big = ExtReal(10**400), ExtReal(10**300)
        assert float(huge) == sys.float_info.max
        ticks = [0.0, 1e-300, 0.5, 1.0 - 2**-53, 1.0]
        for a in ticks:
            for b in ticks:
                for p, q in ((ZERO, huge), (huge, EXT_INF), (ExtReal(2), huge)):
                    p_big, q_big = (big if e is huge else e for e in (p, q))
                    assert band_member(a, b, p, q) == band_member(a, b, p_big, q_big)
                assert envelope_pair_member(a, b, huge, ZERO) == envelope_pair_member(
                    a, b, big, ZERO
                )

    @pytest.mark.parametrize("value", [0, Fraction(3, 7), None, 10**400], ids=str)
    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_round_trip(self, value, how):
        x = ExtReal(value)
        y = _ROUND_TRIPS[how](x)
        assert type(y) is ExtReal and y == x and str(y) == str(x)
        assert float(y) == float(x)
        if value == 10**400:
            assert float(y) == sys.float_info.max

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_params_and_regions_round_trip(self, how):
        profile = half_lines_profile()
        params = compute_params(profile)
        region = gamma3_region(params, validate(profile))
        assert _ROUND_TRIPS[how](params) == params
        assert _ROUND_TRIPS[how](region) == region

    @given(
        st.fractions(min_value=0, max_value=1000) | st.none(),
    )
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_involution(self, frac):
        x = ExtReal(frac)
        assert x.reciprocal().reciprocal() == x


FR = Fraction


class TestBandMember:
    def test_spec_examples(self):
        assert band_member(0.3, 1.0, ZERO, ZERO).state is Membership.INSIDE
        assert band_member(0.5, 0.5, EXT_INF, EXT_INF).state is Membership.OUTSIDE
        half = ExtReal(FR(1, 2))
        assert band_member(0.25, 0.5, half, half).state is Membership.BOUNDARY
        assert band_member(0.9, 0.1, ZERO, EXT_INF).state is Membership.INSIDE

    def test_degenerate_cells(self):
        # {a = 0} union {b = 1}
        assert band_member(0.0, 0.4, ZERO, ZERO).state is Membership.INSIDE
        assert band_member(0.4, 0.3, ZERO, ZERO).state is Membership.OUTSIDE
        # {a = 1} union {b = 0}
        assert band_member(1.0, 0.4, EXT_INF, EXT_INF).state is Membership.INSIDE
        assert band_member(0.4, 0.0, EXT_INF, EXT_INF).state is Membership.INSIDE

    def test_corner_conventions(self):
        p, q = ExtReal(FR(1, 2)), ExtReal(1)
        assert band_member(0.0, 0.0, p, q).state is Membership.INSIDE
        assert band_member(1.0, 1.0, p, q).state is Membership.BOUNDARY
        assert band_member(0.0, 1.0, p, q).state is Membership.OUTSIDE
        assert band_member(1.0, 0.0, p, q).state is Membership.OUTSIDE
        # (0,1) needs p = 0, (1,0) needs q = inf
        assert band_member(0.0, 1.0, ZERO, q).state is Membership.INSIDE
        assert band_member(1.0, 0.0, p, EXT_INF).state is Membership.INSIDE

    def test_degenerate_band_has_no_interior(self):
        one = ExtReal(1)
        assert band_member(0.0, 0.0, one, one).state is Membership.BOUNDARY
        assert band_member(0.5, 0.5, one, one).state is Membership.BOUNDARY
        assert band_member(0.3, 0.8, one, one).state is Membership.OUTSIDE

    def test_rejects_bad_arguments(self):
        with pytest.raises(BandDomainError):
            band_member(1.2, 0.5, ZERO, EXT_INF)
        with pytest.raises(BandDomainError):
            band_member(0.5, -0.1, ZERO, EXT_INF)
        with pytest.raises(BandDomainError):
            band_member(0.5, 0.5, ExtReal(2), ExtReal(1))
        with pytest.raises(BandDomainError):
            band_member(0.5, 0.5, ZERO, EXT_INF, tol=0.0)
        with pytest.raises(BandDomainError):
            envelope_pair_member(0.5, math.nan, ZERO, EXT_INF)
        with pytest.raises(BandDomainError):
            envelope_pair_member(0.5, 0.5, ZERO, EXT_INF, tol=0.0)

    def test_full_square_case_on_random_points(self):
        rng = np.random.default_rng(7)
        pts = rng.random((10_000, 2))
        for a, b in pts:
            assert band_member(float(a), float(b), ZERO, EXT_INF).state is Membership.INSIDE

    def test_agrees_with_direct_evaluation(self):
        # On the open square the band test must reproduce a**q <= b <= a**p
        # evaluated directly, away from the tolerance collar.
        rng = np.random.default_rng(11)
        bands = [
            (FR(1, 2), FR(1, 2)),
            (FR(1, 2), FR(1)),
            (FR(1, 3), FR(5, 2)),
            (FR(2), FR(3)),
        ]
        pts = rng.random((10_000, 2))
        for p_f, q_f in bands:
            p, q = ExtReal(p_f), ExtReal(q_f)
            for a, b in pts:
                a, b = float(a), float(b)
                if a in (0.0, 1.0) or b in (0.0, 1.0):
                    continue
                direct = a ** float(q_f) <= b <= a ** float(p_f)
                got = band_member(a, b, p, q).state
                if got is Membership.BOUNDARY:
                    # only tolerated within rounding distance of the envelopes
                    assert (
                        abs(math.log(b) - float(q_f) * math.log(a)) < 1e-9
                        or abs(math.log(b) - float(p_f) * math.log(a)) < 1e-9
                    )
                else:
                    assert (got is Membership.INSIDE) == direct

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.fractions(min_value=0, max_value=4),
        st.fractions(min_value=0, max_value=4),
        st.fractions(min_value=0, max_value=4),
        st.fractions(min_value=0, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_widening_is_monotone(self, a, b, p1, p2, q1, q2):
        p_narrow, p_wide = max(p1, p2), min(p1, p2)
        q_narrow, q_wide = min(q1, q2), max(q1, q2)
        if p_narrow > q_narrow:
            return
        narrow = band_member(a, b, ExtReal(p_narrow), ExtReal(q_narrow)).state
        wide = band_member(a, b, ExtReal(p_wide), ExtReal(q_wide)).state
        if narrow is Membership.INSIDE:
            assert wide is not Membership.OUTSIDE

    def test_widening_to_infinity_is_monotone(self):
        one = ExtReal(1)
        for a, b in [(0.3, 0.3), (0.5, 0.25), (0.0, 0.0), (1.0, 1.0), (0.7, 0.0)]:
            narrow = band_member(a, b, one, one).state
            for p, q in [(ZERO, one), (one, EXT_INF), (ZERO, EXT_INF)]:
                wide = band_member(a, b, p, q).state
                if narrow is Membership.INSIDE:
                    assert wide is not Membership.OUTSIDE


class TestEnvelopePair:
    def test_crossed_pair_is_empty_inside(self):
        # lower envelope above the upper one: no interior points qualify
        lower, upper = ExtReal(FR(1, 2)), ExtReal(2)
        for a in (0.2, 0.5, 0.9):
            for b in (0.1, 0.5, 0.9):
                state = envelope_pair_member(a, b, lower, upper).state
                assert state is not Membership.INSIDE

    def test_open_band_strict_interior(self):
        lower, upper = ExtReal(1), ExtReal(FR(1, 2))
        assert envelope_pair_member(0.5, 0.6, lower, upper).state is Membership.INSIDE
        assert envelope_pair_member(0.5, 0.5, lower, upper).state is Membership.BOUNDARY
        assert envelope_pair_member(0.5, 0.3, lower, upper).state is Membership.OUTSIDE


# ---------------------------------------------------------------------------
# band_member and envelope_pair_member against the scalar reference
# ---------------------------------------------------------------------------

@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_band_kernels_match_reference(data):
    p, q = data.draw(exponent_pairs)
    tol = data.draw(st.sampled_from([DEFAULT_TOL, 1e-6, 0.05]))
    for a, b in data.draw(st.lists(square_points([p, q]), min_size=1, max_size=20)):
        assert envelope_pair_member(a, b, p, q, tol) == ref.envelope_pair_member(a, b, p, q, tol)
        assert envelope_pair_member(a, b, q, p, tol) == ref.envelope_pair_member(a, b, q, p, tol)
        if q < p:
            with pytest.raises(BandDomainError):
                band_member(a, b, p, q, tol)
            with pytest.raises(BandDomainError):
                ref.band_member(a, b, p, q, tol)
        else:
            assert band_member(a, b, p, q, tol) == ref.band_member(a, b, p, q, tol)


# ---------------------------------------------------------------------------
# ExtReal against fractions.Fraction
# ---------------------------------------------------------------------------

HUGE = [10**20, 2**1100, 10**400, 2**1024, 2**1024 - 2**970]
_ints = st.integers(0, 10**6) | st.sampled_from(HUGE)
# An ExtReal's model: a nonnegative Fraction, or None for infinity.
_models = (
    st.none()
    | st.just(Fraction(0))
    | st.builds(Fraction, _ints, st.integers(1, 10**6) | st.sampled_from(HUGE))
)


def _operands(x: Fraction | None) -> list:
    """Every form an operand with the value x may take: an ExtReal, and for a
    finite x its Fraction and, when integral, its int."""
    if x is None:
        return [ExtReal(None)]
    forms = [ExtReal(x), x]
    return forms + [int(x)] if x.denominator == 1 else forms


def _key(x: Fraction | None) -> tuple:
    return (1, 0) if x is None else (0, x)


def _same_float(x: ExtReal, model: Fraction | None):
    """float(x) is float(model) bit for bit: inf for infinity, and DBL_MAX
    where float(model) overflows."""
    if model is None:
        want = math.inf
    else:
        try:
            want = float(model)
        except OverflowError:
            want = sys.float_info.max
    assert float(x).hex() == want.hex()


@given(_models, _models)
@settings(max_examples=400, deadline=None)
def test_extreal_is_fraction_with_infinity(a, b):
    x = ExtReal(a)
    assert x.is_infinite == (a is None)
    if a is not None:
        assert x.as_fraction() == a and type(x.as_fraction()) is Fraction
    assert str(x) == ("inf" if a is None else f"{a.numerator}/{a.denominator}")
    assert ExtReal.parse(str(x)) == x
    _same_float(x, a)
    inverse = None if a == 0 else (Fraction(0) if a is None else 1 / a)
    assert x.reciprocal() == ExtReal(inverse)
    _same_float(x.reciprocal(), inverse)

    ka, kb = _key(a), _key(b)
    for left in _operands(a):
        for right in _operands(b):
            if not (isinstance(left, ExtReal) or isinstance(right, ExtReal)):
                continue
            assert (left < right) == (ka < kb)
            assert (left <= right) == (ka <= kb)
            assert (left > right) == (ka > kb)
            assert (left >= right) == (ka >= kb)
            assert (left == right) == (ka == kb)
            assert (left != right) == (ka != kb)
            if ka == kb:
                assert hash(left) == hash(right)

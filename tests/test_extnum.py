import copy
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stairspec.diagram import validate
from stairspec.extnum import (
    DEFAULT_TOL,
    EXT_INF,
    ExtReal,
    Membership,
    RegimeError,
    _ln,
    _log,
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

    @pytest.mark.parametrize("other", [0.5, -1, "1", None], ids=repr)
    @pytest.mark.parametrize("x", [ZERO, ExtReal(Fraction(1, 2)), EXT_INF], ids=str)
    def test_unsupported_operands(self, x, other):
        """Only nonnegative ints and Fractions compare with an ExtReal."""
        assert not x == other
        assert x != other
        for compare in (
            lambda: x < other,
            lambda: x <= other,
            lambda: x > other,
            lambda: x >= other,
        ):
            with pytest.raises(TypeError):
                compare()

    def test_str(self):
        assert str(ExtReal(Fraction(1, 2))) == "1/2"
        assert str(ExtReal(3)) == "3/1"
        assert str(EXT_INF) == "inf"

    def test_rejects_negative(self):
        with pytest.raises(RegimeError, match="negative value not representable: -1/2"):
            ExtReal(Fraction(-1, 2))
        with pytest.raises(RegimeError, match="negative value not representable: -3$"):
            ExtReal(-3)
        for n, d in ((-1, 2), (1, 0), (1, -2)):
            with pytest.raises(RegimeError, match=f"ratio needs n >= 0 and d >= 1, got {n}/{d}"):
                ExtReal.ratio(n, d)

    def test_bool_is_an_int(self):
        one = ExtReal(True)
        assert (one._n, one._d) == (1, 1) and type(one._n) is int
        assert one == ExtReal(1) and str(one) == "1/1"

    @given(
        n=st.integers(0, 10**6) | st.integers(2**1100, 2**1200),
        d=st.integers(1, 10**6),
        k=st.integers(1, 1000),
    )
    @example(n=0, d=7, k=3)
    @example(n=6, d=4, k=1)
    @example(n=2**1100, d=1, k=1)
    @settings(max_examples=200, deadline=None)
    def test_ints_build_the_fraction_value(self, n, d, k):
        """``ExtReal(n)`` and ``ExtReal.ratio`` of an unreduced pair are the
        value ``ExtReal(Fraction(...))`` builds, in every view of it."""
        probes = (ZERO, ExtReal(1), ExtReal(Fraction(7, 3)), ExtReal(2**1100), EXT_INF)
        for got, want in (
            (ExtReal(n), ExtReal(Fraction(n))),
            (ExtReal.ratio(n * k, d * k), ExtReal(Fraction(n, d))),
        ):
            assert (got._n, got._d) == (want._n, want._d)
            assert type(got._n) is int and type(got._d) is int
            assert float(got) == float(want)
            assert hash(got) == hash(want) and str(got) == str(want)
            assert got == want and not got < want and not got > want
            for other in probes:
                assert [got < other, got <= other, got == other, got >= other, got > other] == [
                    want < other, want <= other, want == other, want >= other, want > other
                ]
        if n // d >= 2**1024:  # beyond float64: saturated, not inf
            assert float(ExtReal.ratio(n, d)) == sys.float_info.max

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
        with pytest.raises(RegimeError, match=r"\|mu\| must lie in \[0, 1\]: 1.2"):
            band_member(1.2, 0.5, ZERO, EXT_INF)
        with pytest.raises(RegimeError, match=r"\|lambda\| must lie in \[0, 1\]: -0.1"):
            band_member(0.5, -0.1, ZERO, EXT_INF)
        with pytest.raises(RegimeError, match="band requires p <= q, got p=2/1, q=1/1"):
            band_member(0.5, 0.5, ExtReal(2), ExtReal(1))
        with pytest.raises(RegimeError, match="tolerance must be positive and finite: 0.0"):
            band_member(0.5, 0.5, ZERO, EXT_INF, tol=0.0)
        with pytest.raises(RegimeError, match=r"\|lambda\| must lie in \[0, 1\]: nan"):
            envelope_pair_member(0.5, math.nan, ZERO, EXT_INF)
        with pytest.raises(RegimeError, match="tolerance must be positive and finite: 0.0"):
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
            with pytest.raises(RegimeError, match="band requires p <= q"):
                band_member(a, b, p, q, tol)
            with pytest.raises(RegimeError, match="band requires p <= q"):
                ref.band_member(a, b, p, q, tol)
        else:
            assert band_member(a, b, p, q, tol) == ref.band_member(a, b, p, q, tol)


# ---------------------------------------------------------------------------
# The array log against the scalar one
# ---------------------------------------------------------------------------

_EDGE_MAGNITUDES = [0.0, -0.0, 1.0, 5e-324, 2.0**-1040, 2.0**-1022 - 5e-324, 2.0**-1022]
_magnitudes = st.sampled_from(_EDGE_MAGNITUDES) | st.floats(0.0, 1.0)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_array_log_is_scalar_log(data):
    """``_log`` takes libm's log of each element, as ``_ln`` does, bit for bit."""
    n = data.draw(st.integers(1, 20))
    shape = data.draw(st.sampled_from([(), (0,), (n,), (n, 1), (1, n)]))
    values = data.draw(st.lists(_magnitudes, min_size=math.prod(shape),
                                max_size=math.prod(shape)))
    x = np.array(values, dtype=float).reshape(shape)
    want = np.array([_ln(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    got = _log(x)
    assert got.shape == x.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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
    assert str(x) == ("inf" if a is None else f"{a.numerator}/{a.denominator}")
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

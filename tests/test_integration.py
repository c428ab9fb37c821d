"""Cross-module checks on randomized and transposed profiles.

The fixed canonical profiles exercise every structure case once; these
tests sweep random tail combinations through the full pipeline (parameters,
all three regions, union consistency) and push transposed profiles --
whose tails are exact staircase inverses -- through the numeric machinery.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stairspec.diagram import (
    EMPTY_ROWS,
    FULL_ROWS,
    DiagramProfile,
    GeometricBlocksTail,
    InvertedBlocksTail,
    PeriodicTail,
    WoldType,
    eval_M,
    eval_N,
    transpose,
    validate,
)
from stairspec.extnum import Membership, SpecError
from stairspec.oracle import ScanVerdict, SeriesClass, gamma2_series_test, window_smin_scan
from stairspec.params import compute_params, estimate_params_bruteforce
from stairspec.regions import (
    gamma2_region,
    gamma3_region,
    parts_consistency_check,
    region_member,
    region_states,
    taylor_region,
)
from stairspec.shifts import ShiftKind, fringe_operator, ridge_bounds, sigma_ap_predict

FR = Fraction

MINUS_TAILS = [
    EMPTY_ROWS,
    PeriodicTail(1, 1),
    PeriodicTail(2, 1),
    PeriodicTail(1, 2),
    PeriodicTail(3, 0),
    GeometricBlocksTail((FR(0), FR(1)), 2, 1),
    GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1),
]
PLUS_TAILS = [
    FULL_ROWS,
    PeriodicTail(1, 1),
    PeriodicTail(2, 1),
    PeriodicTail(1, 3),
    PeriodicTail(2, 0),
    GeometricBlocksTail((FR(0), FR(2)), 2, 2),
    GeometricBlocksTail((FR(1, 3), FR(3)), 2, 1),
]


@st.composite
def random_profiles(draw):
    length = draw(st.integers(min_value=1, max_value=3))
    drops = draw(
        st.lists(st.integers(min_value=0, max_value=2), min_size=length - 1,
                 max_size=length - 1)
    )
    top = draw(st.integers(min_value=-2, max_value=2))
    window = [top]
    for d in drops:
        window.append(window[-1] - d)
    return DiagramProfile(
        draw(st.integers(-2, 2)),
        tuple(window),
        draw(st.sampled_from(MINUS_TAILS)),
        draw(st.sampled_from(PLUS_TAILS)),
    )


@given(random_profiles(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_parts_consistency_on_random_profiles(profile, seed):
    structure = validate(profile)
    if structure.is_simple:
        return
    params = compute_params(profile)
    rng = np.random.default_rng(seed)
    samples = [tuple(map(float, rng.random(2))) for _ in range(120)]
    samples += [(0.0, 0.0), (1.0, 0.3), (0.3, 1.0), (0.5, 0.0), (0.0, 0.5)]
    result = parts_consistency_check(params, structure, samples)
    assert result.ok, (profile, result.mismatches[:3])


@given(random_profiles())
@settings(max_examples=60, deadline=None)
def test_duality_on_random_transposable_profiles(profile):
    validate(profile)
    for tail in (profile.minus_tail, profile.plus_tail):
        if isinstance(tail, GeometricBlocksTail) and any(s == 0 for s in tail.slopes):
            return
    flat = [isinstance(t, PeriodicTail) and t.rise == 0
            for t in (profile.minus_tail, profile.plus_tail)]
    if all(flat) and len(set(profile.window)) == 1:
        # a half-plane: every row of its transpose is empty or full
        with pytest.raises(SpecError, match="half-plane"):
            transpose(profile)
        return
    p = compute_params(profile) if not validate(profile).is_simple else None
    flipped = transpose(profile)
    for i in range(-25, 26):
        assert eval_M(flipped, i) == eval_N(profile, i)
    if p is not None:
        d = compute_params(flipped)
        assert d.delta_plus == p.rho_minus.reciprocal()
        assert d.rho_plus == p.delta_minus.reciprocal()


def _transposed_gb_profile() -> DiagramProfile:
    profile = DiagramProfile(
        0,
        (0,),
        GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1),
        GeometricBlocksTail((FR(1, 3), FR(3)), 2, 1),
    )
    flipped = transpose(profile)
    assert isinstance(flipped.minus_tail, InvertedBlocksTail)
    assert isinstance(flipped.plus_tail, InvertedBlocksTail)
    return flipped


class TestInvertedTailsThroughPipeline:
    def test_triple_transpose_equals_single(self):
        profile = DiagramProfile(
            0, (2, 0), GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1), PeriodicTail(2, 3)
        )
        once = transpose(profile)
        thrice = transpose(transpose(once))
        for j in range(-30, 31):
            assert eval_M(thrice, j) == eval_M(once, j)

    def test_estimator_on_inverted_tails(self):
        flipped = _transposed_gb_profile()
        exact = compute_params(flipped)
        est = estimate_params_bruteforce(flipped, 3000, 4, eta_cutoff=500)
        assert abs(est.eta_minus - float(exact.eta_minus)) < 0.05
        assert est.delta_minus >= float(exact.delta_minus) - 1e-9
        assert est.rho_plus <= float(exact.rho_plus) + 1e-9

    def test_census_on_inverted_tails(self):
        flipped = _transposed_gb_profile()
        structure = validate(flipped)  # both isometries are pure shifts
        assert structure.wold_w is WoldType.PURE_SHIFT
        assert structure.wold_z is WoldType.PURE_SHIFT

    def test_scan_on_inverted_tails(self):
        flipped = _transposed_gb_profile()
        spec = fringe_operator(flipped, 0.5)
        assert spec.kind is ShiftKind.BILATERAL
        bounds = ridge_bounds(spec, compute_params(flipped))
        # a point safely outside every predicted radius interval certifies out
        lam = 0.02
        assert sigma_ap_predict(spec, bounds, lam).state is Membership.OUTSIDE
        result = window_smin_scan(spec, lam, [128, 256, 512], j_scan=512)
        assert result.verdict is ScanVerdict.OUTSIDE_AP_SPECTRUM

    def test_inside_scan_on_inverted_tails(self):
        flipped = _transposed_gb_profile()
        spec = fringe_operator(flipped, 0.5)
        bounds = ridge_bounds(spec, compute_params(flipped))
        # deep inside the union of predicted intervals: between mu**rho_plus
        # and mu**delta_minus the dual spectrum is connected
        lam = 0.5 ** float(compute_params(flipped).eta_minus)
        state = sigma_ap_predict(spec, bounds, lam).state
        result = window_smin_scan(spec, lam, [256, 1024, 4096], j_scan=4096)
        if result.verdict is ScanVerdict.INSIDE_AP_SPECTRUM:
            assert state is not Membership.OUTSIDE
        elif result.verdict is ScanVerdict.OUTSIDE_AP_SPECTRUM:
            assert state is not Membership.INSIDE


@st.composite
def periodic_profiles(draw, minus_rows=(), plus_rows=()):
    """A window of 1-4 values in [-3, 3] between periodic tails of period 1-4
    and rise 0-4, or between the given row tails."""
    values = sorted(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4)), reverse=True)
    periodic = st.builds(PeriodicTail, st.integers(1, 4), st.integers(0, 4))
    minus, plus = (
        draw(st.sampled_from(rows) | periodic if rows else periodic)
        for rows in (minus_rows, plus_rows)
    )
    return DiagramProfile(draw(st.integers(-3, 3)), tuple(values), minus, plus)


# Points closer than this, in log distance, to a radius or an envelope of
# the closed forms are left out of the comparisons below.
_MARGIN = 0.05


def _log_distance(mu: float, lam: float, exponent) -> float:
    """|log |lambda| - log |mu|**exponent|, infinite at an infinite exponent."""
    return abs(math.log(lam) - float(exponent) * math.log(mu))


def test_closed_forms_meet_the_oracles_on_periodic_tails():
    """A definite window-scan verdict is ``sigma_ap_predict``'s answer, and a
    converging or diverging series is gamma2 membership, at points off the
    margins around the ridge radii and the eta envelopes."""
    tally = Counter()
    scan_answer = {
        ScanVerdict.INSIDE_AP_SPECTRUM: Membership.INSIDE,
        ScanVerdict.OUTSIDE_AP_SPECTRUM: Membership.OUTSIDE,
    }
    series_answer = {
        SeriesClass.CONVERGES: Membership.INSIDE,
        SeriesClass.DIVERGES: Membership.OUTSIDE,
    }

    @given(periodic_profiles(), st.floats(0.2, 0.8), st.floats(0.05, 0.95))
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    def check(profile, mu, lam):
        structure = validate(profile)
        assume(not structure.is_simple)
        params = compute_params(profile)
        spec = fringe_operator(profile, mu)
        bounds = ridge_bounds(spec, params)
        radii = (bounds.i_minus, bounds.i_plus, bounds.r_minus, bounds.r_plus)
        if min(_log_distance(mu, lam, e) for e in radii) >= _MARGIN:
            verdict = window_smin_scan(spec, lam, [64, 256, 1024], 64).verdict
            if verdict is ScanVerdict.UNRESOLVED:
                tally["scan unresolved"] += 1
            else:
                predicted = sigma_ap_predict(spec, bounds, lam).state
                assert predicted is scan_answer[verdict], (profile, mu, lam)
                tally["scan agreed"] += 1
        envelopes = (params.eta_minus, params.eta_plus)
        if min(_log_distance(mu, lam, e) for e in envelopes) >= _MARGIN:
            series = gamma2_series_test(profile, mu, lam, 4096).classification
            if series is SeriesClass.BORDERLINE:
                tally["series borderline"] += 1
            else:
                member = region_member(gamma2_region(params, structure), mu, lam).state
                assert member is series_answer[series], (profile, mu, lam)
                tally["series agreed"] += 1

    check()
    assert tally["scan agreed"] and tally["series agreed"], tally


def test_regions_are_transpose_covariant_on_periodic_tails():
    """Each region of a profile at (a, b) answers as the same region of its
    transpose at (b, a), at interior points where neither side is boundary."""
    boundary = Membership.BOUNDARY.rank
    tally = Counter()

    def regions(profile):
        structure, params = validate(profile), compute_params(profile)
        return (taylor_region(params), gamma2_region(params, structure),
                gamma3_region(params, structure))

    @given(periodic_profiles([EMPTY_ROWS], [FULL_ROWS]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def check(profile, seed):
        assume(not validate(profile).is_simple)
        flipped = transpose(profile)
        a, b = np.random.default_rng(seed).uniform(0.01, 0.99, (2, 200))
        for region, dual in zip(regions(profile), regions(flipped)):
            direct, mirrored = region_states(region, a, b), region_states(dual, b, a)
            resolved = (direct != boundary) & (mirrored != boundary)
            assert np.array_equal(direct[resolved], mirrored[resolved]), (profile, region.kind)
            tally["compared"] += int(np.count_nonzero(resolved))

    check()
    assert tally["compared"], tally

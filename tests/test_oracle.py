import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stairspec.diagram import (
    EMPTY_ROWS,
    FULL_ROWS,
    NEG_INF,
    POS_INF,
    DiagramProfile,
    GeometricBlocksTail,
    InvertedBlocksTail,
    InversionMode,
    PeriodicTail,
    m_values,
    transpose,
    validate,
)
from stairspec.extnum import Membership
from stairspec.oracle import (
    DegenerateSpecError,
    EmptyWindowError,
    ParameterRegimeError,
    ScanVerdict,
    SeriesClass,
    _window_points,
    _window_starts,
    gamma1_empty_check,
    gamma2_series_test,
    joint_adjoint_kernel_smin,
    window_smin_scan,
)
from stairspec.params import compute_params
from stairspec.regions import gamma2_region, region_member
from stairspec.shifts import ShiftKind, fringe_operator, ridge_bounds, sigma_ap_predict

from conftest import (
    gb01_profile,
    half_lines_profile,
    line_profile,
    quarter_steps_profile,
    wold_mixed_profile,
)


class TestWindowSminScan:
    def test_constant_bilateral_inside(self):
        spec = fringe_operator(line_profile(), 0.5)
        result = window_smin_scan(spec, 0.5, [256, 1024, 4096], j_scan=4)
        assert result.verdict is ScanVerdict.INSIDE_AP_SPECTRUM
        assert result.smin_by_size[-1] < 1e-3

    def test_constant_bilateral_outside(self):
        spec = fringe_operator(line_profile(), 0.5)
        for lam in (0.8, 0.2):
            result = window_smin_scan(spec, lam, [256, 1024, 4096], j_scan=4)
            assert result.verdict is ScanVerdict.OUTSIDE_AP_SPECTRUM
            assert result.smin_by_size[-1] >= 5e-2

    def test_zero_not_in_invertible_bilateral(self):
        spec = fringe_operator(line_profile(), 0.5)
        result = window_smin_scan(spec, 0.0, [256, 1024], j_scan=2)
        assert result.verdict is ScanVerdict.OUTSIDE_AP_SPECTRUM
        assert result.smin_by_size[-1] == pytest.approx(0.5)

    def test_degenerate_spec_rejected(self):
        profile = DiagramProfile(0, (1, 0), EMPTY_ROWS, FULL_ROWS)
        spec = fringe_operator(profile, 0.5)
        with pytest.raises(DegenerateSpecError):
            window_smin_scan(spec, 0.3, [64, 128], j_scan=2)

    def test_monotone_in_window_size(self):
        spec = fringe_operator(half_lines_profile(), 0.5)
        for lam in (0.3, 0.5, 0.7071, 0.9):
            result = window_smin_scan(
                spec, lam, [32, 64, 128, 256], j_scan=256, stride=1
            )
            ladder = result.smin_by_size
            assert all(b <= a + 1e-12 for a, b in zip(ladder, ladder[1:]))

    def test_agreement_with_prediction_on_suite(self):
        profiles = [
            line_profile(),
            line_profile(2, 1),
            half_lines_profile(),
            gb01_profile(),
            quarter_steps_profile(),
            wold_mixed_profile(),
        ]
        rng = np.random.default_rng(23)
        total_unresolved = 0
        total = 0
        for profile in profiles:
            spec = fringe_operator(profile, 0.5)
            bounds = ridge_bounds(spec, compute_params(profile))
            radii = [
                bounds.i_minus_value,
                bounds.i_plus_value,
                bounds.r_minus_value,
                bounds.r_plus_value,
            ]
            lams = list(rng.uniform(0.02, 0.99, 14)) + radii
            lams = [x for x in lams if 0.0 <= x <= 1.0]
            # keep sample points clearly away from interval endpoints
            lams = [
                x
                for x in lams
                if all(r == 0 or x == r or abs(math.log(max(x, 1e-12) / r)) > 0.05 for r in radii)
            ][:20]
            for lam in lams:
                predicted = sigma_ap_predict(spec, bounds, lam).state
                result = window_smin_scan(spec, lam, [256, 1024, 4096], j_scan=4096)
                total += 1
                if result.verdict is ScanVerdict.UNRESOLVED:
                    total_unresolved += 1
                    continue
                if result.verdict is ScanVerdict.INSIDE_AP_SPECTRUM:
                    assert predicted is not Membership.OUTSIDE, (profile, lam)
                else:
                    assert predicted is not Membership.INSIDE, (profile, lam)
        assert total_unresolved / total < 0.2


def _reference_starts(j_min, j_max, n, j_scan, step) -> set[int]:
    """The window starts as a set: every grid point and j_scan, clamped."""
    starts = set(range(-j_scan, j_scan + 1, step))
    starts.add(j_scan)
    clamped = set()
    for s in starts:
        if j_min != NEG_INF:
            s = max(s, int(j_min))
        if j_max != POS_INF:
            s = min(s, int(j_max) - n + 1)
        clamped.add(s)
    return clamped


def _reference_window_smin(spec, lambda_abs, start, n) -> float:
    """One window solved outright: smallest eigenvalue of the Gram tridiagonal."""
    vals = m_values(spec.profile, start - 1, start + n - 1)
    nu = np.power(spec.mu_abs, vals[:-1] - vals[1:])
    diag = lambda_abs**2 + nu**2
    off = -lambda_abs * nu[1:]
    w = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return math.sqrt(max(float(w[0]), 0.0))


def _reference_scan(spec, lambda_abs, sizes, j_scan, stride=None):
    """Every window of every size solved; the verdict rule of window_smin_scan."""
    minima = []
    for n in sizes:
        step = stride if stride is not None else max(1, n // 4)
        starts = _reference_starts(spec.j_min, spec.j_max, n, j_scan, step)
        minima.append(min(_reference_window_smin(spec, lambda_abs, s, n) for s in starts))
    decays = all(b <= a / 2 for a, b in zip(minima, minima[1:]))
    if minima[-1] < 1e-3 and decays:
        verdict = ScanVerdict.INSIDE_AP_SPECTRUM
    elif minima[-1] >= 5e-2 and minima[-1] >= minima[0] / 2:
        verdict = ScanVerdict.OUTSIDE_AP_SPECTRUM
    else:
        verdict = ScanVerdict.UNRESOLVED
    return tuple(minima), verdict


_BOUNDS = st.integers(-40, 40)


class TestWindowStarts:
    @given(
        st.just(NEG_INF) | _BOUNDS,
        st.just(POS_INF) | _BOUNDS,
        st.integers(2, 12),
        st.integers(-3, 60),
        st.integers(1, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_clamped_set(self, j_min, j_max, n, j_scan, step):
        got = list(_window_starts(j_min, j_max, n, j_scan, step))
        assert got == sorted(_reference_starts(j_min, j_max, n, j_scan, step))

    def test_huge_scan_range_is_lazy(self):
        tracemalloc.start()
        try:
            bilateral = list(itertools.islice(_window_starts(NEG_INF, POS_INF, 16, 10**12, 4), 3))
            unilateral = list(itertools.islice(_window_starts(0, POS_INF, 16, 10**12, 4), 3))
            adjoint = list(itertools.islice(_window_starts(NEG_INF, 5, 16, 10**12, 4), 3))
            bounded = list(_window_starts(0, 100, 16, 10**12, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bilateral == [-(10**12), -(10**12) + 4, -(10**12) + 8]
        assert unilateral == [0, 4, 8]
        assert adjoint == [-(10**12), -(10**12) + 4, -(10**12) + 8]
        assert bounded == list(range(0, 85, 4)) + [85]
        assert peak < 64 * 1024


_SLOPES = st.lists(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]),
    min_size=2, max_size=3, unique=True,
)


@st.composite
def _scan_tails(draw, side: str):
    kind = draw(st.sampled_from(["periodic", "geometric", "inverted"]))
    if kind == "periodic":
        return PeriodicTail(draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    slopes = tuple(draw(_SLOPES))
    if kind == "inverted":
        slopes = tuple(s for s in slopes if s > 0)
        assume(len(slopes) >= 2)
    inner = GeometricBlocksTail(slopes, draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    if kind == "geometric":
        return inner
    mode = InversionMode.CEIL_INVERSE if side == "minus" else InversionMode.FLOOR_INVERSE
    return InvertedBlocksTail(inner, mode, draw(st.integers(0, 3)))


@st.composite
def _scan_profiles(draw):
    window = [draw(st.integers(-2, 2))]
    for drop in draw(st.lists(st.integers(0, 2), max_size=3)):
        window.append(window[-1] - drop)
    minus = draw(st.just(EMPTY_ROWS) | _scan_tails("minus"))
    plus = draw(st.just(FULL_ROWS) | _scan_tails("plus"))
    profile = DiagramProfile(draw(st.integers(-3, 3)), tuple(window), minus, plus)
    structure = validate(profile)
    assume(not structure.is_simple)
    assume(structure.j0 == NEG_INF or structure.j1 == POS_INF)  # not a finite block
    return profile


class TestScanMatchesEveryWindowSolved:
    """window_smin_scan skips windows; the minima must be those of solving all."""

    @given(
        _scan_profiles(),
        st.sampled_from([0.3, 0.5, 0.9]) | st.floats(0.05, 0.95),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.lists(st.integers(2, 48), min_size=2, max_size=3, unique=True).map(sorted),
        st.integers(0, 48),
        st.none() | st.integers(1, 6),
    )
    @settings(max_examples=250, deadline=None)
    def test_bit_identical(self, profile, mu, lam, sizes, j_scan, stride):
        spec = fringe_operator(profile, mu)
        result = window_smin_scan(spec, lam, sizes, j_scan=j_scan, stride=stride)
        minima, verdict = _reference_scan(spec, lam, sizes, j_scan, stride)
        assert [x.hex() for x in result.smin_by_size] == [x.hex() for x in minima]
        assert result.verdict is verdict

    def test_all_shift_kinds_and_inverted_tails_are_drawn(self):
        kinds, inverted = set(), False

        @given(_scan_profiles())
        @settings(max_examples=200, deadline=None, database=None)
        def collect(profile):
            nonlocal inverted
            kinds.add(fringe_operator(profile, 0.5).kind)
            inverted |= "inverted" in (profile.minus_tail.kind, profile.plus_tail.kind)

        collect()
        assert kinds == {ShiftKind.BILATERAL, ShiftKind.UNILATERAL, ShiftKind.UNILATERAL_ADJOINT}
        assert inverted

    def test_transposed_block_profile(self):
        """Inverted tails on both sides, as transpose produces them."""
        profile = transpose(
            DiagramProfile(0, (0,), GeometricBlocksTail((Fraction(1, 2), Fraction(2)), 2, 1),
                           GeometricBlocksTail((Fraction(1, 3), Fraction(3)), 2, 1))
        )
        spec = fringe_operator(profile, 0.5)
        for lam in (0.1, 0.45, 0.7, 0.95):
            result = window_smin_scan(spec, lam, [16, 64, 256], j_scan=256)
            minima, verdict = _reference_scan(spec, lam, [16, 64, 256], 256)
            assert result.smin_by_size == minima
            assert result.verdict is verdict

    @pytest.mark.parametrize("sizes", [[16, 64, 256], [256, 1024, 4096]])
    def test_quarter_steps_ladder_at_the_gram_floor(self, sizes):
        """The unilateral ladder reaches the floor, where the best eigenvalue is <= 0."""
        spec = fringe_operator(quarter_steps_profile(), 0.5)
        zeros = 0
        for k in range(1, 21):
            lam = 0.05 * k
            result = window_smin_scan(spec, lam, sizes, j_scan=64)
            minima, verdict = _reference_scan(spec, lam, sizes, 64)
            assert result.smin_by_size == minima, lam
            assert result.verdict is verdict
            zeros += minima.count(0.0)
        assert zeros > 0


class TestSeries:
    def test_gb_converges_inside_band(self):
        verdict = gamma2_series_test(gb01_profile(), 0.5, 0.5**0.8, 4096)
        assert verdict.classification is SeriesClass.CONVERGES
        assert verdict.root_minus == pytest.approx(verdict.predicted_root_minus, rel=1e-3)

    def test_gb_diverges_outside_band(self):
        verdict = gamma2_series_test(gb01_profile(), 0.5, 0.5**0.5, 4096)
        assert verdict.classification is SeriesClass.DIVERGES
        assert verdict.root_minus == pytest.approx(verdict.predicted_root_minus, rel=1e-3)

    def test_line_borderline_on_diagonal(self):
        verdict = gamma2_series_test(line_profile(), 0.5, 0.5, 512)
        assert verdict.classification is SeriesClass.BORDERLINE
        assert verdict.root_minus == 1.0 and verdict.root_plus == 1.0

    def test_parameter_regime_rejected(self):
        with pytest.raises(ParameterRegimeError):
            gamma2_series_test(quarter_steps_profile(), 0.5, 0.5, 64)

    def test_divergent_sums_grow(self):
        verdict = gamma2_series_test(gb01_profile(), 0.5, 0.5**0.5, 4096)
        sums = [entry[1] for entry in verdict.log10_partial_sums]
        assert sums[-1] > sums[0] + 10  # clearly unbounded partial sums

    def test_agreement_with_band_membership(self):
        profile = gb01_profile()
        params = compute_params(profile)
        structure = validate(profile)
        for exponent in (0.70, 0.75, 0.80, 0.90, 0.55, 0.60, 1.2):
            lam = 0.5**exponent
            verdict = gamma2_series_test(profile, 0.5, lam, 4096)
            member = region_member(gamma2_region(params, structure), 0.5, lam).state
            if member is Membership.INSIDE:
                assert verdict.classification is SeriesClass.CONVERGES
            elif member is Membership.OUTSIDE and verdict.classification is not SeriesClass.BORDERLINE:
                assert verdict.classification is SeriesClass.DIVERGES


class TestAdjointKernelWitness:
    def test_quarter_steps_witness_decays_geometrically(self):
        profile = quarter_steps_profile()
        previous = None
        for size in (10, 20, 40):
            smin = joint_adjoint_kernel_smin(profile, 0.5, 0.5, (0, size, 0, size))
            if previous is not None:
                assert smin < previous / 4
            previous = smin
        assert previous < 1e-6

    def test_quarter_steps_witness_everywhere_in_open_bidisc(self):
        profile = quarter_steps_profile()
        for mu, lam in [(0.3, 0.8), (0.7, 0.2), (0.6, 0.6), (0.9, 0.4)]:
            small = joint_adjoint_kernel_smin(profile, mu, lam, (0, 12, 0, 12))
            smaller = joint_adjoint_kernel_smin(profile, mu, lam, (0, 24, 0, 24))
            assert smaller < small / 4

    def test_wold_mixed_stays_bounded_below(self):
        profile = wold_mixed_profile()
        for half in (10, 20, 40):
            smin = joint_adjoint_kernel_smin(
                profile, 0.5, 0.5, (-half, half, -half, half)
            )
            assert smin >= 0.1

    def test_phase_invariance(self):
        profile = quarter_steps_profile()
        a = joint_adjoint_kernel_smin(profile, 0.5, 0.5, (0, 15, 0, 15))
        b = joint_adjoint_kernel_smin(profile, 0.5j, -0.5, (0, 15, 0, 15))
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_outside_bidisc(self):
        with pytest.raises(ValueError):
            joint_adjoint_kernel_smin(quarter_steps_profile(), 1.2, 0.5, (0, 10, 0, 10))

    def test_sparse_path_is_reproducible(self):
        profile, window = wold_mixed_profile(), (-20, 20, -20, 20)
        assert len(_window_points(profile, window)[0]) > 500  # the eigsh branch
        first = joint_adjoint_kernel_smin(profile, 0.5, 0.5, window)
        second = joint_adjoint_kernel_smin(profile, 0.5, 0.5, window)
        assert first.hex() == second.hex()

    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            joint_adjoint_kernel_smin(quarter_steps_profile(), 0.5, 0.5, (-9, -5, -9, -5))


class TestGamma1Check:
    def test_line_has_no_joint_kernel(self):
        report = gamma1_empty_check(line_profile(), [(0.5, 0.5)], (-40, 40, -40, 40))
        assert report.entries[0][2] >= 0.2
        assert report.all_certified

    def test_origin_is_isometric(self):
        report = gamma1_empty_check(line_profile(), [(0.0, 0.0)], (-20, 20, -20, 20))
        assert report.entries[0][2] >= 1.0

    def test_random_samples_certified(self):
        # sampled away from the outer shell, where the isometry lower bound
        # 1 - max(|mu|, |lambda|) keeps every certificate above threshold
        rng = np.random.default_rng(31)
        samples = [tuple(0.9 * rng.random(2)) for _ in range(20)]
        report = gamma1_empty_check(line_profile(), samples, (-25, 25, -25, 25))
        assert report.all_certified

    def test_window_ladder_monotone(self):
        values = [
            gamma1_empty_check(line_profile(), [(0.5, 0.5)], (-n, n, -n, n)).entries[0][2]
            for n in (10, 20, 40)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

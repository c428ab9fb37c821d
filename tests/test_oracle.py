import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stairspec.diagram import (
    EMPTY_ROWS,
    FULL_ROWS,
    NEG_INF,
    POS_INF,
    DiagramProfile,
    GeometricBlocksTail,
    PeriodicTail,
    m_exact,
    m_values,
    profile_from_json,
    translate,
    transpose,
    validate,
)
from stairspec import oracle
from stairspec.extnum import Membership, RegimeError, SpecError
from stairspec.oracle import (
    WINDOW_START_BUDGET,
    ScanVerdict,
    SeriesClass,
    _lattice_stack,
    _stacked_smin,
    _window_starts,
    gamma2_series_test,
    joint_adjoint_kernel_smin,
    window_smin_scan,
)
from stairspec.params import compute_params
from stairspec.regions import gamma2_region, region_member
from stairspec.shifts import ShiftKind, fringe_operator, ridge_bounds, sigma_ap_predict

import lattice_reference as ref
from conftest import (
    TRANSLATIONS,
    finite_tails,
    gb01_profile,
    half_lines_profile,
    line_profile,
    notched_plane_profile,
    quarter_steps_profile,
    transpose_duality_suite,
    wold_mixed_profile,
)


class TestScanBudget:
    """A probe's size is checked, and refused over its budget, before any
    window is solved or series summed."""

    def test_budget_is_inclusive(self, monkeypatch):
        spec = fringe_operator(line_profile(), 0.5)
        monkeypatch.setattr(oracle, "WINDOW_START_BUDGET", 20)
        # steps 4 and 16: 2 * 27 // 4 + 2 + 2 * 27 // 16 + 2 == 20
        window_smin_scan(spec, 0.3, [16, 64], j_scan=27)
        with pytest.raises(RegimeError, match="gives 21 candidate window starts"):
            window_smin_scan(spec, 0.3, [16, 64], j_scan=28)
        with pytest.raises(RegimeError, match="gives 24 candidate window starts"):
            window_smin_scan(spec, 0.3, [2, 3], j_scan=5)  # steps 1 and 1

    def test_largest_benchmarked_scan_is_well_inside(self, monkeypatch):
        spec = fringe_operator(gb01_profile(), 0.5)
        monkeypatch.setattr(oracle, "WINDOW_START_BUDGET", WINDOW_START_BUDGET // 100)
        result = window_smin_scan(spec, 0.3, [256, 1024, 4096], j_scan=4096)
        assert result.verdict is ScanVerdict.OUTSIDE_AP_SPECTRUM

    def test_window_length_budget_is_inclusive(self, monkeypatch):
        spec = fringe_operator(line_profile(), 0.5)
        monkeypatch.setattr(oracle, "WINDOW_LENGTH_BUDGET", 64)
        window_smin_scan(spec, 0.3, [16, 64], j_scan=0)
        with pytest.raises(RegimeError, match="window length 65 is over the budget of 64"):
            window_smin_scan(spec, 0.3, [16, 65], j_scan=0)

    def test_series_term_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(oracle, "SERIES_TERM_BUDGET", 64)
        gamma2_series_test(half_lines_profile(), 0.5, 0.6, 64)
        with pytest.raises(RegimeError, match="65 terms are over the budget of 64"):
            gamma2_series_test(half_lines_profile(), 0.5, 0.6, 65)

    def test_lattice_column_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(oracle, "LATTICE_COLUMN_BUDGET", 81)
        joint_adjoint_kernel_smin(line_profile(), 0.5, 0.5, (-4, 4, -4, 4))
        with pytest.raises(RegimeError, match="window of 90 points is over the budget of 81"):
            joint_adjoint_kernel_smin(line_profile(), 0.5, 0.5, (-4, 5, -4, 4))

    def test_budgets_admit_every_size_in_use(self):
        """Window length 4096, 2**16 terms (the CLI fuzz) and a t3 window of 64."""
        assert 4096 <= oracle.WINDOW_LENGTH_BUDGET
        assert 2**16 <= oracle.SERIES_TERM_BUDGET
        assert (64 + 1) ** 2 <= oracle.LATTICE_COLUMN_BUDGET

    @pytest.mark.parametrize("j_scan", [-1, -5])
    def test_negative_range_is_refused(self, j_scan):
        spec = fringe_operator(line_profile(), 0.5)
        with pytest.raises(SpecError, match=f"j_scan must be >= 0, got {j_scan}"):
            window_smin_scan(spec, 0.3, [16, 64], j_scan=j_scan)


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
        with pytest.raises(RegimeError, match="finite nilpotent block: membership holds exactly"):
            window_smin_scan(spec, 0.3, [64, 128], j_scan=2)

    def test_monotone_in_window_size(self):
        spec = fringe_operator(half_lines_profile(), 0.5)
        for lam in (0.3, 0.5, 0.7071, 0.9):
            ladder = _every_start_minima(spec, lam, [32, 64, 128, 256], 256, 1)
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


def _reference_scan(spec, lambda_abs, sizes, j_scan, step=None):
    """Every window of every size solved, at the scan's starts or at every
    ``step``-th; the verdict rule of window_smin_scan."""
    minima = []
    for n in sizes:
        starts = _reference_starts(spec.j_min, spec.j_max, n, j_scan, step or max(1, n // 4))
        minima.append(min(_reference_window_smin(spec, lambda_abs, s, n) for s in starts))
    decays = all(b <= a / 2 for a, b in zip(minima, minima[1:]))
    if minima[-1] < 1e-3 and decays:
        verdict = ScanVerdict.INSIDE_AP_SPECTRUM
    elif minima[-1] >= 5e-2 and minima[-1] >= minima[0] / 2:
        verdict = ScanVerdict.OUTSIDE_AP_SPECTRUM
    else:
        verdict = ScanVerdict.UNRESOLVED
    return tuple(minima), verdict


def _every_start_minima(spec, lambda_abs, sizes, j_scan, step):
    """Each size's smin over the starts ``step`` apart, from the scan's own
    window solver."""
    starts = [_window_starts(spec.j_min, spec.j_max, n, j_scan, step) for n in sizes]
    return tuple(
        math.sqrt(max(w, 0.0))
        for w in oracle._min_window_eigenvalues(spec, lambda_abs, sizes, starts)
    )


_BOUNDS = st.integers(-40, 40)

# Criterion 7's half-lines points, also the ladders of the certify benchmark.
_LADDER = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
           0.55, 0.6, 0.65, 2**-0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99)


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


@st.composite
def _scan_profiles(draw):
    window = [draw(st.integers(-2, 2))]
    for drop in draw(st.lists(st.integers(0, 2), max_size=3)):
        window.append(window[-1] - drop)
    minus = draw(st.just(EMPTY_ROWS) | finite_tails())
    plus = draw(st.just(FULL_ROWS) | finite_tails())
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
    def test_bit_identical(self, profile, mu, lam, sizes, j_scan, step):
        spec = fringe_operator(profile, mu)
        minima, verdict = _reference_scan(spec, lam, sizes, j_scan, step)
        if step is None:
            result = window_smin_scan(spec, lam, sizes, j_scan=j_scan)
            got = result.smin_by_size
            assert result.verdict is verdict
        else:
            got = _every_start_minima(spec, lam, sizes, j_scan, step)
        assert [x.hex() for x in got] == [x.hex() for x in minima]

    @given(
        _scan_profiles(),
        st.sampled_from([0.3, 0.5, 0.9]) | st.floats(0.05, 0.95),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.lists(st.integers(2, 48), min_size=2, max_size=3, unique=True).map(sorted),
        st.integers(0, 48),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_visiting_order_at_a_finite_end(self, profile, mu, lam, sizes, j_scan, rnd):
        """Each size's windows solved in a random order give the same bits.
        The finite end of a unilateral (adjoint) shift clamps the longest
        size's starts, so a run's read must stop at that end."""
        spec = fringe_operator(profile, mu)
        assume(spec.kind is not ShiftKind.BILATERAL)
        if spec.kind is ShiftKind.UNILATERAL_ADJOINT:
            assume(j_scan > int(spec.j_max) - sizes[-1] + 1)
        else:
            assume(-j_scan < int(spec.j_min))
        minima, verdict = _reference_scan(spec, lam, sizes, j_scan)

        def shuffled(starts, n, inner):
            return rnd.sample(starts, len(starts))

        with mock.patch.object(oracle, "_visit_order", shuffled):
            result = window_smin_scan(spec, lam, sizes, j_scan=j_scan)
        assert [x.hex() for x in result.smin_by_size] == [x.hex() for x in minima]
        assert result.verdict is verdict

    def test_all_shift_kinds_and_inverted_tails_are_drawn(self):
        kinds, tails = set(), set()

        @given(_scan_profiles())
        @settings(max_examples=200, deadline=None, database=None)
        def collect(profile):
            kinds.add(fringe_operator(profile, 0.5).kind)
            tails.update((profile.minus_tail.kind, profile.plus_tail.kind))

        collect()
        assert kinds == {ShiftKind.BILATERAL, ShiftKind.UNILATERAL, ShiftKind.UNILATERAL_ADJOINT}
        assert tails == {"empty", "full", "periodic", "geometric", "inverted"}

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


class TestScanSharedRead:
    """A scan reads the weights and Gram of a run of windows once and slices
    each window from that read; the slices must be the windows' own Gram
    arrays bit for bit."""

    @given(
        _scan_profiles(),
        st.sampled_from([0, 0, 10**30]),
        st.sampled_from([0.3, 0.5, 0.9]) | st.floats(0.05, 0.95),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.integers(2, 24),
        st.integers(-30, 30),
        st.integers(0, 24),
    )
    @settings(max_examples=300, deadline=None)
    def test_window_slices_are_bit_identical(self, profile, di, mu, lam, n, first, extra):
        spec = fringe_operator(translate(profile, di, 0), mu)
        if spec.j_min != NEG_INF:
            first = max(first, int(spec.j_min))
        span = n + min(extra, n)
        if spec.j_max != POS_INF:
            span = min(span, int(spec.j_max) - first + 1)
        assume(span >= n)
        diag, off = oracle._window_gram(spec, lam, first, span)
        for k in range(span - n + 1):
            want_diag, want_off = oracle._window_gram(spec, lam, first + k, n)
            assert diag[k:k + n].tobytes() == want_diag.tobytes()
            assert off[k:k + n - 1].tobytes() == want_off.tobytes()

    def test_each_read_spans_at_most_two_windows(self, monkeypatch):
        reads = []
        window_gram = oracle._window_gram

        def recording(spec, lambda_abs, start, n):
            reads.append(n)
            return window_gram(spec, lambda_abs, start, n)

        monkeypatch.setattr(oracle, "_window_gram", recording)
        spec = fringe_operator(half_lines_profile(), 0.5)
        _every_start_minima(spec, 0.6, [16, 64], 1024, 1)
        # 2049 starts shared by both sizes: one read per run of 65 starts at
        # most, where a read per size and run would make 2050/17 + 2050/65.
        assert 64 < max(reads) <= 2 * 64
        assert len(reads) <= -(-2050 // 65)

    @pytest.mark.parametrize("name, lams, j_scan, ceiling", [
        ("half_lines_1_2", _LADDER, 64, 84),  # 96 visiting each size's windows in ascending order
        ("geometric_blocks_01", (0.3, 0.6, 0.8, 0.95), 4096, 36),  # 46 likewise
        ("quarter_plane_steps", _LADDER, 64, 60),
    ])
    def test_solve_count_ceiling(self, monkeypatch, spec_dir, name, lams, j_scan, ceiling):
        """Exact solves of the scans of the ``certify`` benchmark, per spec."""
        solves = 0
        stebz = oracle._stebz

        def counting(diag, off, top=None):
            nonlocal solves
            solves += top is None
            return stebz(diag, off, top)

        monkeypatch.setattr(oracle, "_stebz", counting)
        profile = profile_from_json(json.loads((spec_dir / f"{name}.json").read_text()))
        spec = fringe_operator(profile, 0.5)
        for lam in lams:
            window_smin_scan(spec, lam, [256, 1024, 4096], j_scan=j_scan)
        assert solves <= ceiling

    def test_stebz_failure_is_a_regime_error(self, monkeypatch):
        import scipy.linalg.lapack

        dstebz = scipy.linalg.lapack.dstebz

        def failing(*args):
            return (*dstebz(*args)[:4], 1)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", failing)
        spec = fringe_operator(line_profile(), 0.5)
        with pytest.raises(RegimeError, match="stebz did not converge"):
            window_smin_scan(spec, 0.5, [16, 64], j_scan=4)


class TestTranslationInvariance:
    """Translating a diagram along i moves every border value and no drop, so
    window scans and the series must answer bit for bit as on the
    untranslated diagram."""

    @given(
        _scan_profiles(),
        st.sampled_from(TRANSLATIONS),
        st.sampled_from([0.3, 0.5, 0.9]) | st.floats(0.05, 0.95),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.lists(st.integers(2, 48), min_size=2, max_size=3, unique=True).map(sorted),
        st.integers(0, 48),
    )
    @settings(max_examples=150, deadline=None)
    def test_window_scan_is_bit_identical(self, profile, di, mu, lam, sizes, j_scan):
        result = window_smin_scan(fringe_operator(profile, mu), lam, sizes, j_scan=j_scan)
        moved = window_smin_scan(
            fringe_operator(translate(profile, di, 0), mu), lam, sizes, j_scan=j_scan
        )
        assert [x.hex() for x in moved.smin_by_size] == [x.hex() for x in result.smin_by_size]
        assert moved.verdict is result.verdict

    @pytest.mark.parametrize("di", [10**17, 10**30])
    @pytest.mark.parametrize("name", [
        "half_lines_1_2", "geometric_blocks_01", "quarter_plane_steps", "wold_mixed_pair",
    ])
    def test_shipped_specs(self, spec_dir, name, di):
        """Weights from float64 differences of the border made half-lines
        + 10**17 at |lambda| = 0.3 read smin 1.39e-5, unresolved, not 0.212."""
        profile = profile_from_json(json.loads((spec_dir / f"{name}.json").read_text()))
        for lam in (0.3, 0.5):
            result = window_smin_scan(fringe_operator(profile, 0.5), lam, [16, 64, 256], 256)
            moved = window_smin_scan(
                fringe_operator(translate(profile, di, 0), 0.5), lam, [16, 64, 256], 256
            )
            assert moved == result

    @given(
        _scan_profiles().filter(lambda profile: validate(profile).j0 == NEG_INF),
        st.sampled_from(TRANSLATIONS),
        st.sampled_from([0.3, 0.5, 0.9]) | st.floats(0.05, 0.95),
        st.sampled_from([0.3, 0.6, 0.9]) | st.floats(0.05, 0.95),
        st.integers(8, 300),
    )
    @example(translate(notched_plane_profile(), 0, -3), 10**17, 0.5, 0.6, 64)  # row 0 full
    # every downward row full
    @example(DiagramProfile(-20, (0,), PeriodicTail(1, 1), FULL_ROWS), 10**30, 0.5, 0.6, 8)
    @settings(max_examples=150, deadline=None)
    def test_series_is_bit_identical(self, profile, di, mu, lam, n_terms):
        def bits(verdict):
            sums = [(n, down.hex(), up.hex()) for n, down, up in verdict.log10_partial_sums]
            roots = (verdict.root_minus, verdict.root_plus,
                     verdict.predicted_root_minus, verdict.predicted_root_plus)
            return verdict.classification, [x.hex() for x in roots], sums

        result = gamma2_series_test(profile, mu, lam, n_terms)
        moved = gamma2_series_test(translate(profile, di, 0), mu, lam, n_terms)
        assert bits(moved) == bits(result)


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

    @pytest.mark.parametrize("lam", [0.3, 0.6])
    @pytest.mark.parametrize("profile", [
        wold_mixed_profile(), translate(notched_plane_profile(), 5, -3),
    ], ids=["wold_mixed_pair", "notched_plane_row_0_full"])
    def test_flat_minus_root_is_its_limit(self, profile, lam):
        """Rows below r = min(0, j1) are all M_r, so each downward term is
        |lambda|**(2t) exactly; wold_mixed_pair's M_0 = 1 read 0.0917 at
        |mu| = 0.3, |lambda| = 0.3 when the terms carried |mu|**(-2 M_0)."""
        verdict = gamma2_series_test(profile, 0.3, lam, 256)
        assert verdict.root_minus == pytest.approx(lam**2, rel=1e-12)
        assert verdict.predicted_root_minus == pytest.approx(lam**2, rel=1e-12)

    def test_parameter_regime_rejected(self):
        with pytest.raises(RegimeError, match="empty rows below: the witness cannot exist"):
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
        assert _lattice_stack(profile, window, 0.5, 0.5).shape[1] > 500  # the eigsh branch
        first = joint_adjoint_kernel_smin(profile, 0.5, 0.5, window)
        second = joint_adjoint_kernel_smin(profile, 0.5, 0.5, window)
        assert first.hex() == second.hex()

    def test_empty_window(self):
        with pytest.raises(RegimeError, match="window does not intersect the diagram"):
            joint_adjoint_kernel_smin(quarter_steps_profile(), 0.5, 0.5, (-9, -5, -9, -5))


def _is_empty_window(exc: RegimeError) -> bool:
    """Whether a lattice window was refused for missing the diagram, by its message."""
    text = str(exc)
    return text.startswith("degenerate window: ") or text == "window does not intersect the diagram"


@st.composite
def _lattice_cases(draw):
    """A profile with any tails and a window around it, translated together."""
    window = [draw(st.integers(-2, 2))]
    for drop in draw(st.lists(st.integers(0, 3), max_size=4)):
        window.append(window[-1] - drop)
    minus = draw(st.sampled_from([EMPTY_ROWS, PeriodicTail(1, 0)]) | finite_tails())
    plus = draw(st.sampled_from([FULL_ROWS, PeriodicTail(1, 0)]) | finite_tails())
    profile = DiagramProfile(draw(st.integers(-3, 3)), tuple(window), minus, plus)
    i_lo, j_lo = draw(st.integers(-10, 8)), draw(st.integers(-10, 8))
    i_hi = i_lo + draw(st.integers(-1, 36))  # -1: a degenerate window
    j_hi = j_lo + draw(st.integers(0, 24))
    di = draw(st.sampled_from([0, 0, 10**30]))
    return translate(profile, di, 0), (i_lo + di, i_hi + di, j_lo, j_hi)


def _stack(profile: DiagramProfile, window, a: float, b: float, step: int):
    """The stack of the adjoints (step -1), which the package builds, or of
    the forward maps (step +1), which only the reference assembly builds."""
    if step < 0:
        return _lattice_stack(profile, window, a, b)
    return ref.lattice_stack(profile, window, a, b, step)


class TestWitnessAccuracy:
    """The witness is the residual at the solver's own unit vector: on the
    dense path it meets the dense SVD's smallest singular value from above."""

    @given(
        _lattice_cases(),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.sampled_from([-1, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_dense_path_meets_the_svd(self, case, a, b, step):
        try:
            matrix = _stack(*case, a, b, step)
        except RegimeError as exc:
            if not _is_empty_window(exc):
                raise
            assume(False)
        assume(matrix.shape[1] <= 500)
        svd = float(scipy.linalg.svdvals(matrix.toarray())[-1])
        got = _stacked_smin(matrix)
        # Both sides round: at sigma = 0.618 the two differ in the last bit,
        # hence the relative terms next to the absolute ones.
        assert svd * (1 - 1e-12) - 1e-15 <= got
        assert got**2 <= svd**2 * (1 + 1e-12) + 1e-18

    def test_quarter_steps_top_rung_is_below_the_gram_floor(self, spec_dir):
        """The top rung of `oracle t3 quarter_plane_steps --window 64` (1088
        columns, the sparse path) reads the SVD's 1.87e-10; the square root
        of the Gram eigenvalue read 2.94e-9."""
        profile = profile_from_json(json.loads((spec_dir / "quarter_plane_steps.json").read_text()))
        i_c, j_c = profile.window[-1], profile.j_lo
        window = (i_c - 32, i_c + 32, j_c - 32, j_c + 32)
        got = joint_adjoint_kernel_smin(profile, 0.5, 0.5, window)
        svd = float(scipy.linalg.svdvals(_lattice_stack(profile, window, 0.5, 0.5).toarray())[-1])
        assert got == pytest.approx(svd, rel=1e-6)
        assert got < 1e-9


class TestLatticeStackMatchesReference:
    """_lattice_stack builds, entry for entry, the point-by-point assembly."""

    @given(
        _lattice_cases(),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, case, a, b):
        profile, window = case
        try:
            expected = ref.lattice_stack(profile, window, a, b, -1)
        except RegimeError as exc:
            if not _is_empty_window(exc):
                raise
            with pytest.raises(RegimeError) as raised:
                _lattice_stack(profile, window, a, b)
            assert str(raised.value) == str(exc)
            return
        got = _lattice_stack(profile, window, a, b)
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            mine, theirs = getattr(got, name), getattr(expected, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
        try:
            want = ref.stacked_smin(expected)
        except ArpackNoConvergence:
            # The shared shift-invert solver can fail on a cluster of tiny
            # eigenvalues; it must fail there too, with the error the CLI
            # maps to exit 3.
            with pytest.raises(RegimeError, match="the sparse eigensolver did not converge"):
                _stacked_smin(got)
            return
        assert _stacked_smin(got).hex() == want.hex()

    def test_both_solver_paths_and_errors_are_drawn(self):
        seen = set()

        @given(_lattice_cases())
        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        def collect(case):
            try:
                n_cols = len(ref.window_points(*case)[0])
            except RegimeError as exc:
                if not _is_empty_window(exc):
                    raise
                seen.add(str(exc).split(":")[0])
                return
            seen.add("sparse" if n_cols > 500 else "dense")

        collect()
        errors = {"degenerate window", "window does not intersect the diagram"}
        assert seen == {"dense", "sparse"} | errors


def _stack_by_point(profile: DiagramProfile, window, a: float, b: float, step: int):
    """The diagram points of the window in ``_lattice_stack``'s column order
    (row by row from j_lo, along each row from its first column), and the
    ``_stack`` as a dense array."""
    i_lo, i_hi, j_lo, j_hi = window
    rows = m_exact(profile, range(j_lo, j_hi + 1)).tolist()
    points = [(i, j) for j, m in zip(range(j_lo, j_hi + 1), rows)
              for i in range(i_lo, i_hi + 1) if i >= m]
    stack = _stack(profile, window, a, b, step).toarray()
    assert stack.shape[1] == len(points)
    return points, stack


def _sorted_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix[np.lexsort(matrix.T[::-1])]


class TestLatticeStackTransposes:
    """Transposing swaps the two shifts: the stack of transpose(P) at
    (|lambda|, |mu|) on the mirrored window is P's stack at (|mu|, |lambda|),
    entry for entry, up to a row and a column permutation."""

    @pytest.mark.parametrize("step", [-1, 1])
    @pytest.mark.parametrize("half", [3, 6])
    @pytest.mark.parametrize("profile", transpose_duality_suite() + [gb01_profile()])
    def test_mirrored_window_permutes_the_stack(self, profile, half, step):
        mu_abs, lambda_abs = 0.5, 0.25
        i_c, j_c = profile.window[-1], profile.j_lo  # as `oracle t3` centres its windows
        window = (i_c - half, i_c + half, j_c - half, j_c + half)
        points, stack = _stack_by_point(profile, window, mu_abs, lambda_abs, step)
        mirrored = window[2:] + window[:2]
        flipped, flipped_stack = _stack_by_point(
            transpose(profile), mirrored, lambda_abs, mu_abs, step)
        column = {(j, i): k for k, (i, j) in enumerate(flipped)}  # keyed by P's point
        assert sorted(column) == sorted(points)
        flipped_stack = flipped_stack[:, [column[point] for point in points]]
        assert np.array_equal(_sorted_rows(stack), _sorted_rows(flipped_stack))

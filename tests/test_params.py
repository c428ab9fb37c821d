import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stairspec import diagram
from stairspec.diagram import (
    EMPTY_ROWS,
    DiagramProfile,
    GeometricBlocksTail,
    PeriodicTail,
    Side,
    float_drops,
    m_exact,
    translate,
    transpose,
    validate,
)
from stairspec import params
from stairspec.extnum import EXT_INF, ExtReal, RegimeError, SpecError
from stairspec.params import compute_params, estimate_params_bruteforce

from conftest import (
    TRANSLATIONS,
    canonical_nonsimple,
    finite_tails,
    gb01_profile,
    half_lines_profile,
    line_profile,
    simple_quarter_profile,
    wold_mixed_profile,
)

FR = Fraction
ONE = ExtReal(1)


class TestComputeParams:
    def test_line_all_one(self):
        p = compute_params(line_profile())
        assert (
            p.delta_minus == p.delta_plus == p.eta_minus == p.eta_plus
            == p.rho_minus == p.rho_plus == ONE
        )

    def test_half_lines(self):
        p = compute_params(half_lines_profile())
        assert p.delta_plus == p.rho_plus == ONE
        assert p.delta_minus == p.rho_minus == ExtReal(FR(1, 2))

    def test_geometric_blocks(self):
        p = compute_params(gb01_profile())
        assert p.delta_minus == ExtReal(0)
        assert p.rho_minus == ONE
        assert p.eta_minus == ExtReal(FR(2, 3))
        assert p.delta_plus == p.eta_plus == p.rho_plus == ONE

    def test_infinity_collapse(self):
        p = compute_params(wold_mixed_profile())
        assert p.delta_minus == p.eta_minus == p.rho_minus == ExtReal(0)
        assert p.delta_plus == p.eta_plus == p.rho_plus == EXT_INF
        steps = compute_params(
            DiagramProfile(0, (1, 0), EMPTY_ROWS, PeriodicTail(1, 1))
        )
        assert steps.delta_minus == steps.eta_minus == steps.rho_minus == EXT_INF

    def test_simple_rejected(self):
        with pytest.raises(RegimeError, match="simple diagram: the pair is doubly commuting"):
            compute_params(simple_quarter_profile())

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_ordering(self, name, profile):
        p = compute_params(profile)
        assert p.delta_minus <= p.eta_minus <= p.rho_minus
        assert p.delta_plus <= p.eta_plus <= p.rho_plus

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_translation_invariance(self, name, profile):
        for di, dj in [(3, 0), (0, -2), (-4, 5)]:
            assert compute_params(translate(profile, di, dj)) == compute_params(profile)


def _duality_suite() -> list[DiagramProfile]:
    gb_a = GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1)
    gb_b = GeometricBlocksTail((FR(1, 3), FR(3), FR(1)), 2, 2)
    gb_c = GeometricBlocksTail((FR(2, 3), FR(5, 2)), 3, 1)
    return [
        line_profile(),
        line_profile(2, 1),
        line_profile(1, 2),
        line_profile(3, 2),
        half_lines_profile(),
        DiagramProfile(-1, (5, 2), PeriodicTail(3, 2), PeriodicTail(2, 5)),
        DiagramProfile(0, (0,), PeriodicTail(1, 1), gb_a),
        DiagramProfile(0, (3, 0), gb_b, PeriodicTail(1, 2)),
        DiagramProfile(0, (0,), gb_a, gb_b),
        DiagramProfile(2, (4, 1, 0), gb_c, gb_a),
        wold_mixed_profile(),
        DiagramProfile(0, (1, 0), EMPTY_ROWS, PeriodicTail(2, 1)),
    ]


class TestTransposeDuality:
    def test_dual_parameter_identities(self):
        suite = _duality_suite()
        assert len(suite) >= 10
        for profile in suite:
            p = compute_params(profile)
            d = compute_params(transpose(profile))
            assert d.delta_plus == p.rho_minus.reciprocal()
            assert d.rho_plus == p.delta_minus.reciprocal()
            assert d.delta_minus == p.rho_plus.reciprocal()
            assert d.rho_minus == p.delta_plus.reciprocal()


class TestEstimator:
    def test_line_converges(self):
        est = estimate_params_bruteforce(line_profile(), 10_000, 50)
        for value in (
            est.delta_minus,
            est.delta_plus,
            est.eta_minus,
            est.eta_plus,
            est.rho_minus,
            est.rho_plus,
        ):
            assert abs(value - 1.0) < 1e-3

    def test_half_lines_minus_side(self):
        # scan span kept small so straddling windows stay within 1e-3
        est = estimate_params_bruteforce(half_lines_profile(), 10_000, 10)
        assert abs(est.delta_minus - 0.5) < 1e-3
        assert abs(est.rho_minus - 0.5) < 1e-3

    def test_gb_eta_prefix_simulation(self):
        est = estimate_params_bruteforce(gb01_profile(), 200_000, 4, eta_cutoff=700)
        assert abs(est.eta_minus - 2.0 / 3.0) < 1e-3

    def test_agreement_on_periodic_suite(self):
        suite = [
            line_profile(),
            line_profile(2, 1),
            line_profile(1, 2),
            line_profile(3, 2),
            line_profile(5, 3),
            half_lines_profile(),
            DiagramProfile(-1, (5, 2), PeriodicTail(3, 2), PeriodicTail(2, 5)),
            DiagramProfile(0, (2, 0), PeriodicTail(4, 3), PeriodicTail(5, 2)),
            DiagramProfile(0, (0,), PeriodicTail(1, 0), PeriodicTail(2, 1)),
            DiagramProfile(3, (7, 7, 2), PeriodicTail(2, 1), PeriodicTail(1, 3)),
        ]
        assert len(suite) >= 10
        n_max, j_span = 20_000, 40
        for profile in suite:
            exact = compute_params(profile)
            est = estimate_params_bruteforce(profile, n_max, j_span, eta_cutoff=2000)
            # straddling windows mix the two tail slopes over at most
            # (j_span + window span) of the n steps
            gap = abs(float(exact.rho_plus) - float(exact.rho_minus))
            drop = profile.window[0] - profile.window[-1]
            bound = (j_span * max(gap, 1.0) + drop + len(profile.window) + 2) / n_max
            for got, want in [
                (est.delta_minus, exact.delta_minus),
                (est.delta_plus, exact.delta_plus),
                (est.rho_minus, exact.rho_minus),
                (est.rho_plus, exact.rho_plus),
            ]:
                assert abs(got - float(want)) <= bound
            # running averages converge like 1/cutoff
            assert abs(est.eta_minus - float(exact.eta_minus)) <= 1e-2
            assert abs(est.eta_plus - float(exact.eta_plus)) <= 1e-2

    @pytest.mark.parametrize("chunk", [1, 7, 64, params._ETA_CHUNK])
    @pytest.mark.parametrize("n_max, j_span, eta_cutoff", [
        (2, 0, None), (3, 1, 2), (200, 5, None), (257, 0, 17), (500, 3, 500),
    ])
    def test_blocked_scan_is_bit_identical(self, monkeypatch, chunk, n_max, j_span, eta_cutoff):
        """The eta scan read in blocks gives the same bits as one whole-range array."""
        monkeypatch.setattr(params, "_ETA_CHUNK", chunk)
        for profile in (line_profile(3, 2), half_lines_profile(), gb01_profile(),
                        transpose(_duality_suite()[8]),  # inverted tails on both sides
                        DiagramProfile(-1, (5, 2), PeriodicTail(3, 2), PeriodicTail(2, 5))):
            est = estimate_params_bruteforce(profile, n_max, j_span, eta_cutoff)
            assert _hexes(est) == _whole_range(profile, n_max, j_span, eta_cutoff)

    def test_scan_overflow(self):
        with pytest.raises(RegimeError, match="minus tail has empty rows inside the scan"):
            estimate_params_bruteforce(
                DiagramProfile(0, (1, 0), EMPTY_ROWS, PeriodicTail(1, 1)), 100, 10
            )
        with pytest.raises(RegimeError, match="plus tail has full rows inside the scan"):
            estimate_params_bruteforce(wold_mixed_profile(), 100, 10)

    def test_short_window_is_a_spec_error(self):
        with pytest.raises(SpecError, match="n_max"):
            estimate_params_bruteforce(line_profile(), n_max=1, j_span=10)

    @pytest.mark.parametrize("n_max, j_span", [
        (10**14, 0), (params._SCAN_BUDGET + 1, 2), (1000, params._SCAN_BUDGET // 2), (1000, 10**14),
    ])
    def test_over_a_size_budget_raises_before_reading_rows(self, monkeypatch, n_max, j_span):
        def read(*args):
            raise AssertionError("a border row was read")

        monkeypatch.setattr(params, "m_exact", read)
        with pytest.raises(RegimeError, match="over the budget of"):
            estimate_params_bruteforce(line_profile(), n_max, j_span)

    def test_a_scan_at_the_budget_runs(self):
        """The budget holds the depth 10**6 of criterion 5 and the benchmark."""
        assert params._SCAN_BUDGET > 10**6
        est = estimate_params_bruteforce(line_profile(), params._SCAN_BUDGET,
                                         (params._SCAN_BUDGET - 1) // 2)
        assert est.eta_minus == est.eta_plus == 1.0


def _whole_range(profile, n_max, j_span, eta_cutoff) -> list[str]:
    """The six estimates, as ``float.hex``, from one exact read of the whole
    scanned range: each difference of rows taken exactly and rounded once."""
    cut = max(16, math.isqrt(n_max)) if eta_cutoff is None else eta_cutoff
    cut = min(cut, n_max)
    values = m_exact(profile, range(-(j_span + n_max), j_span + n_max + 1))
    mid = j_span + n_max  # values[mid + j] == M_j
    j_idx = np.arange(-j_span, j_span + 1) + mid
    minus = float_drops(values[j_idx - n_max], values[j_idx]) / n_max
    plus = float_drops(values[j_idx], values[j_idx + n_max]) / n_max
    ts = np.arange(cut, n_max + 1)
    m0 = values[mid:mid + 1]
    estimates = [minus.min(), plus.min(), (float_drops(values[mid - ts], m0) / ts).max(),
                 (float_drops(m0, values[mid + ts]) / ts).max(), minus.max(), plus.max()]
    return [float(x).hex() for x in estimates]


def _hexes(est) -> list[str]:
    return [float(x).hex() for x in (est.delta_minus, est.delta_plus, est.eta_minus,
                                     est.eta_plus, est.rho_minus, est.rho_plus)]


@st.composite
def _finite_profiles(draw):
    """Profiles whose border is finite everywhere, with tails of every kind."""
    window = [draw(st.integers(-3, 3))]
    for drop in draw(st.lists(st.integers(0, 3), max_size=3)):
        window.append(window[-1] - drop)
    profile = DiagramProfile(draw(st.integers(-3, 3)), tuple(window),
                             draw(finite_tails()), draw(finite_tails()))
    validate(profile)
    return profile


class TestExactDifferences:
    """Differences of border values are exact integers before their one rounding."""

    @given(_finite_profiles(), st.sampled_from(TRANSLATIONS),
           st.integers(2, 20_000), st.integers(0, 8), st.none() | st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_translation_is_bit_identical(self, profile, di, n_max, j_span, eta_cutoff):
        want = estimate_params_bruteforce(profile, n_max, j_span, eta_cutoff)
        moved = estimate_params_bruteforce(translate(profile, di, 0), n_max, j_span, eta_cutoff)
        assert _hexes(moved) == _hexes(want)

    def test_border_values_beyond_float64(self):
        """Rows beyond float64 are fine while their differences are not."""
        moved = translate(half_lines_profile(), 10**400, 0)
        assert _hexes(estimate_params_bruteforce(moved, 5000, 3)) == _hexes(
            estimate_params_bruteforce(half_lines_profile(), 5000, 3))

    @pytest.mark.parametrize("minus, plus", [
        (PeriodicTail(1, 10**400), PeriodicTail(1, 1)),
        (PeriodicTail(1, 1), PeriodicTail(1, 10**400)),
    ])
    def test_difference_beyond_float64_raises(self, minus, plus):
        with pytest.raises(RegimeError, match="border difference"):
            estimate_params_bruteforce(DiagramProfile(0, (0,), minus, plus), 100, 2)


@st.composite
def _crossing_scans(draw):
    """A profile, n_max and eta_cutoff whose rises cross 2**53 inside the
    eta scan: each tail is periodic or geometric with a per-step rise of
    about 2**53 / t, for a step t between the cutoff and n_max."""
    n_max = draw(st.integers(20, 2000))
    eta_cutoff = draw(st.integers(1, n_max // 2))

    def crossing_tail():
        big = 2**53 // draw(st.integers(eta_cutoff + 1, n_max))
        if draw(st.booleans()):
            period = draw(st.integers(1, 8))
            return PeriodicTail(period, big * period + draw(st.integers(0, 99)))
        return GeometricBlocksTail((FR(big), FR(2 * big, 3)), draw(st.integers(2, 3)),
                                   draw(st.integers(1, 50)))

    window = (draw(st.integers(-3, 3)),)
    return DiagramProfile(draw(st.integers(-3, 3)), window, crossing_tail(), crossing_tail()), \
        n_max, eta_cutoff


class TestPrunedEtaScan:
    """The eta scan reads only the ends of a tail's runs and skips blocks
    whose bound cannot raise its maximum."""

    @given(_finite_profiles(), st.sampled_from([1, 3, 64]), st.sampled_from([1, 3, 64]),
           st.integers(2, 400), st.integers(0, 6), st.none() | st.integers(1, 400))
    @settings(max_examples=80, deadline=None)
    def test_equals_whole_range(self, profile, chunk, sub, n_max, j_span, eta_cutoff):
        with mock.patch.object(params, "_ETA_CHUNK", chunk), \
                mock.patch.object(params, "_ETA_SUB", sub):
            est = estimate_params_bruteforce(profile, n_max, j_span, eta_cutoff)
        assert _hexes(est) == _whole_range(profile, n_max, j_span, eta_cutoff)

    @given(_crossing_scans(), st.sampled_from([1, 64, params._ETA_CHUNK]), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_equals_whole_range_across_2_53(self, scan, chunk, j_span):
        """Past 2**53 a float rise is no longer exact, and a run must be read whole."""
        profile, n_max, eta_cutoff = scan
        with mock.patch.object(params, "_ETA_CHUNK", chunk):
            est = estimate_params_bruteforce(profile, n_max, j_span, eta_cutoff)
        assert _hexes(est) == _whole_range(profile, n_max, j_span, eta_cutoff)

    def test_a_run_reaching_2_53_is_read_whole(self):
        """The minus rise crosses 2**53 near step 1,194.  Read at the run's
        ends alone, this scan gives 0x1.b6db6db6db6dcp+42."""
        profile = DiagramProfile(0, (-12,), PeriodicTail(7, 52776558133248),
                                 PeriodicTail(3, 87960930222080))
        est = estimate_params_bruteforce(profile, 5000, 2, 1000)
        assert est.eta_minus.hex() == "0x1.b6db6db6db6ddp+42"
        assert _hexes(est) == _whole_range(profile, 5000, 2, 1000)

    @pytest.mark.parametrize("slopes", [
        (FR(0), FR(1)), (FR(1, 2), FR(2)), (FR(0), FR(1), FR(3)),
    ], ids=["0_1", "1/2_2", "0_1_3"])
    def test_equals_whole_range_at_depth_10_6(self, slopes):
        """The benchmark's brute-force profiles at its depth, with the real
        block sizes and chunk length."""
        profile = DiagramProfile(0, (0,), GeometricBlocksTail(slopes, 2, 1), PeriodicTail(1, 1))
        est = estimate_params_bruteforce(profile, 10**6, 2)
        assert _hexes(est) == _whole_range(profile, 10**6, 2, None)

    @staticmethod
    def _reads(monkeypatch) -> list[int]:
        """Border values the estimator evaluates, counted per call."""
        reads = []

        def counted(evaluate):
            def wrapper(profile, *args):
                out = evaluate(profile, *args)
                reads.append(len(out))
                return out
            return wrapper

        for name in ("m_exact", "m_values"):
            if hasattr(params, name):
                monkeypatch.setattr(params, name, counted(getattr(diagram, name)))
        return reads

    def test_ties_skip_blocks(self, monkeypatch):
        """On a slope-1 line every quotient is exactly 1: a block of one step
        bounds at 1, which ties the maximum and is skipped."""
        monkeypatch.setattr(params, "_ETA_CHUNK", 1)
        monkeypatch.setattr(params, "_ETA_SUB", 1)
        reads = self._reads(monkeypatch)
        est = estimate_params_bruteforce(line_profile(), 200, 0, 10)
        assert est.eta_minus == est.eta_plus == 1.0
        # the window rows and M_0, then per side: the far end of the one
        # period-1 run, the bounds of its first and last step, and the first
        # visited with its sub-block bound and its single value
        assert reads == [1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1]

    def test_criterion_5_profile_reads_under_1000_values(self, monkeypatch):
        """Depth 10**6 on the slope-(0, 1) block tail: 2 * 10**6 values in range."""
        reads = self._reads(monkeypatch)
        est = estimate_params_bruteforce(gb01_profile(), 10**6, 2)
        assert abs(est.eta_minus - 2 / 3) < 1e-3
        assert sum(reads) < 1000

    def test_line_profile_reads_under_100_values(self, monkeypatch):
        """Depth 10**6 on a slope-1 line, where every quotient is exactly 1."""
        reads = self._reads(monkeypatch)
        est = estimate_params_bruteforce(line_profile(), 10**6, 2)
        assert est.eta_minus == est.eta_plus == 1.0
        assert sum(reads) < 100

    @pytest.mark.parametrize("profile, side, t_first", [
        (DiagramProfile(0, (0,), PeriodicTail(100, 2**1024), PeriodicTail(1, 1)), Side.MINUS, 1),
        (DiagramProfile(0, (0,), PeriodicTail(1, 1), PeriodicTail(100, 2**1024)), Side.PLUS, 1),
        (DiagramProfile(0, (0,), PeriodicTail(100, 2**1024), PeriodicTail(1, 1)), Side.MINUS, 99),
        (DiagramProfile(-100, (2**1024,) + (0,) * 100, PeriodicTail(1, 1), PeriodicTail(1, 1)),
         Side.MINUS, 1),
    ], ids=["run_ends_minus", "run_ends_plus", "short_run", "window_rows"])
    def test_the_last_step_is_read(self, profile, side, t_first):
        """Only the rise at t_last = 100 is beyond float64, and the scan reads
        it: a long run, a run read whole and window rows alike."""
        m0 = m_exact(profile, [0])
        assert math.isfinite(params._eta_max(profile, side, m0, t_first, 99))
        with pytest.raises(RegimeError, match="border difference"):
            params._eta_max(profile, side, m0, t_first, 100)


class TestGeometricBlockAverages:
    @pytest.mark.parametrize(
        "slopes,ratio,base_len",
        [
            ((FR(0), FR(1)), 2, 1),
            ((FR(1, 2), FR(2)), 2, 1),
            ((FR(0), FR(1), FR(3)), 2, 1),
            ((FR(1, 3), FR(3), FR(1)), 3, 2),
        ],
    )
    def test_block_averages_track_declared_slopes(self, slopes, ratio, base_len):
        tail = GeometricBlocksTail(slopes, ratio, base_len)
        m = len(slopes)
        # realized average over block k approaches s_{k mod m} within 1/L_k
        start, length = 0, base_len
        cum_prev = 0
        from stairspec.diagram import Side

        for k in range(12):
            cum_end = int(tail.rises(np.array([start + length]), Side.MINUS)[0])
            average = (cum_end - cum_prev) / length
            assert abs(average - float(slopes[k % m])) <= 1.0 / length
            cum_prev = cum_end
            start += length
            length *= ratio

import math
from fractions import Fraction

import numpy as np
import pytest

from stairspec.diagram import (
    EMPTY_ROWS,
    DiagramProfile,
    GeometricBlocksTail,
    PeriodicTail,
    m_values,
    translate,
    transpose,
)
from stairspec import params
from stairspec.extnum import EXT_INF, ExtReal
from stairspec.params import (
    ScanOverflowError,
    SimpleDiagramError,
    compute_params,
    estimate_params_bruteforce,
)

from conftest import (
    canonical_nonsimple,
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
        with pytest.raises(SimpleDiagramError):
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

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("n_max, j_span, eta_cutoff", [
        (2, 0, None), (3, 1, 2), (200, 5, None), (257, 0, 17), (500, 3, 500),
    ])
    def test_blocked_scan_is_bit_identical(self, monkeypatch, chunk, n_max, j_span, eta_cutoff):
        """The eta scan read in blocks gives the same bits as one whole-range array."""
        monkeypatch.setattr(params, "_ETA_CHUNK", chunk)
        for profile in (line_profile(3, 2), half_lines_profile(), gb01_profile(),
                        transpose(_duality_suite()[8]),  # inverted tails on both sides
                        DiagramProfile(-1, (5, 2), PeriodicTail(3, 2), PeriodicTail(2, 5))):
            cut = max(16, math.isqrt(n_max)) if eta_cutoff is None else eta_cutoff
            cut = min(cut, n_max)
            values = m_values(profile, -(j_span + n_max), j_span + n_max)
            mid = j_span + n_max  # values[mid + j] == M_j
            j_idx = np.arange(-j_span, j_span + 1) + mid
            minus = (values[j_idx - n_max] - values[j_idx]) / n_max
            plus = (values[j_idx] - values[j_idx + n_max]) / n_max
            ts = np.arange(cut, n_max + 1)
            want = [minus.min(), plus.min(), ((values[mid - ts] - values[mid]) / ts).max(),
                    ((values[mid] - values[mid + ts]) / ts).max(), minus.max(), plus.max()]
            est = estimate_params_bruteforce(profile, n_max, j_span, eta_cutoff)
            got = [est.delta_minus, est.delta_plus, est.eta_minus, est.eta_plus,
                   est.rho_minus, est.rho_plus]
            assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    def test_scan_overflow(self):
        with pytest.raises(ScanOverflowError):
            estimate_params_bruteforce(
                DiagramProfile(0, (1, 0), EMPTY_ROWS, PeriodicTail(1, 1)), 100, 10
            )
        with pytest.raises(ScanOverflowError):
            estimate_params_bruteforce(wold_mixed_profile(), 100, 10)


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

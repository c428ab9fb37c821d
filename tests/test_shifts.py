import math
from fractions import Fraction

import pytest

from stairspec.diagram import (
    EMPTY_ROWS,
    FULL_ROWS,
    DiagramProfile,
    PeriodicTail,
    translate,
    validate,
)
from stairspec.extnum import EXT_INF, ExtReal, Membership
from stairspec.params import compute_params
from stairspec.regions import gamma3_region, region_member
from stairspec.shifts import (
    MuOutOfRangeError,
    ShiftKind,
    fringe_operator,
    ppi_census,
    ridge_bounds,
    sigma_ap_predict,
)

from conftest import (
    canonical_nonsimple,
    gb01_profile,
    half_lines_profile,
    line_profile,
    notched_plane_profile,
    quarter_steps_profile,
    wold_mixed_profile,
)

FR = Fraction


def _fringe(profile, mu=0.5):
    spec = fringe_operator(profile, mu)
    return spec, ridge_bounds(spec, compute_params(profile))


class TestFringeOperator:
    def test_line_is_bilateral_constant(self):
        spec, _ = _fringe(line_profile())
        assert spec.kind is ShiftKind.BILATERAL
        assert spec.weights(range(-3, 4)).tolist() == [0.5] * 7

    def test_quarter_steps_is_unilateral(self):
        spec, _ = _fringe(quarter_steps_profile())
        assert spec.kind is ShiftKind.UNILATERAL
        # constant rows above the single window drop: weights 1 from there on
        assert spec.weights(range(0, 1)).tolist() == [0.5]
        assert spec.weights(range(1, 6)).tolist() == [1.0] * 5

    def test_wold_mixed_is_unilateral_adjoint(self):
        spec, _ = _fringe(wold_mixed_profile())
        assert spec.kind is ShiftKind.UNILATERAL_ADJOINT
        assert spec.j_max == 1

    def test_both_finite_is_nilpotent(self):
        profile = DiagramProfile(0, (1, 0), EMPTY_ROWS, FULL_ROWS)
        spec, _ = _fringe(profile)
        assert spec.kind is ShiftKind.FINITE_NILPOTENT

    def test_mu_out_of_range(self):
        for bad in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(MuOutOfRangeError):
                fringe_operator(line_profile(), bad)


class TestWeights:
    """ShiftSpec.weights: |mu| to the exact drops, over a range of edges."""

    def test_drop_beyond_float64_is_zero(self):
        profile = DiagramProfile(0, (0,), PeriodicTail(1, 10**400), PeriodicTail(1, 1))
        spec = fringe_operator(profile, 0.5)
        assert spec.weights(range(-3, 3), down=True).tolist() == [0.0] * 4 + [0.5] * 2
        assert spec.weights(range(-3, 3)).tolist() == [0.0] * 3 + [0.5] * 3

    def test_drop_across_an_empty_row_is_zero(self):
        spec = fringe_operator(quarter_steps_profile(), 0.5)
        assert spec.weights(range(0, 1), down=True).tolist() == [0.0]  # M_{-1} is +inf
        assert spec.weights(range(0, 3), down=True).tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("value", [0, 10**400], ids=["0", "1e400"])
    def test_drop_across_an_empty_row_beside_a_huge_value_is_zero(self, value):
        """The drop is capped before +inf meets an int beyond float64."""
        profile = DiagramProfile(0, (value + 1, value), EMPTY_ROWS, PeriodicTail(1, 1))
        spec = fringe_operator(profile, 0.5)
        assert spec.weights(range(0, 4), down=True).tolist() == [0.0, 0.5, 0.5, 0.5]

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    @pytest.mark.parametrize("di", [2**53 + 1, 10**30])
    def test_translation_keeps_every_weight(self, name, profile, di):
        spec = fringe_operator(profile, 0.3)
        moved = fringe_operator(translate(profile, di, 0), 0.3)
        top = int(spec.j_max) if spec.j_max != math.inf else 40
        js = range(max(spec.j_min, top - 80), top + 1)
        for down in (False, True):
            edges = js if down or spec.kind is ShiftKind.UNILATERAL_ADJOINT else js[:-1]
            expected = spec.weights(edges, down=down)
            assert moved.weights(edges, down=down).tobytes() == expected.tobytes()
            ones = [spec.weights(range(j, j + 1), down=down)[0] for j in edges]
            assert ones == expected.tolist()

    def test_range_checks_read_the_ends(self):
        unilateral = fringe_operator(quarter_steps_profile(), 0.5)  # j_min = 0
        with pytest.raises(ValueError, match="index -1 outside the shift range"):
            unilateral.weights(range(-1, 5), down=True)
        adjoint = fringe_operator(wold_mixed_profile(), 0.5)  # j_max = 1
        with pytest.raises(ValueError, match="index 2 above the shift range"):
            adjoint.weights(range(-5, 3))
        assert adjoint.weights(range(-5, 2)).tolist() == [1.0] * 6 + [0.5]
        finite = fringe_operator(DiagramProfile(0, (2, 1, 0), EMPTY_ROWS, FULL_ROWS), 0.5)
        with pytest.raises(ValueError, match="edge 2 -> 3 leaves the shift range"):
            finite.weights(range(0, 3))
        assert finite.weights(range(0, 0)).tolist() == []


class TestRidgeBounds:
    def test_fields_per_kind(self):
        cases = [
            (half_lines_profile(), ShiftKind.BILATERAL,
             ("rho_plus", "rho_minus", "delta_plus", "delta_minus")),
            (quarter_steps_profile(), ShiftKind.UNILATERAL,
             ("rho_plus",) * 2 + ("delta_plus",) * 2),
            (wold_mixed_profile(), ShiftKind.UNILATERAL_ADJOINT,
             ("rho_minus",) * 2 + ("delta_minus",) * 2),
        ]
        for profile, kind, fields in cases:
            spec, rb = _fringe(profile)
            params = compute_params(profile)
            assert spec.kind is kind
            assert (rb.i_minus, rb.i_plus, rb.r_minus, rb.r_plus) == tuple(
                getattr(params, f) for f in fields
            )
        spec, rb = _fringe(DiagramProfile(0, (1, 0), EMPTY_ROWS, FULL_ROWS))
        assert spec.kind is ShiftKind.FINITE_NILPOTENT
        assert (rb.i_minus, rb.i_plus, rb.r_minus, rb.r_plus) == (EXT_INF,) * 4
        assert rb.i_minus_value == 0.0

    def test_line_all_half(self):
        _, rb = _fringe(line_profile())
        assert (
            rb.i_minus_value == rb.i_plus_value == rb.r_minus_value == rb.r_plus_value == 0.5
        )

    def test_half_lines_exponent_arithmetic(self):
        _, rb = _fringe(half_lines_profile())
        assert rb.i_minus == ExtReal(1)  # mu**rho_plus
        assert rb.i_minus_value == 0.5
        assert rb.r_plus == ExtReal(FR(1, 2))  # mu**delta_minus
        assert abs(rb.r_plus_value - math.sqrt(0.5)) < 1e-15

    def test_gb_minus_side(self):
        _, rb = _fringe(gb01_profile())
        assert rb.r_plus_value == 1.0  # mu**delta_minus with delta_minus = 0
        assert rb.i_plus_value == 0.5  # mu**rho_minus with rho_minus = 1

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_i_below_r(self, name, profile):
        _, rb = _fringe(profile)
        assert rb.i_minus_value <= rb.r_minus_value + 1e-15
        assert rb.i_plus_value <= rb.r_plus_value + 1e-15

    @pytest.mark.parametrize(
        "name,profile",
        [
            ("line", line_profile()),
            ("line2", line_profile(2, 1)),
            ("half_lines", half_lines_profile()),
            ("steep", DiagramProfile(0, (0,), PeriodicTail(3, 2), PeriodicTail(2, 3))),
        ],
    )
    def test_matches_bruteforce_products(self, name, profile):
        # geometric means of 512 consecutive weights, swept across both sides
        spec, rb = _fringe(profile)
        n = 512
        means = []
        for start in range(-2000, 2000 - n, 97):
            drops = spec.weights(range(start, start + n), down=True).tolist()
            means.append(math.exp(sum(math.log(w) for w in drops) / n))
        lo, hi = min(means), max(means)
        assert lo >= rb.i_minus_value * 0.98 or lo >= rb.i_plus_value * 0.98
        assert hi <= max(rb.r_minus_value, rb.r_plus_value) * 1.02
        # extreme means approach the extreme bounds
        assert min(rb.i_minus_value, rb.i_plus_value) * 0.98 <= lo
        assert hi >= max(rb.r_minus_value, rb.r_plus_value) * 0.98


class TestSigmaApPredict:
    def test_constant_bilateral_circle(self):
        spec, rb = _fringe(line_profile())
        assert sigma_ap_predict(spec, rb, 0.5).state is Membership.INSIDE
        assert sigma_ap_predict(spec, rb, 0.8).state is Membership.OUTSIDE
        assert sigma_ap_predict(spec, rb, 0.2).state is Membership.OUTSIDE

    def test_adjoint_disc(self):
        # finite rows below: the dual operator's spectrum is the full disc
        profile = DiagramProfile(0, (1, 0), EMPTY_ROWS, PeriodicTail(2, 1))
        spec, rb = _fringe(profile)
        assert spec.kind is ShiftKind.UNILATERAL
        assert abs(rb.r_minus_value - math.sqrt(0.5)) < 1e-15
        assert sigma_ap_predict(spec, rb, 0.3).state is Membership.INSIDE
        assert sigma_ap_predict(spec, rb, 0.8).state is Membership.OUTSIDE

    def test_circle_for_adjoint_kind(self):
        profile = DiagramProfile(0, (0,), PeriodicTail(2, 1), FULL_ROWS)
        spec, rb = _fringe(profile)
        assert spec.kind is ShiftKind.UNILATERAL_ADJOINT
        radius = math.sqrt(0.5)  # both minus parameters equal 1/2
        assert sigma_ap_predict(spec, rb, radius).state is Membership.INSIDE
        assert sigma_ap_predict(spec, rb, 0.3).state is Membership.OUTSIDE
        assert sigma_ap_predict(spec, rb, 0.9).state is Membership.OUTSIDE

    def test_annulus_for_adjoint_kind(self):
        from stairspec.diagram import GeometricBlocksTail

        profile = DiagramProfile(
            0, (0,), GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1), FULL_ROWS
        )
        spec, rb = _fringe(profile)
        assert spec.kind is ShiftKind.UNILATERAL_ADJOINT
        inner, outer = 0.25, math.sqrt(0.5)  # mu**rho_minus, mu**delta_minus
        assert rb.i_minus_value == inner and abs(rb.r_minus_value - outer) < 1e-15
        assert sigma_ap_predict(spec, rb, 0.4).state is Membership.INSIDE
        assert sigma_ap_predict(spec, rb, inner).state is Membership.INSIDE
        assert sigma_ap_predict(spec, rb, 0.1).state is Membership.OUTSIDE
        assert sigma_ap_predict(spec, rb, 0.9).state is Membership.OUTSIDE

    def test_nilpotent_point_rule(self):
        profile = DiagramProfile(0, (1, 0), EMPTY_ROWS, FULL_ROWS)
        spec, rb = _fringe(profile)
        assert sigma_ap_predict(spec, rb, 0.0).state is Membership.INSIDE
        assert sigma_ap_predict(spec, rb, 0.4).state is Membership.OUTSIDE

    def test_half_lines_two_circles(self):
        spec, rb = _fringe(half_lines_profile())
        assert sigma_ap_predict(spec, rb, 0.5).state is Membership.INSIDE
        assert sigma_ap_predict(spec, rb, 2**-0.5).state is Membership.INSIDE
        for lam in (0.3, 0.6, 0.8, 0.95):
            assert sigma_ap_predict(spec, rb, lam).state is Membership.OUTSIDE

    def test_underflowing_circle_excludes_zero(self):
        """The circle |lambda| = 2**-2000 underflows to radius 0.0, yet is no disc."""
        profile = DiagramProfile(0, (0,), PeriodicTail(1, 2000), PeriodicTail(1, 2000))
        spec, rb = _fringe(profile)
        assert spec.kind is ShiftKind.BILATERAL
        assert rb.i_minus_value == rb.r_plus_value == 0.0
        for lam in (0.0, 5e-324, 1e-320, 0.5):
            assert sigma_ap_predict(spec, rb, lam).state is Membership.OUTSIDE

    def test_underflowing_disc_keeps_zero(self):
        """The disc of radius 2**-2000 holds 0 by convention, and no float above it."""
        profile = DiagramProfile(0, (1, 0), EMPTY_ROWS, PeriodicTail(1, 2000))
        spec, rb = _fringe(profile)
        assert spec.kind is ShiftKind.UNILATERAL and rb.r_minus_value == 0.0
        assert sigma_ap_predict(spec, rb, 0.0).state is Membership.INSIDE
        for lam in (5e-324, 1e-320, 0.5):
            assert sigma_ap_predict(spec, rb, lam).state is Membership.OUTSIDE


class TestPpiCensus:
    def test_line_every_index_one(self):
        census = ppi_census(line_profile(), 20)
        assert set(census.index_histogram) == {1}
        assert not census.truncated_indices_unbounded
        assert not census.has_backward and not census.has_unilateral

    def test_backward_part(self):
        census = ppi_census(notched_plane_profile(), 20)
        assert census.has_backward
        census = ppi_census(wold_mixed_profile(), 20)
        assert census.has_backward

    def test_unilateral_part(self):
        census = ppi_census(quarter_steps_profile(), 20)
        assert census.has_unilateral

    def test_gb_unbounded_gaps(self):
        census = ppi_census(gb01_profile(), 200)
        assert census.truncated_indices_unbounded
        assert max(census.index_histogram) >= 16

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_consistency_with_mu_zero_membership(self, name, profile):
        # On shift/shift profiles the census unboundedness flag must agree
        # with membership of {|mu| = 0} x circle points in the final locus.
        structure = validate(profile)
        from stairspec.regions import WoldCase, wold_case

        if wold_case(structure) is not WoldCase.SHIFT_SHIFT:
            return
        params = compute_params(profile)
        census = ppi_census(profile, 64)
        member = region_member(gamma3_region(params, structure), 0.0, 0.7).state
        zero_extreme = params.delta_minus == ExtReal(0) or params.delta_plus == ExtReal(0)
        assert census.truncated_indices_unbounded == zero_extreme
        assert (member is Membership.INSIDE) == zero_extreme, name

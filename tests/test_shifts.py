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
from stairspec.extnum import EXT_INF, ExtReal, Membership, RegimeError, SpecError
from stairspec.params import compute_params
from stairspec.regions import gamma3_region, region_member
from stairspec.shifts import (
    ShiftKind,
    fringe_operator,
    ridge_bounds,
    sigma_ap_predict,
)

from conftest import (
    canonical_nonsimple,
    gb01_profile,
    half_lines_profile,
    line_profile,
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
        assert spec.weights(range(1, 2)).tolist() == [0.5]
        assert spec.weights(range(2, 7)).tolist() == [1.0] * 5

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
            with pytest.raises(RegimeError, match=r"\|mu\| must lie in \(0, 1\)"):
                fringe_operator(line_profile(), bad)


class TestWeights:
    """ShiftSpec.weights: |mu| to the exact drops M_{j-1} - M_j, over a range
    of descending edges."""

    def test_drop_beyond_float64_is_zero(self):
        profile = DiagramProfile(0, (0,), PeriodicTail(1, 10**400), PeriodicTail(1, 1))
        spec = fringe_operator(profile, 0.5)
        assert spec.weights(range(-3, 3)).tolist() == [0.0] * 4 + [0.5] * 2
        assert spec.weights(range(-2, 4)).tolist() == [0.0] * 3 + [0.5] * 3

    def test_drop_across_an_empty_row_is_zero(self):
        spec = fringe_operator(quarter_steps_profile(), 0.5)
        assert spec.weights(range(0, 1)).tolist() == [0.0]  # M_{-1} is +inf
        assert spec.weights(range(0, 3)).tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("value", [0, 10**400], ids=["0", "1e400"])
    def test_drop_across_an_empty_row_beside_a_huge_value_is_zero(self, value):
        """The drop is capped before +inf meets an int beyond float64."""
        profile = DiagramProfile(0, (value + 1, value), EMPTY_ROWS, PeriodicTail(1, 1))
        spec = fringe_operator(profile, 0.5)
        assert spec.weights(range(0, 4)).tolist() == [0.0, 0.5, 0.5, 0.5]

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    @pytest.mark.parametrize("di", [2**53 + 1, 10**30])
    def test_translation_keeps_every_weight(self, name, profile, di):
        spec = fringe_operator(profile, 0.3)
        moved = fringe_operator(translate(profile, di, 0), 0.3)
        top = int(spec.j_max) if spec.j_max != math.inf else 40
        js = range(max(spec.j_min, top - 80), top + 1)
        expected = spec.weights(js)
        assert moved.weights(js).tobytes() == expected.tobytes()
        assert [spec.weights(range(j, j + 1))[0] for j in js] == expected.tolist()

    def test_range_checks_read_the_ends(self):
        unilateral = fringe_operator(quarter_steps_profile(), 0.5)  # j_min = 0
        with pytest.raises(ValueError, match="index -1 outside the shift range"):
            unilateral.weights(range(-1, 5))
        adjoint = fringe_operator(wold_mixed_profile(), 0.5)  # j_max = 1
        with pytest.raises(ValueError, match="index 2 outside the shift range"):
            adjoint.weights(range(-5, 3))
        assert adjoint.weights(range(-5, 2)).tolist() == [1.0] * 6 + [0.5]
        finite = fringe_operator(DiagramProfile(0, (2, 1, 0), EMPTY_ROWS, FULL_ROWS), 0.5)
        with pytest.raises(ValueError, match="index 3 outside the shift range"):
            finite.weights(range(0, 4))
        assert finite.weights(range(0, 3)).tolist() == [0.0, 0.5, 0.5]
        assert finite.weights(range(0, 0)).tolist() == []

    @pytest.mark.parametrize("js, step", [(range(-4, 4, 2), 2), (range(4, -4, -1), -1)])
    def test_a_step_other_than_one_is_refused(self, js, step):
        """Edge rows are read as one run from js.start - 1, so any other step
        would read the wrong rows: on half_lines at |mu| = 0.5 the weights at
        -4, -2, 0, 2 are all 0.5, but the run -4..-1 reads 0.5, 1.0, 0.5, 1.0."""
        spec = fringe_operator(half_lines_profile(), 0.5)
        with pytest.raises(SpecError, match=f"step {step}"):
            spec.weights(js)
        assert [spec.weights(range(j, j + 1))[0] for j in range(-4, 4, 2)] == [0.5] * 4


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
            drops = spec.weights(range(start, start + n)).tolist()
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
        assert spec.kind is ShiftKind.FINITE_NILPOTENT
        assert sigma_ap_predict(spec, rb, 0.0).state is Membership.INSIDE
        for lam in (5e-324, 1e-300, 0.4, 1.0):
            assert sigma_ap_predict(spec, rb, lam).state is Membership.OUTSIDE

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

    @pytest.mark.parametrize(
        "log_offset,state",
        [
            (0.0, Membership.INSIDE),
            (5e-13, Membership.BOUNDARY),
            (-5e-13, Membership.BOUNDARY),
            (2e-12, Membership.OUTSIDE),
            (-2e-12, Membership.OUTSIDE),
        ],
    )
    def test_collar_around_a_radius(self, log_offset, state):
        """The circle |lambda| = 1/2 is closed; the collar is DEFAULT_TOL wide in log."""
        spec, rb = _fringe(line_profile())
        assert rb.i_minus_value == rb.r_minus_value == 0.5
        lam = 0.5 * math.exp(log_offset)
        assert (lam == 0.5) == (log_offset == 0.0)
        assert sigma_ap_predict(spec, rb, lam).state is state

    @pytest.mark.parametrize(
        "profile,kind,state",
        [
            (DiagramProfile(0, (1, 0), EMPTY_ROWS, PeriodicTail(2, 1)),
             ShiftKind.UNILATERAL, Membership.INSIDE),  # a disc holds its centre
            (line_profile(), ShiftKind.BILATERAL, Membership.OUTSIDE),
        ],
        ids=["unilateral", "bilateral"],
    )
    def test_lambda_zero(self, profile, kind, state):
        spec, rb = _fringe(profile)
        assert spec.kind is kind
        assert sigma_ap_predict(spec, rb, 0.0).state is state

    def test_empty_middle_interval(self):
        """The middle interval [r+, i-] is empty for half-lines (slope 1/2 behind,
        1 ahead), so the gap between the circles 1/2 and 2**-0.5 is out; with the
        slopes swapped it is the annulus between them."""
        spec, rb = _fringe(half_lines_profile())
        assert rb.r_plus_value > rb.i_minus_value
        swapped = DiagramProfile(0, (0,), PeriodicTail(1, 1), PeriodicTail(2, 1))
        spec_swapped, rb_swapped = _fringe(swapped)
        assert rb_swapped.r_plus_value < rb_swapped.i_minus_value
        for lam in (0.55, 0.6, 0.65, 0.7):
            assert sigma_ap_predict(spec, rb, lam).state is Membership.OUTSIDE
            assert sigma_ap_predict(spec_swapped, rb_swapped, lam).state is Membership.INSIDE

    def test_lambda_beyond_one_is_a_domain_error(self):
        spec, rb = _fringe(line_profile())
        with pytest.raises(RegimeError, match=r"\|lambda\| must lie in \[0, 1\]: 1.5"):
            sigma_ap_predict(spec, rb, 1.5)


class TestPpiCensus:
    """At mu = 0 the fringe shift is a power partial isometry."""

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_consistency_with_mu_zero_membership(self, name, profile):
        # On shift/shift profiles {|mu| = 0} x circle points lie in the final
        # locus exactly when an extreme exponent is zero.
        structure = validate(profile)
        params = compute_params(profile)
        region = gamma3_region(params, structure)
        if region.w_mixed or region.z_mixed:
            return
        member = region_member(region, 0.0, 0.7).state
        zero_extreme = params.delta_minus == ExtReal(0) or params.delta_plus == ExtReal(0)
        assert (member is Membership.INSIDE) == zero_extreme, name

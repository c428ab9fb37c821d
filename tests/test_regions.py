import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stairspec.diagram import transpose, validate
from stairspec.extnum import DEFAULT_TOL, BandDomainError, ExtReal, Membership
from stairspec.params import compute_params
from stairspec.regions import (
    CODE_STATES,
    RegionKind,
    RegionSpec,
    WoldCase,
    gamma2_region,
    gamma3_region,
    parts_consistency_check,
    region_member,
    region_states,
    taylor_region,
    wold_case,
)

from conftest import (
    canonical_nonsimple,
    gb01_profile,
    half_lines_profile,
    line_profile,
    quarter_steps_profile,
    wold_mixed_profile,
)
from membership_reference import exponent_pairs, square_points
from membership_reference import region_member as reference_member

FR = Fraction


def _ps(profile):
    return compute_params(profile), validate(profile)


class TestTaylor:
    def test_line_band_degenerate(self):
        t = taylor_region(compute_params(line_profile()))
        assert t.bands == ((ExtReal(1), ExtReal(1)),)
        assert region_member(t, 0.5, 0.5).state is Membership.BOUNDARY
        assert region_member(t, 0.5, 0.25).state is Membership.OUTSIDE

    def test_subset_of_quarter_plane_full_square(self):
        t = taylor_region(compute_params(quarter_steps_profile()))
        assert t.bands == ((ExtReal(0), ExtReal(None)),)
        for a in (0.0, 0.3, 1.0):
            for b in (0.0, 0.6, 1.0):
                assert region_member(t, a, b).state is Membership.INSIDE

    def test_half_lines_band(self):
        t = taylor_region(compute_params(half_lines_profile()))
        assert t.bands == ((ExtReal(FR(1, 2)), ExtReal(1)),)
        assert region_member(t, 0.4, 0.5).state is Membership.INSIDE
        assert region_member(t, 0.5, 0.8).state is Membership.OUTSIDE

    def test_rejects_points_outside_square(self):
        t = taylor_region(compute_params(half_lines_profile()))
        with pytest.raises(BandDomainError):
            region_member(t, 1.2, 0.5)
        with pytest.raises(BandDomainError):
            region_member(t, 0.5, -0.1)

    def test_rotation_invariance_via_modulus(self):
        t = taylor_region(compute_params(half_lines_profile()))
        rng = np.random.default_rng(3)
        base = region_member(t, 0.4, 0.5).state
        for _ in range(100):
            phase_mu = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            phase_lam = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            state = region_member(t, abs(0.4 * phase_mu), abs(0.5 * phase_lam)).state
            assert state is base

    def test_transpose_symmetry(self):
        for name, profile in canonical_nonsimple():
            if name == "gb01":
                continue  # zero-slope blocks have no transpose
            t = taylor_region(compute_params(profile))
            dual = taylor_region(compute_params(transpose(profile)))
            rng = np.random.default_rng(5)
            for _ in range(50):
                x, y = rng.uniform(0.05, 0.95, 2)
                direct = region_member(t, float(x), float(y)).state
                mirrored = region_member(dual, float(y), float(x)).state
                if Membership.BOUNDARY in (direct, mirrored):
                    continue
                assert direct is mirrored, name


class TestGamma2:
    def test_both_mixed_fills_open_square(self):
        g2 = gamma2_region(*_ps(wold_mixed_profile()))
        for a in (0.1, 0.5, 0.8):
            for b in (0.1, 0.5, 0.8):
                assert region_member(g2, a, b).state is Membership.INSIDE

    def test_line_band_is_empty_strictly(self):
        g2 = gamma2_region(*_ps(line_profile()))
        assert region_member(g2, 0.5, 0.5).state is Membership.BOUNDARY
        assert region_member(g2, 0.5, 0.6).state is Membership.OUTSIDE

    def test_gb_strict_interior(self):
        g2 = gamma2_region(*_ps(gb01_profile()))
        assert region_member(g2, 0.5, 0.5**0.8).state is Membership.INSIDE
        assert region_member(g2, 0.5, 0.5**0.5).state is Membership.OUTSIDE

    def test_axis_rules(self):
        g2 = gamma2_region(*_ps(wold_mixed_profile()))
        assert region_member(g2, 0.5, 0.0).state is Membership.INSIDE
        assert region_member(g2, 0.0, 0.5).state is Membership.INSIDE
        g2 = gamma2_region(*_ps(line_profile()))
        assert region_member(g2, 0.5, 0.0).state is Membership.OUTSIDE
        assert region_member(g2, 0.0, 0.5).state is Membership.OUTSIDE

    def test_torus_edges(self):
        g2 = gamma2_region(*_ps(wold_mixed_profile()))
        assert region_member(g2, 1.0, 0.5).state is Membership.OUTSIDE
        assert region_member(g2, 0.5, 1.0).state is Membership.OUTSIDE
        assert region_member(g2, 1.0, 1.0).state is Membership.BOUNDARY

    def test_origin_always_inside(self):
        for name, profile in canonical_nonsimple():
            g2 = gamma2_region(*_ps(profile))
            assert region_member(g2, 0.0, 0.0).state is Membership.INSIDE, name


class TestGamma3:
    def test_wold_cases(self):
        assert wold_case(validate(wold_mixed_profile())) is WoldCase.MIXED_MIXED
        assert wold_case(validate(line_profile())) is WoldCase.SHIFT_SHIFT
        assert wold_case(validate(quarter_steps_profile())) is WoldCase.SHIFT_SHIFT

    def test_both_mixed_torus_strips(self):
        g3 = gamma3_region(*_ps(wold_mixed_profile()))
        assert region_member(g3, 0.5, 0.5).state is Membership.OUTSIDE
        assert region_member(g3, 1.0, 0.3).state is Membership.INSIDE
        assert region_member(g3, 0.3, 1.0).state is Membership.INSIDE
        assert region_member(g3, 1.0, 1.0).state is Membership.BOUNDARY

    def test_line_collapses_to_diagonal(self):
        g3 = gamma3_region(*_ps(line_profile()))
        assert region_member(g3, 0.5, 0.5).state is Membership.BOUNDARY
        assert region_member(g3, 0.5, 0.8).state is Membership.OUTSIDE

    def test_gb_band_union(self):
        g3 = gamma3_region(*_ps(gb01_profile()))
        assert region_member(g3, 0.5, 0.7).state is Membership.INSIDE
        assert region_member(g3, 0.5, 0.3).state is Membership.OUTSIDE

    def test_origin_rule(self):
        for name, profile in canonical_nonsimple():
            state = region_member(gamma3_region(*_ps(profile)), 0.0, 0.0).state
            if name == "notched_plane":
                assert state is Membership.OUTSIDE, name
            else:
                assert state is Membership.INSIDE, name

    def test_mu_axis_matches_extreme_slopes(self):
        # {|mu| = 0, |lambda| in (0,1)} membership holds iff an extreme slope
        # vanishes, matching the flat-run census downstream.
        g3 = gamma3_region(*_ps(gb01_profile()))
        assert region_member(g3, 0.0, 0.7).state is Membership.INSIDE
        g3 = gamma3_region(*_ps(half_lines_profile()))
        assert region_member(g3, 0.0, 0.7).state is Membership.OUTSIDE


class TestNesting:
    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_gamma2_band_inside_taylor_band(self, name, profile):
        params, structure = _ps(profile)
        t, g2 = taylor_region(params), gamma2_region(params, structure)
        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = rng.uniform(0.02, 0.98, 2)
            if region_member(g2, float(a), float(b)).state is Membership.INSIDE:
                assert region_member(t, float(a), float(b)).state is not Membership.OUTSIDE


class TestPartsConsistency:
    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_random_samples(self, name, profile):
        params, structure = _ps(profile)
        rng = np.random.default_rng(17)
        samples = [tuple(map(float, rng.random(2))) for _ in range(1000)]
        report = parts_consistency_check(params, structure, samples)
        assert report.ok, (name, report.mismatches[:5])
        assert report.checked + report.skipped == 1000

    def test_line_diagonal_samples_are_skipped(self):
        params, structure = _ps(line_profile())
        samples = [(x, x) for x in np.linspace(0.05, 0.95, 40)]
        report = parts_consistency_check(params, structure, samples)
        assert report.checked == 0 and report.skipped == 40
        assert report.ok


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["taylor", "gamma2", "gamma3"])
    @pytest.mark.parametrize("profile", [line_profile(), wold_mixed_profile()],
                             ids=["line", "wold_mixed"])
    def test_rejected_by_both_evaluators(self, profile, kind, tol):
        params, structure = _ps(profile)
        region = {
            "taylor": taylor_region(params),
            "gamma2": gamma2_region(params, structure),
            "gamma3": gamma3_region(params, structure),
        }[kind]
        with pytest.raises(BandDomainError):
            region_member(region, 0.5, 0.6, tol)
        with pytest.raises(BandDomainError):
            region_states(region, np.array([0.5]), np.array([0.6]), tol)


# ---------------------------------------------------------------------------
# region_states and region_member against the scalar reference, code for code
# ---------------------------------------------------------------------------

_AXES = {  # Wold case -> (mu axis / t x D strip, lambda axis / D x t strip)
    WoldCase.MIXED_MIXED: (True, True),
    WoldCase.MIXED_W_SHIFT_Z: (True, False),
    WoldCase.SHIFT_W_MIXED_Z: (False, True),
    WoldCase.SHIFT_SHIFT: (False, False),
}
_GAMMA3_BANDS = {
    WoldCase.MIXED_MIXED: 0,
    WoldCase.MIXED_W_SHIFT_Z: 1,
    WoldCase.SHIFT_W_MIXED_Z: 1,
    WoldCase.SHIFT_SHIFT: 3,
}


@st.composite
def _regions(draw) -> RegionSpec:
    kind = draw(st.sampled_from(RegionKind))
    if kind is RegionKind.TAYLOR:
        return RegionSpec(kind, (tuple(sorted(draw(exponent_pairs))),))
    case = draw(st.sampled_from(WoldCase))
    first, second = _AXES[case]
    if kind is RegionKind.GAMMA2:
        return RegionSpec(kind, (draw(exponent_pairs),), include_mu_axis=first,
                          include_lambda_axis=second, wold_case=case)
    bands = tuple(draw(exponent_pairs) for _ in range(_GAMMA3_BANDS[case]))
    return RegionSpec(kind, bands, include_t_cross_d=first, include_d_cross_t=second,
                      origin_included=draw(st.booleans()), wold_case=case)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_region_states_matches_region_member(data):
    region = data.draw(_regions())
    exps = [e for pair in region.bands for e in pair] or [ExtReal(1)]
    points = data.draw(st.lists(square_points(exps), min_size=1, max_size=25))
    tol = data.draw(st.sampled_from([DEFAULT_TOL, 1e-6, 0.05]))
    a = np.array([x for x, _ in points])
    b = np.array([y for _, y in points])

    def reference(x, y):
        return reference_member(region, float(x), float(y), tol).state.rank

    for x, y in points:
        got = region_member(region, x, y, tol)
        assert got.state.rank == reference(x, y)
        assert got.tolerance_used == tol
    codes = region_states(region, a, b, tol)
    assert codes.dtype == np.int8
    assert codes.tolist() == [reference(x, y) for x, y in points]
    grid = region_states(region, a[:, None], b[None, :], tol)
    assert grid.tolist() == [[reference(x, y) for y in b] for x in a]


class TestRegionStates:
    def test_codes_follow_membership_rank(self):
        assert [state.rank for state in CODE_STATES] == [0, 1, 2]

    def test_broadcast_shapes(self):
        params, _ = _ps(half_lines_profile())
        region = taylor_region(params)
        assert region_states(region, 0.4, 0.5).shape == ()
        assert region_states(region, 0.4, 0.5) == Membership.INSIDE.rank
        ticks = np.linspace(0.0, 1.0, 7)
        assert region_states(region, ticks[:, None], ticks[None, :4]).shape == (7, 4)

    @pytest.mark.parametrize("b", [0.6, 0.4])
    def test_slack_equal_to_tolerance_is_resolved(self, b):
        # The collar is open: a slack of exactly +-tol is inside or outside.
        region = RegionSpec(RegionKind.TAYLOR, ((ExtReal(0), ExtReal(1)),))
        tol = abs(math.log(b) - math.log(0.5))
        state = region_member(region, 0.5, b, tol).state
        assert state is not Membership.BOUNDARY
        assert region_states(region, 0.5, b, tol) == state.rank

    @pytest.mark.parametrize("a,b", [(1.2, 0.5), (0.5, -0.1), (math.nan, 0.5), (0.5, math.nan)])
    def test_rejects_points_outside_square(self, a, b):
        params, structure = _ps(wold_mixed_profile())
        for region in (taylor_region(params), gamma2_region(params, structure),
                       gamma3_region(params, structure)):
            with pytest.raises(BandDomainError):
                region_states(region, np.array([0.3, a]), np.array([0.3, b]))

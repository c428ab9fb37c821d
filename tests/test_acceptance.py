"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values are produced by independent oracles (exact rational
predicates, prefix-average simulation, analytic areas, explicit witness
vectors) and frozen here; the criteria run at their stated tolerances.
"""

import time
from fractions import Fraction

import numpy as np

from stairspec.cli import main
from stairspec.diagram import (
    DiagramProfile,
    GeometricBlocksTail,
    PeriodicTail,
    transpose,
    validate,
)
from stairspec.extnum import Membership
from stairspec.oracle import (
    ScanVerdict,
    SeriesClass,
    gamma2_series_test,
    joint_adjoint_kernel_smin,
    window_smin_scan,
)
from stairspec.params import compute_params, estimate_params_bruteforce
from stairspec.regions import (
    gamma2_region,
    gamma3_region,
    parts_consistency_check,
    region_member,
    taylor_region,
)
from stairspec.shifts import fringe_operator, ridge_bounds, sigma_ap_predict

from conftest import (
    canonical_nonsimple,
    gb01_profile,
    half_lines_profile,
    line_profile,
    quarter_steps_profile,
    wold_mixed_profile,
)

FR = Fraction


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_line_diagram_spectrum():
    started = time.monotonic()
    failures = []
    grid = [FR(k, 100) for k in range(101)]
    for alpha, profile in [(1, line_profile(1, 1)), (2, line_profile(2, 1))]:
        params = compute_params(profile)
        inside_count = 0
        for a in grid:
            for b in grid:
                state = region_member(taylor_region(params), float(a), float(b)).state
                on_curve = b**alpha == a  # exact rational oracle
                if state is Membership.INSIDE:
                    inside_count += 1
                if on_curve != (state is Membership.BOUNDARY):
                    failures.append((alpha, float(a), float(b), state))
        if inside_count:
            failures.append((alpha, "inside_count", inside_count))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 5.0
    report(1, ok, f"alpha in {{1,2}}, 101x101 grids, {elapsed:.2f}s, failures={failures[:3]}")


def test_criterion_2_two_half_line_area(tmp_path):
    from conftest import SPEC_DIR

    started = time.monotonic()
    out = tmp_path / "grid.csv"
    code = main(
        ["sample", str(SPEC_DIR / "half_lines_1_2.json"), "--resolution", "201",
         "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    inside = sum(1 for row in rows if row.split(",")[2] == "in")
    fraction = inside / len(rows)
    elapsed = time.monotonic() - started
    ok = abs(fraction - 1.0 / 6.0) <= 0.02 and elapsed < 10.0
    report(2, ok, f"inside fraction {fraction:.4f} vs 1/6, {elapsed:.2f}s")


def test_criterion_3_full_bidisc_cases():
    rng = np.random.default_rng(0)
    details = []
    ok = True
    for name, profile in [
        ("quarter_steps", quarter_steps_profile()),
        ("wold_mixed", wold_mixed_profile()),
    ]:
        region = taylor_region(compute_params(profile))
        points = rng.random((100_000, 2))
        inside = sum(
            region_member(region, float(a), float(b)).state is Membership.INSIDE
            for a, b in points
        )
        fraction = inside / len(points)
        details.append(f"{name}={fraction:.4f}")
        ok = ok and abs(fraction - 1.0) <= 0.01
    report(3, ok, "area fractions " + ", ".join(details))


def test_criterion_4_transpose_duality():
    gb_a = GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1)
    gb_b = GeometricBlocksTail((FR(1, 3), FR(3), FR(1)), 2, 2)
    gb_c = GeometricBlocksTail((FR(2, 3), FR(5, 2)), 3, 1)
    suite = [
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
    ]
    bad = []
    for idx, profile in enumerate(suite):
        p = compute_params(profile)
        d = compute_params(transpose(profile))
        identities = [
            d.delta_plus == p.rho_minus.reciprocal(),
            d.rho_plus == p.delta_minus.reciprocal(),
            d.delta_minus == p.rho_plus.reciprocal(),
            d.rho_minus == p.delta_plus.reciprocal(),
        ]
        if not all(identities):
            bad.append(idx)
    ok = len(suite) >= 10 and not bad
    report(4, ok, f"{len(suite)} profiles, exact rational identities, bad={bad}")


def test_criterion_5_eta_closed_form_vs_bruteforce():
    cases = [
        ((FR(0), FR(1)), FR(2, 3)),
        ((FR(1, 2), FR(2)), FR(3, 2)),
        ((FR(0), FR(1), FR(3)), FR(2)),
    ]
    details = []
    ok = True
    for slopes, expected in cases:
        tail = GeometricBlocksTail(slopes, 2, 1)
        assert max(tail.cycle_end_averages()) == expected
        profile = DiagramProfile(0, (0,), tail, PeriodicTail(1, 1))
        est = estimate_params_bruteforce(profile, 1_000_000, 2)
        err = abs(est.eta_minus - float(expected))
        details.append(f"{[str(s) for s in slopes]}: err={err:.2e}")
        ok = ok and err <= 1e-3
    report(5, ok, "; ".join(details))


def test_criterion_6_parts_consistency():
    rng = np.random.default_rng(42)
    profiles = [
        ("line_slope1", line_profile()),
        ("half_lines", half_lines_profile()),
        ("gb01", gb01_profile()),
        ("wold_mixed", wold_mixed_profile()),
        ("quarter_steps", quarter_steps_profile()),
    ]
    total_mismatches = 0
    checked = 0
    for name, profile in profiles:
        params = compute_params(profile)
        structure = validate(profile)
        samples = [tuple(map(float, rng.random(2))) for _ in range(1000)]
        result = parts_consistency_check(params, structure, samples)
        total_mismatches += len(result.mismatches)
        checked += result.checked
    ok = total_mismatches == 0
    report(6, ok, f"5 profiles x 1000 samples, {checked} checked, {total_mismatches} mismatches")


def test_criterion_7_fringe_oracle_agreement():
    started = time.monotonic()
    line_spec = fringe_operator(line_profile(), 0.5)
    result_in = window_smin_scan(line_spec, 0.5, [256, 1024, 4096], j_scan=4)
    ok = (
        result_in.verdict is ScanVerdict.INSIDE_AP_SPECTRUM
        and result_in.smin_by_size[-1] < 1e-3
    )
    for lam in (0.8, 0.2):
        result_out = window_smin_scan(line_spec, lam, [256, 1024, 4096], j_scan=4)
        ok = ok and (
            result_out.verdict is ScanVerdict.OUTSIDE_AP_SPECTRUM
            and result_out.smin_by_size[-1] >= 5e-2
        )

    hl = half_lines_profile()
    spec = fringe_operator(hl, 0.5)
    bounds = ridge_bounds(spec, compute_params(hl))
    lams = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
            0.55, 0.6, 0.65, 2**-0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
    unresolved = 0
    mismatches = []
    for lam in lams:
        predicted = sigma_ap_predict(spec, bounds, lam).state
        scan = window_smin_scan(spec, lam, [256, 1024, 4096], j_scan=4096)
        if scan.verdict is ScanVerdict.UNRESOLVED:
            unresolved += 1
        elif scan.verdict is ScanVerdict.INSIDE_AP_SPECTRUM:
            if predicted is Membership.OUTSIDE:
                mismatches.append(lam)
        elif predicted is Membership.INSIDE:
            mismatches.append(lam)
    elapsed = time.monotonic() - started
    ok = ok and not mismatches and unresolved <= len(lams) * 0.2 and elapsed < 120.0
    report(
        7,
        ok,
        f"line smin(4096)={result_in.smin_by_size[-1]:.2e}; half-lines "
        f"{len(lams)} points, {unresolved} unresolved, mismatches={mismatches}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_t3_witness():
    smin_ladder = [
        joint_adjoint_kernel_smin(quarter_steps_profile(), 0.5, 0.5, (0, n, 0, n))
        for n in (10, 20, 40)
    ]
    ok = smin_ladder[-1] < 1e-6 and smin_ladder[0] > smin_ladder[-1]
    floors = [
        joint_adjoint_kernel_smin(wold_mixed_profile(), 0.5, 0.5, (-h, h, -h, h))
        for h in (10, 20, 40)
    ]
    ok = ok and all(value >= 0.1 for value in floors)
    report(
        8,
        ok,
        f"quarter ladder {['%.1e' % v for v in smin_ladder]}, "
        f"mixed floors {['%.3f' % v for v in floors]}",
    )


def test_criterion_9_origin_behavior():
    failures = []
    for name, profile in canonical_nonsimple():
        params = compute_params(profile)
        structure = validate(profile)
        g2 = region_member(gamma2_region(params, structure), 0.0, 0.0).state
        g3 = region_member(gamma3_region(params, structure), 0.0, 0.0).state
        if g2 is not Membership.INSIDE:
            failures.append((name, "gamma2", g2))
        expected_g3 = (
            Membership.OUTSIDE if name == "notched_plane" else Membership.INSIDE
        )
        if g3 is not expected_g3:
            failures.append((name, "gamma3", g3))
    report(9, not failures, f"origin states over {len(canonical_nonsimple())} profiles, failures={failures}")


def test_criterion_10_gamma2_series():
    profile = gb01_profile()
    params = compute_params(profile)
    structure = validate(profile)
    inside_lam = 0.5**0.8
    outside_lam = 0.5**0.5
    v_in = gamma2_series_test(profile, 0.5, inside_lam, 4096)
    v_out = gamma2_series_test(profile, 0.5, outside_lam, 4096)
    g2 = gamma2_region(params, structure)
    member_in = region_member(g2, 0.5, inside_lam).state
    member_out = region_member(g2, 0.5, outside_lam).state
    ok = (
        v_in.classification is SeriesClass.CONVERGES
        and member_in is Membership.INSIDE
        and v_out.classification is SeriesClass.DIVERGES
        and member_out is Membership.OUTSIDE
    )
    report(
        10,
        ok,
        f"lam=0.5^0.8 -> {v_in.classification.value}/{member_in.value}, "
        f"lam=0.5^0.5 -> {v_out.classification.value}/{member_out.value}",
    )

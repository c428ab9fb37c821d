"""Scalar reference for region membership, kept apart from the package.

This is the point evaluator the package shipped before membership had one
kernel: one exact branch per convention, evaluated step by step at a single
point.  Tests compare ``region_member``, ``region_states``, ``band_member``
and ``envelope_pair_member`` against it, on the exponents and points drawn
by ``exponent_pairs`` and ``square_points``; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from stairspec.extnum import (
    DEFAULT_TOL,
    EXT_INF,
    EXT_ZERO,
    BandMembership,
    ExtReal,
    Membership,
    RegimeError,
    check_tolerance,
    pow_ext,
)
from stairspec.regions import RegionKind, RegionSpec

exponents = st.one_of(
    st.sampled_from([EXT_ZERO, ExtReal(1), EXT_INF]),
    st.fractions(min_value=0, max_value=6, max_denominator=8).map(ExtReal),
)
# independent draws give ordered and crossed pairs, the second strategy equal ones
exponent_pairs = st.one_of(st.tuples(exponents, exponents), exponents.map(lambda e: (e, e)))


def square_points(exps: list[ExtReal]):
    """Points of the magnitude square, weighted toward its convention cells."""
    unit = st.floats(0.0, 1.0)
    ends = st.sampled_from([0.0, 1.0])
    on_envelope = st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(exps)).map(
        lambda ae: (ae[0], pow_ext(ae[0], ae[1]))
    )
    return st.one_of(
        st.tuples(ends, unit),  # |mu| = 0 axis and |mu| = 1 edge
        st.tuples(unit, ends),  # |lambda| = 0 axis and |lambda| = 1 edge
        st.tuples(ends, ends),  # corners
        on_envelope,
        st.tuples(unit, unit),
    )


_UNION_ORDER = (Membership.OUTSIDE, Membership.BOUNDARY, Membership.INSIDE)


def best_membership(*states: Membership) -> Membership:
    """Union semantics: a point is in a union if it is in any part."""
    return max(states, key=_UNION_ORDER.index)


def _check_magnitude(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise RegimeError(f"{name} must lie in [0, 1]: {value}")


def lower_slack(a: float, b: float, e: ExtReal) -> float:
    """Log-domain slack of the constraint a**e <= b (>= 0 means satisfied).

    Conventions: a = 0 always satisfies it (0**0 is declared satisfied and
    0**e = 0 otherwise), as does e = inf (a**inf = 0 for a < 1 and 1**inf is
    declared satisfied).
    """
    if a == 0.0:
        return math.inf
    if e.is_infinite:
        return math.inf
    if b == 0.0:
        return -math.inf  # a**e > 0 for a > 0, e < inf
    return math.log(b) - float(e) * math.log(a)


def upper_slack(a: float, b: float, e: ExtReal) -> float:
    """Log-domain slack of the constraint b <= a**e (>= 0 means satisfied)."""
    if not e.is_infinite and e == EXT_ZERO:
        if a == 0.0:
            return math.inf  # 0**0 declared satisfied
        return -math.log(b) if b > 0.0 else math.inf
    if e.is_infinite:
        if a == 1.0:
            return math.inf  # 1**inf declared satisfied
        return math.inf if b == 0.0 else -math.inf  # a**inf = 0 for a < 1
    if a == 0.0:
        return math.inf if b == 0.0 else -math.inf  # 0**e = 0
    if b == 0.0:
        return math.inf
    return float(e) * math.log(a) - math.log(b)


def _classify(min_slack: float, tol: float) -> Membership:
    if min_slack >= tol:
        return Membership.INSIDE
    if min_slack <= -tol:
        return Membership.OUTSIDE
    return Membership.BOUNDARY


def band_member(
    a: float, b: float, p: ExtReal, q: ExtReal, tol: float = DEFAULT_TOL
) -> BandMembership:
    """Tri-state membership of (a, b) in the closed band a**q <= b <= a**p.

    ``p`` is the exponent of the upper envelope and ``q`` of the lower one;
    since a <= 1 the band is nonempty exactly when p <= q, which is required.
    Indeterminate-form inequalities (0**0, 1**inf) count as satisfied, which
    makes the single formula cover the degenerate exponent combinations:

    * p = 0, q = inf: the whole square,
    * p = q = 0: the set {a = 0} union {b = 1},
    * p = q = inf: the set {a = 1} union {b = 0},
    * p = 0 < q < inf: only the lower constraint is active,
    * 0 < p < q = inf: only the upper constraint is active.

    Points whose binding constraint holds within log-domain slack ``tol``
    (on either side) are reported as boundary.
    """
    _check_magnitude("a", a)
    _check_magnitude("b", b)
    check_tolerance(tol)
    if q < p:
        raise RegimeError(f"band requires p <= q, got p={p}, q={q}")

    p_zero = not p.is_infinite and p == EXT_ZERO
    if p_zero and q.is_infinite:
        return BandMembership(Membership.INSIDE)
    if p_zero and q == EXT_ZERO:
        state = Membership.INSIDE if (a == 0.0 or b == 1.0) else Membership.OUTSIDE
        return BandMembership(state)
    if p.is_infinite:  # p = q = inf
        state = Membership.INSIDE if (a == 1.0 or b == 0.0) else Membership.OUTSIDE
        return BandMembership(state)

    if a == 0.0 and b == 0.0:
        # Both envelopes pinch to zero; the corner sits inside the band
        # exactly when the band has an opening (p < q), else on its edge.
        state = Membership.INSIDE if p < q else Membership.BOUNDARY
        return BandMembership(state)

    slacks = []
    if not q.is_infinite:
        slacks.append(lower_slack(a, b, q))
    if not p_zero:
        slacks.append(upper_slack(a, b, p))
    return BandMembership(_classify(min(slacks), tol))


def envelope_pair_member(
    a: float,
    b: float,
    lower_exp: ExtReal,
    upper_exp: ExtReal,
    tol: float = DEFAULT_TOL,
) -> BandMembership:
    """Membership for a**lower_exp <= b <= a**upper_exp without ordering checks.

    Used for envelope pairs that may cross (empty interior) and for open
    bands, where both constraints stay active even at exponent 0 or inf.
    Callers are expected to have dispatched corner conventions already.
    """
    _check_magnitude("a", a)
    _check_magnitude("b", b)
    slack = min(lower_slack(a, b, lower_exp), upper_slack(a, b, upper_exp))
    return BandMembership(_classify(slack, tol))


def _check_point(mu_abs: float, lambda_abs: float) -> None:
    if not 0.0 <= mu_abs <= 1.0:
        raise RegimeError(f"|mu| must lie in [0, 1]: {mu_abs}")
    if not 0.0 <= lambda_abs <= 1.0:
        raise RegimeError(f"|lambda| must lie in [0, 1]: {lambda_abs}")


def _band_eval(
    pair: tuple[ExtReal, ExtReal], a: float, b: float, tol: float
) -> BandMembership:
    p, q = pair
    if p <= q:
        return band_member(a, b, p, q, tol)
    return envelope_pair_member(a, b, lower_exp=q, upper_exp=p, tol=tol)


def region_member(
    region: RegionSpec, mu_abs: float, lambda_abs: float, tol: float = DEFAULT_TOL
) -> BandMembership:
    """Tri-state membership of a magnitude pair in a region."""
    check_tolerance(tol)
    _check_point(mu_abs, lambda_abs)
    a, b = mu_abs, lambda_abs

    if region.kind is RegionKind.TAYLOR:
        p, q = region.bands[0]
        return band_member(a, b, p, q, tol)

    if region.kind is RegionKind.GAMMA2:
        if a == 0.0 and b == 0.0:
            state = Membership.INSIDE if region.origin_included else Membership.OUTSIDE
            return BandMembership(state)
        if a == 1.0 and b == 1.0:
            return BandMembership(Membership.BOUNDARY)  # torus shell unresolved
        if a == 1.0 or b == 1.0:
            return BandMembership(Membership.OUTSIDE)
        if b == 0.0:
            state = Membership.INSIDE if region.w_mixed else Membership.OUTSIDE
            return BandMembership(state)
        if a == 0.0:
            state = (
                Membership.INSIDE if region.z_mixed else Membership.OUTSIDE
            )
            return BandMembership(state)
        eta_minus, eta_plus = region.bands[0]
        return envelope_pair_member(a, b, lower_exp=eta_plus, upper_exp=eta_minus, tol=tol)

    # final-stage locus
    if a == 1.0 and b == 1.0:
        return BandMembership(Membership.BOUNDARY)  # torus shell unresolved
    if a == 0.0 and b == 0.0:
        state = Membership.INSIDE if region.origin_included else Membership.OUTSIDE
        return BandMembership(state)
    states = []
    if region.w_mixed and a == 1.0:
        states.append(Membership.INSIDE)
    if region.z_mixed and b == 1.0:
        states.append(Membership.INSIDE)
    for pair in region.bands:
        states.append(_band_eval(pair, a, b, tol).state)
    if not states:
        states.append(Membership.OUTSIDE)
    return BandMembership(best_membership(*states))

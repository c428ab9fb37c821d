"""Weighted-shift reduction of the final-stage membership problem.

For 0 < |mu| < 1 the question whether a point belongs to the final-stage
failure locus reduces to an approximate-point-spectrum test for a weighted
shift whose weights are |mu| raised to consecutive border drops.  This
module builds that shift description, evaluates the exact spectral-radius
style bounds (geometric-mean asymptotics of weight products, which for these
weights are again |mu| to the spectral parameters), and predicts membership.
For mu = 0 the shift degenerates to a power partial isometry; the census
here records its backward/unilateral parts and the truncated-block gap
statistics that decide closed-range failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagram import (
    DiagramProfile,
    MValue,
    NEG_INF,
    POS_INF,
    m_exact,
    validate,
)
from .extnum import (
    DEFAULT_TOL,
    EXT_INF,
    BandMembership,
    ExtReal,
    Membership,
    RegimeError,
    best_membership,
    pow_ext,
)
from .params import SpectralParams, require_nonsimple


# Drops above this give weight 0.0: every float |mu| < 1 is at most
# 1 - 2**-53, and (1 - 2**-53)**(2**64) underflows.
_DROP_CAP = 2**64


class MuOutOfRangeError(RegimeError):
    """The shift reduction needs 0 < |mu| < 1."""


class ShiftKind(Enum):
    BILATERAL = "bilateral"
    UNILATERAL = "unilateral"
    UNILATERAL_ADJOINT = "unilateral_adjoint"
    FINITE_NILPOTENT = "finite_nilpotent"


@dataclass(frozen=True)
class ShiftSpec:
    """A weighted shift built from a profile and a magnitude |mu|.

    The weight at j follows the per-kind convention: |mu|**(M_j - M_{j+1})
    for bilateral and unilateral kinds (edge j -> j+1), |mu|**(M_{j-1} - M_j)
    for the adjoint kind (edge j -> j-1, defined for j <= j_max).  Phases are
    dropped throughout: every spectral set used downstream is rotation
    invariant, so only weight magnitudes matter.  The down weight at j is the
    uniform descending-edge magnitude |mu|**(M_{j-1} - M_j) used to assemble
    truncated matrices of the dual operator.  ``weights`` is the one place
    that turns drops into weights.
    """

    kind: ShiftKind
    mu_abs: float
    profile: DiagramProfile
    j_min: MValue
    j_max: MValue

    def weights(self, js: range, down: bool = False) -> np.ndarray:
        """The weight, or the down weight if ``down``, at every j in ``js``.

        ``js`` is a range of step 1.  The border rows of its edges come from
        one exact evaluation, and each weight is |mu| to the exact integer
        drop.  A drop across an empty row (+inf), or one too large for a
        float, gives 0.0: it is capped at ``_DROP_CAP`` first.
        """
        adjoint = self.kind is ShiftKind.UNILATERAL_ADJOINT
        if js:
            first, last = js[0], js[-1]
            if adjoint and not down:
                if last > self.j_max:
                    raise ValueError(f"index {last} above the shift range")
            elif first < self.j_min or last > self.j_max:
                bad = first if first < self.j_min else last
                raise ValueError(f"index {bad} outside the shift range")
            elif not down and last + 1 > self.j_max:
                raise ValueError(f"edge {last} -> {last + 1} leaves the shift range")
        top = js.start if down or adjoint else js.start + 1  # edges (t - 1, t) from t = top
        rows = m_exact(self.profile, range(top - 1, top + len(js)))
        if rows.dtype == object and js:  # row 0 alone can be empty; inf - huge int overflows
            rows[0] = min(rows[0], rows[1] + _DROP_CAP)
        drops = rows[:-1] - rows[1:]
        if drops.dtype == object:
            drops = np.minimum(drops, _DROP_CAP).astype(np.float64)
        return np.power(self.mu_abs, drops)


def fringe_operator(profile: DiagramProfile, mu_abs: float) -> ShiftSpec:
    """The shift governing final-stage membership at magnitude |mu| in (0,1).

    The kind tracks where the border sequence stays finite: bilateral when it
    is finite on both sides, unilateral (adjoint) when it ends below (above),
    and a finite nilpotent block when it is finite on a bounded range only;
    in the last case membership holds exactly at lambda = 0 and no matrix
    oracle is needed.
    """
    structure = validate(profile)
    if not 0.0 < mu_abs < 1.0:
        raise MuOutOfRangeError(f"|mu| must lie in (0, 1): {mu_abs}")
    require_nonsimple(structure)
    j0, j1 = structure.j0, structure.j1
    if j0 == NEG_INF and j1 == POS_INF:
        kind = ShiftKind.BILATERAL
    elif j0 == NEG_INF:
        kind = ShiftKind.UNILATERAL_ADJOINT
    elif j1 == POS_INF:
        kind = ShiftKind.UNILATERAL
    else:
        kind = ShiftKind.FINITE_NILPOTENT
    return ShiftSpec(kind=kind, mu_abs=mu_abs, profile=profile, j_min=j0, j_max=j1)


@dataclass(frozen=True)
class RidgeBounds:
    """Exact geometric-mean bounds for the dual shift, as (|mu|, exponent).

    For the bilateral kind these are the two-sided inf/sup product limits of
    the adjoint shift; for one-sided kinds both slots of a pair carry the
    single relevant value.  ``i`` bounds never exceed their ``r`` partners.
    """

    mu_abs: float
    i_minus: ExtReal
    i_plus: ExtReal
    r_minus: ExtReal
    r_plus: ExtReal
    kind: ShiftKind

    @property
    def i_minus_value(self) -> float:
        return pow_ext(self.mu_abs, self.i_minus)

    @property
    def i_plus_value(self) -> float:
        return pow_ext(self.mu_abs, self.i_plus)

    @property
    def r_minus_value(self) -> float:
        return pow_ext(self.mu_abs, self.r_minus)

    @property
    def r_plus_value(self) -> float:
        return pow_ext(self.mu_abs, self.r_plus)

    def to_json(self) -> dict:
        return {
            "mu_abs": self.mu_abs,
            "i_minus": {"exponent": str(self.i_minus), "value": self.i_minus_value},
            "i_plus": {"exponent": str(self.i_plus), "value": self.i_plus_value},
            "r_minus": {"exponent": str(self.r_minus), "value": self.r_minus_value},
            "r_plus": {"exponent": str(self.r_plus), "value": self.r_plus_value},
        }


# The SpectralParams fields of (i_minus, i_plus, r_minus, r_plus) per kind.
_RIDGE_FIELDS = {
    ShiftKind.BILATERAL: ("rho_plus", "rho_minus", "delta_plus", "delta_minus"),
    ShiftKind.UNILATERAL_ADJOINT: ("rho_minus",) * 2 + ("delta_minus",) * 2,
    ShiftKind.UNILATERAL: ("rho_plus",) * 2 + ("delta_plus",) * 2,
    ShiftKind.FINITE_NILPOTENT: None,  # all four bounds infinite
}


def ridge_bounds(spec: ShiftSpec, params: SpectralParams) -> RidgeBounds:
    """Map the spectral parameters onto the dual shift's product bounds.

    Since |mu| < 1, sup/inf of |mu|**(average drop) swap with inf/sup of the
    drops, so the bounds come out as |mu| raised to the exact parameters:
    bilateral dual has i^- = mu**rho_plus, i^+ = mu**rho_minus,
    r^- = mu**delta_plus, r^+ = mu**delta_minus; the one-sided kinds keep
    the pair from their finite side.
    """
    fields = _RIDGE_FIELDS[spec.kind]
    exponents = [EXT_INF] * 4 if fields is None else [getattr(params, f) for f in fields]
    return RidgeBounds(spec.mu_abs, *exponents, kind=spec.kind)


def _radius_interval_member(
    lambda_abs: float, mu_abs: float, lo_exp: ExtReal, hi_exp: ExtReal, tol: float
) -> Membership:
    """Closed-interval membership of a radius in [|mu|**lo_exp, |mu|**hi_exp].

    Points in the interval (including its endpoints) are inside; points whose
    violation is below ``tol`` in the log domain are boundary.  An empty
    interval (lo > hi) admits no members.  Only an infinite ``lo_exp`` puts
    0 in: a lower end that underflows to 0.0 is still positive.
    """
    lo, hi = pow_ext(mu_abs, lo_exp), pow_ext(mu_abs, hi_exp)
    if lambda_abs == 0.0:
        slack = math.inf if lo_exp.is_infinite else -math.inf
    else:
        lower = math.inf if lo == 0.0 else math.log(lambda_abs) - math.log(lo)
        upper = -math.inf if hi == 0.0 else math.log(hi) - math.log(lambda_abs)
        slack = min(lower, upper)
    if slack >= 0.0:
        return Membership.INSIDE
    if slack > -tol:
        return Membership.BOUNDARY
    return Membership.OUTSIDE


def sigma_ap_predict(
    spec: ShiftSpec,
    bounds: RidgeBounds,
    lambda_abs: float,
    tol: float = DEFAULT_TOL,
) -> BandMembership:
    """Predicted approximate-point-spectrum membership of |lambda|.

    The prediction covers the operator whose boundedness below decides
    final-stage membership: the descending dual of the fringe shift.
    Bilateral: union of the three radius intervals [i^+, r^+], [r^+, i^-],
    [i^-, r^-] (the middle one may be empty).  Unilateral: the closed disc
    of radius r.  Unilateral adjoint: the annulus [i, r].  Finite nilpotent:
    the single point 0.  These are genuine closed sets, so exact members
    (even on a degenerate circle) report inside; the boundary state is the
    thin outside collar within log-domain ``tol``.
    """
    if not 0.0 <= lambda_abs <= 1.0:
        raise ValueError(f"|lambda| must lie in [0, 1]: {lambda_abs}")
    if spec.kind is ShiftKind.FINITE_NILPOTENT:
        state = Membership.INSIDE if lambda_abs == 0.0 else Membership.OUTSIDE
        return BandMembership(state, tol)
    b = bounds
    if spec.kind is ShiftKind.UNILATERAL:
        intervals = ((EXT_INF, b.r_minus),)  # the disc: |mu|**inf = 0
    elif spec.kind is ShiftKind.UNILATERAL_ADJOINT:
        intervals = ((b.i_minus, b.r_minus),)
    else:
        intervals = ((b.i_plus, b.r_plus), (b.r_plus, b.i_minus), (b.i_minus, b.r_minus))
    states = (_radius_interval_member(lambda_abs, b.mu_abs, lo, hi, tol) for lo, hi in intervals)
    return BandMembership(best_membership(*states), tol)


@dataclass(frozen=True)
class PpiCensus:
    """Census of the mu = 0 power partial isometry.

    ``index_histogram`` maps truncated-block index (gap between consecutive
    border drops) to its multiplicity within the scanned range; the
    unboundedness flag is decided symbolically from the tails so it reflects
    the whole diagram, not just the scan.
    """

    has_backward: bool
    has_unilateral: bool
    truncated_indices_unbounded: bool
    index_histogram: dict[int, int]


def ppi_census(profile: DiagramProfile, scan: int) -> PpiCensus:
    """Drop positions and gap statistics over [-scan, scan].

    A backward-shift part exists exactly when the minus tail stops dropping
    (constant rows below); a unilateral part when the plus tail does.  Gap
    lengths are unbounded exactly when a tail keeps producing arbitrarily
    long flat runs: a zero-rise periodic tail or geometric blocks containing
    a zero slope.
    """
    validate(profile)
    if scan < 1:
        raise ValueError("scan must be >= 1")
    rows = m_exact(profile, range(-scan, scan + 1)).tolist()
    drops = [
        j
        for j, mj, mnext in zip(range(-scan, scan), rows, rows[1:])
        if isinstance(mj, int) and mj > mnext
    ]
    histogram: dict[int, int] = {}
    for left, right in zip(drops, drops[1:]):
        gap = right - left
        histogram[gap] = histogram.get(gap, 0) + 1
    unbounded = (
        profile.minus_tail.unbounded_flat_runs()
        or profile.plus_tail.unbounded_flat_runs()
    )
    return PpiCensus(
        has_backward=profile.minus_tail.is_rise_zero(),
        has_unilateral=profile.plus_tail.is_rise_zero(),
        truncated_indices_unbounded=unbounded,
        index_histogram=histogram,
    )

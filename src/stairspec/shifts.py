"""Weighted-shift reduction of the final-stage membership problem.

For 0 < |mu| < 1 the question whether a point belongs to the final-stage
failure locus reduces to an approximate-point-spectrum test for a weighted
shift whose weights are |mu| raised to consecutive border drops.  This
module builds that shift description, evaluates the exact spectral-radius
style bounds (geometric-mean asymptotics of weight products, which for these
weights are again |mu| to the spectral parameters), and predicts membership.
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
    _ANSWERS,
    _BOUNDARY,
    _IN,
    _OUT,
    DEFAULT_TOL,
    EXT_INF,
    BandMembership,
    ExtReal,
    SpecError,
    check_magnitude,
    pow_ext,
)
from .params import SpectralParams, require_nonsimple


# Drops above this give weight 0.0: every float |mu| < 1 is at most
# 1 - 2**-53, and (1 - 2**-53)**(2**64) underflows.
_DROP_CAP = 2**64


class ShiftKind(Enum):
    BILATERAL = "bilateral"
    UNILATERAL = "unilateral"
    UNILATERAL_ADJOINT = "unilateral_adjoint"
    FINITE_NILPOTENT = "finite_nilpotent"


@dataclass(frozen=True)
class ShiftSpec:
    """A weighted shift built from a profile and a magnitude |mu|.

    The weight at j is the descending-edge magnitude |mu|**(M_{j-1} - M_j)
    of edge j -> j-1, for every kind: the dual operator whose truncated
    matrices the oracle assembles is read off these weights directly.
    Phases are dropped throughout: every spectral set used downstream is
    rotation invariant, so only weight magnitudes matter.  ``weights`` is
    the one place that turns drops into weights.
    """

    kind: ShiftKind
    mu_abs: float
    profile: DiagramProfile
    j_min: MValue
    j_max: MValue

    def weights(self, js: range) -> np.ndarray:
        """The weight |mu|**(M_{j-1} - M_j) at every j in ``js``.

        ``js`` is a range of step 1 inside [j_min, j_max]; another step
        raises ``SpecError``.  The border rows of its edges come from one
        exact evaluation, and each weight is |mu| to the exact integer drop.
        A drop across an empty row (+inf), or one too large for a float,
        gives 0.0: it is capped at ``_DROP_CAP`` first.
        """
        if js.step != 1:
            raise SpecError(f"weights need a range of step 1, got step {js.step}")
        if js and (js[0] < self.j_min or js[-1] > self.j_max):
            bad = js[0] if js[0] < self.j_min else js[-1]
            raise SpecError(f"index {bad} outside the shift range")
        rows = m_exact(self.profile, range(js.start - 1, js.start + len(js)))
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
    check_magnitude("|mu|", mu_abs, open=True)
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
    return RidgeBounds(spec.mu_abs, *exponents)


def _radius_interval_code(
    lambda_abs: float, mu_abs: float, lo_exp: ExtReal, hi_exp: ExtReal
) -> int:
    """Closed-interval membership code of a radius in [|mu|**lo_exp, |mu|**hi_exp].

    Points in the interval (including its endpoints) are inside; points whose
    violation is below ``DEFAULT_TOL`` in the log domain are boundary.  An empty
    interval (lo > hi) admits no members.  Only an infinite ``lo_exp`` puts
    0 in: a lower end that underflows to 0.0 is still positive.  The ends are
    ``pow_ext``'s float power; ``fringe_operator`` has range-checked |mu|.
    """
    lo_float = float(lo_exp)  # inf exactly when lo_exp is: finite values saturate
    lo, hi = mu_abs ** lo_float, mu_abs ** float(hi_exp)
    if lambda_abs == 0.0:
        slack = math.inf if lo_float == math.inf else -math.inf
    else:
        lower = math.inf if lo == 0.0 else math.log(lambda_abs) - math.log(lo)
        upper = -math.inf if hi == 0.0 else math.log(hi) - math.log(lambda_abs)
        slack = min(lower, upper)
    if slack >= 0.0:
        return _IN
    if slack > -DEFAULT_TOL:
        return _BOUNDARY
    return _OUT


def sigma_ap_predict(spec: ShiftSpec, bounds: RidgeBounds, lambda_abs: float) -> BandMembership:
    """Predicted approximate-point-spectrum membership of |lambda|.

    The prediction covers the operator whose boundedness below decides
    final-stage membership: the descending dual of the fringe shift.
    Bilateral: union of the three radius intervals [i^+, r^+], [r^+, i^-],
    [i^-, r^-] (the middle one may be empty).  Unilateral: the closed disc
    of radius r.  Unilateral adjoint: the annulus [i, r].  Finite nilpotent:
    the single point 0.  These are genuine closed sets, so exact members
    (even on a degenerate circle) report inside; the boundary state is the
    thin outside collar within ``DEFAULT_TOL`` in the log domain.  Answers
    are the shared values of ``region_member``, one per code.
    """
    check_magnitude("|lambda|", lambda_abs)
    b = bounds
    if spec.kind is ShiftKind.UNILATERAL:
        intervals = ((EXT_INF, b.r_minus),)  # the disc: |mu|**inf = 0
    elif spec.kind in (ShiftKind.UNILATERAL_ADJOINT, ShiftKind.FINITE_NILPOTENT):
        # a finite block's bounds are all inf: the one point |mu|**inf = 0
        intervals = ((b.i_minus, b.r_minus),)
    else:
        intervals = ((b.i_plus, b.r_plus), (b.r_plus, b.i_minus), (b.i_minus, b.r_minus))
    # a union: a point is in it if it is in any part
    return _ANSWERS[max([_radius_interval_code(lambda_abs, b.mu_abs, lo, hi)
                         for lo, hi in intervals])]

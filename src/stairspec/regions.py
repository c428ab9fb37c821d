"""Symbolic spectral regions and point membership on the magnitude square.

Three region kinds are exposed for a non-simple profile, all rotation
invariant and therefore described entirely on (|mu|, |lambda|) in [0,1]^2:

* the joint spectrum: one closed exponent band between min(delta) and
  max(rho), exact everywhere including the degenerate-exponent conventions;
* the middle-stage failure locus: the open band between the two running
  average exponents, plus axis rules driven by the Wold decomposition of
  each isometry, plus the origin;
* the final-stage failure locus: one of four shapes keyed by the Wold types,
  built from closed bands and torus strips.

The last two are determined by the structure theory only up to the torus
shell (and up to a closed-versus-open layer for the middle stage), so
membership is tri-state: points inside the unresolved layer report as
boundary, never as inside or outside.

Two evaluators share these semantics.  ``region_member`` answers one point
in exact scalar steps and is the reference; ``region_states`` answers whole
arrays of points at once as int8 codes (0 out, 1 boundary, 2 in, the
``Membership.rank`` order) and serves grids, rasters and sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagram import StructureReport, WoldType
from .extnum import (
    DEFAULT_TOL,
    BandDomainError,
    BandMembership,
    ExtReal,
    Membership,
    band_member,
    best_membership,
    check_tolerance,
    envelope_pair_member,
)
from .params import SpectralParams


class RegionKind(Enum):
    TAYLOR = "taylor"
    GAMMA2 = "gamma2"
    GAMMA3 = "gamma3"


class WoldCase(Enum):
    MIXED_MIXED = "mixed_mixed"
    MIXED_W_SHIFT_Z = "mixed_w_shift_z"
    SHIFT_W_MIXED_Z = "shift_w_mixed_z"
    SHIFT_SHIFT = "shift_shift"


@dataclass(frozen=True)
class RegionSpec:
    """Evaluable description of one region.

    ``bands`` holds (upper_exp, lower_exp) pairs: the band is
    a**lower_exp <= b <= a**upper_exp on (a, b) = (|mu|, |lambda|).  The
    middle band of the shift/shift case may be crossed (upper > lower); it
    is then empty away from convention cells and is evaluated as a raw
    envelope pair.  Axis and torus flags add the strip components.
    """

    kind: RegionKind
    bands: tuple[tuple[ExtReal, ExtReal], ...]
    include_t_cross_d: bool = False  # {|mu| = 1}
    include_d_cross_t: bool = False  # {|lambda| = 1}
    include_mu_axis: bool = False  # {|lambda| = 0}, middle stage only
    include_lambda_axis: bool = False  # {|mu| = 0}, middle stage only
    origin_included: bool = True
    wold_case: WoldCase | None = None


def wold_case(structure: StructureReport) -> WoldCase:
    w_mixed = structure.wold_w is WoldType.MIXED_UNITARY_AND_SHIFT
    z_mixed = structure.wold_z is WoldType.MIXED_UNITARY_AND_SHIFT
    if w_mixed and z_mixed:
        return WoldCase.MIXED_MIXED
    if w_mixed:
        return WoldCase.MIXED_W_SHIFT_Z
    if z_mixed:
        return WoldCase.SHIFT_W_MIXED_Z
    return WoldCase.SHIFT_SHIFT


def _require_nonsimple(structure: StructureReport) -> None:
    if structure.is_simple:
        raise ValueError("regions are only defined for non-simple diagrams")


def taylor_region(params: SpectralParams) -> RegionSpec:
    """The joint spectrum: the closed band (min delta, max rho)."""
    p = min(params.delta_minus, params.delta_plus)
    q = max(params.rho_minus, params.rho_plus)
    return RegionSpec(kind=RegionKind.TAYLOR, bands=((p, q),))


def taylor_member(
    params: SpectralParams, mu_abs: float, lambda_abs: float, tol: float = DEFAULT_TOL
) -> BandMembership:
    region = taylor_region(params)
    p, q = region.bands[0]
    return band_member(mu_abs, lambda_abs, p, q, tol)


def gamma2_region(params: SpectralParams, structure: StructureReport) -> RegionSpec:
    """Middle-stage failure locus: open band (eta_plus, eta_minus) + axes."""
    _require_nonsimple(structure)
    return RegionSpec(
        kind=RegionKind.GAMMA2,
        bands=((params.eta_minus, params.eta_plus),),
        include_mu_axis=structure.wold_w is WoldType.MIXED_UNITARY_AND_SHIFT,
        include_lambda_axis=structure.wold_z is WoldType.MIXED_UNITARY_AND_SHIFT,
        origin_included=True,
        wold_case=wold_case(structure),
    )


def _is_notched_plane(structure: StructureReport) -> bool:
    # Non-simple with no outer corners: the plane-minus-a-quadrant class.
    from .diagram import DefectClass

    return structure.defect_class is DefectClass.NON_POSITIVE


def gamma3_region(params: SpectralParams, structure: StructureReport) -> RegionSpec:
    """Final-stage failure locus, keyed by the Wold types of the pair."""
    _require_nonsimple(structure)
    case = wold_case(structure)
    if case is WoldCase.MIXED_MIXED:
        return RegionSpec(
            kind=RegionKind.GAMMA3,
            bands=(),
            include_t_cross_d=True,
            include_d_cross_t=True,
            origin_included=not _is_notched_plane(structure),
            wold_case=case,
        )
    if case is WoldCase.MIXED_W_SHIFT_Z:
        bands = ((params.delta_minus, params.rho_minus),)
        return RegionSpec(
            kind=RegionKind.GAMMA3,
            bands=bands,
            include_t_cross_d=True,
            origin_included=True,
            wold_case=case,
        )
    if case is WoldCase.SHIFT_W_MIXED_Z:
        bands = ((params.delta_plus, params.rho_plus),)
        return RegionSpec(
            kind=RegionKind.GAMMA3,
            bands=bands,
            include_d_cross_t=True,
            origin_included=True,
            wold_case=case,
        )
    bands = (
        (params.delta_minus, params.rho_minus),
        (params.rho_plus, params.delta_minus),  # middle pair, possibly crossed
        (params.delta_plus, params.rho_plus),
    )
    return RegionSpec(
        kind=RegionKind.GAMMA3, bands=bands, origin_included=True, wold_case=case
    )


def _check_point(mu_abs: float, lambda_abs: float) -> None:
    if not 0.0 <= mu_abs <= 1.0:
        raise BandDomainError(f"|mu| must lie in [0, 1]: {mu_abs}")
    if not 0.0 <= lambda_abs <= 1.0:
        raise BandDomainError(f"|lambda| must lie in [0, 1]: {lambda_abs}")


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
            return BandMembership(Membership.INSIDE, tol)
        if a == 1.0 and b == 1.0:
            return BandMembership(Membership.BOUNDARY, tol)  # torus shell unresolved
        if a == 1.0 or b == 1.0:
            return BandMembership(Membership.OUTSIDE, tol)
        if b == 0.0:
            state = Membership.INSIDE if region.include_mu_axis else Membership.OUTSIDE
            return BandMembership(state, tol)
        if a == 0.0:
            state = (
                Membership.INSIDE if region.include_lambda_axis else Membership.OUTSIDE
            )
            return BandMembership(state, tol)
        eta_minus, eta_plus = region.bands[0]
        return envelope_pair_member(a, b, lower_exp=eta_plus, upper_exp=eta_minus, tol=tol)

    # final-stage locus
    if a == 1.0 and b == 1.0:
        return BandMembership(Membership.BOUNDARY, tol)  # torus shell unresolved
    if a == 0.0 and b == 0.0:
        state = Membership.INSIDE if region.origin_included else Membership.OUTSIDE
        return BandMembership(state, tol)
    states = []
    if region.include_t_cross_d and a == 1.0:
        states.append(Membership.INSIDE)
    if region.include_d_cross_t and b == 1.0:
        states.append(Membership.INSIDE)
    for pair in region.bands:
        states.append(_band_eval(pair, a, b, tol).state)
    if not states:
        states.append(Membership.OUTSIDE)
    return BandMembership(best_membership(*states), tol)


# ---------------------------------------------------------------------------
# Array evaluation: the same rules as region_member, one mask per convention
# ---------------------------------------------------------------------------

CODE_STATES = (Membership.OUTSIDE, Membership.BOUNDARY, Membership.INSIDE)
"""Membership of each int8 code returned by ``region_states``."""

_OUT, _BOUNDARY, _IN = (state.rank for state in CODE_STATES)


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log`` with log(0) = -inf.

    The scalar path calls libm's log; numpy's vectorized log differs from it
    by one ulp on a fraction of a percent of inputs, so the same libm call is
    made here to keep every slack the same double as in ``region_member``.
    """
    values = [math.log(v) if v > 0.0 else -math.inf for v in x.ravel().tolist()]
    return np.array(values, dtype=float).reshape(x.shape)


@dataclass(frozen=True)
class _Cells:
    """Magnitude arrays, their logs and the convention masks of one call.

    Each field keeps the shape of its own input; numpy broadcasts them
    against each other, so a grid needs one log per tick, not per cell.
    """

    shape: tuple[int, ...]
    log_a: np.ndarray
    log_b: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    @classmethod
    def of(cls, mu_abs, lambda_abs) -> "_Cells":
        a = np.asarray(mu_abs, dtype=float)
        b = np.asarray(lambda_abs, dtype=float)
        for name, x in (("|mu|", a), ("|lambda|", b)):
            bad = ~((x >= 0.0) & (x <= 1.0))  # also catches NaN
            if bad.any():
                raise BandDomainError(f"{name} must lie in [0, 1]: {x[bad][0]}")
        return cls(
            shape=np.broadcast_shapes(a.shape, b.shape),
            log_a=_log(a),
            log_b=_log(b),
            a0=a == 0.0,
            a1=a == 1.0,
            b0=b == 0.0,
            b1=b == 1.0,
        )

    def full(self, value) -> np.ndarray:
        return np.full(self.shape, value)


def _lower_slacks(cells: _Cells, e: ExtReal) -> np.ndarray:
    """Array form of ``extnum.lower_slack`` (a**e <= b)."""
    if e.is_infinite:
        return cells.full(math.inf)
    with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf on masked cells
        slack = cells.log_b - e.as_float() * cells.log_a
    slack = np.where(cells.b0, -math.inf, slack)
    return np.where(cells.a0, math.inf, slack)


def _upper_slacks(cells: _Cells, e: ExtReal) -> np.ndarray:
    """Array form of ``extnum.upper_slack`` (b <= a**e)."""
    if e.is_infinite:
        return np.where(cells.a1 | cells.b0, math.inf, -math.inf)
    if e == 0:
        # -log(b), which is +inf at b = 0; 0**0 is declared satisfied.
        return np.where(cells.a0, math.inf, -cells.log_b)
    with np.errstate(invalid="ignore"):  # inf - inf on masked cells
        slack = e.as_float() * cells.log_a - cells.log_b
    slack = np.where(cells.a0, -math.inf, slack)
    return np.where(cells.b0, math.inf, slack)


def _classify_slacks(slack: np.ndarray, tol: float) -> np.ndarray:
    return np.where(slack >= tol, _IN, np.where(slack <= -tol, _OUT, _BOUNDARY))


def _band_states(cells: _Cells, p: ExtReal, q: ExtReal, tol: float) -> np.ndarray:
    """Array form of ``extnum.band_member`` for a checked band p <= q."""
    p_zero = p == 0
    if p_zero and q.is_infinite:
        return cells.full(_IN)
    if p_zero and q == 0:
        return np.where(cells.a0 | cells.b1, _IN, _OUT)
    if p.is_infinite:
        return np.where(cells.a1 | cells.b0, _IN, _OUT)
    if q.is_infinite:
        slack = _upper_slacks(cells, p)
    elif p_zero:
        slack = _lower_slacks(cells, q)
    else:
        slack = np.minimum(_lower_slacks(cells, q), _upper_slacks(cells, p))
    corner = _IN if p < q else _BOUNDARY
    return np.where(cells.a0 & cells.b0, corner, _classify_slacks(slack, tol))


def _envelope_states(
    cells: _Cells, lower_exp: ExtReal, upper_exp: ExtReal, tol: float
) -> np.ndarray:
    """Array form of ``extnum.envelope_pair_member``."""
    slack = np.minimum(_lower_slacks(cells, lower_exp), _upper_slacks(cells, upper_exp))
    return _classify_slacks(slack, tol)


def region_states(
    region: RegionSpec, mu_abs, lambda_abs, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Tri-state codes of a region over broadcast arrays of magnitudes.

    Returns an int8 array of the broadcast shape of ``mu_abs`` and
    ``lambda_abs`` holding 0 (out), 1 (boundary) or 2 (in), the
    ``Membership.rank`` of the answer ``region_member`` gives at each point;
    ``CODE_STATES`` maps codes back to ``Membership``.  Every convention cell
    (indeterminate forms, degenerate bands, axes, torus edges, corners) is a
    mask applied over the band formula, in the scalar path's order of
    precedence.  Raises ``BandDomainError`` if any magnitude lies outside
    [0, 1] or is NaN, or if ``tol`` is not positive and finite.
    """
    check_tolerance(tol)
    return _region_codes(region, _Cells.of(mu_abs, lambda_abs), tol).astype(np.int8)


def _region_codes(region: RegionSpec, cells: _Cells, tol: float) -> np.ndarray:
    if region.kind is RegionKind.TAYLOR:
        p, q = region.bands[0]
        if q < p:
            raise BandDomainError(f"band requires p <= q, got p={p}, q={q}")
        return _band_states(cells, p, q, tol)

    if region.kind is RegionKind.GAMMA2:
        eta_minus, eta_plus = region.bands[0]
        codes = _envelope_states(cells, lower_exp=eta_plus, upper_exp=eta_minus, tol=tol)
        codes = np.where(cells.a0, _IN if region.include_lambda_axis else _OUT, codes)
        codes = np.where(cells.b0, _IN if region.include_mu_axis else _OUT, codes)
        codes = np.where(cells.a1 | cells.b1, _OUT, codes)
        codes = np.where(cells.a1 & cells.b1, _BOUNDARY, codes)  # torus shell unresolved
        return np.where(cells.a0 & cells.b0, _IN, codes)

    # final-stage locus: the union of its parts, then the two corner rules
    codes = cells.full(_OUT)
    for p, q in region.bands:
        if p <= q:
            part = _band_states(cells, p, q, tol)
        else:
            part = _envelope_states(cells, lower_exp=q, upper_exp=p, tol=tol)
        codes = np.maximum(codes, part)
    if region.include_t_cross_d:
        codes = np.where(cells.a1, _IN, codes)
    if region.include_d_cross_t:
        codes = np.where(cells.b1, _IN, codes)
    codes = np.where(cells.a0 & cells.b0, _IN if region.origin_included else _OUT, codes)
    return np.where(cells.a1 & cells.b1, _BOUNDARY, codes)


def gamma2_member(
    params: SpectralParams,
    structure: StructureReport,
    mu_abs: float,
    lambda_abs: float,
    tol: float = DEFAULT_TOL,
) -> BandMembership:
    return region_member(gamma2_region(params, structure), mu_abs, lambda_abs, tol)


def gamma3_member(
    params: SpectralParams,
    structure: StructureReport,
    mu_abs: float,
    lambda_abs: float,
    tol: float = DEFAULT_TOL,
) -> BandMembership:
    return region_member(gamma3_region(params, structure), mu_abs, lambda_abs, tol)


@dataclass(frozen=True)
class ConsistencyReport:
    checked: int
    skipped: int
    mismatches: tuple[tuple[float, float], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def parts_consistency_check(
    params: SpectralParams,
    structure: StructureReport,
    samples: list[tuple[float, float]],
    tol: float = DEFAULT_TOL,
) -> ConsistencyReport:
    """Check that the joint spectrum is the union of its two failure loci.

    Samples where any of the three answers is boundary are skipped (the
    decomposition is only determined off the unresolved layers); for the
    rest, membership in the joint spectrum must coincide with membership in
    at least one locus.
    """
    points = np.asarray(samples, dtype=float).reshape(-1, 2)
    t, g2, g3 = (
        region_states(region, points[:, 0], points[:, 1], tol)
        for region in (
            taylor_region(params),
            gamma2_region(params, structure),
            gamma3_region(params, structure),
        )
    )
    skipped = (t == _BOUNDARY) | (g2 == _BOUNDARY) | (g3 == _BOUNDARY)
    in_union = (g2 == _IN) | (g3 == _IN)
    wrong = ~skipped & ((t == _IN) != in_union)
    return ConsistencyReport(
        checked=int(np.count_nonzero(~skipped)),
        skipped=int(np.count_nonzero(skipped)),
        mismatches=tuple(tuple(samples[i]) for i in np.flatnonzero(wrong)),
    )


def modulus(value: complex | float | int) -> float:
    """Reduce a complex sample point to its magnitude.

    Region membership is rotation invariant, so only |mu| and |lambda|
    matter; this is the single place complex inputs are accepted.
    """
    return abs(value)

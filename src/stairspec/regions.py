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

Each region is one ordered list of convention masks over the band kernel of
``extnum`` (``_region_codes``).  ``region_member`` runs it at one point on
Python floats; ``region_states`` runs it over whole arrays of points at once
and returns int8 codes (0 out, 1 boundary, 2 in, the ``Membership.rank``
order) for grids, rasters and sampling.  Both give the same answer at every
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagram import DefectClass, StructureReport, WoldType
from .extnum import (
    _ANSWERS,
    _BOUNDARY,
    _IN,
    _OUT,
    CODE_STATES,
    DEFAULT_TOL,
    BandMembership,
    ExtReal,
    _band_states,
    _Cells,
    _check_band,
    _envelope_states,
    check_tolerance,
)
from .params import SpectralParams, require_nonsimple


class RegionKind(Enum):
    TAYLOR = "taylor"
    GAMMA2 = "gamma2"
    GAMMA3 = "gamma3"


@dataclass(frozen=True)
class RegionSpec:
    """Evaluable description of one region.

    ``bands`` holds (upper_exp, lower_exp) pairs: the band is
    a**lower_exp <= b <= a**upper_exp on (a, b) = (|mu|, |lambda|).  The
    middle band of the shift/shift case may be crossed (upper > lower); it
    is then empty away from convention cells and is evaluated as a raw
    envelope pair.

    ``w_mixed`` and ``z_mixed`` say that W, respectively Z, has a unitary
    part (the joint spectrum ignores them).  In the middle stage a mixed W
    adds the axis {|lambda| = 0} and a mixed Z the axis {|mu| = 0}; in the
    final stage a mixed W adds the torus strip {|mu| = 1} and a mixed Z
    the strip {|lambda| = 1}.
    """

    kind: RegionKind
    bands: tuple[tuple[ExtReal, ExtReal], ...]
    w_mixed: bool = False
    z_mixed: bool = False
    origin_included: bool = True


def taylor_region(params: SpectralParams) -> RegionSpec:
    """The joint spectrum: the closed band (min delta, max rho)."""
    p = min(params.delta_minus, params.delta_plus)
    q = max(params.rho_minus, params.rho_plus)
    return RegionSpec(kind=RegionKind.TAYLOR, bands=((p, q),))


def gamma2_region(params: SpectralParams, structure: StructureReport) -> RegionSpec:
    """Middle-stage failure locus: open band (eta_plus, eta_minus) + axes."""
    require_nonsimple(structure)
    return RegionSpec(
        kind=RegionKind.GAMMA2,
        bands=((params.eta_minus, params.eta_plus),),
        w_mixed=structure.wold_w is WoldType.MIXED_UNITARY_AND_SHIFT,
        z_mixed=structure.wold_z is WoldType.MIXED_UNITARY_AND_SHIFT,
    )


def gamma3_region(params: SpectralParams, structure: StructureReport) -> RegionSpec:
    """Final-stage failure locus, keyed by the Wold types of the pair.

    The (delta-, rho-) band is present when Z is a pure shift and the
    (delta+, rho+) band when W is; the middle pair, possibly crossed, when
    both are.  Each torus strip is present when its isometry is mixed, and
    the origin is out only for the mixed/mixed notched plane.
    """
    require_nonsimple(structure)
    w_shift = structure.wold_w is WoldType.PURE_SHIFT
    z_shift = structure.wold_z is WoldType.PURE_SHIFT
    bands = []
    if z_shift:
        bands.append((params.delta_minus, params.rho_minus))
    if w_shift and z_shift:
        bands.append((params.rho_plus, params.delta_minus))  # middle pair, possibly crossed
    if w_shift:
        bands.append((params.delta_plus, params.rho_plus))
    notched = structure.defect_class is DefectClass.NON_POSITIVE  # no outer corners
    return RegionSpec(
        kind=RegionKind.GAMMA3,
        bands=tuple(bands),
        w_mixed=not w_shift,
        z_mixed=not z_shift,
        origin_included=w_shift or z_shift or not notched,
    )


def region_triple(
    params: SpectralParams, structure: StructureReport
) -> tuple[RegionSpec, RegionSpec, RegionSpec]:
    """The joint spectrum and its two failure loci, in that order."""
    return (
        taylor_region(params),
        gamma2_region(params, structure),
        gamma3_region(params, structure),
    )


def region_member(
    region: RegionSpec, mu_abs: float, lambda_abs: float, tol: float = DEFAULT_TOL
) -> BandMembership:
    """Tri-state membership of one magnitude pair in a region.

    The point case of ``region_states``: the same masks, evaluated on
    Python floats.  The answer is one of three shared immutable values, one
    per code.  Raises ``RegimeError`` like ``region_states``.
    """
    check_tolerance(tol)
    return _ANSWERS[_region_codes(region, _Cells.at(mu_abs, lambda_abs), tol)]


def region_states(
    region: RegionSpec, mu_abs, lambda_abs, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Tri-state codes of a region over broadcast arrays of magnitudes.

    Returns an int8 array of the broadcast shape of ``mu_abs`` and
    ``lambda_abs`` holding 0 (out), 1 (boundary) or 2 (in), the
    ``Membership.rank`` of the answer ``region_member`` gives at each point;
    ``CODE_STATES`` maps codes back to ``Membership``.  Raises
    ``RegimeError`` if any magnitude lies outside [0, 1] or is NaN, or if
    ``tol`` is not positive and finite.
    """
    check_tolerance(tol)
    cells = _Cells.of(mu_abs, lambda_abs)
    # 0 * inf and inf - inf on masked cells, DBL_MAX * log(a) = -inf (see ExtReal)
    with np.errstate(invalid="ignore", over="ignore"):
        return _region_codes(region, cells, tol).astype(np.int8)


def _region_codes(region: RegionSpec, cells: _Cells, tol: float):
    """Codes of a region at a point or over arrays, as ``cells`` says.

    Every convention cell (indeterminate forms, degenerate bands, axes, torus
    edges, corners) is a mask applied over the band formula; later masks
    take precedence.
    """
    where = cells.where
    if region.kind is RegionKind.TAYLOR:
        p, q = region.bands[0]
        _check_band(p, q)
        return _band_states(cells, p, q, tol)

    if region.kind is RegionKind.GAMMA2:
        eta_minus, eta_plus = region.bands[0]
        codes = _envelope_states(cells, lower_exp=eta_plus, upper_exp=eta_minus, tol=tol)
        codes = where(cells.a0, _IN if region.z_mixed else _OUT, codes)
        codes = where(cells.b0, _IN if region.w_mixed else _OUT, codes)
        codes = where(cells.a1 | cells.b1, _OUT, codes)
    else:  # final-stage locus: the union of its parts and its torus strips
        codes = cells.full(_OUT)
        for p, q in region.bands:
            if q < p:  # a crossed pair: empty away from its convention cells
                part = _envelope_states(cells, lower_exp=q, upper_exp=p, tol=tol)
            else:
                part = _band_states(cells, p, q, tol)
            codes = cells.maximum(codes, part)
        if region.w_mixed:
            codes = where(cells.a1, _IN, codes)
        if region.z_mixed:
            codes = where(cells.b1, _IN, codes)
    # the two corner rules
    codes = where(cells.a0 & cells.b0, _IN if region.origin_included else _OUT, codes)
    return where(cells.a1 & cells.b1, _BOUNDARY, codes)  # torus shell unresolved


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
) -> ConsistencyReport:
    """Check that the joint spectrum is the union of its two failure loci.

    Samples where any of the three answers is boundary are skipped (the
    decomposition is only determined off the unresolved layers); for the
    rest, membership in the joint spectrum must coincide with membership in
    at least one locus, each answered within ``DEFAULT_TOL``.
    """
    points = np.asarray(samples, dtype=float).reshape(-1, 2)
    t, g2, g3 = (
        region_states(region, points[:, 0], points[:, 1])
        for region in region_triple(params, structure)
    )
    skipped = (t == _BOUNDARY) | (g2 == _BOUNDARY) | (g3 == _BOUNDARY)
    in_union = (g2 == _IN) | (g3 == _IN)
    wrong = ~skipped & ((t == _IN) != in_union)
    return ConsistencyReport(
        checked=int(np.count_nonzero(~skipped)),
        skipped=int(np.count_nonzero(skipped)),
        mismatches=tuple(tuple(samples[i]) for i in np.flatnonzero(wrong)),
    )


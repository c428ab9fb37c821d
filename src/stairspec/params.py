"""Exact spectral parameters of a profile plus brute-force estimators.

Six parameters are attached to each non-simple diagram: on each side of the
window, the extreme and the running-average asymptotic slopes of the border
sequence.  They are exact extended rationals, determined by the tails alone
(the finite window only contributes vanishing transients to the defining
limits), and they drive every region formula downstream.

The estimators in this module evaluate the defining expressions at finite
depth straight off the realized border sequence.  They exist to cross-check
the closed forms; for the supported tail families the windowed extreme-slope
estimates converge like O((window span + log n) / n) once the scan is deep
enough to contain pure-tail windows, and the running-average estimate
converges at the same rate once early transients are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import DiagramProfile, m_values, validate
from .extnum import ExtReal


class SimpleDiagramError(ValueError):
    """Spectral parameters are only defined for non-simple diagrams."""


class ScanOverflowError(ValueError):
    """A finite scan ran into rows that are empty or full."""


@dataclass(frozen=True)
class SpectralParams:
    delta_minus: ExtReal
    delta_plus: ExtReal
    eta_minus: ExtReal
    eta_plus: ExtReal
    rho_minus: ExtReal
    rho_plus: ExtReal

    def __post_init__(self):
        if not (self.delta_minus <= self.eta_minus <= self.rho_minus):
            raise ValueError("minus-side parameters must satisfy delta <= eta <= rho")
        if not (self.delta_plus <= self.eta_plus <= self.rho_plus):
            raise ValueError("plus-side parameters must satisfy delta <= eta <= rho")

    def to_json(self) -> dict:
        return {
            "delta_minus": str(self.delta_minus),
            "delta_plus": str(self.delta_plus),
            "eta_minus": str(self.eta_minus),
            "eta_plus": str(self.eta_plus),
            "rho_minus": str(self.rho_minus),
            "rho_plus": str(self.rho_plus),
        }


def compute_params(profile: DiagramProfile) -> SpectralParams:
    """Exact parameters (delta, eta, rho on each side) of a non-simple profile.

    Empty rows below or full rows above collapse that side to infinity.  A
    periodic tail contributes its slope to all three values.  Geometric
    blocks contribute min slope, max slope, and for eta the largest cyclic
    block-end average, since running averages drift monotonically inside a
    block and therefore attain their extrema at block ends.
    """
    structure = validate(profile)
    if structure.is_simple:
        raise SimpleDiagramError(
            "spectral parameters are not defined for simple diagrams"
        )
    d_minus, e_minus, r_minus = profile.minus_tail.asymptotics()
    d_plus, e_plus, r_plus = profile.plus_tail.asymptotics()
    return SpectralParams(
        delta_minus=d_minus,
        delta_plus=d_plus,
        eta_minus=e_minus,
        eta_plus=e_plus,
        rho_minus=r_minus,
        rho_plus=r_plus,
    )


@dataclass(frozen=True)
class ParamEstimates:
    delta_minus: float
    delta_plus: float
    eta_minus: float
    eta_plus: float
    rho_minus: float
    rho_plus: float


# Border values per block of the eta scan: 512 KiB of float64, so a deep scan
# holds a few small blocks at a time instead of arrays as long as n_max.
_ETA_CHUNK = 1 << 16


def estimate_params_bruteforce(
    profile: DiagramProfile, n_max: int, j_span: int, eta_cutoff: int | None = None
) -> ParamEstimates:
    """Finite-depth evaluation of the defining parameter expressions.

    delta/rho sides: inf/sup over window starts j in [-j_span, j_span] of the
    average border slope across a length-``n_max`` window on that side.
    eta sides: extreme of the running prefix averages (M_{-t} - M_0)/t and
    (M_0 - M_t)/t over t in [eta_cutoff, n_max]; the cutoff (default
    max(16, sqrt(n_max))) discards transients so the estimate tracks the
    limit-superior rather than one-off early excursions.

    The border is read in blocks of at most ``_ETA_CHUNK`` values, so memory
    stays O(j_span) whatever ``n_max`` is.  Requires both tails finite over
    the scan; raises :class:`ScanOverflowError` otherwise.
    """
    if n_max < 2 or j_span < 0:
        raise ValueError("need n_max >= 2 and j_span >= 0")
    if not profile.minus_tail.finite:
        raise ScanOverflowError("minus tail has empty rows inside the scan")
    if not profile.plus_tail.finite:
        raise ScanOverflowError("plus tail has full rows inside the scan")
    if eta_cutoff is None:
        eta_cutoff = max(16, math.isqrt(n_max))
    eta_cutoff = min(eta_cutoff, n_max)

    # minus side: (M_{j-n} - M_j)/n over j in [-j_span, j_span]
    # plus side: (M_j - M_{j+n})/n over the same window starts
    starts = m_values(profile, -j_span, j_span)
    minus_slopes = (m_values(profile, -j_span - n_max, j_span - n_max) - starts) / n_max
    plus_slopes = (starts - m_values(profile, n_max - j_span, n_max + j_span)) / n_max

    m0 = m_values(profile, 0, 0)[0]
    minus_maxima, plus_maxima = [], []
    for t_lo in range(eta_cutoff, n_max + 1, _ETA_CHUNK):
        t_hi = min(t_lo + _ETA_CHUNK - 1, n_max)
        ts = np.arange(t_lo, t_hi + 1)
        minus_maxima.append(((m_values(profile, -t_hi, -t_lo)[::-1] - m0) / ts).max())
        plus_maxima.append(((m0 - m_values(profile, t_lo, t_hi)) / ts).max())
    eta_minus = float(np.max(minus_maxima))
    eta_plus = float(np.max(plus_maxima))

    return ParamEstimates(
        delta_minus=float(minus_slopes.min()),
        delta_plus=float(plus_slopes.min()),
        eta_minus=eta_minus,
        eta_plus=eta_plus,
        rho_minus=float(minus_slopes.max()),
        rho_plus=float(plus_slopes.max()),
    )

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

from .diagram import DiagramProfile, Side, StructureReport, float_drops, m_exact, validate
from .extnum import ExtReal, RegimeError, SpecError, check_budget


def require_nonsimple(structure: StructureReport) -> None:
    """Refuse a simple diagram, the one case the band machinery leaves out."""
    if structure.is_simple:
        raise RegimeError(
            "simple diagram: the pair is doubly commuting and the band "
            "machinery does not apply"
        )


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
            raise SpecError("minus-side parameters must satisfy delta <= eta <= rho")
        if not (self.delta_plus <= self.eta_plus <= self.rho_plus):
            raise SpecError("plus-side parameters must satisfy delta <= eta <= rho")

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
    require_nonsimple(validate(profile))
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


# The eta scan reads the border in blocks of at most ``_ETA_CHUNK`` steps.  A
# block of int64 or float64 is 256 KiB.  At 2**16 steps (512 KiB) every
# temporary was page-faulted in afresh: 3,168 minor faults per pass of the
# benchmark's deep_tails workload against 0 at 2**15, and ``float_drops`` took
# 5.9-6.2 ns per element against 0.83 ns (timeit, glibc 2.36, 2-core x86-64 VM).
_ETA_CHUNK = 1 << 15
# The depth n_max and the 2 * j_span + 1 rows of one slope read must each be
# within this budget, checked before any row is read.  At n_max = 2**20 on a
# 2-core x86-64 VM a slope-1 line with j_span = 2**19 - 1 takes 0.05-0.06 s and
# 71 MB process peak RSS; a steady slope whose eta scan prunes nothing, with
# j_span = 2, takes 0.52-0.64 s and 36 MB.
_SCAN_BUDGET = 1 << 20


def _eta_max(profile: DiagramProfile, side: Side, m0: np.ndarray, t_first: int, t_last: int) -> float:
    """max of float(g(t)) / t over t in [t_first, t_last], with t_first >= 1.

    g is the exact rise away from index 0: M_{-t} - M_0 on the minus side and
    M_0 - M_t on the plus side.  It is a non-decreasing integer >= 0.

    Run ends.  Past the window the range is cut into the runs of the tail's
    ``runs`` method: on a run, g(t + P) - g(t) is one constant R.  Along one
    residue class mod P, g = g0 + m R and t = t0 + m P, so g / t is monotone
    in m.  While g < 2**53, ``float(g)`` is g exactly, and division rounds
    monotonically, so the class's computed quotients are monotone too and
    its maximum (and equally its minimum) is its first or last member.  A
    run longer than 2P whose far-end rise is below 2**53 is therefore read
    only at its first and last P steps.  Window rows, shorter runs and runs
    that reach 2**53 are read whole.  The far end of every run is read
    first, so ``t_last`` always is.

    Bounds.  On [lo, hi] every quotient is at most g(hi) / lo, and since
    float rounding is monotone, ``float(g(hi)) / lo`` bounds every quotient
    the scan computes there.  The ranges left to read are cut into blocks
    of at most ``_ETA_CHUNK`` steps, visited by descending bound; the scan
    stops at the first bound that cannot beat the running maximum.  A value
    never read is never the maximum, so the result is that of the whole
    range.
    """
    s = -1 if side is Side.MINUS else 1
    tail = profile.minus_tail if s < 0 else profile.plus_tail
    edge = -profile.j_lo if s < 0 else profile.j_hi  # step t is tail step t - edge

    def rises(js) -> np.ndarray:
        rows = m_exact(profile, js)
        return float_drops(rows, m0) if s < 0 else float_drops(m0, rows)

    spans = [(t_first, min(t_last, edge))] if t_first <= edge else []
    if t_last > edge:
        runs = tail.runs(max(t_first, edge + 1) - edge, t_last - edge)
        far = np.array([b for _, b, _ in runs]) + edge
        exact = rises(s * far) < 2.0**53  # float(g) is g on the whole run
        for (a, b, period), exact_run in zip(runs, exact):
            a, b = a + edge, b + edge
            if exact_run and 2 * period < b - a + 1:
                spans += [(a, a + period - 1), (b - period + 1, b)]
            else:
                spans.append((a, b))

    los = [np.arange(lo, hi + 1, _ETA_CHUNK) for lo, hi in spans]
    his = np.concatenate([np.minimum(starts + _ETA_CHUNK - 1, hi)
                          for starts, (_, hi) in zip(los, spans)])
    los = np.concatenate(los)
    bounds = rises(s * his) / los
    best = -math.inf
    for k in np.argsort(-bounds, kind="stable"):
        if bounds[k] <= best:
            break
        lo, hi = int(los[k]), int(his[k])
        quotients = rises(range(s * lo, s * (hi + 1), s))
        quotients /= np.arange(lo, hi + 1, dtype=np.float64)
        best = max(best, quotients.max())
    return float(best)


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

    Every difference of border values is taken exactly and then rounded once
    to float64, so the estimate does not change when the diagram is
    translated; a difference beyond float64 raises ``RegimeError``.  The eta
    scan reads a tail run of period P only at its first and last P steps:
    along one residue class mod P both the rise g and t grow linearly, so
    g / t is monotone, and while g < 2**53 so is the rounded quotient, whose
    maximum is then at an end of the class.  A run whose far-end rise
    reaches 2**53 is read whole.  The scan also skips the blocks that cannot
    raise its maximum (see :func:`_eta_max`) and reads the rest in blocks of
    at most ``_ETA_CHUNK`` values, so memory stays O(j_span + _ETA_CHUNK)
    plus one bound per block.
    Requires both tails finite over the scan, n_max and 2 * j_span + 1 within
    ``_SCAN_BUDGET``; raises ``RegimeError`` otherwise.
    """
    if n_max < 2 or j_span < 0:
        raise SpecError("need n_max >= 2 and j_span >= 0")
    if eta_cutoff is not None and eta_cutoff < 1:
        raise SpecError("need eta_cutoff >= 1")
    check_budget(f"depth n_max = {n_max}", n_max, _SCAN_BUDGET)
    check_budget(f"a slope read of 2 * j_span + 1 rows at j_span = {j_span}",
                 2 * j_span + 1, _SCAN_BUDGET)
    if not profile.minus_tail.finite:
        raise RegimeError("minus tail has empty rows inside the scan")
    if not profile.plus_tail.finite:
        raise RegimeError("plus tail has full rows inside the scan")
    if eta_cutoff is None:
        eta_cutoff = max(16, math.isqrt(n_max))
    eta_cutoff = min(eta_cutoff, n_max)

    # minus side: (M_{j-n} - M_j)/n over j in [-j_span, j_span]
    # plus side: (M_j - M_{j+n})/n over the same window starts
    starts = m_exact(profile, range(-j_span, j_span + 1))
    minus_slopes = float_drops(
        m_exact(profile, range(-j_span - n_max, j_span - n_max + 1)), starts
    ) / n_max
    plus_slopes = float_drops(
        starts, m_exact(profile, range(n_max - j_span, n_max + j_span + 1))
    ) / n_max

    m0 = m_exact(profile, [0])
    return ParamEstimates(
        delta_minus=float(minus_slopes.min()),
        delta_plus=float(plus_slopes.min()),
        eta_minus=_eta_max(profile, Side.MINUS, m0, eta_cutoff, n_max),
        eta_plus=_eta_max(profile, Side.PLUS, m0, eta_cutoff, n_max),
        rho_minus=float(minus_slopes.max()),
        rho_plus=float(plus_slopes.max()),
    )

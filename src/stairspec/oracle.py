"""Desk-scale numerical verification of the symbolic region formulas.

Three independent probes, none of which trusts the closed-form machinery it
checks:

* sliding-window smallest-singular-value scans certify approximate-point-
  spectrum membership for the shift reduction.  Window-supported vectors are
  genuine global vectors and the assembled rectangular matrices carry the
  full image of each window, so a small value is always a valid certificate
  and plateaus are evidence of exclusion without truncation artifacts
  (square cutoffs of two-sided shifts would fill their spectral holes);
* partial sums and empirical root tests for the series whose convergence
  decides middle-stage membership off the axes;
* stacked adjoint-kernel (and forward-kernel) smallest singular values that
  witness final-stage failure (and its absence) directly from the lattice
  model.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagram import DiagramProfile, NEG_INF, POS_INF, float_drops, m_exact, validate
from .extnum import DEFAULT_TOL, BandDomainError, ExtReal, RegimeError, SpecError, check_tolerance
from .params import compute_params
from .shifts import ShiftKind, ShiftSpec

TAU_IN_DEFAULT = 1e-3
TAU_OUT_DEFAULT = 5e-2


class DegenerateSpecError(RegimeError):
    """The scan was asked to resolve a finite nilpotent block numerically."""


class ParameterRegimeError(RegimeError):
    """The series test needs the border sequence to stay finite downward."""


class EmptyWindowError(RegimeError):
    """The requested lattice window misses the diagram entirely."""


class ProbeSizeError(SpecError):
    """Window sizes, a scan range or a term count that no probe can run with."""


class ScanBudgetError(RegimeError):
    """A window scan would sweep more window starts than its budget allows."""


class SolverConvergenceError(RegimeError):
    """The sparse eigensolver of a lattice witness did not converge."""


# The most candidate window starts one scan may sweep, summed over its sizes.
WINDOW_START_BUDGET = 2**16

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest x whose exp(x) is finite


class ScanVerdict(Enum):
    INSIDE_AP_SPECTRUM = "inside_ap_spectrum"
    OUTSIDE_AP_SPECTRUM = "outside_ap_spectrum"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class WindowScanResult:
    sizes: tuple[int, ...]
    smin_by_size: tuple[float, ...]
    verdict: ScanVerdict


def _window_gram(
    spec: ShiftSpec, lambda_abs: float, start: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of the windowed dual operator lambda - OP, as (diag, off).

    OP maps e_j to |mu|**(M_{j-1}-M_j) e_{j-1}, with the weights read from
    ``ShiftSpec.weights``; restricted to coordinates [start, start+n) its
    image touches one extra row below, so the matrix is (n+1) x n bidiagonal
    and its Gram matrix is symmetric tridiagonal.  The window's smallest
    singular value is the square root of the smallest eigenvalue of that
    tridiagonal, clipped at 0.
    """
    nu = spec.weights(range(start, start + n), down=True)
    return lambda_abs**2 + nu**2, -lambda_abs * nu[1:]


def _window_starts(j_min, j_max, n: int, j_scan: int, step: int) -> Iterator[int]:
    """Distinct window starts of one scan size, ascending, generated lazily.

    The candidates are range(-j_scan, j_scan + 1, step) and j_scan itself,
    each clamped into [j_min, j_max - n + 1].  Clamping is monotone, so equal
    starts are adjacent.  Grid points below the lower clamp all land on it,
    so only the last of them is kept; those above the upper clamp land on it
    as j_scan does, so none of them is kept.  The generator holds O(1) memory
    and visits O(distinct starts) candidates whatever ``j_scan`` is.
    """
    lo = None if j_min == NEG_INF else int(j_min)
    hi = None if j_max == POS_INF else int(j_max) - n + 1
    grid = range(-j_scan, j_scan + 1, step)
    if lo is not None:
        grid = grid[max(-((grid.start - lo) // step) - 1, 0):]
    if hi is not None:
        grid = grid[: max((hi - grid.start) // step + 1, 0)]
    last = None
    for s in itertools.chain(grid, (j_scan,)):
        if lo is not None:
            s = max(s, lo)
        if hi is not None:
            s = min(s, hi)
        if s != last:
            yield s
            last = s


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _min_window_eigenvalue(
    spec: ShiftSpec, lambda_abs: float, n: int, starts: Iterator[int]
) -> float:
    """Smallest Gram eigenvalue over the windows of length ``n`` at ``starts``.

    The result is bit-identical to solving every window, but a window costs
    one exact solve (stebz, smallest eigenvalue by index) only when it can
    still lower the running minimum ``best``.  A window is skipped when

    * its tridiagonal is bit-for-bit the best window's (periodic tails repeat
      windows exactly), so it would return ``best`` again;
    * or a Sturm count finds no eigenvalue in (-1, best + margin].  stebz
      returns the midpoint of a bracket narrower than
      max(ulp * ||T||_1, 2 ulp * |w|, pivmin) whose upper end has a count of
      at least one, so a solve returning less than ``best`` has that upper
      end below best + margin, and Sturm counts are monotone.

    Once ``best`` is at or below 0 the clipped smin is 0.0 and no window can
    change it, so the scan of this size stops.
    """
    import scipy.linalg

    best = math.inf
    best_gram = None
    for start in starts:
        diag, off = _window_gram(spec, lambda_abs, start, n)
        if best_gram is not None:
            if np.array_equal(diag, best_gram[0]) and np.array_equal(off, best_gram[1]):
                continue
            norm = float(diag.max() + 2.0 * np.abs(off).max())  # >= ||T||_1
            top = best + 4.0 * (_EPS * norm + _TINY)
            # A tolerance as wide as the range ends the bisection at once:
            # the call only counts the eigenvalues in (-1, top].
            count = scipy.linalg.eigvalsh_tridiagonal(
                diag, off, select="v", select_range=(-1.0, top),
                tol=top + 2.0, lapack_driver="stebz",
            ).size
            if count == 0:
                continue
        w = float(
            scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
        )
        if w < best:
            best, best_gram = w, (diag, off)
            if best <= 0.0:
                break
    return best


def window_smin_scan(
    spec: ShiftSpec,
    lambda_abs: float,
    sizes: list[int],
    j_scan: int,
    stride: int | None = None,
    tau_in: float = TAU_IN_DEFAULT,
    tau_out: float = TAU_OUT_DEFAULT,
) -> WindowScanResult:
    """Minimum windowed smallest singular value per window size, with verdict.

    Window starts sweep [-j_scan, j_scan] (clamped into the shift's index
    range) with the given stride, by default a quarter of the window size;
    only the windows that can still lower a size's minimum are solved.  A
    size with stride ``step`` has 2 * j_scan // step + 2 candidate starts;
    a scan whose candidates, summed over its sizes, exceed
    ``WINDOW_START_BUDGET`` raises :class:`ScanBudgetError` before it
    solves any window.
    Verdicts: inside when the ladder keeps halving and ends below ``tau_in``;
    outside when it ends at or above ``tau_out`` without significant decay;
    unresolved otherwise.
    """
    if spec.kind is ShiftKind.FINITE_NILPOTENT:
        raise DegenerateSpecError(
            "finite nilpotent block: membership holds exactly at lambda = 0"
        )
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ProbeSizeError("sizes must be at least two strictly increasing window lengths")
    if any(n < 2 for n in sizes):
        raise ProbeSizeError("window sizes must be >= 2")
    if j_scan < 0:
        raise ProbeSizeError(f"j_scan must be >= 0, got {j_scan}")
    if stride is not None and stride < 1:
        raise ProbeSizeError(f"stride must be >= 1, got {stride}")
    if not 0.0 <= lambda_abs <= 1.0:
        raise BandDomainError(f"|lambda| must lie in [0, 1]: {lambda_abs}")
    steps = [stride if stride is not None else max(1, n // 4) for n in sizes]
    candidates = sum(2 * j_scan // step + 2 for step in steps)
    if candidates > WINDOW_START_BUDGET:
        raise ScanBudgetError(
            f"j_scan = {j_scan} gives {candidates} candidate window starts, more than "
            f"the budget of {WINDOW_START_BUDGET}"
        )

    minima = []
    for n, step in zip(sizes, steps):
        starts = _window_starts(spec.j_min, spec.j_max, n, j_scan, step)
        w = _min_window_eigenvalue(spec, lambda_abs, n, starts)
        minima.append(math.sqrt(max(w, 0.0)))

    decays = all(b <= a / 2 for a, b in zip(minima, minima[1:]))
    flat = minima[-1] >= minima[0] / 2
    if minima[-1] < tau_in and decays:
        verdict = ScanVerdict.INSIDE_AP_SPECTRUM
    elif minima[-1] >= tau_out and flat:
        verdict = ScanVerdict.OUTSIDE_AP_SPECTRUM
    else:
        verdict = ScanVerdict.UNRESOLVED
    return WindowScanResult(tuple(sizes), tuple(minima), verdict)


class SeriesClass(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    BORDERLINE = "borderline"


@dataclass(frozen=True)
class SeriesVerdict:
    classification: SeriesClass
    # (terms used, log10 partial sum of the downward series, log10 partial
    # sum of the upward series or -inf when that side is a finite/empty sum)
    log10_partial_sums: tuple[tuple[int, float, float], ...]
    root_minus: float
    root_plus: float
    predicted_root_minus: float
    predicted_root_plus: float


def gamma2_series_test(
    profile: DiagramProfile,
    mu_abs: float,
    lambda_abs: float,
    n_terms: int,
    tol: float = DEFAULT_TOL,
) -> SeriesVerdict:
    """Convergence probe for the norm series of the middle-stage witness.

    The candidate witness vector has squared norm proportional to
    sum over j of |mu|**(-2 M_j) |lambda|**(-2 j); membership requires both
    the downward (j <= 0) and upward (j >= 1) halves to converge.  The terms
    are normalized at row r = min(0, j1), row 0 or else the last finite row:
    each is |mu|**(-2 (M_j - M_r)) |lambda|**(-2 (j - r)) with the drop
    taken exactly, so roots and partial sums do not change when the diagram
    is translated.  Downward terms are indexed by t = r - j (rows above r are
    full); their t-th roots, like the upward j-th roots, over [n/2, n] are
    compared against 1 with margin 10*tol, and the exact root-test limits
    |lambda|^2/|mu|^(2 eta-) and |mu|^(2 eta+)/|lambda|^2 are reported
    alongside.
    """
    structure = validate(profile)
    if structure.j0 != NEG_INF:
        raise ParameterRegimeError(
            "empty rows below: the witness cannot exist for lambda != 0"
        )
    if not 0.0 < mu_abs < 1.0 or not 0.0 < lambda_abs < 1.0:
        raise BandDomainError(f"need 0 < |mu| < 1 and 0 < |lambda| < 1: {mu_abs}, {lambda_abs}")
    if n_terms < 8:
        raise ProbeSizeError(f"need n_terms >= 8, got {n_terms}")
    check_tolerance(tol)

    log_mu = math.log(mu_abs)
    log_lam = math.log(lambda_abs)
    r = min(0, structure.j1)
    m_r = m_exact(profile, [r])

    def log_terms(js: range) -> np.ndarray:
        """log(|mu|**(-2 (M_j - M_r)) |lambda|**(-2 (j - r))) at the rows js <= j1."""
        if not js:
            return np.empty(0)
        drops = float_drops(m_exact(profile, js), m_r)
        offsets = np.arange(js.start - r, js.stop - r, js.step)  # j - r
        return -2.0 * drops * log_mu - 2.0 * offsets * log_lam

    log_terms_minus = log_terms(range(r, r - n_terms - 1, -1))  # index t -> j = r - t
    plus_top = max(min(structure.j1, n_terms), 0)  # finite under full rows, empty if j1 < 1
    log_terms_plus = log_terms(range(1, plus_top + 1))

    partial_minus = np.logaddexp.accumulate(log_terms_minus)
    partial_plus = np.logaddexp.accumulate(log_terms_plus)

    samples = []
    n = 1
    while n <= n_terms:
        log10_minus = partial_minus[min(n, n_terms)] / math.log(10)
        if len(partial_plus):
            log10_plus = partial_plus[min(n, plus_top) - 1] / math.log(10)
        else:
            log10_plus = -math.inf
        samples.append((n, float(log10_minus), float(log10_plus)))
        n *= 2

    tail = np.arange(n_terms // 2, n_terms + 1)
    with np.errstate(over="ignore"):  # a root beyond float64 is reported as inf
        root_minus = float(np.exp(log_terms_minus[tail] / tail).max())
        if structure.j1 != POS_INF:
            root_plus = 0.0
        else:
            tail_plus = np.arange(n_terms // 2, plus_top + 1)
            root_plus = float(np.exp(log_terms_plus[tail_plus - 1] / tail_plus).max())

    p = compute_params(profile)
    predicted_minus = _root_limit(mu_abs, lambda_abs, p.eta_minus, 1)
    predicted_plus = _root_limit(mu_abs, lambda_abs, p.eta_plus, -1)

    margin = 10.0 * tol
    if root_minus > 1.0 + margin or root_plus > 1.0 + margin:
        cls = SeriesClass.DIVERGES
    elif abs(root_minus - 1.0) <= margin or abs(root_plus - 1.0) <= margin:
        cls = SeriesClass.BORDERLINE
    else:
        cls = SeriesClass.CONVERGES
    return SeriesVerdict(
        classification=cls,
        log10_partial_sums=tuple(samples),
        root_minus=root_minus,
        root_plus=root_plus,
        predicted_root_minus=predicted_minus,
        predicted_root_plus=predicted_plus,
    )


def _root_limit(mu_abs: float, lambda_abs: float, eta: ExtReal, side: int) -> float:
    """The root-test limit |lambda|**(2 side) / |mu|**(2 side eta), side 1
    downward (eta-) and -1 upward (eta+).

    A quotient that leaves float64 on the way is taken through logs; a limit
    beyond it is inf.
    """
    e = float(eta)  # inf for an infinite eta, DBL_MAX beyond float64
    try:
        if side > 0:
            return lambda_abs**2 * mu_abs ** (-2.0 * e)
        return mu_abs ** (2.0 * e) / lambda_abs**2
    except (OverflowError, ZeroDivisionError):
        log_root = 2.0 * side * (math.log(lambda_abs) - e * math.log(mu_abs))
        return math.exp(log_root) if log_root <= _LOG_FLOAT_MAX else math.inf


# ---------------------------------------------------------------------------
# Lattice-window kernel witnesses
# ---------------------------------------------------------------------------


def _lattice_stack(
    profile: DiagramProfile,
    window: tuple[int, int, int, int],
    a: float,
    b: float,
    step: int,
):
    """The stacked matrix of (a - W) and (b - Z) on a lattice window, as CSR.

    Columns are the diagram points (i, j) inside ``window``, row by row from
    j_lo and along each row from its first column; each maps to a*e_(i,j) -
    e_(i+step,j) on the ``w`` side and to b*e_(i,j) - e_(i,j+step) on the
    ``z`` side.  ``step = +1`` gives the forward shifts, whose images stay in
    the diagram; ``step = -1`` gives their adjoints, which drop the images
    that leave it.  Image rows are numbered by their first appearance in
    that order.
    """
    import scipy.sparse

    i_lo, i_hi, j_lo, j_hi = window
    if i_hi < i_lo or j_hi < j_lo:
        raise EmptyWindowError(f"degenerate window: {window}")
    width, height = i_hi - i_lo + 1, j_hi - j_lo + 3
    # Rows k = 0 .. height - 1 are j_lo - 1 .. j_hi + 1, and column offsets
    # x = i - (i_lo - 1) run over 0 .. width + 1.  With the row minima, +-inf
    # included, clipped to that range, (x, k) is in the diagram exactly when
    # cut[k] <= x.  Object arithmetic keeps borders beyond int64 exact.
    rows = m_exact(profile, range(j_lo - 1, j_hi + 2)).astype(object)
    cut = (np.minimum(np.maximum(rows, i_lo - 1), i_hi + 1) - (i_lo - 1)).astype(np.int64)
    starts = np.maximum(cut[1:-1], 1)  # first column of rows j_lo .. j_hi
    counts = width + 1 - starts
    n_cols = int(counts.sum())
    if not n_cols:
        raise EmptyWindowError("window does not intersect the diagram")
    k = np.repeat(np.arange(1, height - 1), counts)
    x = np.arange(n_cols) - np.repeat(np.cumsum(counts) - counts - starts, counts)

    # Four entries per column: w self, w image, z self, z image.
    sides = np.array([0, 0, 1, 1])
    xs = x[:, None] + np.array([0, step, 0, 0])
    ks = k[:, None] + np.array([0, 0, 0, step])
    values = np.broadcast_to(np.array([a, -1.0, b, -1.0]), xs.shape)
    present = np.ones(xs.shape, dtype=bool)
    if step < 0:
        present[:, 1] = cut[k] <= x - 1
        present[:, 3] = cut[k - 1] <= x
    keys = ((sides * (width + 2) + xs) * height + ks)[present]  # one int per image row
    _, first_seen, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first_seen), dtype=np.int64)
    rank[np.argsort(first_seen)] = np.arange(len(first_seen))
    cols = np.broadcast_to(np.arange(n_cols)[:, None], xs.shape)[present]
    return scipy.sparse.coo_matrix(
        (values[present], (rank[inverse], cols)), shape=(len(rank), n_cols)
    ).tocsr()


def _stacked_smin(matrix) -> float:
    import scipy.linalg
    import scipy.sparse.linalg

    n_cols = matrix.shape[1]
    if n_cols <= 500:
        return float(scipy.linalg.svdvals(matrix.toarray())[-1])
    gram = (matrix.T @ matrix).tocsc()
    try:
        w = scipy.sparse.linalg.eigsh(
            gram, k=1, sigma=-1e-10, which="LM", v0=np.ones(n_cols), return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise SolverConvergenceError(
            f"the sparse eigensolver did not converge on a {n_cols}-column lattice window"
        ) from exc
    return math.sqrt(max(float(w[0]), 0.0))


def joint_adjoint_kernel_smin(
    profile: DiagramProfile,
    mu: complex,
    lam: complex,
    window: tuple[int, int, int, int],
) -> float:
    """Smallest singular value of the stacked adjoints on a lattice window.

    Columns are the diagram points inside ``window``; rows carry the full
    image of the window under (|mu| - M_w*) and (|lambda| - M_z*), so the
    result is the exact minimum of the stacked adjoint residual over unit
    window-supported vectors.  Small values certify an approximate common
    adjoint-kernel vector, hence final-stage failure nearby.  Phases are
    dropped: a diagonal phase rotation of the basis turns the general case
    into the nonnegative one.
    """
    validate(profile)
    mu_abs, lam_abs = abs(mu), abs(lam)
    if not (mu_abs <= 1.0 and lam_abs <= 1.0):  # also catches NaN
        raise BandDomainError(
            f"the witness is only probed on the closed bidisc: {mu_abs}, {lam_abs}"
        )
    return _stacked_smin(_lattice_stack(profile, window, mu_abs, lam_abs, -1))


@dataclass(frozen=True)
class Gamma1Report:
    entries: tuple[tuple[float, float, float], ...]  # (|mu|, |lambda|, smin)
    tau_out: float

    @property
    def all_certified(self) -> bool:
        return all(smin >= self.tau_out for _, _, smin in self.entries)


def gamma1_empty_check(
    profile: DiagramProfile,
    samples: list[tuple[complex, complex]],
    window: tuple[int, int, int, int],
    tau_out: float = TAU_OUT_DEFAULT,
) -> Gamma1Report:
    """Certify the absence of approximate joint kernels of the forward maps.

    For each sample the stacked matrix of (mu - M_w) and (lambda - M_z) is
    assembled on window-supported vectors with full image rows, so the
    reported smallest singular value is an exact lower-bound witness over
    that window.  Values staying at or above ``tau_out`` across windows are
    evidence that the first-stage locus is empty there.
    """
    validate(profile)
    results = []
    for mu, lam in samples:
        mu_abs, lam_abs = abs(mu), abs(lam)
        smin = _stacked_smin(_lattice_stack(profile, window, mu_abs, lam_abs, +1))
        results.append((mu_abs, lam_abs, smin))
    return Gamma1Report(tuple(results), tau_out)

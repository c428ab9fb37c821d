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
* stacked adjoint-kernel smallest singular values that witness final-stage
  failure directly from the lattice model.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diagram import DiagramProfile, NEG_INF, POS_INF, float_drops, m_exact, validate
from .extnum import DEFAULT_TOL, ExtReal, RegimeError, SpecError, check_magnitude, check_tolerance
from .params import compute_params
from .shifts import ShiftKind, ShiftSpec

# The smallest singular values below which a window scan answers inside, and
# at or above which it answers outside.
TAU_IN_DEFAULT = 1e-3
TAU_OUT_DEFAULT = 5e-2


# Size budgets, each checked before the probe allocates anything.  The most
# candidate window starts one scan may sweep, summed over its sizes; the
# longest scan window; the most terms of each half of a series; the most
# points, (i_hi - i_lo + 1) * (j_hi - j_lo + 1), of a lattice window.
WINDOW_START_BUDGET = 2**16
WINDOW_LENGTH_BUDGET = 2**20
SERIES_TERM_BUDGET = 2**20
LATTICE_COLUMN_BUDGET = 2**16

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
    nu = spec.weights(range(start, start + n))
    return lambda_abs**2 + nu**2, -lambda_abs * nu[1:]


def _window_starts(j_min, j_max, n: int, j_scan: int, step: int) -> list[int]:
    """Distinct window starts of one scan size, ascending: the candidates
    range(-j_scan, j_scan + 1, step) and j_scan itself, each clamped into
    [j_min, j_max - n + 1].  ``window_smin_scan`` bounds their number by
    ``WINDOW_START_BUDGET`` before it asks for them."""
    candidates = itertools.chain(range(-j_scan, j_scan + 1, step), (j_scan,))
    return sorted({min(max(s, j_min), j_max - n + 1) for s in candidates})


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _runs(starts: list[int], n: int) -> Iterator[list[int]]:
    """Ascending ``starts`` cut into runs whose first and last starts are at
    most ``n`` apart: a run ends before the first start more than n past its
    own first start."""
    run: list[int] = []
    for s in starts:
        if run and s - run[0] > n:
            yield run
            run = []
        run.append(s)
    if run:
        yield run


def _visit_order(starts: list[int], n: int, inner: tuple[int, int] | None) -> list[int]:
    """The starts of one size's windows of length ``n`` in the order a scan
    solves them: first those whose window contains the window ``inner``
    (start, length), the previous size's minimizer, then by distance from
    its start; ascending when there is none."""
    if inner is None:
        return starts
    p, m = inner
    return sorted(starts, key=lambda s: (not s <= p <= s + n - m, abs(s - p)))


def _stebz(diag: np.ndarray, off: np.ndarray, top: float | None = None) -> np.ndarray:
    """LAPACK dstebz on the tridiagonal (diag, off), with the arguments
    ``scipy.linalg.eigvalsh_tridiagonal`` passes it: the smallest eigenvalue
    (select "i", range (0, 0)); or, given ``top``, the eigenvalues in
    (-1, top] (select "v").  For the latter the tolerance is top + 2, as
    wide as the range, which ends the bisection at once: the call only
    counts them."""
    from scipy.linalg.lapack import dstebz

    if top is None:
        m, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    else:
        m, w, _, _, info = dstebz(diag, off, 1, -1.0, top, 1, 1, top + 2.0, "E")
    if info:
        raise RegimeError(
            f"stebz did not converge on a window of length {diag.size} (info {info})"
        )
    return w[:m]


def _min_window_eigenvalues(
    spec: ShiftSpec, lambda_abs: float, sizes: list[int], starts: list[list[int]]
) -> list[float]:
    """Smallest Gram eigenvalue of each size's windows, the windows of length
    ``sizes[k]`` at the ascending ``starts[k]``.

    Each minimum is bit-identical to solving every window of its size, but a
    window costs one exact solve (stebz, smallest eigenvalue by index) only
    when it can still lower its size's running minimum ``best``.  A window is
    skipped when

    * its tridiagonal is bit-for-bit the best window's (periodic tails repeat
      windows exactly), so it would return ``best`` again;
    * or a Sturm count finds no eigenvalue in (-1, best + margin].  stebz
      returns the midpoint of a bracket narrower than
      max(ulp * ||T||_1, 2 ulp * |w|, pivmin) whose upper end has a count of
      at least one, so a solve returning less than ``best`` has that upper
      end below best + margin, and Sturm counts are monotone.

    Once ``best`` is at or below 0 the clipped smin is 0.0 and no window can
    change it, so the scan of that size stops.  Skipped windows would all
    have returned at least ``best``, so the minimum is the same solve on the
    same arrays in any visiting order, and the order only decides how many
    windows are solved.

    The union of the sizes' starts is cut into runs at most max(sizes)
    apart (``_runs``).  The weights and Gram diagonals are read once per
    run, from its first start to the end of its last window, so a read
    spans at most 2 max(sizes) rows and never passes the shift's end; each
    window is a slice of that read, and since the Gram entries are
    elementwise in the weights, a slice equals the window's own
    ``_window_gram`` bit for bit.  Within a run the sizes go in ascending
    order, and each visits first the windows that contain the previous
    size's minimizer (``_visit_order``): that smaller window's Gram is a
    principal submatrix of theirs, so by Cauchy interlacing their smallest
    eigenvalue is at or below the previous minimum, and ``best`` drops
    early.
    """
    best = [math.inf] * len(sizes)
    best_gram: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(sizes)
    best_window: list[tuple[int, int] | None] = [None] * len(sizes)  # (start, length)
    for run in _runs(sorted(set().union(*starts)), sizes[-1]):
        slices = [
            (k, s[bisect.bisect_left(s, run[0]):bisect.bisect_right(s, run[-1])])
            for k, s in enumerate(starts)
            if best[k] > 0.0
        ]
        slices = [(k, s) for k, s in slices if s]
        if not slices:
            continue
        lo = min(s[0] for _, s in slices)
        hi = max(s[-1] + sizes[k] for k, s in slices)
        run_diag, run_off = _window_gram(spec, lambda_abs, lo, hi - lo)
        for k, run_starts in slices:
            n = sizes[k]
            for start in _visit_order(run_starts, n, best_window[k - 1] if k else None):
                i = start - lo
                diag, off = run_diag[i:i + n], run_off[i:i + n - 1]
                gram = best_gram[k]
                if gram is not None:
                    if np.array_equal(diag, gram[0]) and np.array_equal(off, gram[1]):
                        continue
                    norm = float(diag.max() + 2.0 * np.abs(off).max())  # >= ||T||_1
                    if not _stebz(diag, off, best[k] + 4.0 * (_EPS * norm + _TINY)).size:
                        continue  # no eigenvalue up to best + margin
                w = float(_stebz(diag, off)[0])
                if w < best[k]:
                    best[k], best_gram[k], best_window[k] = w, (diag, off), (start, n)
                    if w <= 0.0:
                        break
    return best


def window_smin_scan(
    spec: ShiftSpec,
    lambda_abs: float,
    sizes: list[int],
    j_scan: int,
) -> WindowScanResult:
    """Minimum windowed smallest singular value per window size, with verdict.

    Window starts sweep [-j_scan, j_scan] (clamped into the shift's index
    range) with step ``max(1, n // 4)`` for window size n, which gives
    2 * j_scan // step + 2 candidate starts; only the windows that can still
    lower a size's minimum are solved.  A scan whose
    candidates, summed over its sizes, exceed ``WINDOW_START_BUDGET``, or
    whose longest window exceeds ``WINDOW_LENGTH_BUDGET``, raises
    ``RegimeError`` before it solves any window.
    Verdicts: inside when the ladder keeps halving and ends below
    ``TAU_IN_DEFAULT``; outside when it ends at or above ``TAU_OUT_DEFAULT``
    without significant decay; unresolved otherwise.
    """
    if spec.kind is ShiftKind.FINITE_NILPOTENT:
        raise RegimeError(
            "finite nilpotent block: membership holds exactly at lambda = 0"
        )
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise SpecError("sizes must be at least two strictly increasing window lengths")
    if any(n < 2 for n in sizes):
        raise SpecError("window sizes must be >= 2")
    if j_scan < 0:
        raise SpecError(f"j_scan must be >= 0, got {j_scan}")
    check_magnitude("|lambda|", lambda_abs)
    steps = [max(1, n // 4) for n in sizes]
    candidates = sum(2 * j_scan // step + 2 for step in steps)
    if candidates > WINDOW_START_BUDGET:
        raise RegimeError(
            f"j_scan = {j_scan} gives {candidates} candidate window starts, more than "
            f"the budget of {WINDOW_START_BUDGET}"
        )
    if sizes[-1] > WINDOW_LENGTH_BUDGET:
        raise RegimeError(
            f"window length {sizes[-1]} is over the budget of {WINDOW_LENGTH_BUDGET}"
        )

    starts = [_window_starts(spec.j_min, spec.j_max, n, j_scan, step)
              for n, step in zip(sizes, steps)]
    minima = [math.sqrt(max(w, 0.0))
              for w in _min_window_eigenvalues(spec, lambda_abs, sizes, starts)]

    decays = all(b <= a / 2 for a, b in zip(minima, minima[1:]))
    flat = minima[-1] >= minima[0] / 2
    if minima[-1] < TAU_IN_DEFAULT and decays:
        verdict = ScanVerdict.INSIDE_AP_SPECTRUM
    elif minima[-1] >= TAU_OUT_DEFAULT and flat:
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
        raise RegimeError(
            "empty rows below: the witness cannot exist for lambda != 0"
        )
    check_magnitude("|mu|", mu_abs, open=True)
    check_magnitude("|lambda|", lambda_abs, open=True)
    if n_terms < 8:
        raise SpecError(f"need n_terms >= 8, got {n_terms}")
    if n_terms > SERIES_TERM_BUDGET:
        raise RegimeError(f"{n_terms} terms are over the budget of {SERIES_TERM_BUDGET}")
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
        with np.errstate(over="ignore"):  # a drop near the float64 maximum gives an inf term
            return -2.0 * drops * log_mu - 2.0 * offsets * log_lam

    log_terms_minus = log_terms(range(r, r - n_terms - 1, -1))  # index t -> j = r - t
    plus_top = max(min(structure.j1, n_terms), 0)  # finite under full rows, empty if j1 < 1
    log_terms_plus = log_terms(range(1, plus_top + 1))

    partial_minus = np.logaddexp.accumulate(log_terms_minus)
    partial_plus = np.logaddexp.accumulate(log_terms_plus)

    samples = []
    n = 1
    while n <= n_terms:
        log10_minus = partial_minus[n] / math.log(10)
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


def check_lattice_window(window: tuple[int, int, int, int]) -> None:
    """Refuse a degenerate lattice window, or one of more than
    ``LATTICE_COLUMN_BUDGET`` points, before anything is assembled."""
    i_lo, i_hi, j_lo, j_hi = window
    if i_hi < i_lo or j_hi < j_lo:
        raise RegimeError(f"degenerate window: {window}")
    points = (i_hi - i_lo + 1) * (j_hi - j_lo + 1)
    if points > LATTICE_COLUMN_BUDGET:
        raise RegimeError(
            f"a lattice window of {points} points is over the budget of {LATTICE_COLUMN_BUDGET}"
        )


def _lattice_stack(
    profile: DiagramProfile,
    window: tuple[int, int, int, int],
    a: float,
    b: float,
):
    """The stacked matrix of the adjoints (a - W*) and (b - Z*) on a lattice
    window, as CSR.

    Columns are the diagram points (i, j) inside ``window``, row by row from
    j_lo and along each row from its first column; each maps to a*e_(i,j) -
    e_(i-1,j) on the ``w`` side and to b*e_(i,j) - e_(i,j-1) on the ``z``
    side, dropping the images that leave the diagram.  Image rows are
    numbered by their first appearance in that order.  Magnitudes a, b
    outside [0, 1] and a window over budget are refused before anything is
    assembled.
    """
    import scipy.sparse

    check_magnitude("|mu|", a)
    check_magnitude("|lambda|", b)
    check_lattice_window(window)
    i_lo, i_hi, j_lo, j_hi = window
    width, height = i_hi - i_lo + 1, j_hi - j_lo + 3
    # Rows k = 0 .. height - 1 are j_lo - 1 .. j_hi + 1, and column offsets
    # x = i - (i_lo - 1) run over 0 .. width + 1.  With the row minima, +-inf
    # included, clipped to that range, (x, k) is in the diagram exactly when
    # cut[k] <= x.  Object arithmetic keeps border values beyond int64 exact.
    rows = m_exact(profile, range(j_lo - 1, j_hi + 2)).astype(object)
    cut = (np.minimum(np.maximum(rows, i_lo - 1), i_hi + 1) - (i_lo - 1)).astype(np.int64)
    starts = np.maximum(cut[1:-1], 1)  # first column of rows j_lo .. j_hi
    counts = width + 1 - starts
    n_cols = int(counts.sum())
    if not n_cols:
        raise RegimeError("window does not intersect the diagram")
    k = np.repeat(np.arange(1, height - 1), counts)
    x = np.arange(n_cols) - np.repeat(np.cumsum(counts) - counts - starts, counts)

    # Four entries per column: w self, w image, z self, z image.
    sides = np.array([0, 0, 1, 1])
    xs = x[:, None] + np.array([0, -1, 0, 0])
    ks = k[:, None] + np.array([0, 0, 0, -1])
    values = np.broadcast_to(np.array([a, -1.0, b, -1.0]), xs.shape)
    present = np.ones(xs.shape, dtype=bool)
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
    """The witness ||A v|| / ||v|| for the solver's approximate smallest
    right singular vector v of the stacked matrix A.

    Up to 500 columns v is the smallest eigenvector of the dense Gram A^T A
    (LAPACK syevr, that one eigenpair only); beyond, it is the shift-invert
    Lanczos vector of the sparse Gram.  As the norm of A times a vector, the
    value is never below sigma_min(A) in exact arithmetic, and a Gram
    eigenvector accurate to eps ||A||**2 puts it at most about
    sqrt(eps) ||A|| above; in practice it agrees with a dense SVD down to
    sigma_min near 1e-10, far under the Gram floor of an eigenvalue's square
    root.  ARPACK asks for a random restart vector when its Krylov space
    turns invariant (a Gram with one repeated eigenvalue); a fixed ``rng``
    draws the same one every call, so the vector, and the witness, repeat
    bit for bit.
    """
    import scipy.linalg
    import scipy.sparse.linalg

    n_cols = matrix.shape[1]
    gram = matrix.T @ matrix
    if n_cols <= 500:
        _, vectors = scipy.linalg.eigh(gram.toarray(), subset_by_index=[0, 0])
    else:
        try:
            _, vectors = scipy.sparse.linalg.eigsh(
                gram.tocsc(), k=1, sigma=-1e-10, which="LM", v0=np.ones(n_cols), rng=0
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise RegimeError(
                f"the sparse eigensolver did not converge on a {n_cols}-column lattice window"
            ) from exc
    v = vectors[:, 0]
    return float(np.linalg.norm(matrix @ v) / np.linalg.norm(v))


def joint_adjoint_kernel_smin(
    profile: DiagramProfile,
    mu: complex,
    lam: complex,
    window: tuple[int, int, int, int],
) -> float:
    """Smallest singular value of the stacked adjoints on a lattice window.

    Columns are the diagram points inside ``window``; rows carry the full
    image of the window under (|mu| - M_w*) and (|lambda| - M_z*), so the
    smallest singular value is the minimum of the stacked adjoint residual
    over unit window-supported vectors.  The value returned is that residual
    at the solver's own unit vector (``_stacked_smin``): an upper bound on
    the minimum that meets it to solver accuracy.  Small values certify an
    approximate common adjoint-kernel vector, hence final-stage failure
    nearby.  Phases are dropped: a diagonal phase rotation of the basis
    turns the general case into the nonnegative one.
    """
    return _stacked_smin(_lattice_stack(profile, window, abs(mu), abs(lam)))

"""Reference mathematics for the benchmark's output checks.

Nothing here imports stairspec.  Border sequences, spectral exponents, the
band predicates, the fringe-shift radius prediction, the gamma2 root-test
limits and the oracle matrices are all rebuilt from the definitions, so the
checks compare the program against an independent computation rather than
against a stored copy of its own output.

Exponents are exact: ``Fraction`` for finite values and ``INF`` for
infinity.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

INF = math.inf
MARGIN = 1e-9  # log-domain distance from an envelope below which a cell is not checked


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------

def parse_exp(text: str):
    """Parse the program's serialized exponent ("inf" or "n/d")."""
    return INF if text == "inf" else Fraction(text)


def recip(x):
    """1/x on [0, inf] with 1/0 = inf and 1/inf = 0."""
    if x == INF:
        return Fraction(0)
    if x == 0:
        return INF
    return 1 / x


def mu_pow(mu: float, e) -> float:
    """mu**e for 0 < mu < 1 with mu**inf = 0."""
    return 0.0 if e == INF else mu ** float(e)


def cycle_end_averages(slopes, ratio: int) -> list[Fraction]:
    """Limits of C(t)/t along the ends of the blocks of each phase.

    The block ending at step t_K has slope s_K and length L r**K, so
    C(t_K)/t_K = (r-1)/r * sum_{d>=0} s_{K-d} r**-d in the limit; the sum is
    periodic in d with period m = len(slopes) and closes as a geometric
    series.
    """
    m = len(slopes)
    r = Fraction(ratio)
    out = []
    for phase in range(m):
        series = sum(Fraction(slopes[(phase - d) % m]) / r**d for d in range(m))
        out.append((r - 1) / r * series / (1 - 1 / r**m))
    return out


@dataclass(frozen=True)
class Exponents:
    """delta, eta, rho on each side, plus the smallest running-average limit."""

    delta_minus: object
    eta_minus: object
    rho_minus: object
    delta_plus: object
    eta_plus: object
    rho_plus: object
    eta_low_minus: object  # liminf of running averages; eta of the inverse tail
    eta_low_plus: object

    def as_dict(self) -> dict:
        return {
            "delta_minus": self.delta_minus,
            "delta_plus": self.delta_plus,
            "eta_minus": self.eta_minus,
            "eta_plus": self.eta_plus,
            "rho_minus": self.rho_minus,
            "rho_plus": self.rho_plus,
        }

    @property
    def p(self):
        return min(self.delta_minus, self.delta_plus)

    @property
    def q(self):
        return max(self.rho_minus, self.rho_plus)

    def transposed(self) -> "Exponents":
        """Exponents of the reflected diagram: each side's inverse staircase
        moves to the other side, so every exponent is a reciprocal."""
        return Exponents(
            delta_minus=recip(self.rho_plus),
            eta_minus=recip(self.eta_low_plus),
            rho_minus=recip(self.delta_plus),
            delta_plus=recip(self.rho_minus),
            eta_plus=recip(self.eta_low_minus),
            rho_plus=recip(self.delta_minus),
            eta_low_minus=recip(self.eta_plus),
            eta_low_plus=recip(self.eta_minus),
        )


def tail_exponents(tail: dict):
    """(delta, eta, rho, eta_low) of one tail of a spec document."""
    kind = tail["kind"]
    if kind in ("empty", "full"):
        return INF, INF, INF, INF
    if kind == "periodic":
        s = Fraction(tail["rise"], tail["period"])
        return s, s, s, s
    slopes = [Fraction(s) for s in tail["slopes"]]
    avgs = cycle_end_averages(slopes, tail["ratio"])
    return min(slopes), max(avgs), max(slopes), min(avgs)


def exponents(doc: dict) -> Exponents:
    dm, em, rm, lm = tail_exponents(doc["minus_tail"])
    dp, ep, rp, lp = tail_exponents(doc["plus_tail"])
    return Exponents(dm, em, rm, dp, ep, rp, lm, lp)


# ---------------------------------------------------------------------------
# Border sequences
# ---------------------------------------------------------------------------

def round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


class RefTail:
    """Exact rise after t >= 1 steps away from the window."""

    def __init__(self, tail: dict, side: str):
        self.kind = tail["kind"]
        self.side = side
        if self.kind == "periodic":
            self.period, self.rise = tail["period"], tail["rise"]
        elif self.kind == "geometric":
            slopes = [Fraction(s) for s in tail["slopes"]]
            self.starts, self.targets, self.slopes = [], [], []
            start, target, length, k = 0, Fraction(0), tail["base_len"], 0
            while start < 10**13:  # far beyond any index the benchmark touches
                s = slopes[k % len(slopes)]
                self.starts.append(start)
                self.targets.append(target)
                self.slopes.append(s)
                target += s * length
                start += length
                length *= tail["ratio"]
                k += 1

    @property
    def flat(self) -> bool:
        return self.kind == "periodic" and self.rise == 0

    def rise_after(self, t: int) -> int:
        if self.kind == "periodic":
            if self.side == "minus":  # ceiling rule below the window
                return -((-t * self.rise) // self.period)
            return (t * self.rise) // self.period  # floor rule above it
        k = bisect.bisect_left(self.starts, t) - 1  # block with start < t <= end
        return round_half_up(self.targets[k] + self.slopes[k] * (t - self.starts[k]))


class RefProfile:
    """M_j of a spec document, in exact integers (+-inf at empty/full rows)."""

    def __init__(self, doc: dict):
        self.j_lo = doc["window"]["j_lo"]
        self.window = list(doc["window"]["values"])
        self.j_hi = self.j_lo + len(self.window) - 1
        self.minus = RefTail(doc["minus_tail"], "minus")
        self.plus = RefTail(doc["plus_tail"], "plus")

    def M(self, j: int):
        if self.j_lo <= j <= self.j_hi:
            return self.window[j - self.j_lo]
        if j < self.j_lo:
            if self.minus.kind == "empty":
                return INF
            return self.window[0] + self.minus.rise_after(self.j_lo - j)
        if self.plus.kind == "full":
            return -INF
        return self.window[-1] - self.plus.rise_after(j - self.j_hi)

    def N(self, k: int):
        """Column border min{j : M_j <= k}; -inf when every row qualifies and
        +inf when none does."""
        if self.M(self.j_hi) <= k:
            if self.minus.flat and self.window[0] <= k:
                return -INF
            lo = self.j_hi  # M_lo <= k; find the smallest such j below it
            step = 1
            while self.M(lo - step) <= k:
                lo -= step
                step *= 2
            hi = lo - step  # M_hi > k
            while lo - hi > 1:
                mid = (lo + hi) // 2
                if self.M(mid) <= k:
                    lo = mid
                else:
                    hi = mid
            return lo
        if self.plus.kind == "full":
            return self.j_hi + 1
        if self.plus.flat:
            return INF
        hi = self.j_hi  # M_hi > k; find the first j above it with M_j <= k
        step = 1
        while self.M(hi + step) > k:
            hi += step
            step *= 2
        lo = hi + step
        while lo - hi > 1:
            mid = (lo + hi) // 2
            if self.M(mid) <= k:
                lo = mid
            else:
                hi = mid
        return lo


class RefTransposed:
    """Border sequence of the reflected diagram: M'_k = N_k of the original."""

    def __init__(self, base: RefProfile):
        self.base = base

    def M(self, k: int):
        return self.base.N(k)


# ---------------------------------------------------------------------------
# Region predicates on (a, b) = (|mu|, |lambda|)
# ---------------------------------------------------------------------------

def _lower_ok(a: float, b: float, e) -> float:
    """Log slack of a**e <= b; 0**e and a**inf sides count as satisfied."""
    if a == 0.0 or e == INF:
        return INF
    if b == 0.0:
        return -INF
    return math.log(b) - float(e) * math.log(a)


def _upper_ok(a: float, b: float, e) -> float:
    """Log slack of b <= a**e; 0**0 and 1**inf count as satisfied."""
    if e == 0:
        return INF if (a == 0.0 or b == 0.0) else -math.log(b)
    if e == INF:
        return INF if (a == 1.0 or b == 0.0) else -INF
    if a == 0.0:
        return INF if b == 0.0 else -INF
    if b == 0.0:
        return INF
    return float(e) * math.log(a) - math.log(b)


def _decide(slack: float):
    if slack >= MARGIN:
        return "in"
    if slack <= -MARGIN:
        return "out"
    return None  # within the margin of an envelope: not checked


def taylor_state(x: Exponents, a: float, b: float):
    """Closed band a**q <= b <= a**p, or None near an envelope."""
    if (a, b) in ((0.0, 0.0), (1.0, 1.0)):
        return None  # both envelopes meet at the corner
    return _decide(min(_lower_ok(a, b, x.q), _upper_ok(a, b, x.p)))


def gamma2_state(x: Exponents, w_mixed: bool, z_mixed: bool, a: float, b: float):
    """Open band a**eta_plus < b < a**eta_minus, the axis of each isometry
    that has a unitary part, and the origin; the torus shell is unresolved."""
    if a == 0.0 and b == 0.0:
        return "in"
    if a == 1.0 or b == 1.0:
        return None
    if b == 0.0:
        return "in" if w_mixed else "out"
    if a == 0.0:
        return "in" if z_mixed else "out"
    lower = INF if x.eta_plus == INF else math.log(b) - float(x.eta_plus) * math.log(a)
    if x.eta_minus == INF:
        upper = -INF
    else:
        upper = float(x.eta_minus) * math.log(a) - math.log(b)
    return _decide(min(lower, upper))


def parts_consistent(t: str, g2: str, g3: str) -> bool:
    """Off boundary cells the spectrum is the union of its two loci."""
    if "boundary" in (t, g2, g3):
        return True
    return (t == "in") == (g2 == "in" or g3 == "in")


def wold_flags(doc: dict) -> tuple[bool, bool]:
    """(W has a unitary part, Z has a unitary part): full rows above the
    window give W one, constant rows below give Z one."""
    minus = doc["minus_tail"]
    w_mixed = doc["plus_tail"]["kind"] == "full"
    z_mixed = minus["kind"] == "periodic" and minus["rise"] == 0
    return w_mixed, z_mixed


# ---------------------------------------------------------------------------
# Fringe shift and gamma2 series
# ---------------------------------------------------------------------------

def shift_kind(doc: dict) -> str:
    """Kind of the fringe shift: where the border sequence stays finite."""
    empty_below = doc["minus_tail"]["kind"] == "empty"
    full_above = doc["plus_tail"]["kind"] == "full"
    if empty_below and full_above:
        return "finite"
    if empty_below:
        return "unilateral"
    if full_above:
        return "adjoint"
    return "bilateral"


def ap_intervals(kind: str, x: Exponents, mu: float) -> list[tuple[float, float]]:
    """Radius intervals of the approximate point spectrum of the dual shift."""
    if kind == "unilateral":
        return [(0.0, mu_pow(mu, x.delta_plus))]
    if kind == "adjoint":
        return [(mu_pow(mu, x.rho_minus), mu_pow(mu, x.delta_minus))]
    if kind == "finite":
        return [(0.0, 0.0)]
    return [
        (mu_pow(mu, x.rho_minus), mu_pow(mu, x.delta_minus)),
        (mu_pow(mu, x.delta_minus), mu_pow(mu, x.rho_plus)),
        (mu_pow(mu, x.rho_plus), mu_pow(mu, x.delta_plus)),
    ]


def ap_state(kind: str, x: Exponents, mu: float, lam: float, rel: float = MARGIN):
    """'in'/'out' for |lambda|, or None within log-distance ``rel`` of a radius."""
    intervals = ap_intervals(kind, x, mu)
    for lo, hi in intervals:
        for r in (lo, hi):
            if r > 0.0 and lam > 0.0 and abs(math.log(lam) - math.log(r)) < rel:
                return None
    return "in" if any(lo <= lam <= hi for lo, hi in intervals) else "out"


def gamma2_limits(x: Exponents, mu: float, lam: float) -> tuple[float, float]:
    """Root-test limits of the downward and upward witness series."""
    down = lam**2 * mu ** (-2.0 * float(x.eta_minus))
    up = 0.0 if x.eta_plus == INF else mu ** (2.0 * float(x.eta_plus)) / lam**2
    return down, up


def gamma2_expected(x: Exponents, mu: float, lam: float, band: float = 0.1):
    """'converges'/'diverges', or None when a limit is within ``band`` of 1."""
    down, up = gamma2_limits(x, mu, lam)
    for v in (down, up):
        if abs(v - 1.0) < band:
            return None
    return "diverges" if max(down, up) > 1.0 else "converges"


# ---------------------------------------------------------------------------
# Oracle matrices, assembled from the lattice definition
# ---------------------------------------------------------------------------

def window_starts(j_min, j_max, n: int, j_scan: int, stride: int | None = None) -> list[int]:
    """Window starts of a scan: a grid over [-j_scan, j_scan] (stride n/4
    unless given) plus its right end, clamped into the shift's index range."""
    step = stride if stride is not None else max(1, n // 4)
    raw = set(range(-j_scan, j_scan + 1, step)) | {j_scan}
    out = set()
    for s in raw:
        if j_min != -INF:
            s = max(s, int(j_min))
        if j_max != INF:
            s = min(s, int(j_max) - n + 1)
        out.add(s)
    return sorted(out)


def shift_range(doc: dict):
    """(first, last) index of finite border values."""
    j_lo = doc["window"]["j_lo"]
    j_hi = j_lo + len(doc["window"]["values"]) - 1
    first = j_lo if doc["minus_tail"]["kind"] == "empty" else -INF
    last = j_hi if doc["plus_tail"]["kind"] == "full" else INF
    return first, last


def _bidiagonal_smin(drops: list, mu: float, lam: float) -> float:
    n = len(drops)
    a = np.zeros((n + 1, n))
    for c, drop in enumerate(drops):
        a[c + 1, c] = lam
        a[c, c] = -(0.0 if drop == INF else mu ** int(drop))
    return float(np.linalg.svd(a, compute_uv=False)[-1])


@functools.lru_cache(maxsize=None)
def scan_min_dense(ref, j_min, j_max, mu: float, lam: float, n: int, j_scan: int) -> float:
    """Smallest window smin of a scan, by dense SVD of each window matrix.

    On coordinates [s, s+n) the dual operator OP e_j = mu**(M_{j-1}-M_j) e_{j-1}
    has an image with n+1 rows, so lambda - OP is (n+1) x n bidiagonal.
    ``ref`` is anything with an exact ``M(j)``.
    """
    seen: dict[tuple, float] = {}
    for s in window_starts(j_min, j_max, n, j_scan):
        vals = [ref.M(j) for j in range(s - 1, s + n)]
        drops = tuple(vals[c] - vals[c + 1] for c in range(n))
        if drops not in seen:  # translated copies of one window share their smin
            seen[drops] = _bidiagonal_smin(drops, mu, lam)
    return min(seen.values())


def lattice_points(ref: RefProfile, window) -> list[tuple[int, int]]:
    i_lo, i_hi, j_lo, j_hi = window
    pts = []
    for j in range(j_lo, j_hi + 1):
        m = ref.M(j)
        if m == INF:
            continue
        first = i_lo if m == -INF else max(i_lo, m)
        pts.extend((i, j) for i in range(first, i_hi + 1))
    return pts


@functools.lru_cache(maxsize=None)
def kernel_smin_dense(ref: RefProfile, mu: float, lam: float, window) -> float:
    """smin of the stacked adjoints (mu - M_w*, lambda - M_z*) on the diagram
    points of ``window``, with every row of the image kept."""
    pts = lattice_points(ref, window)
    col = {p: c for c, p in enumerate(pts)}
    rows: dict[tuple, int] = {}
    entries = []
    for (i, j), c in col.items():
        for key, value in ((("w", i, j), mu), (("z", i, j), lam)):
            entries.append((rows.setdefault(key, len(rows)), c, value))
        if ref.M(j) <= i - 1:  # M_w* e_(i,j) = e_(i-1,j) inside the diagram
            entries.append((rows.setdefault(("w", i - 1, j), len(rows)), c, -1.0))
        if ref.M(j - 1) <= i:  # M_z* e_(i,j) = e_(i,j-1) inside the diagram
            entries.append((rows.setdefault(("z", i, j - 1), len(rows)), c, -1.0))
    a = np.zeros((len(rows), len(pts)))
    for r, c, v in entries:
        a[r, c] += v
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def kernel_columns(ref: RefProfile, window) -> int:
    return len(lattice_points(ref, window))

"""Exact nonnegative extended reals and exponent-band membership.

Every spectral exponent handled by this package is an exact value in
[0, inf].  Regions in the (|mu|, |lambda|) square are cut out by envelope
pairs ``a**q <= b <= a**p`` with exact exponents, where inequalities that
reduce to the indeterminate forms ``0**0`` or ``1**inf`` are declared
satisfied.  Membership is reported as a tri-state: points whose binding
constraint holds only within a log-domain tolerance come back as boundary
points rather than interior ones.

One kernel evaluates these conventions: each is a mask over the log-domain
band formula, combined with ``where``/``minimum``/``maximum``.  It runs at a
single point on Python floats (``band_member``, ``envelope_pair_member`` and
``regions.region_member``) or over whole numpy arrays
(``regions.region_states``), with the same libm logs and the same float
operations, so both give the same answer at every point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

DEFAULT_TOL = 1e-12


class SpecError(ValueError):
    """Base of every refusal of a malformed or invalid spec or probe size: the CLI exits 2."""


class RegimeError(ValueError):
    """Base of every refusal of a valid input outside the numeric regime: the CLI exits 3."""


class BandDomainError(RegimeError):
    """Raised when a magnitude or exponent argument leaves the supported domain."""


class ExtReal:
    """An exact element of [0, inf]: a reduced nonnegative fraction or infinity.

    Instances are immutable and totally ordered, with every finite value
    below infinity.  The value is kept as two ints, a numerator and a
    denominator in lowest terms, with infinity as 1/0; every comparison is
    one exact cross-multiplication ``a.n * b.d < b.n * a.d``, which orders
    infinity correctly too, never floating point.  ``float(x)``, taken once
    when the value is built, is its one float view: inf for infinity and
    DBL_MAX for a finite value beyond float64.  Saturating is exact for each
    use of an exponent e at a float a in [0, 1] (``e * log(a)`` in the kernel,
    ``a ** e`` in ``pow_ext``).  For a < 1, a <= 1 - 2**-53, so DBL_MAX *
    log(a) < -2e292 lies past any finite tol and a ** DBL_MAX underflows to
    0.0; for a = 1, DBL_MAX * 0.0 = 0.0 as 1**e = 1 (inf would give NaN); at
    a = 0 the convention masks decide.
    """

    __slots__ = ("_n", "_d", "_float")

    _n: int
    _d: int  # 0 encodes infinity, with _n = 1
    _float: float

    def __init__(self, value: "ExtReal | Fraction | int | None" = 0):
        if type(value) is ExtReal:
            _init(self, value._n, value._d)
            return
        if value is None:
            _init(self, 1, 0)
            return
        frac = value if isinstance(value, (int, Fraction)) else Fraction(value)
        if frac.numerator < 0:
            raise BandDomainError(f"negative value not representable: {value}")
        _init(self, frac.numerator, frac.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("ExtReal is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the slots refuse writes
        return ExtReal, (Fraction(self._n, self._d) if self._d else None,)

    @classmethod
    def infinity(cls) -> "ExtReal":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "ExtReal":
        """Parse the serialized forms: "inf", "n", or "num/den"."""
        text = text.strip()
        if text == "inf":
            return cls(None)
        try:
            return cls(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise BandDomainError(f"cannot parse extended real: {text!r}") from exc

    @property
    def is_infinite(self) -> bool:
        return not self._d

    def as_fraction(self) -> Fraction:
        if not self._d:
            raise BandDomainError("infinity has no fractional value")
        return Fraction(self._n, self._d)

    def reciprocal(self) -> "ExtReal":
        """1/x with the conventions 1/0 = inf and 1/inf = 0."""
        if not self._n:
            return EXT_INF
        out = ExtReal.__new__(ExtReal)
        _init(out, self._d, self._n)  # still in lowest terms
        return out

    def __float__(self) -> float:
        return self._float

    @staticmethod
    def _coerce(other) -> "ExtReal | None":
        """A nonnegative int or Fraction as an ExtReal; None for anything else."""
        if isinstance(other, (int, Fraction)) and other >= 0:
            return ExtReal(other)
        return None

    def __eq__(self, other) -> bool:
        if type(other) is not ExtReal:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._n == other._n and self._d == other._d

    def __lt__(self, other) -> bool:
        if type(other) is not ExtReal:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._n * other._d < other._n * self._d

    def __le__(self, other) -> bool:
        if type(other) is not ExtReal:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._n * other._d <= other._n * self._d

    def __gt__(self, other) -> bool:
        if type(other) is not ExtReal:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._n * other._d > other._n * self._d

    def __ge__(self, other) -> bool:
        if type(other) is not ExtReal:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._n * other._d >= other._n * self._d

    def __hash__(self) -> int:
        # The hash of the equal int or Fraction, so mixed keys agree.
        return hash(Fraction(self._n, self._d)) if self._d else hash(math.inf)

    def __str__(self) -> str:
        if not self._d:
            return "inf"
        try:
            return f"{self._n}/{self._d}"
        except ValueError as exc:  # past the interpreter's int-to-str digit limit
            raise BandDomainError(
                "exponent has more decimal digits than the interpreter writes "
                f"({self._n.bit_length()}-bit numerator, {self._d.bit_length()}-bit denominator)"
            ) from exc

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"


def _init(x: ExtReal, n: int, d: int) -> None:
    """Set the reduced pair of a new ExtReal and take its float once.

    ``n / d`` is int true division, correctly rounded like ``float(Fraction)``,
    saturated to DBL_MAX beyond float64 (see ``ExtReal``).
    """
    object.__setattr__(x, "_n", n)
    object.__setattr__(x, "_d", d)
    try:
        value = n / d if d else math.inf
    except OverflowError:
        value = sys.float_info.max
    object.__setattr__(x, "_float", value)


EXT_ZERO = ExtReal(0)
EXT_INF = ExtReal.infinity()


def pow_ext(base: float, exponent: ExtReal) -> float:
    """base**exponent for base in (0, 1] and an exact exponent in [0, inf]:
    float power keeps the conventions 1.0 ** inf = 1.0 and b ** inf = 0.0."""
    if not 0.0 < base <= 1.0:
        raise BandDomainError(f"base must lie in (0, 1]: {base}")
    return base ** float(exponent)


class Membership(Enum):
    """Tri-state answer of a region test; values double as CSV labels."""

    INSIDE = "in"
    BOUNDARY = "boundary"
    OUTSIDE = "out"

    @property
    def rank(self) -> int:
        return {"out": 0, "boundary": 1, "in": 2}[self.value]


def best_membership(*states: Membership) -> Membership:
    """Union semantics: a point is in a union if it is in any part."""
    return max(states, key=lambda s: s.rank)


@dataclass(frozen=True)
class BandMembership:
    state: Membership
    tolerance_used: float


def check_tolerance(tol: float) -> None:
    """Reject a boundary tolerance that is not a positive finite number."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise BandDomainError(f"tolerance must be positive and finite: {tol}")


# ---------------------------------------------------------------------------
# The membership kernel: one mask per convention, at a point or over arrays
# ---------------------------------------------------------------------------

CODE_STATES = (Membership.OUTSIDE, Membership.BOUNDARY, Membership.INSIDE)
"""Membership of each code the kernel returns: the ``Membership.rank`` order."""

_OUT, _BOUNDARY, _IN = (state.rank for state in CODE_STATES)


def _ln(v: float) -> float:
    """``math.log`` with log(0) = -inf."""
    return math.log(v) if v > 0.0 else -math.inf


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise ``_ln``.

    numpy's vectorized log differs from libm's by one ulp on a fraction of a
    percent of inputs, so arrays take the same libm call as single points and
    every slack is the same double on both paths.
    """
    return np.array([_ln(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _pick(cond: bool, x, y):
    return x if cond else y


def _same(value):
    return value


class _Cells(NamedTuple):
    """Magnitudes of one call as the kernel sees them.

    The logs of ``a = |mu|`` and ``b = |lambda|``, the convention masks
    a = 0, a = 1, b = 0, b = 1, and the primitives the kernel combines them
    with: ``where``, ``minimum``, ``maximum`` and ``full`` (a constant of the
    call's shape).  ``of`` builds them over arrays with numpy's primitives,
    ``at`` for one point with a conditional expression, ``min`` and ``max``.
    """

    log_a: Any
    log_b: Any
    a0: Any
    a1: Any
    b0: Any
    b1: Any
    where: Callable
    minimum: Callable
    maximum: Callable
    full: Callable

    @classmethod
    def of(cls, mu_abs, lambda_abs) -> "_Cells":
        """Arrays of magnitudes; each field keeps the shape of its own input.

        numpy broadcasts the fields against each other, so a grid needs one
        log per tick, not per cell.
        """
        a = np.asarray(mu_abs, dtype=float)
        b = np.asarray(lambda_abs, dtype=float)
        for name, x in (("|mu|", a), ("|lambda|", b)):
            bad = ~((x >= 0.0) & (x <= 1.0))  # also catches NaN
            if bad.any():
                raise BandDomainError(f"{name} must lie in [0, 1]: {x[bad][0]}")
        full = partial(np.full, np.broadcast_shapes(a.shape, b.shape))
        return cls(_log(a), _log(b), a == 0.0, a == 1.0, b == 0.0, b == 1.0,
                   np.where, np.minimum, np.maximum, full)

    @classmethod
    def at(cls, a: float, b: float) -> "_Cells":
        """One point (a, b) = (|mu|, |lambda|)."""
        if not 0.0 <= a <= 1.0:  # also catches NaN
            raise BandDomainError(f"|mu| must lie in [0, 1]: {a}")
        if not 0.0 <= b <= 1.0:
            raise BandDomainError(f"|lambda| must lie in [0, 1]: {b}")
        return cls(_ln(a), _ln(b), a == 0.0, a == 1.0, b == 0.0, b == 1.0,
                   _pick, min, max, _same)


def _lower_slacks(cells: _Cells, e: ExtReal):
    """Log-domain slack of the constraint a**e <= b (>= 0 means satisfied).

    Conventions: a = 0 always satisfies it (0**0 is declared satisfied and
    0**e = 0 otherwise), as does e = inf (a**inf = 0 for a < 1 and 1**inf is
    declared satisfied); b = 0 fails it otherwise.  The masks overwrite the
    NaN the formula gives on their cells.
    """
    if e.is_infinite:
        return cells.full(math.inf)
    slack = cells.log_b - float(e) * cells.log_a
    slack = cells.where(cells.b0, -math.inf, slack)
    return cells.where(cells.a0, math.inf, slack)


def _upper_slacks(cells: _Cells, e: ExtReal):
    """Log-domain slack of the constraint b <= a**e (>= 0 means satisfied).

    Conventions: 0**0 and 1**inf are declared satisfied, a**inf = 0 for
    a < 1 and 0**e = 0 for e > 0.
    """
    if e.is_infinite:
        return cells.where(cells.a1 | cells.b0, math.inf, -math.inf)
    if e == EXT_ZERO:
        # -log(b), which is +inf at b = 0
        return cells.where(cells.a0, math.inf, -cells.log_b)
    slack = float(e) * cells.log_a - cells.log_b
    slack = cells.where(cells.a0, -math.inf, slack)
    return cells.where(cells.b0, math.inf, slack)


def _classify_slacks(cells: _Cells, slack, tol: float):
    """Codes of slacks: inside from ``tol`` up, outside from ``-tol`` down."""
    return cells.where(slack >= tol, _IN, cells.where(slack <= -tol, _OUT, _BOUNDARY))


def _check_band(p: ExtReal, q: ExtReal) -> None:
    if q < p:
        raise BandDomainError(f"band requires p <= q, got p={p}, q={q}")


def _band_states(cells: _Cells, p: ExtReal, q: ExtReal, tol: float):
    """Codes of the closed band a**q <= b <= a**p, p <= q; see ``band_member``."""
    p_zero = p == EXT_ZERO
    if p_zero and q.is_infinite:
        return cells.full(_IN)
    if p_zero and q == EXT_ZERO:
        return cells.where(cells.a0 | cells.b1, _IN, _OUT)
    if p.is_infinite:  # p = q = inf
        return cells.where(cells.a1 | cells.b0, _IN, _OUT)
    if q.is_infinite:
        slack = _upper_slacks(cells, p)
    elif p_zero:
        slack = _lower_slacks(cells, q)
    else:
        slack = cells.minimum(_lower_slacks(cells, q), _upper_slacks(cells, p))
    # Both envelopes pinch to zero at the origin; it sits inside the band
    # exactly when the band has an opening (p < q), else on its edge.
    corner = _IN if p < q else _BOUNDARY
    return cells.where(cells.a0 & cells.b0, corner, _classify_slacks(cells, slack, tol))


def _envelope_states(cells: _Cells, lower_exp: ExtReal, upper_exp: ExtReal, tol: float):
    """Codes of the envelope pair a**lower_exp <= b <= a**upper_exp."""
    slack = cells.minimum(_lower_slacks(cells, lower_exp), _upper_slacks(cells, upper_exp))
    return _classify_slacks(cells, slack, tol)


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
    cells = _Cells.at(a, b)
    check_tolerance(tol)
    _check_band(p, q)
    return BandMembership(CODE_STATES[_band_states(cells, p, q, tol)], tol)


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
    cells = _Cells.at(a, b)
    check_tolerance(tol)
    return BandMembership(CODE_STATES[_envelope_states(cells, lower_exp, upper_exp, tol)], tol)

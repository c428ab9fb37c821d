"""Exact nonnegative extended reals and exponent-band membership.

Every spectral exponent handled by this package is an exact value in
[0, inf].  Regions in the (|mu|, |lambda|) square are cut out by envelope
pairs ``a**q <= b <= a**p`` with exact exponents, where inequalities that
reduce to the indeterminate forms ``0**0`` or ``1**inf`` are declared
satisfied.  Membership is reported as a tri-state: points whose binding
constraint holds only within a log-domain tolerance come back as boundary
points rather than interior ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import total_ordering

DEFAULT_TOL = 1e-12


class BandDomainError(ValueError):
    """Raised when a magnitude or exponent argument leaves the supported domain."""


@total_ordering
class ExtReal:
    """An exact element of [0, inf]: a reduced nonnegative fraction or infinity.

    Instances are immutable and totally ordered, with every finite value
    below infinity.  Finite comparisons are exact (cross-multiplication via
    ``fractions.Fraction``), never floating point.
    """

    __slots__ = ("_frac",)

    _frac: Fraction | None  # None encodes infinity

    def __init__(self, value: "ExtReal | Fraction | int | None" = 0):
        if isinstance(value, ExtReal):
            object.__setattr__(self, "_frac", value._frac)
            return
        if value is None:
            object.__setattr__(self, "_frac", None)
            return
        frac = Fraction(value)
        if frac < 0:
            raise BandDomainError(f"negative value not representable: {value}")
        object.__setattr__(self, "_frac", frac)

    def __setattr__(self, name, value):
        raise AttributeError("ExtReal is immutable")

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
        return self._frac is None

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise BandDomainError("infinity has no fractional value")
        return self._frac

    def reciprocal(self) -> "ExtReal":
        """1/x with the conventions 1/0 = inf and 1/inf = 0."""
        if self._frac is None:
            return ExtReal(0)
        if self._frac == 0:
            return ExtReal(None)
        return ExtReal(1 / self._frac)

    def __float__(self) -> float:
        return math.inf if self._frac is None else float(self._frac)

    def as_float(self) -> float:
        """The finite value as a float; BandDomainError for infinity or beyond float64."""
        if self._frac is None:
            raise BandDomainError("infinity has no finite float value")
        try:
            return float(self._frac)
        except OverflowError as exc:
            digits = math.log10(self._frac.numerator) - math.log10(self._frac.denominator)
            raise BandDomainError(
                f"exponent of about 1e{digits:.0f} is beyond the float64 range"
            ) from exc

    @staticmethod
    def _coerce(other) -> "ExtReal | None":
        if isinstance(other, ExtReal):
            return other
        if isinstance(other, (int, Fraction)):
            try:
                return ExtReal(other)
            except BandDomainError:
                return None
        return None

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._frac == coerced._frac

    def __lt__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        if self._frac is None:
            return False
        if coerced._frac is None:
            return True
        return self._frac < coerced._frac

    def __hash__(self) -> int:
        return hash(("ExtReal", self._frac))

    def __str__(self) -> str:
        if self._frac is None:
            return "inf"
        return f"{self._frac.numerator}/{self._frac.denominator}"

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"


EXT_ZERO = ExtReal(0)
EXT_INF = ExtReal.infinity()


def reciprocal(x: ExtReal) -> ExtReal:
    """1/x on [0, inf] with 1/0 = inf and 1/inf = 0."""
    return x.reciprocal()


def pow_ext(base: float, exponent: ExtReal) -> float:
    """base**exponent for base in (0, 1] and an exact exponent in [0, inf]."""
    if not 0.0 < base <= 1.0:
        raise BandDomainError(f"base must lie in (0, 1]: {base}")
    if exponent.is_infinite:
        return 1.0 if base == 1.0 else 0.0
    return base ** exponent.as_float()


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

    @property
    def is_inside(self) -> bool:
        return self.state is Membership.INSIDE


def check_tolerance(tol: float) -> None:
    """Reject a boundary tolerance that is not a positive finite number."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise BandDomainError(f"tolerance must be positive and finite: {tol}")


def _check_magnitude(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise BandDomainError(f"{name} must lie in [0, 1]: {value}")


def lower_slack(a: float, b: float, e: ExtReal) -> float:
    """Log-domain slack of the constraint a**e <= b (>= 0 means satisfied).

    Conventions: a = 0 always satisfies it (0**0 is declared satisfied and
    0**e = 0 otherwise), as does e = inf (a**inf = 0 for a < 1 and 1**inf is
    declared satisfied).
    """
    if a == 0.0:
        return math.inf
    if e.is_infinite:
        return math.inf
    if b == 0.0:
        return -math.inf  # a**e > 0 for a > 0, e < inf
    return math.log(b) - e.as_float() * math.log(a)


def upper_slack(a: float, b: float, e: ExtReal) -> float:
    """Log-domain slack of the constraint b <= a**e (>= 0 means satisfied)."""
    if not e.is_infinite and e == EXT_ZERO:
        if a == 0.0:
            return math.inf  # 0**0 declared satisfied
        return -math.log(b) if b > 0.0 else math.inf
    if e.is_infinite:
        if a == 1.0:
            return math.inf  # 1**inf declared satisfied
        return math.inf if b == 0.0 else -math.inf  # a**inf = 0 for a < 1
    if a == 0.0:
        return math.inf if b == 0.0 else -math.inf  # 0**e = 0
    if b == 0.0:
        return math.inf
    return e.as_float() * math.log(a) - math.log(b)


def _classify(min_slack: float, tol: float) -> Membership:
    if min_slack >= tol:
        return Membership.INSIDE
    if min_slack <= -tol:
        return Membership.OUTSIDE
    return Membership.BOUNDARY


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
    _check_magnitude("a", a)
    _check_magnitude("b", b)
    check_tolerance(tol)
    if q < p:
        raise BandDomainError(f"band requires p <= q, got p={p}, q={q}")

    p_zero = not p.is_infinite and p == EXT_ZERO
    if p_zero and q.is_infinite:
        return BandMembership(Membership.INSIDE, tol)
    if p_zero and q == EXT_ZERO:
        state = Membership.INSIDE if (a == 0.0 or b == 1.0) else Membership.OUTSIDE
        return BandMembership(state, tol)
    if p.is_infinite:  # p = q = inf
        state = Membership.INSIDE if (a == 1.0 or b == 0.0) else Membership.OUTSIDE
        return BandMembership(state, tol)

    if a == 0.0 and b == 0.0:
        # Both envelopes pinch to zero; the corner sits inside the band
        # exactly when the band has an opening (p < q), else on its edge.
        state = Membership.INSIDE if p < q else Membership.BOUNDARY
        return BandMembership(state, tol)

    slacks = []
    if not q.is_infinite:
        slacks.append(lower_slack(a, b, q))
    if not p_zero:
        slacks.append(upper_slack(a, b, p))
    return BandMembership(_classify(min(slacks), tol), tol)


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
    _check_magnitude("a", a)
    _check_magnitude("b", b)
    slack = min(lower_slack(a, b, lower_exp), upper_slack(a, b, upper_exp))
    return BandMembership(_classify(slack, tol), tol)

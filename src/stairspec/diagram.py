"""Staircase diagrams encoded by their border sequence.

A diagram here is an up-right-closed subset of the integer lattice.  It is
fully described by the non-increasing sequence of row minima ``M_j``; a
:class:`DiagramProfile` keeps an explicit finite window of that sequence plus
a symbolic rule for each infinite tail.  That is enough to evaluate ``M_j``
everywhere, enumerate borders and corners on any viewport, classify the
structure of the induced pair of shift operators, and transpose or translate
the diagram exactly.

Tail families
-------------
* ``EmptyRowsTail`` -- rows are empty beyond the window (``M_j = +inf``);
  minus side only.
* ``FullRowsTail`` -- rows are full beyond the window (``M_j = -inf``);
  plus side only.
* ``PeriodicTail`` -- the staircase rises ``rise`` per ``period`` steps,
  rasterized with a fixed ceiling rule on the minus side and floor rule on
  the plus side.
* ``GeometricBlocksTail`` -- blocks of geometrically growing length cycling
  through a list of rational slopes, rasterized by cumulative rounding so
  long-run averages hit their exact rational targets.
* ``InvertedBlocksTail`` -- the exact staircase inverse of a geometric-block
  tail; produced by :func:`transpose` only, never parsed from input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .extnum import EXT_INF, ExtReal

NEG_INF = float("-inf")
POS_INF = float("inf")

MValue = Union[int, float]  # integer, or +-inf at the degenerate tails


class DiagramError(ValueError):
    """Base class for profile construction and validation failures."""


class MonotonicityViolation(DiagramError):
    """The window values fail to be non-increasing."""


class TailMismatch(DiagramError):
    """A tail kind was placed on a side where it cannot define a diagram."""


class DegenerateAllEqualSlopes(DiagramError):
    """Geometric blocks with all slopes equal must be expressed as periodic."""


class UnsupportedTranspose(DiagramError):
    """The transpose would need a tail outside the supported families."""


class SpecParseError(DiagramError):
    """A diagram spec document is malformed; the message carries the field path."""


class BorderOverflowError(ValueError):
    """A border value asked for as a float is beyond the float64 range."""


class Side(Enum):
    MINUS = "minus"
    PLUS = "plus"


# Tail arithmetic runs in int64 while every intermediate stays below this
# bound and in exact Python ints (object arrays) beyond it.
_INT64_GUARD = 2**62


def _top(ts: np.ndarray) -> int:
    return int(ts.max(initial=0))


# ---------------------------------------------------------------------------
# Tails
#
# Every tail says whether its rows stay finite beyond the window.  A finite
# tail has one evaluator, ``rises(ts, side)``: the exact rise of the border
# sequence ``t`` steps beyond the window for each ``t >= 0`` in ``ts``, as an
# int64 array or, past the magnitude guard, an object array of Python ints.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmptyRowsTail:
    kind = "empty"
    finite = False

    def has_drops(self) -> bool:
        return False

    def is_rise_zero(self) -> bool:
        return False

    def unbounded_flat_runs(self) -> bool:
        return False

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        return EXT_INF, EXT_INF, EXT_INF


@dataclass(frozen=True)
class FullRowsTail:
    kind = "full"
    finite = False

    def has_drops(self) -> bool:
        return False

    def is_rise_zero(self) -> bool:
        return False

    def unbounded_flat_runs(self) -> bool:
        return False

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        return EXT_INF, EXT_INF, EXT_INF


@dataclass(frozen=True)
class PeriodicTail:
    """Rise ``rise`` per ``period`` steps away from the window.

    The minus side realizes M_{j_lo-t} = M_{j_lo} + ceil(t*rise/period), the
    plus side M_{j_hi+t} = M_{j_hi} - floor(t*rise/period).  Both roundings
    define valid diagrams with identical asymptotics; one is fixed for
    reproducibility.
    """

    period: int
    rise: int
    kind = "periodic"
    finite = True

    def __post_init__(self):
        if self.period < 1:
            raise DiagramError(f"periodic tail needs period >= 1, got {self.period}")
        if self.rise < 0:
            raise DiagramError(f"periodic tail needs rise >= 0, got {self.rise}")

    def rises(self, ts: np.ndarray, side: Side) -> np.ndarray:
        exact = (_top(ts) + 1) * (self.rise + self.period) >= _INT64_GUARD
        ts = np.asarray(ts).astype(object if exact else np.int64, copy=False)
        if side is Side.MINUS:
            return -((-ts * self.rise) // self.period)  # ceil
        return (ts * self.rise) // self.period  # floor

    def slope(self) -> Fraction:
        return Fraction(self.rise, self.period)

    def has_drops(self) -> bool:
        return self.rise > 0

    def is_rise_zero(self) -> bool:
        return self.rise == 0

    def unbounded_flat_runs(self) -> bool:
        return self.rise == 0

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        s = ExtReal(self.slope())
        return s, s, s


class _BlockTable:
    """The blocks of a geometric tail as integers, grown on demand.

    Block k covers the steps (starts[k], starts[k+1]].  Scaled by ``scale``
    (twice the common denominator of the slopes), the exact cumulative target
    at a step u of block k is ``targets[k] + slopes[k] * (u - starts[k])``.
    The blocks whose values stay below the int64 guard are kept as int64
    arrays; a question beyond them is answered from object arrays.
    """

    def __init__(self, slopes: tuple[Fraction, ...], ratio: int, base_len: int):
        self.scale = 2 * math.lcm(*(s.denominator for s in slopes))
        self._pattern = [int(s * self.scale) for s in slopes]
        self._ratio, self._base_len = ratio, base_len
        self.starts, self.targets, self.slopes = [0], [0], []
        while self.starts[-1] + self.targets[-1] + self.scale < _INT64_GUARD:
            self._grow()
        n = len(self.slopes) - 1  # the last block built crosses the guard
        self.int64 = tuple(
            np.array(v, dtype=np.int64)
            for v in (self.starts[: n + 1], self.targets[: n + 1], self.slopes[:n])
        )

    def _grow(self) -> None:
        k = len(self.slopes)
        length = self._base_len * self._ratio**k
        slope = self._pattern[k % len(self._pattern)]
        self.slopes.append(slope)
        self.starts.append(self.starts[-1] + length)
        self.targets.append(self.targets[-1] + slope * length)

    def covering(self, step: int, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, targets, slopes) reaching both ``step`` and scaled ``target``."""
        starts, targets, _ = self.int64
        if len(starts) > 1 and step <= starts[-1] and target <= targets[-1]:
            return self.int64
        while self.starts[-1] < step or self.targets[-1] < target:
            self._grow()
        return tuple(np.array(v, dtype=object) for v in (self.starts, self.targets, self.slopes))


@dataclass(frozen=True)
class GeometricBlocksTail:
    """Blocks of length base_len * ratio**k cycling through rational slopes.

    The realized staircase uses cumulative rounding (half-up): the rise after
    t steps is round of the exact cumulative slope target, so every long-run
    average equals its rational target regardless of block boundaries.
    ``t_shift`` starts the staircase t_shift steps into the pattern; it is
    produced internally by double transposition and has no input form.
    """

    slopes: tuple[Fraction, ...]
    ratio: int
    base_len: int
    t_shift: int = 0
    kind = "geometric"
    finite = True

    def __post_init__(self):
        if not self.slopes:
            raise DiagramError("geometric tail needs at least one slope")
        if any(s < 0 for s in self.slopes):
            raise DiagramError("geometric tail slopes must be >= 0")
        if len(set(self.slopes)) == 1:
            raise DegenerateAllEqualSlopes(
                "all block slopes equal; use a periodic tail instead"
            )
        if self.ratio < 2:
            raise DiagramError(f"geometric tail needs ratio >= 2, got {self.ratio}")
        if self.base_len < 1:
            raise DiagramError(f"geometric tail needs base_len >= 1, got {self.base_len}")
        if self.t_shift < 0:
            raise DiagramError(f"geometric tail needs t_shift >= 0, got {self.t_shift}")

    @cached_property
    def _table(self) -> _BlockTable:
        return _BlockTable(self.slopes, self.ratio, self.base_len)

    def _rounded(self, ts: np.ndarray) -> np.ndarray:
        """Half-up rounded cumulative target at absolute step t + t_shift, per t in ts."""
        table = self._table
        starts, targets, slopes = table.covering(_top(ts) + self.t_shift, 0)
        out = np.asarray(ts).astype(starts.dtype, copy=False) + self.t_shift
        k = np.searchsorted(starts[1:], out)
        out -= starts[k]
        out *= slopes[k]
        out += targets[k] + table.scale // 2
        out //= table.scale
        return out

    @cached_property
    def _base(self) -> int:
        return int(self._rounded(np.zeros(1, dtype=np.int64))[0])

    def rises(self, ts: np.ndarray, side: Side) -> np.ndarray:
        out = self._rounded(ts)
        out -= self._base
        return out

    def shifted_by(self, extra: int) -> "GeometricBlocksTail":
        return GeometricBlocksTail(
            self.slopes, self.ratio, self.base_len, self.t_shift + extra
        )

    def has_drops(self) -> bool:
        return True  # not all slopes equal and all >= 0, so some slope is positive

    def is_rise_zero(self) -> bool:
        return False

    def unbounded_flat_runs(self) -> bool:
        return any(s == 0 for s in self.slopes)

    def cycle_end_averages(self) -> tuple[Fraction, ...]:
        """Limits of running averages along block ends, one per phase."""
        m = len(self.slopes)
        r = self.ratio
        out = []
        for phase in range(m):
            weighted = sum(
                self.slopes[(phase - d) % m] * Fraction(1, r**d) for d in range(m)
            )
            out.append((Fraction(r - 1, r) * weighted) / (1 - Fraction(1, r**m)))
        return tuple(out)

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        return (
            ExtReal(min(self.slopes)),
            ExtReal(max(self.cycle_end_averages())),
            ExtReal(max(self.slopes)),
        )


class InversionMode(Enum):
    FLOOR_INVERSE = "floor_inverse"  # max{u : inner rise(u) <= t}; plus side
    CEIL_INVERSE = "ceil_inverse"  # min{u : inner rise(u) >= t}; minus side


@dataclass(frozen=True)
class InvertedBlocksTail:
    """Exact staircase inverse of a geometric-block tail with positive slopes.

    ``FLOOR_INVERSE`` tails arise when a minus geometric tail moves to the
    transpose's plus side; ``CEIL_INVERSE`` tails when a plus geometric tail
    moves to the minus side.  ``base_t`` offsets the inversion to match the
    window anchoring chosen by :func:`transpose`.  Transposing again returns
    a (shifted) copy of ``inner``.
    """

    inner: GeometricBlocksTail
    mode: InversionMode
    base_t: int = 0
    kind = "inverted"
    finite = True

    def __post_init__(self):
        if any(s <= 0 for s in self.inner.slopes):
            raise UnsupportedTranspose(
                "inverse of a block tail needs strictly positive slopes"
            )
        if self.base_t < 0:
            raise DiagramError(f"base_t must be >= 0, got {self.base_t}")

    def _inverse(self, ts: np.ndarray) -> np.ndarray:
        """Inverse of the inner staircase at rise y = t + base_t, per t in ts.

        With ``v`` the first absolute step whose cumulative target reaches
        ``y + r0 - 1/2`` (ceil mode: the inner rise reaches y) or
        ``y + r0 + 1/2`` (floor mode: the inner rise passes y), where ``r0``
        is the inner rise already taken at its ``t_shift``, the result is
        ``max(v - t_shift, 0)`` (ceil) or ``v - t_shift`` (floor), which is
        one more than max{u : inner rise(u) <= y}.  Solved per block in closed
        form with integer ceil division.
        """
        inner = self.inner
        table = inner._table
        half = -1 if self.mode is InversionMode.CEIL_INVERSE else 1
        offset = 2 * (self.base_t + inner._base) + half  # scaled bound: (2t + offset) * scale/2
        top = (2 * _top(ts) + offset) * (table.scale // 2)
        starts, targets, slopes = table.covering(0, top)
        bounds = np.asarray(ts).astype(targets.dtype, copy=False) * 2
        bounds += offset
        bounds *= table.scale // 2
        k = np.searchsorted(targets[1:], bounds)
        out = targets[k] - bounds
        out //= slopes[k]
        out = starts[k] - out - inner.t_shift
        if self.mode is InversionMode.CEIL_INVERSE:
            np.maximum(out, 0, out=out)
        return out

    @cached_property
    def _base(self) -> int:
        return int(self._inverse(np.zeros(1, dtype=np.int64))[0])

    def rises(self, ts: np.ndarray, side: Side) -> np.ndarray:
        out = self._inverse(ts)
        out -= self._base
        return out

    def uninverted(self) -> GeometricBlocksTail:
        """The shifted copy of ``inner`` describing the doubly transposed tail."""
        return self.inner.shifted_by(self._base)

    def has_drops(self) -> bool:
        return True

    def is_rise_zero(self) -> bool:
        return False

    def unbounded_flat_runs(self) -> bool:
        return False

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        averages = self.inner.cycle_end_averages()
        return (
            ExtReal(1 / max(self.inner.slopes)),
            ExtReal(1 / min(averages)),
            ExtReal(1 / min(self.inner.slopes)),
        )


Tail = Union[
    EmptyRowsTail, FullRowsTail, PeriodicTail, GeometricBlocksTail, InvertedBlocksTail
]

EMPTY_ROWS = EmptyRowsTail()
FULL_ROWS = FullRowsTail()


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


class DefectClass(Enum):
    NON_NEGATIVE = "non_negative"
    NON_POSITIVE = "non_positive"
    DIFFERENCE_OF_PROJECTIONS = "difference_of_projections"


class WoldType(Enum):
    PURE_SHIFT = "pure_shift"
    MIXED_UNITARY_AND_SHIFT = "mixed_unitary_and_shift"


@dataclass(frozen=True)
class StructureReport:
    is_simple: bool
    defect_class: DefectClass
    wold_w: WoldType
    wold_z: WoldType
    j0: MValue
    j1: MValue
    outer_nonempty: bool

    def to_json(self) -> dict:
        def _j(v: MValue):
            return v if isinstance(v, int) else ("-inf" if v == NEG_INF else "inf")

        return {
            "is_simple": self.is_simple,
            "defect_class": self.defect_class.value,
            "wold_w": self.wold_w.value,
            "wold_z": self.wold_z.value,
            "j0": _j(self.j0),
            "j1": _j(self.j1),
        }


@dataclass(frozen=True)
class DiagramProfile:
    """Finite window of the border sequence plus symbolic tails.

    ``window[k]`` is M_{j_lo + k}; ``minus_tail`` governs j < j_lo and
    ``plus_tail`` governs j > j_hi.  Windows must be non-increasing and each
    tail must sit on a legal side; :func:`validate` checks both.
    """

    j_lo: int
    window: tuple[int, ...]
    minus_tail: Tail
    plus_tail: Tail

    @cached_property
    def _structure(self) -> StructureReport:
        # A raised DiagramError is not cached: every call re-checks and raises.
        return _check_and_classify(self)

    @property
    def j_hi(self) -> int:
        return self.j_lo + len(self.window) - 1

    def m(self, j: int) -> MValue:
        return eval_M(self, j)


def _window_has_drop(profile: DiagramProfile) -> bool:
    return any(a > b for a, b in zip(profile.window, profile.window[1:]))


def validate(profile: DiagramProfile) -> StructureReport:
    """Check a profile and classify the structure of the induced pair.

    Raises a :class:`DiagramError` subclass on bad input.  On success reports
    simplicity, the defect-operator class, the Wold type of each isometry,
    and the first/last indices of finite border values (``+-inf`` when the
    finite range is unbounded on that side).  The report of a valid profile
    is computed once and kept on the (immutable) profile.
    """
    return profile._structure


def _check_and_classify(profile: DiagramProfile) -> StructureReport:
    if not profile.window:
        raise DiagramError("window must contain at least one value")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in profile.window):
        raise DiagramError("window values must be integers")
    for left, right in zip(profile.window, profile.window[1:]):
        if right > left:
            raise MonotonicityViolation(
                f"window must be non-increasing, got {left} before {right}"
            )
    if isinstance(profile.minus_tail, FullRowsTail):
        raise TailMismatch("full rows on the minus side do not define a diagram")
    if isinstance(profile.plus_tail, EmptyRowsTail):
        raise TailMismatch("empty rows on the plus side do not define a diagram")
    if isinstance(profile.minus_tail, InvertedBlocksTail):
        if profile.minus_tail.mode is not InversionMode.CEIL_INVERSE:
            raise TailMismatch("floor-inverse tails belong on the plus side")
    elif not isinstance(
        profile.minus_tail, (EmptyRowsTail, PeriodicTail, GeometricBlocksTail)
    ):
        raise TailMismatch(f"unsupported minus tail: {profile.minus_tail!r}")
    if isinstance(profile.plus_tail, InvertedBlocksTail):
        if profile.plus_tail.mode is not InversionMode.FLOOR_INVERSE:
            raise TailMismatch("ceil-inverse tails belong on the minus side")
    elif not isinstance(
        profile.plus_tail, (FullRowsTail, PeriodicTail, GeometricBlocksTail)
    ):
        raise TailMismatch(f"unsupported plus tail: {profile.plus_tail!r}")

    minus, plus = profile.minus_tail, profile.plus_tail
    j0: MValue = NEG_INF if minus.finite else profile.j_lo
    j1: MValue = POS_INF if plus.finite else profile.j_hi

    drops = _window_has_drop(profile) or minus.has_drops() or plus.has_drops()
    inner_nonempty = drops or not plus.finite
    outer_nonempty = drops or not minus.finite

    if not inner_nonempty:
        defect = DefectClass.NON_NEGATIVE  # simple diagram
    elif not outer_nonempty:
        defect = DefectClass.NON_POSITIVE  # the notched-plane class
    else:
        defect = DefectClass.DIFFERENCE_OF_PROJECTIONS

    wold_w = WoldType.PURE_SHIFT if plus.finite else WoldType.MIXED_UNITARY_AND_SHIFT
    wold_z = (
        WoldType.MIXED_UNITARY_AND_SHIFT if minus.is_rise_zero() else WoldType.PURE_SHIFT
    )
    return StructureReport(
        not inner_nonempty, defect, wold_w, wold_z, j0, j1, outer_nonempty
    )


def _beyond(profile: DiagramProfile, ts: np.ndarray, side: Side) -> np.ndarray:
    """Exact border values ``ts`` steps beyond the window on ``side``.

    int64 or Python ints for a finite tail, +inf (empty rows) or -inf (full
    rows) otherwise.
    """
    if side is Side.MINUS:
        tail, edge, limit = profile.minus_tail, profile.window[0], POS_INF
    else:
        tail, edge, limit = profile.plus_tail, profile.window[-1], NEG_INF
    if not tail.finite:
        return np.full(len(ts), limit)
    out = tail.rises(ts, side)
    if abs(edge) >= _INT64_GUARD:
        out = out.astype(object)
    if side is Side.MINUS:
        out += edge
    else:
        np.subtract(edge, out, out=out)
    return out


def eval_M(profile: DiagramProfile, j: int) -> MValue:
    """Border value M_j, exact: a Python int, or +-inf at the degenerate tails."""
    if j < profile.j_lo:
        value = _beyond(profile, np.array([profile.j_lo - j]), Side.MINUS)[0]
    elif j > profile.j_hi:
        value = _beyond(profile, np.array([j - profile.j_hi]), Side.PLUS)[0]
    else:
        return profile.window[j - profile.j_lo]
    return float(value) if isinstance(value, float) else int(value)


def m_values(profile: DiagramProfile, j_from: int, j_to: int) -> np.ndarray:
    """M_j over j_from..j_to inclusive, as float64 (+-inf allowed).

    Raises :class:`BorderOverflowError` when a finite value is beyond the
    float64 range.
    """
    out = np.empty(max(j_to - j_from + 1, 0), dtype=np.float64)
    lo, hi = profile.j_lo, profile.j_hi
    n_minus = min(max(lo - j_from, 0), len(out))  # indices below the window
    n_plus = min(max(j_to - hi, 0), len(out))  # and above it
    below = _beyond(profile, np.arange(lo - j_from, lo - j_from - n_minus, -1), Side.MINUS)
    above = _beyond(profile, np.arange(j_to - hi - n_plus + 1, j_to - hi + 1), Side.PLUS)
    inside = profile.window[max(j_from - lo, 0) : max(j_to - lo + 1, 0)]
    try:
        out[:n_minus] = below
        out[n_minus : len(out) - n_plus] = inside
        out[len(out) - n_plus :] = above
    except OverflowError as exc:
        raise BorderOverflowError(
            f"a border value in [{j_from}, {j_to}] is beyond the float64 range"
        ) from exc
    return out


def eval_N(profile: DiagramProfile, i: int) -> MValue:
    """Column border value N_i = inf{j : M_j <= i}.

    Returns -inf when every row reaches column i (a full column exists) and
    +inf when no row does (an empty column).  Otherwise M is non-increasing
    and crosses i: gallop out from the window to bracket the crossing, then
    bisect.
    """
    if profile.minus_tail.is_rise_zero() and profile.window[0] <= i:
        return NEG_INF
    if profile.plus_tail.is_rise_zero() and profile.window[-1] > i:
        return POS_INF
    lo, hi, step = profile.j_lo - 1, profile.j_hi + 1, 1  # M_lo > i >= M_hi
    while eval_M(profile, lo) <= i:
        lo, hi, step = lo - step, lo, 2 * step
    while eval_M(profile, hi) > i:
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eval_M(profile, mid) <= i:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Borders and corners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorderReport:
    vb: tuple[tuple[int, int], ...]
    hb: tuple[tuple[int, int], ...]
    inner: tuple[tuple[int, int], ...]
    outer: tuple[tuple[int, int], ...]
    outer_nonempty: bool
    inner_nonempty: bool


def borders(profile: DiagramProfile, viewport: tuple[int, int, int, int]) -> BorderReport:
    """Enumerate border and corner points inside ``viewport``.

    ``viewport`` is ``(i_lo, i_hi, j_lo, j_hi)``, all inclusive.  The global
    nonemptiness flags are decided symbolically from the tails, so they are
    meaningful even when the viewport misses every witness.
    """
    i_lo, i_hi, j_lo, j_hi = viewport
    if i_hi < i_lo or j_hi < j_lo:
        raise DiagramError(f"empty viewport: {viewport}")
    structure = validate(profile)
    vb, hb, inner, outer = [], [], [], []
    for j in range(j_lo, j_hi + 1):
        mj = eval_M(profile, j)
        mprev = eval_M(profile, j - 1)
        mj_int = isinstance(mj, int)
        if mj_int and i_lo <= mj <= i_hi:
            vb.append((mj, j))
        if mj < mprev:
            if mj_int or mj == NEG_INF:
                lo = max(i_lo, mj) if mj_int else i_lo
                hi = min(i_hi, mprev - 1) if isinstance(mprev, int) else i_hi
                hb.extend((i, j) for i in range(lo, hi + 1))
            if mj_int and i_lo <= mj <= i_hi:
                outer.append((mj, j))
            if isinstance(mprev, int) and i_lo <= mprev <= i_hi:
                inner.append((mprev, j))

    return BorderReport(
        vb=tuple(vb),
        hb=tuple(hb),
        inner=tuple(inner),
        outer=tuple(outer),
        outer_nonempty=structure.outer_nonempty,
        inner_nonempty=not structure.is_simple,
    )


# ---------------------------------------------------------------------------
# Translation and transposition
# ---------------------------------------------------------------------------


def translate(profile: DiagramProfile, di: int, dj: int) -> DiagramProfile:
    """The profile of the translated diagram: M'_j = M_{j-dj} + di."""
    return DiagramProfile(
        j_lo=profile.j_lo + dj,
        window=tuple(v + di for v in profile.window),
        minus_tail=profile.minus_tail,
        plus_tail=profile.plus_tail,
    )


def _reject_zero_slopes(tail: GeometricBlocksTail) -> None:
    if any(s == 0 for s in tail.slopes):
        raise UnsupportedTranspose(
            "a zero-slope block would invert to infinite-slope blocks"
        )


def _transpose_minus_tail(tail: Tail) -> tuple[Tail, int]:
    """New plus tail and the window-top adjustment (c_top - w_hi)."""
    if isinstance(tail, EmptyRowsTail):
        return PeriodicTail(1, 0), 0
    if isinstance(tail, PeriodicTail):
        if tail.rise == 0:
            return FULL_ROWS, 1
        return PeriodicTail(period=tail.rise, rise=tail.period), 0
    if isinstance(tail, GeometricBlocksTail):
        _reject_zero_slopes(tail)
        return InvertedBlocksTail(tail, InversionMode.FLOOR_INVERSE, base_t=0), 0
    if isinstance(tail, InvertedBlocksTail):
        return tail.uninverted(), 0
    raise UnsupportedTranspose(f"cannot transpose tail {tail!r}")


def _transpose_plus_tail(tail: Tail) -> tuple[Tail, int]:
    """New minus tail and the window-bottom adjustment (c_bot - w_lo)."""
    if isinstance(tail, FullRowsTail):
        return PeriodicTail(1, 0), 1
    if isinstance(tail, PeriodicTail):
        if tail.rise == 0:
            return EMPTY_ROWS, 0
        return PeriodicTail(period=tail.rise, rise=tail.period), tail.rise
    if isinstance(tail, GeometricBlocksTail):
        _reject_zero_slopes(tail)
        return InvertedBlocksTail(tail, InversionMode.CEIL_INVERSE, base_t=1), 1
    if isinstance(tail, InvertedBlocksTail):
        return tail.uninverted(), 1
    raise UnsupportedTranspose(f"cannot transpose tail {tail!r}")


def transpose(profile: DiagramProfile) -> DiagramProfile:
    """Profile of the reflected diagram {(j, i) : (i, j) in J}.

    The reflected border sequence is the column sequence of the original:
    ``eval_M(transpose(P), k) == eval_N(P, k)`` for every k.  Raises
    :class:`UnsupportedTranspose` when a geometric tail contains a zero
    slope (its inverse would need infinite-slope blocks).
    """
    validate(profile)
    if (
        profile.minus_tail.is_rise_zero()
        and profile.plus_tail.is_rise_zero()
        and not _window_has_drop(profile)
    ):
        raise UnsupportedTranspose(
            "the diagram is a half-plane: every row of its transpose is empty or full"
        )
    new_plus, top_adjust = _transpose_minus_tail(profile.minus_tail)
    new_minus, bot_adjust = _transpose_plus_tail(profile.plus_tail)

    w_hi = profile.window[0] - top_adjust
    w_lo = profile.window[-1] - bot_adjust
    if w_hi < w_lo:
        w_hi = w_lo

    values = []
    for k in range(w_lo, w_hi + 1):
        n = eval_N(profile, k)
        if not isinstance(n, int):
            raise UnsupportedTranspose(
                f"transposed window value at column {k} is not finite"
            )
        values.append(n)

    result = DiagramProfile(
        j_lo=w_lo, window=tuple(values), minus_tail=new_minus, plus_tail=new_plus
    )
    validate(result)
    _check_transpose(profile, result)
    return result


def _check_transpose(original: DiagramProfile, result: DiagramProfile) -> None:
    """Probe eval_M(result, k) == eval_N(original, k) around and beyond the window."""
    span = max(8, 4 * len(result.window))
    probes = list(range(result.j_lo - span, result.j_hi + span + 1))
    probes += [result.j_lo - span * 8, result.j_hi + span * 8]
    for k in probes:
        if eval_M(result, k) != eval_N(original, k):
            raise AssertionError(
                f"transpose self-check failed at column {k}: "
                f"{eval_M(result, k)} != {eval_N(original, k)}"
            )


# ---------------------------------------------------------------------------
# JSON spec documents
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    extra = set(obj) - keys
    if extra:
        raise SpecParseError(f"{where}: unknown fields {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise SpecParseError(f"{where}: missing fields {sorted(missing)}")


def _int_field(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecParseError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _tail_from_json(obj, where: str, side: Side) -> Tail:
    if not isinstance(obj, dict):
        raise SpecParseError(f"{where}: expected an object")
    kind = obj.get("kind")
    try:
        if kind == "empty":
            _require_keys(obj, {"kind"}, where)
            if side is Side.PLUS:
                raise SpecParseError(f"{where}: empty rows are only legal on the minus side")
            return EMPTY_ROWS
        if kind == "full":
            _require_keys(obj, {"kind"}, where)
            if side is Side.MINUS:
                raise SpecParseError(f"{where}: full rows are only legal on the plus side")
            return FULL_ROWS
        if kind == "periodic":
            _require_keys(obj, {"kind", "period", "rise"}, where)
            return PeriodicTail(
                _int_field(obj, "period", where), _int_field(obj, "rise", where)
            )
        if kind == "geometric":
            _require_keys(obj, {"kind", "slopes", "ratio", "base_len"}, where)
            raw = obj["slopes"]
            if not isinstance(raw, list) or not raw:
                raise SpecParseError(f"{where}.slopes: expected a nonempty list")
            slopes = []
            for idx, s in enumerate(raw):
                if not isinstance(s, (str, int)) or isinstance(s, bool):
                    raise SpecParseError(
                        f"{where}.slopes[{idx}]: expected 'p/q' or integer, got {s!r}"
                    )
                try:
                    slopes.append(Fraction(s))
                except (ValueError, ZeroDivisionError) as exc:
                    raise SpecParseError(
                        f"{where}.slopes[{idx}]: cannot parse {s!r}"
                    ) from exc
            return GeometricBlocksTail(
                tuple(slopes),
                _int_field(obj, "ratio", where),
                _int_field(obj, "base_len", where),
            )
    except DiagramError as exc:
        if isinstance(exc, SpecParseError):
            raise
        raise SpecParseError(f"{where}: {exc}") from exc
    raise SpecParseError(
        f"{where}.kind: expected empty|full|periodic|geometric, got {kind!r}"
    )


def profile_from_json(obj) -> DiagramProfile:
    """Parse a diagram spec document; unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise SpecParseError("top level: expected an object")
    _require_keys(obj, {"window", "minus_tail", "plus_tail"}, "top level")
    win = obj["window"]
    if not isinstance(win, dict):
        raise SpecParseError("window: expected an object")
    _require_keys(win, {"j_lo", "values"}, "window")
    j_lo = _int_field(win, "j_lo", "window")
    values = win["values"]
    if (
        not isinstance(values, list)
        or not values
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in values)
    ):
        raise SpecParseError("window.values: expected a nonempty list of integers")
    profile = DiagramProfile(
        j_lo=j_lo,
        window=tuple(values),
        minus_tail=_tail_from_json(obj["minus_tail"], "minus_tail", Side.MINUS),
        plus_tail=_tail_from_json(obj["plus_tail"], "plus_tail", Side.PLUS),
    )
    try:
        validate(profile)
    except DiagramError as exc:
        raise SpecParseError(str(exc)) from exc
    return profile


def _tail_to_json(tail: Tail) -> dict:
    if isinstance(tail, EmptyRowsTail):
        return {"kind": "empty"}
    if isinstance(tail, FullRowsTail):
        return {"kind": "full"}
    if isinstance(tail, PeriodicTail):
        return {"kind": "periodic", "period": tail.period, "rise": tail.rise}
    if isinstance(tail, GeometricBlocksTail) and tail.t_shift == 0:
        return {
            "kind": "geometric",
            "slopes": [f"{s.numerator}/{s.denominator}" for s in tail.slopes],
            "ratio": tail.ratio,
            "base_len": tail.base_len,
        }
    raise DiagramError(f"tail {tail!r} has no spec-document form")


def profile_to_json(profile: DiagramProfile) -> dict:
    return {
        "window": {"j_lo": profile.j_lo, "values": list(profile.window)},
        "minus_tail": _tail_to_json(profile.minus_tail),
        "plus_tail": _tail_to_json(profile.plus_tail),
    }

"""Staircase diagrams encoded by their border sequence.

A diagram here is an up-right-closed subset of the integer lattice.  It is
fully described by the non-increasing sequence of row minima ``M_j``; a
:class:`DiagramProfile` keeps an explicit finite window of that sequence plus
a symbolic rule for each infinite tail.  That is enough to evaluate ``M_j``
everywhere, classify the structure of the induced pair of shift operators,
and transpose or translate the diagram exactly.  A profile is checked when
it is built, so every profile the rest of the library sees is valid.

Tail families
-------------
Every family derives from ``Tail``: a finite, non-constant tail that may sit
on either side, unless its class says otherwise.  A finite family only
generates the floor-linear pieces of its rise; one piece table evaluates
the pieces of every family, and inverts them.

* ``EmptyRowsTail`` -- rows are empty beyond the window (``M_j = +inf``);
  minus side only.
* ``FullRowsTail`` -- rows are full beyond the window (``M_j = -inf``);
  plus side only.
* ``PeriodicTail`` -- the staircase rises ``rise`` per ``period`` steps,
  rasterized with a fixed ceiling rule on the minus side and floor rule on
  the plus side: one piece per side.
* ``GeometricBlocksTail`` -- blocks of geometrically growing length cycling
  through a list of rational slopes, rasterized by cumulative rounding so
  long-run averages hit their exact rational targets: one piece per block.
* ``InvertedBlocksTail`` -- the exact staircase inverse of a geometric-block
  tail, whose pieces are the inverses of the inner pieces, where a
  zero-slope block inverts to a jump; produced by :func:`transpose` only.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .extnum import EXT_INF, ExtReal, RegimeError, SpecError

NEG_INF = float("-inf")
POS_INF = float("inf")

MValue = int | float  # integer, or +-inf at the degenerate tails


class Side(Enum):
    MINUS = "minus"
    PLUS = "plus"


# Tail arithmetic runs in int64 while every intermediate stays below this
# bound and in exact Python ints (object arrays) beyond it.
_INT64_GUARD = 2**62


def _ints(values, *anchors: int) -> np.ndarray:
    """Integers as an int64 array while they and ``anchors`` stay below the
    guard, else as an object array of Python ints."""
    if isinstance(values, range):
        top = max(abs(values.start), abs(values.stop), *map(abs, anchors))
        if top < _INT64_GUARD:
            return np.arange(values.start, values.stop, values.step, dtype=np.int64)
    a = np.asarray(values)
    if a.dtype != np.int64:
        a = np.array(values, dtype=object)
    if not a.size:
        return a.astype(np.int64)
    top = max(int(a.max()), -int(a.min()), *map(abs, anchors))
    return a.astype(np.int64 if top < _INT64_GUARD else object, copy=False)


# ---------------------------------------------------------------------------
# Tails
#
# Every tail kind derives from ``Tail`` and says only where it differs from
# its defaults: the rows stay finite beyond the window, the tail is not a
# constant run (``is_rise_zero``), and may sit on either side of the window
# (``sides``).  Empty rows may sit only below the window (the minus side)
# and full rows only above it (the plus side); a profile refuses any other
# placement when it is built.  A finite kind only generates the pieces of
# its rise, on each of which the rise t steps beyond the window is one floor
# of a linear function of t; one ``_PieceTable`` per tail evaluates them on
# either side, but for a periodic tail, whose minus side keeps a second.
# ``rises(ts, side)`` is the exact rise for each ``t >= 0`` in ``ts``, as an
# int64 array or, past the magnitude guard, an object array of Python ints.
# ``runs(t_lo, t_hi)`` cuts the steps [t_lo, t_hi], in order, into runs
# ``(a, b, P)`` on which ``rises(t + P) - rises(t)`` is one constant for
# every t with t and t + P in [a, b], on either side.  Each kind binds
# ``rises`` in its own class, where bench/tracing.py times it per kind.
# ---------------------------------------------------------------------------

Piece = tuple[int, int, int, int]  # (start, num, off, den)


class _PieceTable:
    """The rise of a finite tail as floor-linear pieces, pulled on demand.

    ``pieces`` yields (start, num, off, den) with increasing starts, the
    first 0, num >= 0 and den >= 1.  Piece k holds the steps from its start
    up to the next piece's, and on it rise(t) = (num * t + off) // den.  The
    rise at step 0, ``base``, is taken off every piece as it is pulled.
    """

    def __init__(self, pieces: Iterator[Piece]):
        self._source = pieces
        self.starts, self.lines = [], []  # each piece's start and (num, off, den)
        self._peak = 0  # the largest num, |off| or den pulled
        self._arrays = {}
        self._pull()

    def _pull(self) -> bool:
        """Pull the next piece, if any; past the last, every step is known."""
        piece = next(self._source, None)
        if piece is None:
            self._known = math.inf
            return False
        start, num, off, den = piece
        if not self.starts:
            self.base = off // den
        off -= self.base * den
        self._known = start
        self.starts.append(start)
        self.lines.append((num, off, den))
        self._peak = max(self._peak, num, abs(off), den)
        self._arrays.clear()
        return True

    def _reach(self, t: int) -> int:
        """The number of pieces that start at or before step t, all pulled."""
        while self._known <= t:
            self._pull()
        return bisect.bisect_right(self.starts, t)

    def __iter__(self) -> Iterator[Piece]:
        k = 0
        while k < len(self.starts) or self._pull():
            yield self.starts[k], *self.lines[k]
            k += 1

    def _columns(self, exact: bool) -> tuple[np.ndarray, ...]:
        """starts, nums, offs and dens as object arrays, or int64 arrays, whose
        reads lie below the guard: starts past it, which may overflow, are clipped."""
        if exact not in self._arrays:
            dtype = object if exact else np.int64
            lines = np.array(self.lines, dtype=dtype).T
            starts = self.starts if exact else [min(s, _INT64_GUARD) for s in self.starts]
            self._arrays[exact] = (np.array(starts, dtype=dtype), *lines)
        return self._arrays[exact]

    def rises(self, ts: np.ndarray) -> np.ndarray:
        top = int(ts.max(initial=0))
        n = self._reach(top)
        exact = (top + 2) * self._peak >= _INT64_GUARD
        ts = ts.astype(object if exact else np.int64, copy=False)
        if n == 1:
            num, off, den = self.lines[0]
            return (num * ts + off) // den
        starts, nums, offs, dens = self._columns(exact)
        k = np.searchsorted(starts[1:n], ts, side="right")
        return (nums[k] * ts + offs[k]) // dens[k]

    def runs(self, t_lo: int, t_hi: int) -> list[tuple[int, int, int]]:
        """The pieces clipped to [t_lo, t_hi]; on a piece the rise repeats
        every den / gcd(num, den) steps."""
        n = self._reach(t_hi)
        k = bisect.bisect_right(self.starts, t_lo) - 1
        ends = [start - 1 for start in self.starts[k + 1:n]] + [t_hi]
        return [(max(a, t_lo), b, den // math.gcd(num, den))
                for a, b, (num, _, den) in zip(self.starts[k:n], ends, self.lines[k:n])]


def _inverse_pieces(pieces: Iterator[Piece]) -> Iterator[Piece]:
    """The pieces of t -> min{u : rise(u) >= base + t + 1}, where rise(0) =
    base, for endless ``pieces`` each of whose formulas also holds at the
    step before the piece.

    On a piece (num, off, den), each new rise y up to the rise at its last
    step is first reached at u = ceil((den * y - off) / num): again a piece,
    with num and den swapped.  A piece with num = 0 holds no inverse step.
    """
    first = next(pieces)
    base = reached = first[2] // first[3]
    for (_, num, off, den), (end, *_) in itertools.pairwise(itertools.chain([first], pieces)):
        top = (num * (end - 1) + off) // den
        if top > reached:
            yield reached - base, den, den * (base + 1) - off + num - 1, num
            reached = top


class Tail:
    """Base of the tail kinds, holding the defaults they share."""

    finite = True
    sides = (Side.MINUS, Side.PLUS)

    def is_rise_zero(self) -> bool:
        return False

    @cached_property
    def _table(self) -> _PieceTable:
        """The pieces of the rise: on either side, or a periodic tail's plus side."""
        return _PieceTable(self._pieces())

    def rises(self, ts: np.ndarray, side: Side) -> np.ndarray:
        return self._table.rises(ts)

    def runs(self, t_lo: int, t_hi: int) -> list[tuple[int, int, int]]:
        return self._table.runs(t_lo, t_hi)  # the same on either side

    def __getstate__(self) -> dict:
        """The fields alone: a piece table pulls from a generator, so a copy remakes it."""
        return {k: v for k, v in self.__dict__.items() if not isinstance(v, _PieceTable)}


class _RowsTail(Tail):
    """Rows beyond the window are all empty or all full: no staircase."""

    finite = False

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        return EXT_INF, EXT_INF, EXT_INF


@dataclass(frozen=True)
class EmptyRowsTail(_RowsTail):
    kind = "empty"
    sides = (Side.MINUS,)


@dataclass(frozen=True)
class FullRowsTail(_RowsTail):
    kind = "full"
    sides = (Side.PLUS,)


@dataclass(frozen=True)
class PeriodicTail(Tail):
    """Rise ``rise`` per ``period`` steps away from the window.

    The minus side realizes M_{j_lo-t} = M_{j_lo} + ceil(t*rise/period), the
    plus side M_{j_hi+t} = M_{j_hi} - floor(t*rise/period).  Both roundings
    define valid diagrams with identical asymptotics; one is fixed for
    reproducibility.
    """

    period: int
    rise: int
    kind = "periodic"

    def __post_init__(self):
        if self.period < 1:
            raise SpecError(f"periodic tail needs period >= 1, got {self.period}")
        if self.rise < 0:
            raise SpecError(f"periodic tail needs rise >= 0, got {self.rise}")

    def _pieces(self, side: Side = Side.PLUS) -> Iterator[Piece]:
        """One piece: ceil(t*rise/period) on the minus side, floor on the plus."""
        return iter([(0, self.rise, self.period - 1 if side is Side.MINUS else 0, self.period)])

    @cached_property
    def _minus_table(self) -> _PieceTable:
        return _PieceTable(self._pieces(Side.MINUS))

    def rises(self, ts: np.ndarray, side: Side) -> np.ndarray:
        return (self._minus_table if side is Side.MINUS else self._table).rises(ts)

    def is_rise_zero(self) -> bool:
        return self.rise == 0

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        s = ExtReal.ratio(self.rise, self.period)
        return s, s, s


def _cycle_end_sums(slopes: tuple[Fraction, ...], ratio: int) -> tuple[int, int, int]:
    """The smallest and largest numerator of the cycle-end averages, one
    average per phase, and their common denominator.

    With the slopes written as integers a_k over their lcm, the phase ending
    on slope k averages to S_k / (lcm * (1 + r + ... + r**(m-1))), where
    S_k = sum_d a_{k-d} r**(m-1-d) over d < m.  S_{m-1} is the integer Horner
    sum of a_{m-1}, ..., a_0, and S_{k-1} = r * S_k - a_k * (r**m - 1) gives
    the other phases exactly, one multiplication each.  Only the running
    extremes are kept, so memory holds a few numerators whatever m is.
    """
    r = ratio
    lcm = math.lcm(*(s.denominator for s in slopes))
    scaled = [s.numerator * (lcm // s.denominator) for s in slopes]
    cycle = r ** len(slopes) - 1
    acc = 0
    for a in reversed(scaled):
        acc = acc * r + a
    lo = hi = acc
    for a in scaled[:0:-1]:  # a_{m-1}, ..., a_1
        acc = acc * r - a * cycle
        lo, hi = min(lo, acc), max(hi, acc)
    return lo, hi, lcm * (cycle // (r - 1))


@dataclass(frozen=True)
class GeometricBlocksTail(Tail):
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

    def __post_init__(self):
        if not self.slopes:
            raise SpecError("geometric tail needs at least one slope")
        if any(s < 0 for s in self.slopes):
            raise SpecError("geometric tail slopes must be >= 0")
        if len(set(self.slopes)) == 1:
            raise SpecError(
                "all block slopes equal; use a periodic tail instead"
            )
        if self.ratio < 2:
            raise SpecError(f"geometric tail needs ratio >= 2, got {self.ratio}")
        if self.base_len < 1:
            raise SpecError(f"geometric tail needs base_len >= 1, got {self.base_len}")
        if self.t_shift < 0:
            raise SpecError(f"geometric tail needs t_shift >= 0, got {self.t_shift}")

    def _pieces(self) -> Iterator[Piece]:
        """One piece per block, from the block holding step t_shift.

        Block k holds the steps u in (S_k, S_k + L_k] of the pattern (block 0
        also u = 0), L_k = base_len * ratio**k.  There the cumulative target,
        scaled by twice the slopes' common denominator, is T_k + a_k (u - S_k),
        and the rise at t = u - t_shift is that target rounded half up.
        """
        scale = 2 * math.lcm(*(s.denominator for s in self.slopes))
        shift = self.t_shift
        first, start, target, length = 0, 0, 0, self.base_len  # first u, S_k, T_k, L_k
        for a in itertools.cycle([int(s * scale) for s in self.slopes]):
            end = start + length
            if end >= shift:
                yield max(first - shift, 0), a, a * (shift - start) + target + scale // 2, scale
            first, start, target, length = end + 1, end, target + a * length, length * self.ratio

    rises = Tail.rises

    @cached_property
    def _cycle_ends(self) -> tuple[int, int, int]:
        """The extreme limits of running averages along block ends, over the
        phases: ``_cycle_end_sums``, computed once."""
        return _cycle_end_sums(self.slopes, self.ratio)

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        _, hi, denominator = self._cycle_ends
        return (
            ExtReal(min(self.slopes)),
            ExtReal.ratio(hi, denominator),
            ExtReal(max(self.slopes)),
        )


@dataclass(frozen=True)
class InvertedBlocksTail(Tail):
    """Exact staircase inverse of a geometric-block tail, on either side.

    Its rise t steps out is the number of inner steps from where the inner
    rise first reaches 1 to where it first reaches t + 1.  A zero-slope block
    of the inner tail inverts to a jump.  Transposing again returns a
    (shifted) copy of ``inner``.
    """

    inner: GeometricBlocksTail
    kind = "inverted"

    def _pieces(self) -> Iterator[Piece]:
        return _inverse_pieces(iter(self.inner._table))

    rises = Tail.rises

    def uninverted(self) -> GeometricBlocksTail:
        """The shifted copy of ``inner`` describing the doubly transposed tail."""
        return replace(self.inner, t_shift=self.inner.t_shift + self._table.base)

    def asymptotics(self) -> tuple[ExtReal, ExtReal, ExtReal]:
        lo, _, denominator = self.inner._cycle_ends
        return (
            ExtReal(max(self.inner.slopes)).reciprocal(),
            ExtReal.ratio(denominator, lo),
            ExtReal(min(self.inner.slopes)).reciprocal(),
        )


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


def json_number(x: int | float) -> int | float | str:
    """A number as a JSON value: an int or finite float as itself, and inf,
    -inf or nan as that text.  Ints are taken first: ``math.isfinite``
    raises on an int beyond float64."""
    return x if isinstance(x, int) or math.isfinite(x) else str(x)


@dataclass(frozen=True)
class StructureReport:
    is_simple: bool
    defect_class: DefectClass
    wold_w: WoldType
    wold_z: WoldType
    j0: MValue
    j1: MValue

    def to_json(self) -> dict:
        return {
            "is_simple": self.is_simple,
            "defect_class": self.defect_class.value,
            "wold_w": self.wold_w.value,
            "wold_z": self.wold_z.value,
            "j0": json_number(self.j0),
            "j1": json_number(self.j1),
        }


@dataclass(frozen=True)
class DiagramProfile:
    """Finite window of the border sequence plus symbolic tails.

    ``window[k]`` is M_{j_lo + k}; ``minus_tail`` governs j < j_lo and
    ``plus_tail`` governs j > j_hi.  A profile is checked when it is built:
    the window must be a nonempty non-increasing tuple of ints and each tail
    must sit on one of its ``sides``, or a ``SpecError`` is raised.  The
    structure report of the check is kept on the (immutable) profile, and
    :func:`validate` returns it.
    """

    j_lo: int
    window: tuple[int, ...]
    minus_tail: Tail
    plus_tail: Tail

    def __post_init__(self):
        object.__setattr__(self, "_structure", _check_and_classify(self))

    @cached_property
    def _window_values(self) -> np.ndarray:
        return _ints(self.window)

    @property
    def j_hi(self) -> int:
        return self.j_lo + len(self.window) - 1


def validate(profile: DiagramProfile) -> StructureReport:
    """The structure report of a profile, computed when it was built.

    It gives simplicity, the defect-operator class, the Wold type of each
    isometry, and the first/last indices of finite border values (``+-inf``
    when the finite range is unbounded on that side).
    """
    return profile._structure


def _check_and_classify(profile: DiagramProfile) -> StructureReport:
    window = profile.window
    if not window:
        raise SpecError("window must contain at least one value")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in window):
        raise SpecError("window values must be integers")
    for left, right in zip(window, window[1:]):
        if right > left:
            raise SpecError(
                f"window must be non-increasing, got {left} before {right}"
            )
    minus, plus = profile.minus_tail, profile.plus_tail
    for side, tail in ((Side.MINUS, minus), (Side.PLUS, plus)):
        if not isinstance(tail, Tail) or side not in tail.sides:
            raise SpecError(
                f"{side.value}_tail: {tail!r} does not define a diagram on the {side.value} side"
            )

    j0: MValue = NEG_INF if minus.finite else profile.j_lo
    j1: MValue = POS_INF if plus.finite else profile.j_hi

    minus_flat = minus.is_rise_zero()
    drops = (  # the window is non-increasing
        window[0] > window[-1]
        or (minus.finite and not minus_flat)
        or (plus.finite and not plus.is_rise_zero())
    )
    has_inner = drops or not plus.finite  # some inner corner exists
    has_outer = drops or not minus.finite  # some outer corner exists

    if not has_inner:
        defect = DefectClass.NON_NEGATIVE  # simple diagram
    elif not has_outer:
        defect = DefectClass.NON_POSITIVE  # the notched-plane class
    else:
        defect = DefectClass.DIFFERENCE_OF_PROJECTIONS

    wold_w = WoldType.PURE_SHIFT if plus.finite else WoldType.MIXED_UNITARY_AND_SHIFT
    wold_z = WoldType.MIXED_UNITARY_AND_SHIFT if minus_flat else WoldType.PURE_SHIFT
    return StructureReport(not has_inner, defect, wold_w, wold_z, j0, j1)


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


def m_exact(profile: DiagramProfile, js) -> np.ndarray:
    """Border values M_j at the integer indices ``js``, exact.

    An int64 array while the indices and the tail arithmetic stay below the
    guard, else an object array of Python ints; an empty row is +inf and a
    full row -inf, both in an object array.  A range wholly below or wholly
    above the window is read from that tail alone, on its step offsets.
    """
    lo, hi = profile.j_lo, profile.j_hi
    if isinstance(js, range) and js and (max(js[0], js[-1]) < lo or min(js[0], js[-1]) > hi):
        if js[0] < lo:
            ts, side = range(lo - js.start, lo - js.stop, -js.step), Side.MINUS
        else:
            ts, side = range(js.start - hi, js.stop - hi, js.step), Side.PLUS
        out = _beyond(profile, _ints(ts), side)
        return out.astype(object) if out.dtype == np.float64 else out  # +-inf rows
    js = _ints(js, lo, hi)
    below, above = js < lo, js > hi
    n_below, n_above = np.count_nonzero(below), np.count_nonzero(above)
    inside = ~(below | above)
    parts = []
    if n_below:
        parts.append((below, _beyond(profile, lo - js[below], Side.MINUS)))
    if n_above:
        parts.append((above, _beyond(profile, js[above] - hi, Side.PLUS)))
    if n_below + n_above < len(js) or not parts:
        parts.append((inside, profile._window_values[(js[inside] - lo).astype(np.intp)]))
    exact = all(part.dtype == np.int64 for _, part in parts)
    # One part covers every index; +-inf rows still go to an object array.
    if len(parts) == 1 and parts[0][1].dtype != np.float64:
        return parts[0][1]
    out = np.empty(len(js), dtype=np.int64 if exact else object)
    for mask, part in parts:
        out[mask] = part
    return out


def eval_M(profile: DiagramProfile, j: int) -> MValue:
    """Border value M_j, exact: a Python int, or +-inf at the degenerate tails."""
    return m_exact(profile, [j]).item()


def float_drops(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """``upper - lower`` of two exact border reads, rounded once to float64.

    Each operand is monotone (or one value, broadcast), so its ends bound it:
    the difference runs in int64 while every end is below the guard and on
    Python ints otherwise.  A difference beyond float64 raises ``RegimeError``.
    """
    ends = (upper[0], upper[-1], lower[0], lower[-1])
    if upper.dtype == lower.dtype == np.int64 and max(abs(int(v)) for v in ends) < _INT64_GUARD:
        drops = upper - lower
    else:
        drops = upper.astype(object) - lower.astype(object)
    try:
        return drops.astype(np.float64)
    except OverflowError as exc:
        raise RegimeError("a border difference is beyond the float64 range") from exc


def m_values(profile: DiagramProfile, j_from: int, j_to: int) -> np.ndarray:
    """M_j over j_from..j_to inclusive, as float64 (+-inf allowed): the
    float64 view of :func:`m_exact`.

    Raises ``RegimeError`` when a finite value is beyond the float64 range.
    """
    try:
        return m_exact(profile, range(j_from, j_to + 1)).astype(np.float64)
    except OverflowError as exc:
        raise RegimeError(
            f"a border value in [{j_from}, {j_to}] is beyond the float64 range"
        ) from exc


def _unreached(profile: DiagramProfile, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the full columns (every row reaches them, N = -inf) and the
    empty columns (no row does, N = +inf) among ``cols``: only a constant
    tail leaves a column full (minus side) or empty (plus side)."""
    none = np.zeros(len(cols), dtype=bool)
    full = cols >= profile.window[0] if profile.minus_tail.is_rise_zero() else none
    empty = cols < profile.window[-1] if profile.plus_tail.is_rise_zero() else none
    return full, empty


def n_exact(profile: DiagramProfile, cols) -> np.ndarray:
    """Column border values N_i = inf{j : M_j <= i} at the integer columns ``cols``.

    -inf where every row reaches column i (a full column) and +inf where none
    does (an empty column); types as for :func:`m_exact`.  Otherwise M is
    non-increasing and crosses i.  The gallop points j_lo - 2**e and
    j_hi + 2**e do not depend on the column: they are extended eight
    exponents a call until they bracket every crossing, and then every
    column is bisected at once, each step one :func:`m_exact` call over the
    columns still open.
    """
    cols = _ints(cols, profile.j_lo - 1, profile.j_hi + 1)
    full, empty = _unreached(profile, cols)
    search = np.flatnonzero(~(full | empty))
    c = hi = cols[search]
    if c.size:
        for reach in itertools.count(8, 8):
            points = _ints([profile.j_lo - 2**e for e in reversed(range(reach))]
                           + [profile.j_hi + 2**e for e in range(reach)])
            rows = m_exact(profile, points)
            if rows[0] > c.max() and rows[-1] <= c.min():
                break
        # Bracket each crossing as M_lo > c >= M_hi between two gallop points.
        k = len(rows) - np.searchsorted(rows[::-1], c, side="right")
        lo, hi = points[k - 1], points[k]
        while (gap := np.flatnonzero(hi - lo > 1)).size:
            mid = (lo[gap] + hi[gap]) // 2
            reached = m_exact(profile, mid) <= c[gap]
            hi[gap] = np.where(reached, mid, hi[gap])
            lo[gap] = np.where(reached, lo[gap], mid)
    if search.size == len(cols):
        return hi
    out = np.full(len(cols), NEG_INF, dtype=object)
    out[empty], out[search] = POS_INF, hi
    return out


def eval_N(profile: DiagramProfile, i: int) -> MValue:
    """Column border value N_i = inf{j : M_j <= i}: a Python int, or -inf for a
    full column and +inf for an empty one."""
    return n_exact(profile, [i]).item()


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


def _transposed(tail: Tail, side: Side) -> tuple[Tail, int]:
    """The tail that ``tail`` on ``side`` becomes on the other side of the
    transpose, and how far the window's edge on ``side`` moves in: the
    window-top adjustment (c_top - w_hi) for the minus side, the
    window-bottom adjustment (c_bot - w_lo) for the plus side.
    """
    plus = side is Side.PLUS
    if not tail.finite:
        return PeriodicTail(1, 0), 1 if plus else 0
    if isinstance(tail, PeriodicTail):
        if tail.rise == 0:
            return (EMPTY_ROWS, 0) if plus else (FULL_ROWS, 1)
        return PeriodicTail(period=tail.rise, rise=tail.period), tail.rise if plus else 0
    inverse = tail.uninverted() if isinstance(tail, InvertedBlocksTail) else InvertedBlocksTail(tail)
    return inverse, 1 if plus else 0


def transpose(profile: DiagramProfile) -> DiagramProfile:
    """Profile of the reflected diagram {(j, i) : (i, j) in J}.

    The reflected border sequence is the column sequence of the original:
    ``eval_M(transpose(P), k) == eval_N(P, k)`` for every k.  A geometric
    tail becomes an inverted tail on the other side, and an inverted tail a
    shifted copy of its inner tail.  The column search :func:`n_exact` (which
    also serves :func:`eval_N`) runs once, over the new window's columns; the
    self-check then verifies each probed column with two border reads of the
    original, searching none.
    """
    if validate(profile).is_simple and profile.minus_tail.finite:
        raise SpecError(
            "the diagram is a half-plane: every row of its transpose is empty or full"
        )
    new_plus, top_adjust = _transposed(profile.minus_tail, Side.MINUS)
    new_minus, bot_adjust = _transposed(profile.plus_tail, Side.PLUS)

    # w_lo > w_hi needs a flat window between rise-zero periodic tails: a half-plane, refused above
    w_hi = profile.window[0] - top_adjust
    w_lo = profile.window[-1] - bot_adjust

    values = n_exact(profile, range(w_lo, w_hi + 1)).tolist()
    result = DiagramProfile(
        j_lo=w_lo, window=tuple(values), minus_tail=new_minus, plus_tail=new_plus
    )
    _check_transpose(profile, result)
    return result


def _probe_columns(result: DiagramProfile) -> list[int]:
    """The columns the transpose self-check probes: around and beyond the
    window of ``result``."""
    span = max(8, 4 * len(result.window))
    probes = list(range(result.j_lo - span, result.j_hi + span + 1))
    return probes + [result.j_lo - span * 8, result.j_hi + span * 8]


def _check_transpose(original: DiagramProfile, result: DiagramProfile) -> None:
    """Check M_k of ``result`` == N_k of ``original`` at every probed column k.

    Each claim is verified with two border reads instead of searched for.  M
    is non-increasing, so a finite claim n is N_k exactly when
    M_n <= k < M_{n-1}; one :func:`m_exact` call reads rows n and n - 1 of
    every finite claim.  A claim of -inf or +inf holds exactly when the
    column is full or empty by the rules of :func:`n_exact`.  Only the first
    failing column is searched, for the message.
    """
    probes = _probe_columns(result)
    cols = _ints(probes)
    claims = m_exact(result, probes)
    full, empty = _unreached(original, cols)
    low = claims == NEG_INF
    holds = np.where(low, full, empty)  # right for the infinite claims
    finite = np.flatnonzero(~(low | (claims == POS_INF)))
    if finite.size:
        n, k = claims[finite], cols[finite]
        rows = m_exact(original, np.concatenate([n, n - 1]))
        holds[finite] = (rows[: len(n)] <= k) & (rows[len(n):] > k)
    differ = np.flatnonzero(~holds)
    if differ.size:
        col = probes[differ[0]]
        raise AssertionError(
            f"transpose self-check failed at column {col}: "
            f"{claims.item(differ[0])} != {n_exact(original, [col]).item()}"
        )


# ---------------------------------------------------------------------------
# JSON spec documents
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    if obj.keys() == keys:
        return
    extra = set(obj) - keys
    if extra:
        raise SpecError(f"{where}: unknown fields {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise SpecError(f"{where}: missing fields {sorted(missing)}")


def _int_field(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if type(value) is not int:  # json gives exact ints; bool, an int subclass, is refused
        raise SpecError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _slopes_field(obj: dict, key: str, where: str) -> tuple[Fraction, ...]:
    raw = obj[key]
    if not isinstance(raw, list) or not raw:
        raise SpecError(f"{where}.{key}: expected a nonempty list")
    slopes = []
    for idx, s in enumerate(raw):
        if not isinstance(s, (str, int)) or isinstance(s, bool):
            raise SpecError(f"{where}.{key}[{idx}]: expected 'p/q' or integer, got {s!r}")
        try:
            slopes.append(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"{where}.{key}[{idx}]: cannot parse {s!r}") from exc
    return tuple(slopes)


# The spec-document form of each tail kind that has one: its class and the
# reader of each field, read in this order.  A field is the attribute of the
# same name, written back as it is, but slopes as 'p/q' texts.
_TAIL_FORMS = {
    cls.kind: (cls, fields)
    for cls, fields in (
        (EmptyRowsTail, {}),
        (FullRowsTail, {}),
        (PeriodicTail, {"period": _int_field, "rise": _int_field}),
        (GeometricBlocksTail,
         {"slopes": _slopes_field, "ratio": _int_field, "base_len": _int_field}),
    )
}


def _tail_from_json(obj, where: str) -> Tail:
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _TAIL_FORMS:
        raise SpecError(f"{where}.kind: expected {'|'.join(_TAIL_FORMS)}, got {kind!r}")
    cls, fields = _TAIL_FORMS[kind]
    _require_keys(obj, {"kind", *fields}, where)
    values = {key: read(obj, key, where) for key, read in fields.items()}
    try:
        return cls(**values)
    except SpecError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def profile_from_json(obj) -> DiagramProfile:
    """Parse a diagram spec document; unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise SpecError("top level: expected an object")
    _require_keys(obj, {"window", "minus_tail", "plus_tail"}, "top level")
    win = obj["window"]
    if not isinstance(win, dict):
        raise SpecError("window: expected an object")
    _require_keys(win, {"j_lo", "values"}, "window")
    j_lo = _int_field(win, "j_lo", "window")
    values = win["values"]
    if (
        not isinstance(values, list)
        or not values
        or not all(type(v) is int for v in values)
    ):
        raise SpecError("window.values: expected a nonempty list of integers")
    minus_tail = _tail_from_json(obj["minus_tail"], "minus_tail")
    plus_tail = _tail_from_json(obj["plus_tail"], "plus_tail")
    return DiagramProfile(j_lo, tuple(values), minus_tail, plus_tail)


def _tail_to_json(tail: Tail) -> dict:
    if tail.kind not in _TAIL_FORMS or getattr(tail, "t_shift", 0):
        raise SpecError(f"tail {tail!r} has no spec-document form")
    doc = {"kind": tail.kind}
    for key in _TAIL_FORMS[tail.kind][1]:
        value = getattr(tail, key)
        doc[key] = [str(ExtReal(v)) for v in value] if key == "slopes" else value
    return doc


def profile_to_json(profile: DiagramProfile) -> dict:
    return {
        "window": {"j_lo": profile.j_lo, "values": list(profile.window)},
        "minus_tail": _tail_to_json(profile.minus_tail),
        "plus_tail": _tail_to_json(profile.plus_tail),
    }

import copy
import json
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stairspec import diagram as D
from stairspec.diagram import (
    EMPTY_ROWS,
    FULL_ROWS,
    NEG_INF,
    POS_INF,
    DefectClass,
    DiagramProfile,
    GeometricBlocksTail,
    InvertedBlocksTail,
    PeriodicTail,
    Side,
    WoldType,
    eval_M,
    eval_N,
    json_number,
    m_exact,
    m_values,
    n_exact,
    profile_from_json,
    profile_to_json,
    translate,
    transpose,
    validate,
)
from stairspec.extnum import EXT_INF, ExtReal, RegimeError, SpecError
from stairspec.params import compute_params, estimate_params_bruteforce
from stairspec.shifts import fringe_operator

from conftest import (
    SPEC_DIR,
    canonical_nonsimple,
    finite_tails,
    gb01_profile,
    half_lines_profile,
    line_profile,
    notched_plane_profile,
    quarter_steps_profile,
    simple_quarter_profile,
    transpose_duality_suite,
    wold_mixed_profile,
)

FR = Fraction


class TestValidate:
    def test_simple_quarter_plane(self):
        report = validate(simple_quarter_profile())
        assert report.is_simple
        assert report.defect_class is DefectClass.NON_NEGATIVE
        assert report.j0 == 0 and report.j1 == POS_INF

    def test_notched_plane_is_non_positive(self):
        report = validate(notched_plane_profile())
        assert not report.is_simple
        assert report.defect_class is DefectClass.NON_POSITIVE
        assert report.wold_w is WoldType.MIXED_UNITARY_AND_SHIFT
        assert report.wold_z is WoldType.MIXED_UNITARY_AND_SHIFT

    def test_line_staircase_is_difference_of_projections(self):
        report = validate(line_profile())
        assert not report.is_simple
        assert report.defect_class is DefectClass.DIFFERENCE_OF_PROJECTIONS
        assert report.wold_w is WoldType.PURE_SHIFT
        assert report.wold_z is WoldType.PURE_SHIFT
        assert report.j0 == NEG_INF and report.j1 == POS_INF

    def test_wold_flags(self):
        report = validate(wold_mixed_profile())
        assert report.wold_w is WoldType.MIXED_UNITARY_AND_SHIFT
        assert report.wold_z is WoldType.MIXED_UNITARY_AND_SHIFT
        assert report.j1 == 1
        report = validate(quarter_steps_profile())
        assert report.wold_w is WoldType.PURE_SHIFT
        assert report.wold_z is WoldType.PURE_SHIFT
        assert report.j0 == 0

    def test_json_keeps_an_index_beyond_float_range(self):
        """j0 = j_lo = 10**400 is written as that int; math.isfinite raises on it."""
        doc = validate(DiagramProfile(10**400, (1, 0), EMPTY_ROWS, PeriodicTail(1, 1))).to_json()
        assert doc["j0"] == 10**400 and doc["j1"] == "inf"
        doc = validate(line_profile()).to_json()
        assert doc["j0"] == "-inf" and doc["j1"] == "inf"

    @pytest.mark.parametrize(
        "x, written",
        [(3, 3), (-(10**400), -(10**400)), (0.5, 0.5), (math.inf, "inf"), (-math.inf, "-inf"),
         (math.nan, "nan")],
        ids=["int", "int-beyond-float", "float", "inf", "-inf", "nan"],
    )
    def test_json_number(self, x, written):
        assert json_number(x) == written and type(json_number(x)) is type(written)

    def test_monotonicity_violation(self):
        with pytest.raises(SpecError, match="window must be non-increasing, got 0 before 1"):
            bad = DiagramProfile(0, (0, 1), PeriodicTail(1, 1), PeriodicTail(1, 1))
            validate(bad)

    def test_tail_mismatch(self):
        with pytest.raises(SpecError, match="minus_tail: .* does not define a diagram on the minus"):
            validate(DiagramProfile(0, (0,), FULL_ROWS, PeriodicTail(1, 1)))
        with pytest.raises(SpecError, match="plus_tail: .* does not define a diagram on the plus"):
            validate(DiagramProfile(0, (0,), PeriodicTail(1, 1), EMPTY_ROWS))

    def test_degenerate_equal_slopes(self):
        with pytest.raises(SpecError, match="all block slopes equal; use a periodic tail"):
            GeometricBlocksTail((FR(1), FR(1)), 2, 1)

    def test_defect_nonnegative_iff_simple(self):
        profiles = [p for _, p in canonical_nonsimple()] + [simple_quarter_profile()]
        for profile in profiles:
            report = validate(profile)
            assert (report.defect_class is DefectClass.NON_NEGATIVE) == report.is_simple

    @staticmethod
    def _count_checks(monkeypatch) -> list:
        calls = []
        check = D._check_and_classify

        def counted(profile):
            calls.append(profile)
            return check(profile)

        monkeypatch.setattr(D, "_check_and_classify", counted)
        return calls

    def test_checked_once_per_profile(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        doc = json.loads((SPEC_DIR / "half_lines_1_2.json").read_text())
        profile = profile_from_json(doc)
        first = validate(profile)
        compute_params(profile)
        fringe_operator(profile, 0.5)
        assert validate(profile) is first
        assert calls == [profile]
        other = profile_from_json(doc)  # an equal profile is a new object
        assert validate(other) == first
        assert len(calls) == 2


_INVERTED = InvertedBlocksTail(GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1))


class TestCheckedWhenBuilt:
    @pytest.mark.parametrize(
        "window, message",
        [
            ((), "window must contain at least one value"),
            ((1.0,), "window values must be integers"),
            ((True,), "window values must be integers"),
            ((0, 5), "window must be non-increasing, got 0 before 5"),
        ],
        ids=["empty", "float", "bool", "increasing"],
    )
    def test_bad_window_refused(self, window, message):
        with pytest.raises(SpecError, match=message):
            DiagramProfile(0, window, PeriodicTail(1, 1), PeriodicTail(1, 1))

    @pytest.mark.parametrize(
        "minus, plus, field",
        [
            (FULL_ROWS, PeriodicTail(1, 1), "minus_tail"),
            (PeriodicTail(1, 1), EMPTY_ROWS, "plus_tail"),
            (None, PeriodicTail(1, 1), "minus_tail"),
        ],
    )
    def test_tail_on_wrong_side_refused(self, minus, plus, field):
        with pytest.raises(SpecError, match=f"{field}: .* does not define a diagram on the"):
            DiagramProfile(0, (0,), minus, plus)

    def test_inverted_tails_on_their_own_sides_build(self):
        """An inverted tail may sit on either side."""
        assert not validate(DiagramProfile(0, (0,), _INVERTED, _INVERTED)).is_simple

    def test_translate_and_transpose_build_valid_profiles(self):
        for profile in transpose_duality_suite():
            moved = translate(profile, 3, -2)
            assert validate(moved).defect_class is validate(profile).defect_class
            assert not validate(transpose(moved)).is_simple


class TestEvalM:
    def test_line_values(self):
        line = line_profile()
        assert eval_M(line, -3) == 3
        assert eval_M(line, 5) == -5

    def test_half_lines_ceiling(self):
        hl = half_lines_profile()
        assert eval_M(hl, -3) == 2  # ceil(3/2)
        assert [eval_M(hl, j) for j in range(-4, 5)] == [2, 2, 1, 1, 0, -1, -2, -3, -4]

    def test_empty_rows(self):
        assert eval_M(simple_quarter_profile(), -1) == POS_INF

    def test_full_rows(self):
        assert eval_M(wold_mixed_profile(), 2) == NEG_INF

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_non_increasing(self, name, profile):
        values = [eval_M(profile, j) for j in range(-200, 201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_non_increasing_deep_scan(self):
        values = m_values(gb01_profile(), -10_000, 10_000)
        assert (values[:-1] >= values[1:]).all()

    def test_m_values_matches_pointwise(self):
        for _, profile in canonical_nonsimple():
            vec = m_values(profile, -50, 50)
            pts = [eval_M(profile, j) for j in range(-50, 51)]
            assert [v for v in vec] == [float(p) for p in pts]


# Rises and slopes around the int64 guard (2**62) and far beyond it.
BIG = [2**50, 2**62 - 1, 2**62, 2**63, 10**20]


def _reference_rise(tail, t: int, side: Side) -> int:
    """Exact rise of a finite tail, straight from its definition."""
    if isinstance(tail, PeriodicTail):
        exact = Fraction(t * tail.rise, tail.period)
        return math.ceil(exact) if side is Side.MINUS else math.floor(exact)
    if isinstance(tail, InvertedBlocksTail):
        def inverse(y: int) -> int:
            """min{u : inner rise(u) >= y}, for y >= 1."""
            def reaches(u: int) -> bool:
                return _reference_rise(tail.inner, u, side) >= y
            lo, hi = 0, 1  # not reaches(lo), reaches(hi)
            while not reaches(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
            return hi
        return inverse(t + 1) - inverse(1)

    def rounded(u: int) -> int:
        start, target, k, length = 0, Fraction(0), 0, tail.base_len
        while u > start + length:
            target += tail.slopes[k % len(tail.slopes)] * length
            start, k, length = start + length, k + 1, length * tail.ratio
        cumulative = target + tail.slopes[k % len(tail.slopes)] * (u - start)
        return math.floor(cumulative + Fraction(1, 2))
    return rounded(t + tail.t_shift) - rounded(tail.t_shift)


@st.composite
def _slopes(draw):
    numerators = st.integers(0, 6) | st.sampled_from(BIG)
    slopes = draw(st.lists(st.builds(Fraction, numerators, st.integers(1, 4)),
                           min_size=2, max_size=3, unique=True))
    return tuple(slopes)


@st.composite
def _finite_tails(draw):
    kind = draw(st.sampled_from(["periodic", "geometric", "inverted"]))
    if kind == "periodic":
        rise = draw(st.integers(0, 7) | st.sampled_from(BIG))
        period = draw(st.integers(1, 5) | st.sampled_from([3 * 2**61, 2**62, 10**20]))
        return PeriodicTail(period, rise)
    slopes = draw(_slopes())
    inner = GeometricBlocksTail(slopes, draw(st.integers(2, 4)), draw(st.integers(1, 3)),
                                draw(st.integers(0, 40)))
    return inner if kind == "geometric" else InvertedBlocksTail(inner)


@st.composite
def _any_profiles(draw):
    top = draw(st.integers(-3, 3) | st.sampled_from([2**62 - 2, -(2**62), 10**20]))
    drops = draw(st.lists(st.integers(0, 3), max_size=3))
    window = [top]
    for d in drops:
        window.append(window[-1] - d)
    minus = draw(st.just(EMPTY_ROWS) | _finite_tails())
    plus = draw(st.just(FULL_ROWS) | _finite_tails())
    return DiagramProfile(draw(st.integers(-3, 3)), tuple(window), minus, plus)


def _reference_cycle_end_averages(slopes: tuple, ratio: int) -> tuple[Fraction, ...]:
    """The cycle-end averages by the Fraction loop the integer sums replaced:
    per phase, the slopes back along one cycle weighted by r**-d, chained in
    Fraction products."""
    m, r = len(slopes), ratio
    out = []
    for phase in range(m):
        weighted = sum(slopes[(phase - d) % m] * Fraction(1, r**d) for d in range(m))
        out.append((Fraction(r - 1, r) * weighted) / (1 - Fraction(1, r**m)))
    return tuple(out)


class TestCycleEndAverages:
    @given(st.lists(st.just(FR(0)) | st.builds(Fraction, st.integers(0, 12) | st.sampled_from(BIG),
                                                st.integers(1, 9)),
                    min_size=1, max_size=6),
           st.integers(2, 9), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_integer_sums_are_the_fraction_loop(self, slopes, ratio, base_len):
        slopes = tuple(slopes)
        want = _reference_cycle_end_averages(slopes, ratio)
        lo, hi, denominator = D._cycle_end_sums(slopes, ratio)
        assert (FR(lo, denominator), FR(hi, denominator)) == (min(want), max(want))
        if len(set(slopes)) == 1:  # a single slope is a periodic tail, not a block tail
            assert want == (slopes[0],) * len(slopes)
            return
        tail = GeometricBlocksTail(slopes, ratio, base_len)
        assert tail._cycle_ends == (lo, hi, denominator)
        assert tail.asymptotics() == (
            ExtReal(min(slopes)), ExtReal(max(want)), ExtReal(max(slopes)))
        rho = ExtReal(1 / min(slopes)) if min(slopes) else EXT_INF  # a zero slope inverts to a jump
        assert InvertedBlocksTail(tail).asymptotics() == (
            ExtReal(1 / max(slopes)), ExtReal(1 / min(want)), rho)

    def test_each_block_tail_sums_its_cycles_once(self, monkeypatch):
        """The extremes are cached on the tail; its inverses read that cache."""
        calls = []
        sums = D._cycle_end_sums
        monkeypatch.setattr(D, "_cycle_end_sums", lambda *args: calls.append(args) or sums(*args))
        tail = GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1)
        tail.asymptotics()
        InvertedBlocksTail(tail).asymptotics()
        tail.asymptotics()
        assert calls == [(tail.slopes, tail.ratio)]


# An inverted tail whose inner tail starts inside a zero-slope block.
_ZERO_SLOPE_START = InvertedBlocksTail(GeometricBlocksTail((FR(0), FR(1)), 2, 1, 4))


class TestExactEvaluator:
    @given(_any_profiles(), st.integers(-300, 300), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    @example(DiagramProfile(0, (0,), _ZERO_SLOPE_START, _ZERO_SLOPE_START), -150, 300)
    def test_m_values_is_eval_m_as_float(self, profile, j_from, length):
        validate(profile)
        values = m_values(profile, j_from, j_from + length)
        exact = [eval_M(profile, j_from + k) for k in range(length + 1)]
        for value, m in zip(values, exact):
            assert type(m) is int or m in (POS_INF, NEG_INF)
            assert value == float(m)
        assert all(a >= b for a, b in zip(exact, exact[1:]))

    @given(_any_profiles(), st.integers(1, 400) | st.sampled_from([2**40, 2**61, 2**70]))
    @settings(max_examples=200, deadline=None)
    def test_eval_m_matches_the_tail_definition(self, profile, t):
        if profile.minus_tail.finite:
            rise = _reference_rise(profile.minus_tail, t, Side.MINUS)
            assert eval_M(profile, profile.j_lo - t) == profile.window[0] + rise
        if profile.plus_tail.finite:
            rise = _reference_rise(profile.plus_tail, t, Side.PLUS)
            assert eval_M(profile, profile.j_hi + t) == profile.window[-1] - rise

    def test_large_periodic_rise_does_not_wrap(self):
        profile = DiagramProfile(0, (0,), PeriodicTail(1, 2**50), PeriodicTail(1, 1))
        values = m_values(profile, -20_000, 0)
        assert (values[:-1] >= values[1:]).all()
        assert values.tolist() == [float(-j * 2**50) for j in range(-20_000, 1)]
        assert eval_M(profile, -20_000) == 20_000 * 2**50

    def test_value_beyond_float_range_is_refused(self):
        profile = DiagramProfile(0, (0,), PeriodicTail(1, 10**400), PeriodicTail(1, 1))
        assert eval_M(profile, -2) == 2 * 10**400
        with pytest.raises(RegimeError, match=r"a border value in \[-2, 0\] is beyond the float64"):
            m_values(profile, -2, 0)

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["deepcopy", "pickle"])
    def test_an_evaluated_profile_copies(self, copier):
        """The piece tables a read fills are left out of a copy, which reads
        the same rows."""
        profile = transpose(gb01_profile())
        rows = m_exact(profile, range(-50, 50)).tolist()
        clone = copier(profile)
        assert clone == profile
        assert m_exact(clone, range(-50, 50)).tolist() == rows

    def test_a_piece_pulled_past_int64_leaves_int64_reads_exact(self):
        """Equal slopes in a row keep the third piece's offset small while it
        starts at 10**20 + 2; reads below it stay in int64, on either side."""
        tail = GeometricBlocksTail((FR(0), FR(1), FR(1), FR(0)), 10**20, 1)
        small, big = np.arange(11), np.array([10**20 + k for k in (-1, 0, 2, 7)], dtype=object)
        for side in tail.sides:
            for ts in (small, big, small):
                want = [_reference_rise(tail, int(t), side) for t in ts]
                assert tail.rises(ts, side).tolist() == want

    def test_a_side_free_tail_builds_one_piece_table(self, monkeypatch):
        """A block tail's pieces are the same on either side, so its rises and
        runs share one table; the estimator builds that one and the periodic
        plus tail's."""
        built = []
        init = D._PieceTable.__init__
        monkeypatch.setattr(D._PieceTable, "__init__",
                            lambda table, pieces: built.append(table) or init(table, pieces))
        profile = gb01_profile()
        m_exact(profile, [-5])
        profile.minus_tail.runs(1, 40)
        assert len(built) == 1
        built.clear()
        estimate_params_bruteforce(gb01_profile(), 10**6, 2)
        assert len(built) == 2


@st.composite
def _run_tails(draw):
    """conftest's finite tails, and block tails with a zero slope and a
    t_shift of 0-5, as they are or inverted."""
    if draw(st.booleans()):
        return draw(finite_tails())
    others = draw(st.lists(st.sampled_from([FR(1, 3), FR(1, 2), FR(1), FR(2), FR(5, 2)]),
                           min_size=1, max_size=2, unique=True))
    slopes = tuple(draw(st.permutations([FR(0), *others])))
    inner = GeometricBlocksTail(slopes, draw(st.integers(2, 3)), draw(st.integers(1, 3)),
                                draw(st.integers(0, 5)))
    return inner if draw(st.booleans()) else InvertedBlocksTail(inner)


class TestRuns:
    @given(_run_tails(), st.integers(0, 300), st.integers(0, 600))
    @settings(max_examples=150, deadline=None)
    @example(GeometricBlocksTail((FR(0), FR(1, 2)), 2, 1), 0, 40)  # block 0 holds step 0
    def test_runs_tile_the_range_with_constant_rises(self, tail, t_lo, length):
        """The runs cover [t_lo, t_hi] in order, with no gap or overlap, and
        inside each run rises(t + P) - rises(t) is one constant on both sides."""
        t_hi = t_lo + length
        runs = tail.runs(t_lo, t_hi)
        assert [a for a, _, _ in runs] == [t_lo] + [b + 1 for _, b, _ in runs[:-1]]
        assert runs[-1][1] == t_hi
        assert all(a <= b and period >= 1 for a, b, period in runs)
        for side in tail.sides:
            rises = tail.rises(np.arange(t_lo, t_hi + 1), side)
            for a, b, period in runs:
                run = rises[a - t_lo:b - t_lo + 1]
                assert len(set((run[period:] - run[:-period]).tolist())) <= 1, (a, b, period)

    def test_periodic_run_is_the_least_period(self):
        """Rise 2 per 4 steps repeats every 2 steps."""
        assert PeriodicTail(4, 2).runs(0, 9) == [(0, 9, 2)]


class TestEvalN:
    def test_line_symmetry(self):
        assert eval_N(line_profile(), 2) == -2

    def test_empty_column(self):
        assert eval_N(simple_quarter_profile(), -1) == POS_INF

    def test_full_column(self):
        assert eval_N(notched_plane_profile(), 0) == NEG_INF

    def test_half_lines_derived_by_scan(self):
        hl = half_lines_profile()
        for i in range(-10, 11):
            direct = next(
                (j for j in range(-60, 61) if eval_M(hl, j) <= i), None
            )
            assert direct is not None
            assert eval_N(hl, i) == direct
        assert eval_N(hl, 1) == -2

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_galois_connection(self, name, profile):
        # N_i <= j  <=>  M_j <= i on finite values
        for i in range(-12, 13):
            n = eval_N(profile, i)
            for j in range(-12, 13):
                lhs = n <= j
                rhs = eval_M(profile, j) <= i
                assert lhs == rhs, (name, i, j, n)


def _reference_eval_N(profile: DiagramProfile, i: int):
    """N_i by the scalar search n_exact replaced: gallop out from the window
    one eval_M call at a time to bracket the crossing, then bisect."""
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


def _reference_row(profile: DiagramProfile, j: int):
    """M_j straight from the window and the tail definitions."""
    minus, plus = profile.minus_tail, profile.plus_tail
    if j < profile.j_lo:
        if not minus.finite:
            return POS_INF
        return profile.window[0] + _reference_rise(minus, profile.j_lo - j, Side.MINUS)
    if j > profile.j_hi:
        if not plus.finite:
            return NEG_INF
        return profile.window[-1] - _reference_rise(plus, j - profile.j_hi, Side.PLUS)
    return profile.window[j - profile.j_lo]


# Translations of a profile's window values and indices, past the integers
# float64 holds exactly.
SHIFTS = [0, 2**53, -(2**53), 10**17, -(10**17)]
FAR = [1000, -1000, 10**6, -(10**6), 2**40, -(2**40), 2**70, -(2**70)]


def _same(got: list, want: list) -> bool:
    return got == want and [type(v) for v in got] == [type(v) for v in want]


class TestColumnBorders:
    """n_exact searches every column at once; it must equal the scalar search."""

    @given(_any_profiles(), st.sampled_from(SHIFTS), st.sampled_from(SHIFTS),
           st.lists(st.tuples(st.sampled_from([0, -1]),
                              st.integers(-8, 8) | st.sampled_from(FAR[:4])),
                    min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_n_exact_is_the_scalar_search(self, profile, di, dj, offsets):
        profile = translate(profile, di, dj)
        validate(profile)
        cols = [profile.window[k] + off for k, off in offsets]
        want = [_reference_eval_N(profile, i) for i in cols]
        assert _same(n_exact(profile, cols).tolist(), want)
        assert _same([eval_N(profile, i) for i in cols], want)

    @given(_any_profiles(), st.sampled_from(SHIFTS), st.sampled_from(SHIFTS),
           st.lists(st.integers(-12, 12) | st.sampled_from(FAR), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_m_exact_is_the_tail_definition(self, profile, di, dj, offsets):
        profile = translate(profile, di, dj)
        validate(profile)
        js = [profile.j_lo + off for off in offsets]
        got = m_exact(profile, js)
        assert got.dtype in (np.int64, object)
        assert _same(got.tolist(), [_reference_row(profile, j) for j in js])

    def test_every_tail_kind_is_drawn(self):
        kinds = set()

        @given(_any_profiles())
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        def collect(profile):
            for tail in (profile.minus_tail, profile.plus_tail):
                kinds.add("rise_zero" if tail.is_rise_zero() else tail.kind)

        collect()
        assert kinds == {"empty", "full", "periodic", "rise_zero", "geometric", "inverted"}

    @given(_any_profiles(), st.sampled_from(["below", "above", "across"]),
           st.integers(1, 40) | st.sampled_from([2**40, 2**62 - 8, 2**62, 2**63, 2**70]),
           st.integers(1, 24), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_m_exact_on_runs_of_rows(self, profile, where, far, length, as_range):
        """A range or int array of rows wholly below the window, wholly above
        it, or across it reads the window value plus or minus the reference
        rise, also at indices past the int64 guard."""
        validate(profile)
        lo, hi = profile.j_lo, profile.j_hi
        below = range(lo - far - length + 1, lo - far + 1)
        above = range(hi + far, hi + far + length)
        js = {"below": below, "above": above, "across": range(lo - length, hi + length + 1)}[where]
        if not as_range:
            js = list(js) if where != "across" else [*below, *range(lo, hi + 1), *above]
            js = np.array(js, dtype=object if max(map(abs, js)) >= 2**63 else np.int64)
        got = m_exact(profile, js)
        assert got.dtype in (np.int64, object)
        assert _same(got.tolist(), [_reference_row(profile, int(j)) for j in js])

    @given(_any_profiles(), st.sampled_from(["below", "above", "across"]),
           st.integers(1, 40) | st.sampled_from([f for f in FAR if f > 0] + [2**62 - 8, 2**63]),
           st.integers(0, 12), st.sampled_from([-3, -1, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_m_exact_on_ranges_of_every_step(self, profile, where, far, length, step):
        """A range of any step, ascending or descending, wholly below, wholly
        above or across the window, reads what its list of indices reads and
        what the tail definitions give, in value, Python type and dtype."""
        lo, hi = profile.j_lo, profile.j_hi
        last = (length - 1) * step  # the offset of the last row from the first
        if where == "below":  # every row at or below lo - far
            first = lo - far - max(last, 0)
        elif where == "above":  # every row at or above hi + far
            first = hi + far - min(last, 0)
        else:  # from min(far, 40) rows outside one end of the window past the other
            off = min(far, 40)
            first = lo - off if step > 0 else hi + off
            length = (hi - lo + 2 * off) // abs(step) + 2
        js = range(first, first + length * step, step)
        got = m_exact(profile, js)
        via_list = m_exact(profile, list(js))
        assert got.dtype == via_list.dtype and got.dtype in (np.int64, object)
        want = [_reference_row(profile, j) for j in js]
        assert _same(got.tolist(), want) and _same(via_list.tolist(), want)

    def test_transposes_make_no_scalar_calls(self, monkeypatch):
        from stairspec import oracle, shifts

        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        for module in (D, shifts, oracle):
            monkeypatch.setattr(module, "eval_M", counted("eval_M", eval_M), raising=False)
            monkeypatch.setattr(module, "eval_N", counted("eval_N", eval_N), raising=False)
        for profile in transpose_duality_suite():
            transpose(transpose(transpose(profile)))
            oracle.joint_adjoint_kernel_smin(profile, 0.5, 0.5, (-6, 6, -6, 6))
        assert calls == []

    def test_transposes_are_unchanged(self):
        """repr of the single, double and triple transposes of criterion 4's
        suite, recorded from the per-column eval_N implementation.  The
        inverted tails' reprs have since lost two fields, the inversion mode
        and its offset, when inversion became one rule; nothing else
        changed."""
        recorded = json.loads((Path(__file__).parent / "transpose_reprs.json").read_text())
        got = []
        for profile in transpose_duality_suite():
            once = transpose(profile)
            twice = transpose(once)
            got.append([repr(once), repr(twice), repr(transpose(twice))])
        assert got == recorded

    @pytest.mark.parametrize(
        "original,result,message",
        [
            (line_profile(),
             DiagramProfile(-1, (1, 0), PeriodicTail(1, 1), PeriodicTail(1, 2)),
             "column 1: -2 != -1"),
            (quarter_steps_profile(), line_profile(), "column -8: 8 != inf"),
            (line_profile(), quarter_steps_profile(), "column -8: inf != 8"),
        ],
        ids=["finite", "empty-column", "empty-row"],
    )
    def test_failed_self_check_names_the_first_column(self, original, result, message):
        with pytest.raises(AssertionError) as failure:
            D._check_transpose(original, result)
        assert str(failure.value) == f"transpose self-check failed at {message}"


class TestTranslate:
    def test_identity(self):
        line = line_profile()
        assert translate(line, 0, 0) == line

    def test_shift(self):
        shifted = translate(line_profile(), 2, 0)
        assert eval_M(shifted, 0) == 2
        shifted = translate(line_profile(), 0, 3)
        assert eval_M(shifted, 3) == 0


def _transposable() -> list[tuple[str, DiagramProfile]]:
    return [
        ("line", line_profile()),
        ("line2", line_profile(2, 1)),
        ("half_lines", half_lines_profile()),
        ("steep", DiagramProfile(-1, (5, 2), PeriodicTail(3, 2), PeriodicTail(2, 5))),
        ("quarter_steps", quarter_steps_profile()),
        ("wold_mixed", wold_mixed_profile()),
        ("notched", notched_plane_profile()),
        (
            "gb_pos",
            DiagramProfile(
                0,
                (0,),
                GeometricBlocksTail((FR(1, 3), FR(3), FR(1)), 2, 2),
                GeometricBlocksTail((FR(1, 2), FR(2)), 3, 1),
            ),
        ),
    ]


class TestTranspose:
    @pytest.mark.parametrize("name,profile", _transposable())
    def test_reflection_identity(self, name, profile):
        flipped = transpose(profile)
        for i in range(-40, 41):
            assert eval_M(flipped, i) == eval_N(profile, i), (name, i)
            assert eval_N(flipped, i) == eval_M(profile, i), (name, i)

    @pytest.mark.parametrize("name,profile", _transposable())
    def test_involution(self, name, profile):
        twice = transpose(transpose(profile))
        for j in range(-40, 41):
            assert eval_M(twice, j) == eval_M(profile, j), (name, j)

    def test_line_self_symmetric(self):
        line = line_profile()
        flipped = transpose(line)
        for j in range(-20, 21):
            assert eval_M(flipped, j) == eval_M(line, j)

    def test_gb01_transposes(self):
        """A zero-slope block inverts to a jump: rho_plus is infinite, the
        delta/rho identities hold, and transposing again gives gb01's border
        values back (the reprs differ: the double transpose has a t_shift)."""
        gb01 = gb01_profile()
        once = transpose(gb01)
        p, d = compute_params(gb01), compute_params(once)
        assert d.rho_plus == EXT_INF
        assert d.delta_plus == p.rho_minus.reciprocal()
        assert d.rho_plus == p.delta_minus.reciprocal()
        assert d.delta_minus == p.rho_plus.reciprocal()
        assert d.rho_minus == p.delta_plus.reciprocal()
        twice = transpose(once)
        js = range(-4096, 4097)
        assert np.array_equal(m_exact(twice, js), m_exact(gb01, js))
        assert np.array_equal(m_exact(transpose(twice), js), m_exact(once, js))

    def test_half_plane_rejected_up_front(self):
        half_plane = DiagramProfile(0, (0,), PeriodicTail(3, 0), PeriodicTail(2, 0))
        with pytest.raises(SpecError, match="half-plane"):
            transpose(half_plane)

    @pytest.mark.parametrize(
        "original", [*transpose_duality_suite(), *(p for _, p in _transposable())]
    )
    def test_self_check_is_the_column_search(self, original):
        """The self-check verifies each claim instead of searching for it, and
        accepts and rejects exactly what comparing with n_exact at every probe
        does: on the true transpose, and on each variant with one window value
        or j_lo moved by one.  A failure names the first differing probe."""
        true = transpose(original)
        j_lo, w = true.j_lo, true.window
        shapes = [(j_lo, w), *((j_lo + d, w) for d in (-1, 1))]
        shapes += [(j_lo, w[:k] + (w[k] + d,) + w[k + 1:]) for k in range(len(w)) for d in (-1, 1)]
        for shape in shapes:
            try:
                variant = DiagramProfile(*shape, true.minus_tail, true.plus_tail)
            except SpecError:  # the moved value broke the window's order
                continue
            probes = D._probe_columns(variant)
            rows, cols = m_exact(variant, probes), n_exact(original, probes)
            differ = np.flatnonzero(rows != cols)
            if not differ.size:
                D._check_transpose(original, variant)
                continue
            at = differ[0]
            with pytest.raises(AssertionError) as failure:
                D._check_transpose(original, variant)
            assert str(failure.value) == (
                f"transpose self-check failed at column {probes[at]}: "
                f"{rows.item(at)} != {cols.item(at)}"
            )

    def test_transpose_searches_only_its_window(self, monkeypatch):
        """One n_exact call per transpose, over the new window's columns; the
        self-check reads rows and searches nothing when it passes."""
        searched = []

        def counted(profile, cols):
            searched.append(len(cols))
            return n_exact(profile, cols)

        monkeypatch.setattr(D, "n_exact", counted)
        for profile in transpose_duality_suite():
            once = transpose(profile)
            twice = transpose(once)
            thrice = transpose(twice)
            assert searched == [len(t.window) for t in (once, twice, thrice)]
            searched.clear()


class TestSpecDocuments:
    def test_round_trip(self, spec_dir):
        for path in spec_dir.glob("*.json"):
            doc = json.loads(path.read_text())
            profile = profile_from_json(doc)
            assert profile_from_json(profile_to_json(profile)) == profile

    def test_unknown_fields_rejected(self):
        doc = {
            "window": {"j_lo": 0, "values": [0]},
            "minus_tail": {"kind": "periodic", "period": 1, "rise": 1},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
            "surprise": True,
        }
        with pytest.raises(SpecError, match=r"top level: unknown fields \['surprise'\]"):
            profile_from_json(doc)

    _DOC = {
        "window": {"j_lo": 0, "values": [1, 0]},
        "minus_tail": {"kind": "geometric", "slopes": ["0", "1"], "ratio": 2, "base_len": 1},
        "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
    }

    @pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
    @pytest.mark.parametrize(
        "part,key,message",
        [
            ("window", "j_lo", "window.j_lo: expected an integer, got {value!r}"),
            ("window", "values", "window.values: expected a nonempty list of integers"),
            ("plus_tail", "period", "plus_tail.period: expected an integer, got {value!r}"),
            ("plus_tail", "rise", "plus_tail.rise: expected an integer, got {value!r}"),
            ("minus_tail", "ratio", "minus_tail.ratio: expected an integer, got {value!r}"),
            ("minus_tail", "base_len", "minus_tail.base_len: expected an integer, got {value!r}"),
        ],
        ids=["j_lo", "values", "period", "rise", "ratio", "base_len"],
    )
    def test_integer_fields_refuse_bools_and_floats(self, part, key, message, value):
        doc = copy.deepcopy(self._DOC)
        profile_from_json(doc)
        doc[part][key] = [1, value] if key == "values" else value
        with pytest.raises(SpecError, match=f"^{re.escape(message.format(value=value))}$"):
            profile_from_json(doc)

    @pytest.mark.parametrize(
        "part,key,message",
        [
            (None, "plus_tail", "top level: missing fields ['plus_tail']"),
            ("window", "values", "window: missing fields ['values']"),
            ("minus_tail", "base_len", "minus_tail: missing fields ['base_len']"),
            ("plus_tail", "rise", "plus_tail: missing fields ['rise']"),
        ],
        ids=["top", "window", "minus_tail", "plus_tail"],
    )
    def test_missing_fields_named(self, part, key, message):
        doc = copy.deepcopy(self._DOC)
        del (doc if part is None else doc[part])[key]
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            profile_from_json(doc)

    @pytest.mark.parametrize(
        "part,value,message",
        [
            ("minus_tail", {"kind": "periodic", "period": 0, "rise": 1},
             "minus_tail: periodic tail needs period >= 1, got 0"),
            ("minus_tail", {"kind": "periodic", "period": 1, "rise": -1},
             "minus_tail: periodic tail needs rise >= 0, got -1"),
            ("plus_tail", {"kind": "geometric", "slopes": [], "ratio": 2, "base_len": 1},
             "plus_tail.slopes: expected a nonempty list"),
            ("plus_tail", {"kind": "geometric", "slopes": ["-1", "1"], "ratio": 2, "base_len": 1},
             "plus_tail: geometric tail slopes must be >= 0"),
            ("plus_tail", {"kind": "geometric", "slopes": ["0", "1"], "ratio": 1, "base_len": 1},
             "plus_tail: geometric tail needs ratio >= 2, got 1"),
            ("plus_tail", {"kind": "geometric", "slopes": ["0", "1"], "ratio": 2, "base_len": 0},
             "plus_tail: geometric tail needs base_len >= 1, got 0"),
            ("window", [0], "window: expected an object"),
        ],
        ids=["period", "rise", "no_slopes", "negative_slope", "ratio", "base_len", "window"],
    )
    def test_tail_parameter_refusals_name_their_field(self, part, value, message):
        doc = copy.deepcopy(self._DOC)
        doc[part] = value
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            profile_from_json(doc)

    def test_geometric_tail_needs_a_slope(self):
        with pytest.raises(SpecError, match="^geometric tail needs at least one slope$"):
            GeometricBlocksTail((), 2, 1)

    def test_field_path_in_errors(self):
        doc = {
            "window": {"j_lo": 0, "values": [0]},
            "minus_tail": {"kind": "geometric", "slopes": ["x"], "ratio": 2, "base_len": 1},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
        }
        with pytest.raises(SpecError, match=r"minus_tail\.slopes\[0\]: cannot parse 'x'"):
            profile_from_json(doc)

    def test_side_legality(self):
        doc = {
            "window": {"j_lo": 0, "values": [0]},
            "minus_tail": {"kind": "full"},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
        }
        with pytest.raises(SpecError, match="minus_tail: .* does not define a diagram on the minus"):
            profile_from_json(doc)

    def test_monotonicity_checked(self):
        doc = {
            "window": {"j_lo": 0, "values": [0, 1]},
            "minus_tail": {"kind": "periodic", "period": 1, "rise": 1},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
        }
        with pytest.raises(SpecError, match="non-increasing"):
            profile_from_json(doc)


@st.composite
def small_profiles(draw):
    length = draw(st.integers(min_value=1, max_value=4))
    drops = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=length - 1,
                          max_size=length - 1))
    top = draw(st.integers(min_value=-3, max_value=3))
    window = [top]
    for d in drops:
        window.append(window[-1] - d)
    minus = draw(
        st.sampled_from(
            [
                EMPTY_ROWS,
                PeriodicTail(1, 1),
                PeriodicTail(3, 2),
                PeriodicTail(2, 0),
                GeometricBlocksTail((FR(1, 2), FR(2)), 2, 1),
            ]
        )
    )
    plus = draw(
        st.sampled_from(
            [
                FULL_ROWS,
                PeriodicTail(1, 1),
                PeriodicTail(3, 1),
                PeriodicTail(2, 0),
                GeometricBlocksTail((FR(1, 3), FR(1)), 2, 2),
            ]
        )
    )
    return DiagramProfile(draw(st.integers(-2, 2)), tuple(window), minus, plus)


@given(small_profiles())
@settings(max_examples=80, deadline=None)
def test_random_profiles_are_monotone_everywhere(profile):
    validate(profile)
    values = [eval_M(profile, j) for j in range(profile.j_lo - 40, profile.j_hi + 41)]
    assert all(a >= b for a, b in zip(values, values[1:]))

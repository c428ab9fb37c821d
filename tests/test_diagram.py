import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stairspec import diagram as D
from stairspec.diagram import (
    EMPTY_ROWS,
    FULL_ROWS,
    NEG_INF,
    POS_INF,
    BorderOverflowError,
    DefectClass,
    DegenerateAllEqualSlopes,
    DiagramProfile,
    GeometricBlocksTail,
    InversionMode,
    InvertedBlocksTail,
    MonotonicityViolation,
    PeriodicTail,
    Side,
    SpecParseError,
    TailMismatch,
    UnsupportedTranspose,
    WoldType,
    borders,
    eval_M,
    eval_N,
    m_values,
    profile_from_json,
    profile_to_json,
    translate,
    transpose,
    validate,
)
from stairspec.params import compute_params
from stairspec.shifts import fringe_operator

from conftest import (
    SPEC_DIR,
    canonical_nonsimple,
    gb01_profile,
    half_lines_profile,
    line_profile,
    notched_plane_profile,
    quarter_steps_profile,
    simple_quarter_profile,
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

    def test_monotonicity_violation(self):
        bad = DiagramProfile(0, (0, 1), PeriodicTail(1, 1), PeriodicTail(1, 1))
        with pytest.raises(MonotonicityViolation):
            validate(bad)

    def test_tail_mismatch(self):
        with pytest.raises(TailMismatch):
            validate(DiagramProfile(0, (0,), FULL_ROWS, PeriodicTail(1, 1)))
        with pytest.raises(TailMismatch):
            validate(DiagramProfile(0, (0,), PeriodicTail(1, 1), EMPTY_ROWS))

    def test_degenerate_equal_slopes(self):
        with pytest.raises(DegenerateAllEqualSlopes):
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

    def test_failed_check_is_not_cached(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        bad = DiagramProfile(0, (0, 1), PeriodicTail(1, 1), PeriodicTail(1, 1))
        for expected in (1, 2, 3):
            with pytest.raises(MonotonicityViolation):
                validate(bad)
            assert len(calls) == expected


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
        ceil = tail.mode is InversionMode.CEIL_INVERSE

        def inverse(y: int) -> int:
            """min{u : inner rise(u) >= y} (ceil) or max{u : inner rise(u) <= y}."""
            def passes(u: int) -> bool:
                rise = _reference_rise(tail.inner, u, side)
                return rise >= y if ceil else rise > y
            lo, hi = 0, 1  # passes(hi); not passes(lo) unless lo == 0
            while not passes(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if passes(mid) else (mid, hi)
            if ceil:
                return 0 if passes(0) else hi
            return lo
        return inverse(t + tail.base_t) - inverse(tail.base_t)

    def rounded(u: int) -> int:
        start, target, k, length = 0, Fraction(0), 0, tail.base_len
        while u > start + length:
            target += tail.slopes[k % len(tail.slopes)] * length
            start, k, length = start + length, k + 1, length * tail.ratio
        cumulative = target + tail.slopes[k % len(tail.slopes)] * (u - start)
        return math.floor(cumulative + Fraction(1, 2))
    return rounded(t + tail.t_shift) - rounded(tail.t_shift)


@st.composite
def _slopes(draw, positive: bool):
    low = 1 if positive else 0
    numerators = st.integers(low, 6) | st.sampled_from(BIG)
    slopes = draw(st.lists(st.builds(Fraction, numerators, st.integers(1, 4)),
                           min_size=2, max_size=3, unique=True))
    return tuple(slopes)


@st.composite
def _finite_tails(draw, side: str):
    kind = draw(st.sampled_from(["periodic", "geometric", "inverted"]))
    if kind == "periodic":
        rise = draw(st.integers(0, 7) | st.sampled_from(BIG))
        return PeriodicTail(draw(st.integers(1, 5) | st.just(3 * 2**61)), rise)
    slopes = draw(_slopes(positive=kind == "inverted"))
    inner = GeometricBlocksTail(slopes, draw(st.integers(2, 4)), draw(st.integers(1, 3)),
                                draw(st.integers(0, 40)))
    if kind == "geometric":
        return inner
    mode = InversionMode.CEIL_INVERSE if side == "minus" else InversionMode.FLOOR_INVERSE
    return InvertedBlocksTail(inner, mode, draw(st.integers(0, 5)))


@st.composite
def _any_profiles(draw):
    top = draw(st.integers(-3, 3) | st.sampled_from([2**62 - 2, -(2**62), 10**20]))
    drops = draw(st.lists(st.integers(0, 3), max_size=3))
    window = [top]
    for d in drops:
        window.append(window[-1] - d)
    minus = draw(st.just(EMPTY_ROWS) | _finite_tails("minus"))
    plus = draw(st.just(FULL_ROWS) | _finite_tails("plus"))
    return DiagramProfile(draw(st.integers(-3, 3)), tuple(window), minus, plus)


class TestExactEvaluator:
    @given(_any_profiles(), st.integers(-300, 300), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
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
        with pytest.raises(BorderOverflowError):
            m_values(profile, -2, 0)


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


class TestBorders:
    def test_quarter_plane_single_corner(self):
        report = borders(simple_quarter_profile(), (-2, 2, -2, 2))
        assert report.outer == ((0, 0),)
        assert report.inner == ()
        assert report.outer_nonempty and not report.inner_nonempty

    def test_notched_plane_single_inner(self):
        report = borders(notched_plane_profile(), (-3, 3, -3, 3))
        assert not report.outer_nonempty
        assert report.inner_nonempty
        assert report.inner == ((0, 1),)
        assert report.outer == ()

    def test_line_staircase_against_bruteforce(self):
        line = line_profile()
        viewport = (-3, 3, -3, 3)
        report = borders(line, viewport)

        def in_j(i, j):
            return eval_M(line, j) <= i

        vb, hb, inner, outer = [], [], [], []
        for j in range(-3, 4):
            for i in range(-3, 4):
                if not in_j(i, j):
                    continue
                if not in_j(i - 1, j):
                    vb.append((i, j))
                if not in_j(i, j - 1):
                    hb.append((i, j))
                if in_j(i - 1, j) and in_j(i, j - 1) and not in_j(i - 1, j - 1):
                    inner.append((i, j))
        outer = sorted(set(vb) & set(hb))
        assert sorted(report.vb) == sorted(vb)
        assert sorted(report.hb) == sorted(hb)
        assert sorted(report.inner) == sorted(inner)
        assert sorted(report.outer) == outer
        assert len(report.outer) == 7
        assert report.inner_nonempty

    @pytest.mark.parametrize("name,profile", canonical_nonsimple())
    def test_viewport_against_bruteforce(self, name, profile):
        viewport = (-4, 4, -4, 4)
        report = borders(profile, viewport)

        def in_j(i, j):
            return eval_M(profile, j) <= i

        for i, j in report.vb:
            assert in_j(i, j) and not in_j(i - 1, j)
        for i, j in report.hb:
            assert in_j(i, j) and not in_j(i, j - 1)
        for i, j in report.outer:
            assert (i, j) in set(report.vb) and (i, j) in set(report.hb)
        for i, j in report.inner:
            assert in_j(i - 1, j) and in_j(i, j - 1) and not in_j(i - 1, j - 1)


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

    def test_zero_slope_blocks_rejected(self):
        with pytest.raises(UnsupportedTranspose):
            transpose(gb01_profile())

    def test_half_plane_rejected_up_front(self):
        half_plane = DiagramProfile(0, (0,), PeriodicTail(3, 0), PeriodicTail(2, 0))
        with pytest.raises(UnsupportedTranspose, match="half-plane"):
            transpose(half_plane)


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
        with pytest.raises(SpecParseError, match="surprise"):
            profile_from_json(doc)

    def test_field_path_in_errors(self):
        doc = {
            "window": {"j_lo": 0, "values": [0]},
            "minus_tail": {"kind": "geometric", "slopes": ["x"], "ratio": 2, "base_len": 1},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
        }
        with pytest.raises(SpecParseError, match=r"minus_tail\.slopes\[0\]"):
            profile_from_json(doc)

    def test_side_legality(self):
        doc = {
            "window": {"j_lo": 0, "values": [0]},
            "minus_tail": {"kind": "full"},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
        }
        with pytest.raises(SpecParseError, match="minus_tail"):
            profile_from_json(doc)

    def test_monotonicity_checked(self):
        doc = {
            "window": {"j_lo": 0, "values": [0, 1]},
            "minus_tail": {"kind": "periodic", "period": 1, "rise": 1},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
        }
        with pytest.raises(SpecParseError, match="non-increasing"):
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

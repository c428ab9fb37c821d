"""Shared canonical profiles used across the test suite."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from stairspec.diagram import (
    EMPTY_ROWS,
    FULL_ROWS,
    DiagramProfile,
    GeometricBlocksTail,
    InvertedBlocksTail,
    PeriodicTail,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def line_profile(period: int = 1, rise: int = 1) -> DiagramProfile:
    """Staircase along a single rational slope on both sides."""
    return DiagramProfile(0, (0,), PeriodicTail(period, rise), PeriodicTail(period, rise))


def half_lines_profile() -> DiagramProfile:
    """Slope 1/2 behind the window, slope 1 ahead of it."""
    return DiagramProfile(0, (0,), PeriodicTail(2, 1), PeriodicTail(1, 1))


def gb01_profile() -> DiagramProfile:
    """Geometric blocks cycling slopes 0 and 1 below, slope 1 above."""
    return DiagramProfile(
        0, (0,), GeometricBlocksTail((Fraction(0), Fraction(1)), 2, 1), PeriodicTail(1, 1)
    )


def quarter_steps_profile() -> DiagramProfile:
    """A two-step staircase inside the quarter plane (both operators shifts)."""
    return DiagramProfile(0, (1, 0), EMPTY_ROWS, PeriodicTail(1, 0))


def wold_mixed_profile() -> DiagramProfile:
    """Both operators have unitary parts; not the notched plane (outer corners exist)."""
    return DiagramProfile(0, (1, 0), PeriodicTail(1, 0), FULL_ROWS)


def notched_plane_profile() -> DiagramProfile:
    """The plane minus a closed quadrant: constant rows below, full rows above."""
    return DiagramProfile(0, (0,), PeriodicTail(1, 0), FULL_ROWS)


def simple_quarter_profile() -> DiagramProfile:
    """A translate of the quarter plane (simple)."""
    return DiagramProfile(0, (0,), EMPTY_ROWS, PeriodicTail(1, 0))


def canonical_nonsimple() -> list[tuple[str, DiagramProfile]]:
    return [
        ("line_slope1", line_profile()),
        ("half_lines", half_lines_profile()),
        ("gb01", gb01_profile()),
        ("quarter_steps", quarter_steps_profile()),
        ("wold_mixed", wold_mixed_profile()),
        ("notched_plane", notched_plane_profile()),
    ]


def transpose_duality_suite() -> list[DiagramProfile]:
    """Acceptance criterion 4's profiles: periodic, geometric and mixed tails."""
    gb_a = GeometricBlocksTail((Fraction(1, 2), Fraction(2)), 2, 1)
    gb_b = GeometricBlocksTail((Fraction(1, 3), Fraction(3), Fraction(1)), 2, 2)
    gb_c = GeometricBlocksTail((Fraction(2, 3), Fraction(5, 2)), 3, 1)
    return [
        line_profile(),
        line_profile(2, 1),
        line_profile(1, 2),
        line_profile(3, 2),
        half_lines_profile(),
        DiagramProfile(-1, (5, 2), PeriodicTail(3, 2), PeriodicTail(2, 5)),
        DiagramProfile(0, (0,), PeriodicTail(1, 1), gb_a),
        DiagramProfile(0, (3, 0), gb_b, PeriodicTail(1, 2)),
        DiagramProfile(0, (0,), gb_a, gb_b),
        DiagramProfile(2, (4, 1, 0), gb_c, gb_a),
        wold_mixed_profile(),
    ]


# Translations along i: to 2**53, where float64 stops holding every integer,
# past it inside int64 (10**17), and past int64 (10**30).
TRANSLATIONS = [2**53, -(2**53), 10**17, -(10**17), 10**30, -(10**30)]

_SLOPES = st.lists(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]),
    min_size=2, max_size=3, unique=True,
)


@st.composite
def finite_tails(draw):
    """A periodic, geometric or inverted tail; each may sit on either side."""
    kind = draw(st.sampled_from(["periodic", "geometric", "inverted"]))
    if kind == "periodic":
        return PeriodicTail(draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    slopes = tuple(draw(_SLOPES))
    inner = GeometricBlocksTail(slopes, draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    return inner if kind == "geometric" else InvertedBlocksTail(inner)


@pytest.fixture
def spec_dir() -> Path:
    return SPEC_DIR

"""Re-presentation invariance: one diagram, whatever its presentation.

A profile is one presentation of a border sequence.  Moving tail steps into
the window, with the tail continued after them, presents the same diagram,
and translating it moves every answer by the translation alone.  So every
answer of the library must agree between the two presentations that
conftest's ``presentations`` draws.
"""

from dataclasses import replace

from hypothesis import given, settings

from stairspec.diagram import m_exact, transpose, validate
from stairspec.extnum import RegimeError, SpecError
from stairspec.oracle import gamma2_series_test, window_smin_scan
from stairspec.params import compute_params
from stairspec.regions import region_triple
from stairspec.shifts import fringe_operator, ridge_bounds, sigma_ap_predict

from conftest import presentations

MU = 0.5
LAMBDAS = (0.05, 0.25, 0.5, 0.75, 0.95)


def _rows(profile, lo: int, hi: int) -> list:
    return m_exact(profile, range(lo, hi + 1)).tolist()


def _answer(call, *args):
    """What ``call`` returns, or the kind of refusal it raises."""
    try:
        return call(*args)
    except (SpecError, RegimeError) as exc:
        return type(exc)


@given(presentations())
@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
def test_every_answer_is_the_same(case):
    """Rows, structure, parameters, regions, transposed rows and the shift
    prediction, moved only by the translation."""
    profile, other, (di, dj) = case
    lo, hi = profile.j_lo - 40, profile.j_hi + 40
    assert _rows(other, lo + dj, hi + dj) == [v + di for v in _rows(profile, lo, hi)]

    structure = validate(profile)
    assert validate(other) == replace(structure, j0=structure.j0 + dj, j1=structure.j1 + dj)

    flipped, other_flipped = _answer(transpose, profile), _answer(transpose, other)
    if isinstance(flipped, type):
        assert other_flipped is flipped
    else:
        lo, hi = flipped.j_lo - 40, flipped.j_hi + 40
        assert _rows(other_flipped, lo + di, hi + di) == [v + dj for v in _rows(flipped, lo, hi)]

    params = _answer(compute_params, profile)
    assert _answer(compute_params, other) == params
    if structure.is_simple:
        return
    assert region_triple(params, validate(other)) == region_triple(params, structure)
    spec, other_spec = fringe_operator(profile, MU), fringe_operator(other, MU)
    bounds, other_bounds = ridge_bounds(spec, params), ridge_bounds(other_spec, params)
    for lam in LAMBDAS:
        want = sigma_ap_predict(spec, bounds, lam)
        assert sigma_ap_predict(other_spec, other_bounds, lam) == want


@given(presentations(translated=False))
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
def test_oracles_are_bit_identical(case):
    """Window scans and series probes, untranslated: equal to the last bit."""
    profile, other, _ = case
    if validate(profile).is_simple:
        return
    for lam in (0.3, 0.9):
        scans = [_answer(window_smin_scan, fringe_operator(p, MU), lam, [16, 64], 64)
                 for p in (profile, other)]
        assert repr(scans[0]) == repr(scans[1])
        series = [_answer(gamma2_series_test, p, MU, lam, 1024) for p in (profile, other)]
        assert repr(series[0]) == repr(series[1])

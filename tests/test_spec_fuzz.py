"""The CLI's input contract: every spec document and every flag value it is
given either gets an answer (exit 0) or is refused with a message (exit 2 for
a malformed or invalid spec or probe size, 3 for one outside the numeric
regime), never a traceback."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stairspec.cli import main
from stairspec.oracle import WINDOW_START_BUDGET

from conftest import SPEC_DIR

HUGE = [10**20, 10**400]
_ints = st.integers(-3, 12) | st.sampled_from(HUGE + [-(10**20)])
_positive = st.integers(1, 5) | st.sampled_from(HUGE)
_slope_texts = st.builds("{}/{}".format, st.integers(0, 9) | st.sampled_from(HUGE), _positive)
# What a corrupted field gets: non-integers, negatives, empty lists, huge ints.
_bad = st.sampled_from([1.5, -0.0, "3", "x", "1/0", None, True, [], {}, float("nan"),
                        -1, 0, -(10**400), 10**400, {"kind": "spiral"}])


def _tail(kind: str, **fields):
    return {"kind": kind, **fields}


_periodic = st.builds(lambda p, r: _tail("periodic", period=p, rise=r),
                      _positive, st.just(0) | _positive)
# Deep geometric parameters: up to twelve slopes, huge ratios and block lengths.
_geometric = st.builds(lambda s, r, b: _tail("geometric", slopes=s, ratio=r, base_len=b),
                       st.lists(_slope_texts | st.integers(0, 3), min_size=1, max_size=12),
                       st.integers(2, 9) | st.sampled_from(HUGE), _positive)
_minus_tails = st.just(_tail("empty")) | _periodic | _geometric
_plus_tails = st.just(_tail("full")) | _periodic | _geometric


def _slots(node, out):
    """Every (container, key) of a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


@st.composite
def _documents(draw):
    """Valid documents, each with zero to two fields replaced, dropped or added."""
    swap = draw(st.integers(0, 9)) == 0  # a tail on the wrong side
    doc = copy.deepcopy({
        "window": {"j_lo": draw(_ints),
                   "values": sorted(draw(st.lists(_ints, min_size=1, max_size=4)), reverse=True)},
        "minus_tail": draw(_plus_tails if swap else _minus_tails),
        "plus_tail": draw(_minus_tails if swap else _plus_tails),
    })
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        node, key = draw(st.sampled_from(_slots(doc, [])))
        action = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
        if action == "replace":
            node[key] = copy.deepcopy(draw(_bad))
        elif action == "drop":
            node.pop(key)
        elif isinstance(node, dict):
            node["extra"] = 1
        else:
            node.append(copy.deepcopy(draw(_ints | _bad)))
    return doc if draw(st.integers(0, 19)) else copy.deepcopy(draw(_bad))


# Commands that read the document, its exponents and its border rows; "OUT"
# stands for a file in the test's temporary directory.
COMMANDS = [
    ["validate"],
    ["params"],
    ["report", "--mc-samples", "50"],
    ["fringe", "--mu", "0.5"],
    ["oracle", "fringe", "--mu", "0.5", "--lambda", "0.5", "--sizes", "16,64", "--j-scan", "32"],
    ["oracle", "gamma2", "--mu", "0.5", "--lambda", "0.5", "--terms", "64"],
    ["oracle", "t3", "--mu", "0.5", "--lambda", "0.5", "--window", "8"],
    ["sample", "--resolution", "3", "--out", "OUT"],
    ["raster", "--width", "16", "--height", "16", "--out", "OUT"],
]
MEMBER = ["member", "--mu", "0.5", "--lambda", "0.3"]

_DEEP = {
    "window": {"j_lo": 0, "values": [0]},
    "minus_tail": _tail("geometric", slopes=[f"{k}/{k + 1}" for k in range(12)],
                        ratio=10**400, base_len=1),
    "plus_tail": _tail("periodic", period=1, rise=1),
}

_BIG_START = _tail("geometric", slopes=["0/1", 1, 1, "0/1"], ratio=10**20, base_len=1)


def _one_row(j_lo, value, minus, plus):
    return {"window": {"j_lo": j_lo, "values": [value]}, "minus_tail": minus, "plus_tail": plus}


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag it cannot parse
            code = exc.code
    return code, err.getvalue()


@given(_documents(), st.sampled_from(["taylor", "gamma2", "gamma3"]))
@settings(max_examples=60, deadline=None)
@example(_DEEP, "gamma2")
@example({**_DEEP, "minus_tail": _tail("periodic", period=1, rise=10**400)}, "taylor")
@example({**_DEEP, "minus_tail": _tail("periodic", period=10**400, rise=1)}, "gamma3")
@example({**_DEEP, "plus_tail": _tail("geometric", slopes=[str(10**400), "1"], ratio=2,
                                      base_len=10**400)}, "taylor")
# a simple diagram: fringe and oracle fringe refuse it
@example(_one_row(0, 0, _tail("empty"), _tail("periodic", period=1, rise=0)), "taylor")
# an empty row next to a window value beyond float64
@example(_one_row(0, 10**400, _tail("empty"), _tail("periodic", period=1, rise=1)), "taylor")
# the last finite row far below 1: the upward series is empty
@example(_one_row(-(10**20), 0, _tail("periodic", period=1, rise=1), _tail("full")), "taylor")
# eta+ beyond float64 while the first drops are not
@example(_one_row(0, 0, _tail("periodic", period=1, rise=1),
                  _tail("geometric", slopes=["0", str(10**400)], ratio=2, base_len=100)), "taylor")
# a block tail whose third piece starts at 10**20 + 2 with a small offset, on either side
@example(_one_row(0, 0, _tail("periodic", period=1, rise=0), _BIG_START), "taylor")
@example(_one_row(0, 0, _BIG_START, _tail("periodic", period=1, rise=1)), "gamma3")
def test_spec_documents_exit_0_2_or_3(doc, region):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        for argv in COMMANDS + [MEMBER + ["--set", region]]:
            argv = [str(Path(tmp) / "out") if arg == "OUT" else arg for arg in argv]
            n = 2 if argv[0] == "oracle" else 1
            code, err = _run([*argv[:n], str(path), *argv[n:]])
            assert code in (0, 2, 3), (argv, err)
            assert "Traceback" not in err
            assert (code == 0) == (err == ""), (argv, err)


def test_unreadable_json_exits_2(tmp_path):
    """Integers longer than the interpreter converts, nesting deeper than it
    parses, and bytes that are not UTF-8 are spec errors too."""
    cases = {
        "long_int": '{"window": {"j_lo": 0, "values": [' + "1" * 5000 + "]}}",
        "deep": "[" * 100_000,
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert _run(["validate", str(path)])[0] == 2, name
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"x": "\xe9"}')
    assert _run(["validate", str(path)])[0] == 2


# Flag values: magnitudes and tolerances out of range, NaN and inf, text that
# is no number, and probe sizes from tiny to over each size budget.
_REALS = ["0", "-0", "0.5", "1", "-0.5", "1.5", "nan", "inf", "-inf", "1e-300",
          "5e-324", "1e308", "x", "", "0.3,0.4", "nan,0", "0,inf", "1,1", "0.5,", ","]
_magnitudes = st.sampled_from(_REALS) | st.floats(-2, 2).map(repr)
_tolerances = st.sampled_from(["0", "-1", "-0", "nan", "inf", "-inf", "1e-12", "5e-324",
                               "1e308", "x"]) | st.floats(-1, 1).map(repr)
_sizes = (st.lists(st.integers(-4, 40) | st.sampled_from([256, 1024, 4096]), max_size=4)
          .map(lambda xs: ",".join(map(str, xs)))
          | st.sampled_from(["4,abc", ",", "16,", "1e3,2000", " 8, 16", "16,16", "0x10,32",
                           f"16,{10**12}"]))
# A j_scan past 256 is drawn only beyond the budget, where the scan is refused.
_j_scans = st.integers(-3, 256) | st.sampled_from([WINDOW_START_BUDGET, 10**9, 10**18, 2**70])
_terms = st.integers(-2, 9) | st.integers(8, 2048) | st.sampled_from([2**16, 10**12])
_windows = st.integers(-8, 5) | st.integers(4, 48) | st.just(10**7)
_SPECS = sorted(path.name for path in SPEC_DIR.glob("*.json"))


@st.composite
def _flag_argvs(draw):
    command = draw(st.sampled_from(["member", "fringe", "gamma2", "t3"]))
    spec = str(SPEC_DIR / draw(st.sampled_from(_SPECS)))
    flags = [f"--mu={draw(_magnitudes)}", f"--lambda={draw(_magnitudes)}"]
    if command in ("member", "gamma2"):  # the two that read a tolerance
        flags.append(f"--tol={draw(_tolerances)}")
    if command == "member":
        set_name = draw(st.sampled_from(["taylor", "gamma2", "gamma3"]))
        return ["member", spec, *flags, f"--set={set_name}"]
    extra = {
        "fringe": lambda: [f"--sizes={draw(_sizes)}", f"--j-scan={draw(_j_scans)}"],
        "gamma2": lambda: [f"--terms={draw(_terms)}"],
        "t3": lambda: [f"--window={draw(_windows)}"],
    }[command]()
    return ["oracle", command, spec, *flags, *extra]


def _oracle(command: str, spec: str, *flags: str) -> list[str]:
    return ["oracle", command, str(SPEC_DIR / f"{spec}.json"), *flags]


@given(_flag_argvs())
@settings(max_examples=40, deadline=None)
# |lambda|**2 underflows to 0.0 in the predicted upward root
@example(_oracle("gamma2", "geometric_blocks_01", "--mu=0.5", "--lambda=1e-300", "--terms=64"))
@example(_oracle("fringe", "half_lines_1_2", "--mu=0.5", "--lambda=nan", "--j-scan=1000000000"))
@example(_oracle("t3", "wold_mixed_pair", "--mu=inf", "--lambda=0.5", "--window=3"))
def test_cli_flags_exit_0_2_or_3(argv):
    code, err = _run(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == ""), (argv, err)

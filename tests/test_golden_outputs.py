"""Every CLI output for every shipped spec, pinned by digest.

Each case runs ``cli.main`` in process on one spec in ``specs/`` and hashes
its exit code, stdout, stderr and the file it writes, if any, into one sha256
digest; ``golden_outputs.json`` holds the expected digests.  A refactor must
leave every digest as it is.  Regenerate the file only for an intended change
of output, and record why in the change log:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from stairspec.cli import main

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_outputs.json"
SPECS = sorted(path.stem for path in SPEC_DIR.glob("*.json"))
SETS = ("taylor", "gamma2", "gamma3")

# Arguments after the subcommand's spec argument; "OUT" is the file written.
COMMANDS = {
    "validate": (["validate"], []),
    "params": (["params"], []),
    "report": (["report"], ["--mc-samples", "20000"]),
    "report_200000": (["report"], ["--mc-samples", "200000"]),
    "fringe": (["fringe"], ["--mu", "0.5"]),
    "oracle_gamma2": (["oracle", "gamma2"], ["--mu", "0.5", "--lambda", "0.6", "--terms", "256"]),
    "oracle_fringe": (["oracle", "fringe"], ["--mu", "0.5", "--lambda", "0.7", "--sizes", "16,64"]),
    **{f"oracle_t3_{n}": (["oracle", "t3"], ["--mu", "0.5", "--lambda", "0.6", "--window", str(n)])
       for n in (40, 64)},
    "sample": (["sample"], ["--resolution", "21", "--out", "OUT"]),
    "sample_257": (["sample"], ["--resolution", "257", "--out", "OUT"]),
    **{f"member_{s}": (["member"], ["--mu", "0.4", "--lambda", "0.5", "--set", s]) for s in SETS},
    **{f"raster_{s}": (["raster"], ["--width", "32", "--height", "32", "--out", "OUT", "--set", s])
       for s in SETS},
}
CASES = [f"{name} {command}" for name in SPECS for command in COMMANDS]


def digest(case: str, out_dir: Path) -> str:
    name, command = case.split()
    head, tail = COMMANDS[command]
    out_path = out_dir / f"{name}.{command}.out"
    argv = [*head, str(SPEC_DIR / f"{name}.json"),
            *(str(out_path) if a == "OUT" else a for a in tail)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue()):
        h.update(part.encode())
        h.update(b"\0")
    if out_path.exists():
        h.update(out_path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_is_unchanged(case, golden, tmp_path):
    assert digest(case, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {case: digest(case, Path(tmp)) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}", file=sys.stderr)

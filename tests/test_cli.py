import csv
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stairspec
from stairspec.cli import COLOR_BOUNDARY, COLOR_IN, COLOR_OUT, _build_parser, main
from stairspec.diagram import profile_from_json, validate
from stairspec.extnum import Membership, RegimeError, SpecError
from stairspec.params import compute_params
from stairspec.regions import gamma2_region, gamma3_region, taylor_region

from conftest import SPEC_DIR, TRANSLATIONS
from membership_reference import region_member as reference_member

ALL_SPECS = sorted(path.stem for path in SPEC_DIR.glob("*.json"))


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def spec(name: str) -> str:
    return str(SPEC_DIR / f"{name}.json")


class TestValidate:
    def test_ok(self, capsys):
        code, out = run(capsys, "validate", spec("half_lines_1_2"))
        assert code == 0
        doc = json.loads(out)
        assert doc["structure"]["is_simple"] is False
        assert doc["structure"]["defect_class"] == "difference_of_projections"

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"window": {"j_lo": 0, "values": [0, 5]}, '
                       '"minus_tail": {"kind": "empty"}, '
                       '"plus_tail": {"kind": "full"}}')
        assert main(["validate", str(bad)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["validate", "/nonexistent/x.json"]) == 2


class TestParams:
    def test_geometric_blocks(self, capsys):
        code, out = run(capsys, "params", spec("geometric_blocks_01"))
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "delta_minus": "0/1",
            "delta_plus": "1/1",
            "eta_minus": "2/3",
            "eta_plus": "1/1",
            "rho_minus": "1/1",
            "rho_plus": "1/1",
        }

    def test_simple_diagram_exits_3(self, capsys, tmp_path):
        doc = {
            "window": {"j_lo": 0, "values": [0]},
            "minus_tail": {"kind": "empty"},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 0},
        }
        path = tmp_path / "simple.json"
        path.write_text(json.dumps(doc))
        assert main(["params", str(path)]) == 3


class TestReport:
    def test_half_lines_area(self, capsys):
        code, out = run(
            capsys, "report", spec("half_lines_1_2"), "--mc-samples", "20000"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["taylor_band"] == {"p": "1/2", "q": "1/1"}
        assert abs(doc["area_fraction"]["estimate"] - 1 / 6) < 0.02
        assert doc["gamma3"]["case"] == "shift_shift"

    def test_line_area_is_zero(self, capsys):
        code, out = run(capsys, "report", spec("line_slope1"), "--mc-samples", "5000")
        assert code == 0
        assert json.loads(out)["area_fraction"]["estimate"] == 0.0

    def test_simple_diagram_reports_note(self, capsys, tmp_path):
        doc = {
            "window": {"j_lo": 0, "values": [0]},
            "minus_tail": {"kind": "empty"},
            "plus_tail": {"kind": "periodic", "period": 1, "rise": 0},
        }
        path = tmp_path / "simple.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "report", str(path))
        assert code == 0
        parsed = json.loads(out)
        assert "doubly commuting" in parsed["note"]
        assert "taylor_band" not in parsed

    def test_translation_invariant_output(self, capsys, tmp_path):
        base = json.loads((SPEC_DIR / "half_lines_1_2.json").read_text())
        translated = {
            "window": {"j_lo": 3, "values": [v + 2 for v in base["window"]["values"]]},
            "minus_tail": base["minus_tail"],
            "plus_tail": base["plus_tail"],
        }
        path = tmp_path / "translated.json"
        path.write_text(json.dumps(translated))
        _, out_a = run(capsys, "report", spec("half_lines_1_2"), "--mc-samples", "5000")
        _, out_b = run(capsys, "report", str(path), "--mc-samples", "5000")
        doc_a, doc_b = json.loads(out_a), json.loads(out_b)
        del doc_a["input"], doc_b["input"]
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_mc_samples_below_one_exits_2(self, capsys, samples):
        code = main(["report", spec("half_lines_1_2"), "--mc-samples", samples])
        assert code == 2
        assert "--mc-samples must be >= 1" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        """np.random.default_rng refused the seed with a traceback (exit 1)."""
        code = main(["report", spec("half_lines_1_2"), "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "spec error: --seed must be >= 0, got -1\n"


class TestMember:
    def test_inside(self, capsys):
        code, out = run(
            capsys, "member", spec("half_lines_1_2"), "--mu", "0.4", "--lambda", "0.5"
        )
        assert code == 0
        assert json.loads(out)["membership"] == "in"

    def test_complex_input_reduces_to_modulus(self, capsys):
        code, out = run(
            capsys,
            "member", spec("half_lines_1_2"),
            "--mu", "0.0,0.4", "--lambda=-0.5,0.0",
        )
        assert code == 0
        assert json.loads(out)["membership"] == "in"

    def test_gamma_sets(self, capsys):
        for which, expected in [("gamma2", "in"), ("gamma3", "out")]:
            code, out = run(
                capsys,
                "member", spec("wold_mixed_pair"),
                "--mu", "0.5", "--lambda", "0.5", "--set", which,
            )
            assert code == 0
            assert json.loads(out)["membership"] == expected

    def test_out_of_disc_exits_3(self, capsys):
        code = main(
            ["member", spec("half_lines_1_2"), "--mu", "1.5", "--lambda", "0.5"]
        )
        assert code == 3

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    @pytest.mark.parametrize("which", ["taylor", "gamma2", "gamma3"])
    def test_bad_tolerance_exits_3(self, capsys, which, tol):
        code = main(
            ["member", spec("half_lines_1_2"), "--mu", "0.5", "--lambda", "0.6",
             "--set", which, f"--tol={tol}"]
        )
        assert code == 3
        assert "tolerance must be positive and finite" in capsys.readouterr().err


class TestSample:
    def test_header_and_shape(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code = main(
            ["sample", spec("line_slope1"), "--resolution", "3", "--out", str(out_path)]
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["mu_abs", "lambda_abs", "taylor", "gamma2", "gamma3"]
        assert len(rows) == 1 + 9
        lookup = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert lookup[("0.5", "0.5")] == "boundary"

    def test_corner_conventions_on_half_lines(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code = main(
            ["sample", spec("half_lines_1_2"), "--resolution", "2", "--out", str(out_path)]
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = {(r[0], r[1]): r[2] for r in list(csv.reader(handle))[1:]}
        assert rows[("0", "0")] == "in"
        assert rows[("1", "1")] == "boundary"
        assert rows[("0", "1")] == "out"
        assert rows[("1", "0")] == "out"

    def test_round_trip_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(
                ["sample", spec("geometric_blocks_01"), "--resolution", "21",
                 "--out", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_tolerance_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        assert main(
            ["sample", spec("half_lines_1_2"), "--resolution", "5", "--tol=-1",
             "--out", str(out_path)]
        ) == 3
        assert not out_path.exists()

    def test_threads_match_serial(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", spec("half_lines_1_2"), "--resolution", "17",
                     "--out", str(a)]) == 0
        assert main(["sample", spec("half_lines_1_2"), "--resolution", "17",
                     "--out", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRaster:
    def test_header_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "img.ppm"
        code = main(
            ["raster", spec("line_slope1"), "--width", "256", "--height", "256",
             "--out", str(out_path)]
        )
        assert code == 0
        blob = out_path.read_bytes()
        assert blob.startswith(b"P6\n256 256\n255\n")
        assert len(blob) == len(b"P6\n256 256\n255\n") + 256 * 256 * 3

    def test_line_antidiagonal(self, capsys, tmp_path):
        out_path = tmp_path / "img.ppm"
        assert main(
            ["raster", spec("line_slope1"), "--width", "16", "--height", "16",
             "--out", str(out_path)]
        ) == 0
        blob = out_path.read_bytes()
        header = b"P6\n16 16\n255\n"
        pixels = blob[len(header):]
        boundary = (240, 200, 40)
        for py in range(16):
            for px in range(16):
                rgb = tuple(pixels[3 * (py * 16 + px): 3 * (py * 16 + px) + 3])
                lam = (15 - py) / 15
                mu = px / 15
                if abs(lam - mu) < 1e-12:
                    assert rgb == boundary, (px, py)
                else:
                    assert rgb != boundary, (px, py)

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_bad_tolerance_writes_nothing(self, capsys, tmp_path, tol):
        out_path = tmp_path / "img.ppm"
        assert main(
            ["raster", spec("half_lines_1_2"), "--width", "16", "--height", "16",
             "--set", "gamma2", f"--tol={tol}", "--out", str(out_path)]
        ) == 3
        assert not out_path.exists()

    def test_too_small_rejected(self):
        assert main(
            ["raster", spec("line_slope1"), "--width", "8", "--height", "16",
             "--out", "/tmp/x.ppm"]
        ) == 2


def _periodic_minus_spec(tmp_path, rise: int) -> str:
    path = tmp_path / "periodic_minus.json"
    path.write_text(json.dumps({
        "window": {"j_lo": 0, "values": [0]},
        "minus_tail": {"kind": "periodic", "period": 1, "rise": rise},
        "plus_tail": {"kind": "periodic", "period": 1, "rise": 1},
    }))
    return str(path)


class TestFringeAndOracle:
    def test_fringe_json(self, capsys):
        code, out = run(capsys, "fringe", spec("half_lines_1_2"), "--mu", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "bilateral"
        assert len(doc["weights_first_32"]) == 32
        assert doc["ridge_bounds"]["i_minus"]["value"] == 0.5

    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_fringe_makes_no_scalar_calls(self, capsys, monkeypatch, name):
        """The printed weights come from one exact border evaluation."""
        from stairspec import diagram, shifts

        calls = []

        def counted(*args):
            calls.append(args)
            return eval_M(*args)

        eval_M = diagram.eval_M
        for module in (diagram, shifts):
            monkeypatch.setattr(module, "eval_M", counted, raising=False)
        code, out = run(capsys, "fringe", spec(name), "--mu", "0.5")
        assert code == 0 and len(json.loads(out)["weights_first_32"]) == 32
        assert calls == []

    def test_oracle_fringe(self, capsys):
        code, out = run(
            capsys,
            "oracle", "fringe", spec("line_slope1"),
            "--mu", "0.5", "--lambda", "0.5",
            "--sizes", "256,1024,4096", "--j-scan", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "inside_ap_spectrum"
        assert doc["smin_by_size"][-1] < doc["smin_by_size"][0]

    def test_oracle_fringe_bad_sizes_exits_2(self, capsys):
        code = main(
            ["oracle", "fringe", spec("half_lines_1_2"), "--mu", "0.5",
             "--lambda", "0.5", "--sizes", "4,abc"]
        )
        assert code == 2
        assert "--sizes" in capsys.readouterr().err

    def test_oracle_gamma2(self, capsys):
        code, out = run(
            capsys,
            "oracle", "gamma2", spec("geometric_blocks_01"),
            "--mu", "0.5", "--lambda", "0.574", "--terms", "1024",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "converges"

    @pytest.mark.parametrize("name", ["half_lines_1_2", "wold_mixed_pair"])
    def test_oracle_gamma2_is_translation_invariant(self, capsys, tmp_path, name):
        """Absolute float64 borders made half-lines + 10**17 answer "diverges"
        with both roots inf; the series reads exact drops only."""
        doc = json.loads((SPEC_DIR / f"{name}.json").read_text())
        doc["window"]["values"] = [v + 10**17 for v in doc["window"]["values"]]
        path = tmp_path / "translated.json"
        path.write_text(json.dumps(doc))
        argv = ["--mu", "0.5", "--lambda", "0.6", "--terms", "256"]
        answers = [run(capsys, "oracle", "gamma2", where, *argv)
                   for where in (spec(name), str(path))]
        assert answers[0][0] == 0
        assert answers[1] == answers[0]
        assert json.loads(answers[0][1])["classification"] == "converges"

    def test_oracle_gamma2_sums_from_the_last_finite_row(self, capsys, tmp_path):
        """Full rows from j_lo + 1 on put r = j1 = j_lo: the downward series
        starts there, so j_lo = -10**20 answers as j_lo = -5 does."""
        answers = []
        for name, j_lo in (("near", -5), ("far", -(10**20))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "window": {"j_lo": j_lo, "values": [0]},
                "minus_tail": {"kind": "periodic", "period": 1, "rise": 1},
                "plus_tail": {"kind": "full"},
            }))
            answers.append(run(capsys, "oracle", "gamma2", str(path),
                               "--mu", "0.5", "--lambda", "0.9", "--terms", "64"))
        assert answers[0][0] == 0
        assert answers[1] == answers[0]
        doc = json.loads(answers[0][1])
        assert doc["classification"] == "diverges"
        assert math.isclose(doc["root_minus"], doc["predicted_root_minus"], rel_tol=1e-12)

    @pytest.mark.parametrize("name", ["half_lines_1_2", "wold_mixed_pair"])
    @pytest.mark.parametrize(
        "di,dj", [(di, 0) for di in TRANSLATIONS] + [(0, 7), (0, -7), (-(10**30), 7)], ids=str
    )
    def test_oracle_t3_is_translation_invariant(self, capsys, tmp_path, name, di, dj):
        doc = json.loads((SPEC_DIR / f"{name}.json").read_text())
        doc["window"]["j_lo"] += dj
        doc["window"]["values"] = [v + di for v in doc["window"]["values"]]
        path = tmp_path / "translated.json"
        path.write_text(json.dumps(doc))
        argv = ["--mu", "0.5", "--lambda", "0.5", "--window", "12"]
        answers = [run(capsys, "oracle", "t3", where, *argv) for where in (spec(name), str(path))]
        assert answers[0][0] == 0
        assert answers[1] == answers[0]

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_oracle_gamma2_bad_tolerance_exits_3(self, capsys, tol):
        code = main(
            ["oracle", "gamma2", spec("geometric_blocks_01"), "--mu", "0.5",
             "--lambda", "0.574", "--terms", "256", f"--tol={tol}"]
        )
        assert code == 3
        assert "tolerance must be positive and finite" in capsys.readouterr().err

    def test_oracle_gamma2_huge_eta_never_exits_1(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "oracle", "gamma2", _periodic_minus_spec(tmp_path, 5000),
            "--mu", "0.5", "--lambda", "0.5",
        )
        assert code in (0, 3)
        if code == 0:
            doc = json.loads(out)
            assert doc["classification"] == "diverges"
            assert doc["predicted_root_minus"] == "inf"

    @pytest.mark.parametrize("rise", [10**20, 10**400], ids=["1e20", "1e400"])
    def test_oracle_fringe_huge_rise_never_exits_1(self, capsys, tmp_path, rise):
        code = main(
            ["oracle", "fringe", _periodic_minus_spec(tmp_path, rise),
             "--mu", "0.5", "--lambda", "0.5"]
        )
        assert code in (0, 3)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["fringe", "--mu", "0.5", "--lambda", "0.5", "--sizes", "64,16"], 2),
            (["fringe", "--mu", "0.5", "--lambda", "0.5", "--sizes", "1,4"], 2),
            (["fringe", "--mu", "0.5", "--lambda", "nan"], 3),
            (["gamma2", "--mu", "0.5", "--lambda", "1.5"], 3),
            (["gamma2", "--mu", "0.5", "--lambda", "0.5", "--terms", "4"], 2),
            (["t3", "--mu", "0.5", "--lambda", "1.5"], 3),
            (["t3", "--mu", "0.5", "--lambda", "nan"], 3),
        ],
        ids=["fringe-sizes-decreasing", "fringe-size-1", "fringe-lambda-nan",
             "gamma2-lambda-1.5", "gamma2-terms-4", "t3-lambda-1.5", "t3-lambda-nan"],
    )
    def test_oracle_argument_errors_exit_with_message(self, capsys, argv, code):
        command, *options = argv
        assert main(["oracle", command, spec("half_lines_1_2"), *options]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "spec error: " if code == 2 else "numeric-regime error: "
        assert captured.err.startswith(prefix)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("window", ["-8", "0", "3"])
    def test_oracle_t3_window_below_4_exits_2(self, capsys, window):
        argv = ["oracle", "t3", spec("wold_mixed_pair"), "--mu", "0.5", "--lambda", "0.5"]
        assert main([*argv, f"--window={window}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spec error: --window must be >= 4")

    def test_oracle_t3_window_4_is_the_smallest(self, capsys):
        code, out = run(
            capsys,
            "oracle", "t3", spec("wold_mixed_pair"),
            "--mu", "0.5", "--lambda", "0.5", "--window", "4",
        )
        assert code == 0
        assert [entry["window"] for entry in json.loads(out)["smin_ladder"]] == [1, 2, 4]

    def test_oracle_fringe_negative_j_scan_exits_2(self, capsys):
        code = main(
            ["oracle", "fringe", spec("half_lines_1_2"), "--mu", "0.5",
             "--lambda", "0.5", "--j-scan=-5"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("spec error: j_scan must be >= 0")

    @pytest.mark.parametrize("name", ["half_lines_1_2", "quarter_plane_steps"])
    def test_oracle_fringe_over_budget_exits_3_before_any_window(
        self, capsys, monkeypatch, name
    ):
        from stairspec import oracle

        def solved(*args):
            raise AssertionError("a window was solved")

        monkeypatch.setattr(oracle, "_window_gram", solved)
        code = main(
            ["oracle", "fringe", spec(name), "--mu", "0.5", "--lambda", "0.5",
             "--sizes", "16,64", "--j-scan", "1000000000"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric-regime error: j_scan = 1000000000 gives")
        assert "budget of 65536" in err

    @pytest.mark.parametrize("lam", ["0.5", "0.9"])
    def test_oracle_fringe_weighs_drops_beyond_float64_as_zero(self, capsys, tmp_path, lam):
        """|mu| to a drop of 10**400 is 0.0, as it already is for a drop of 2000."""
        answers = [
            run(capsys, "oracle", "fringe", _periodic_minus_spec(tmp_path, rise),
                "--mu", "0.5", "--lambda", lam)
            for rise in (2000, 10**400)
        ]
        assert answers[0][0] == 0
        assert answers[1] == answers[0]

    def test_oracle_gamma2_regime_error(self, capsys):
        assert main(
            ["oracle", "gamma2", spec("quarter_plane_steps"),
             "--mu", "0.5", "--lambda", "0.5"]
        ) == 3

    def test_oracle_t3(self, capsys):
        code, out = run(
            capsys,
            "oracle", "t3", spec("wold_mixed_pair"),
            "--mu", "0.5", "--lambda", "0.5", "--window", "24",
        )
        assert code == 0
        doc = json.loads(out)
        assert [entry["window"] for entry in doc["smin_ladder"]] == [6, 12, 24]
        assert all(entry["smin"] >= 0.1 for entry in doc["smin_ladder"])

    def test_oracle_t3_solver_failure_exits_3(self, capsys, monkeypatch):
        """A sparse solve that does not converge is refused with a message."""
        import scipy.sparse.linalg

        def diverged(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0))
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", diverged)
        code = main(
            ["oracle", "t3", spec("wold_mixed_pair"), "--mu", "0.5", "--lambda", "0.5",
             "--window", "40"]  # the 40 rung has 1681 columns: the sparse path
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric-regime error: the sparse eigensolver did not")
        assert "Traceback" not in captured.err


def _write_spec(tmp_path, name: str, j_lo: int, value: int, minus: dict, plus: dict) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "window": {"j_lo": j_lo, "values": [value]}, "minus_tail": minus, "plus_tail": plus,
    }))
    return str(path)


EMPTY, FULL = {"kind": "empty"}, {"kind": "full"}
PERIODIC_0, PERIODIC_1 = ({"kind": "periodic", "period": 1, "rise": r} for r in (0, 1))


class TestExitCodeIsTheBaseClass:
    """Each refusal exits by its base class: SpecError 2, RegimeError 3."""

    def test_every_error_has_one_exit_base(self):
        errors = []
        for info in pkgutil.iter_modules(stairspec.__path__, "stairspec."):
            module = importlib.import_module(info.name)
            errors += [
                cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if issubclass(cls, Exception) and cls.__module__ == info.name
                and cls not in (SpecError, RegimeError)
            ]
        assert len(errors) >= 17  # DiagramError and its five, ProbeSizeError, the ten of exit 3
        for cls in errors:
            assert issubclass(cls, SpecError) != issubclass(cls, RegimeError), cls

    @pytest.mark.parametrize(
        "command,extra", [(["fringe"], []), (["oracle", "fringe"], ["--lambda", "0.5"])],
        ids=["fringe", "oracle-fringe"],
    )
    def test_simple_diagram_fringe_exits_3(self, capsys, tmp_path, command, extra):
        path = _write_spec(tmp_path, "simple", 0, 0, EMPTY, PERIODIC_0)
        assert main([*command, path, "--mu", "0.5", *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric-regime error: simple diagram")

    def test_empty_row_beside_a_huge_window_value(self, capsys, tmp_path):
        """Weights read drops only: window value 10**400 answers as 0 does."""
        answers = [
            run(capsys, "oracle", "fringe", _write_spec(tmp_path, f"v{k}", 0, value, EMPTY, PERIODIC_1),
                "--mu", "0.5", "--lambda", "0.5", "--sizes", "16,64", "--j-scan", "32")
            for k, value in enumerate((0, 10**400))
        ]
        assert answers[0][0] == 0
        assert answers[1] == answers[0]

    def test_gamma2_last_finite_row_far_below(self, capsys, tmp_path):
        """j1 < 1 leaves the upward series empty, however far below 1 it lies."""
        for j_lo in (-5, -(10**20)):
            code, out = run(
                capsys, "oracle", "gamma2", _write_spec(tmp_path, "j1", j_lo, 0, PERIODIC_1, FULL),
                "--mu", "0.5", "--lambda", "0.5", "--terms", "64",
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["root_plus"] == 0.0
            assert {row["up_series"] for row in doc["log10_partial_sums"]} == {"-inf"}

    def test_gamma2_eta_plus_beyond_float64(self, capsys, tmp_path):
        """An exponent beyond float64 has the limit of an infinite one."""
        plus = {"kind": "geometric", "slopes": ["0", str(10**400)], "ratio": 2, "base_len": 100}
        code, out = run(
            capsys, "oracle", "gamma2", _write_spec(tmp_path, "eta", 0, 0, PERIODIC_1, plus),
            "--mu", "0.5", "--lambda", "0.5", "--terms", "64",
        )
        assert code == 0
        assert json.loads(out)["predicted_root_plus"] == 0.0


class TestSlopeBeyondFloat64:
    """A slope beyond float64 answers as a float-finite one does: every power
    |mu|**e of a float |mu| < 1 underflows for both rises, and the float view
    of 10**400 saturates at DBL_MAX, which keeps every slack's sign."""

    POINTS = [
        (0, 0), (0, 1), (1, 0), (1, 1),  # corners
        (0, 0.5), (0.5, 0), (0, 1e-300), (1e-300, 0),  # axes
        (1, 0.5), (0.5, 1), (1, 1e-300), (1e-300, 1),  # torus edges
        (0.5, 0.5), (0.3, 0.9), (0.9, 1e-300), (1 - 2**-53, 0.5),  # interior
    ]

    def _answers(self, capsys, tmp_path, rise, argv):
        folder = tmp_path / f"rise_{len(str(rise))}_digits"
        folder.mkdir(exist_ok=True)
        path = _periodic_minus_spec(folder, rise)
        out_path = folder / "out"
        command, *options = argv
        extra = ["--out", str(out_path)] if command in ("sample", "raster") else []
        if command == "member":
            calls = [[*options, "--mu", repr(a), "--lambda", repr(b)] for a, b in self.POINTS]
        else:
            calls = [options]
        answers = []
        for call in calls:
            assert main([command, path, *call, *extra]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            answers.append(out_path.read_bytes() if extra else json.loads(captured.out))
        return answers

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--mc-samples", "2000"],
            ["member", "--set", "taylor"],
            ["member", "--set", "gamma2"],
            ["member", "--set", "gamma3"],
            ["fringe", "--mu", "0.5"],
            ["sample", "--resolution", "21"],
            ["raster", "--set", "taylor", "--width", "16", "--height", "16"],
            ["raster", "--set", "gamma2", "--width", "16", "--height", "16"],
            ["raster", "--set", "gamma3", "--width", "16", "--height", "16"],
        ],
        ids=["report", "member-taylor", "member-gamma2", "member-gamma3", "fringe", "sample",
             "raster-taylor", "raster-gamma2", "raster-gamma3"],
    )
    def test_answers_as_rise_1e300(self, capsys, tmp_path, argv):
        huge, big = (self._answers(capsys, tmp_path, rise, argv) for rise in (10**400, 10**300))
        if argv[0] == "report":
            (huge,), (big,) = huge, big
            assert huge["area_fraction"] == big["area_fraction"]
        elif argv[0] == "member":
            assert [doc["membership"] for doc in huge] == [doc["membership"] for doc in big]
            assert huge[0]["membership"] == "in"  # the origin
        elif argv[0] == "fringe":
            (huge,), (big,) = huge, big
            assert huge["weights_first_32"] == big["weights_first_32"]
            values = [{k: v["value"] for k, v in doc["ridge_bounds"].items() if k != "mu_abs"}
                      for doc in (huge, big)]
            assert values[0] == values[1]
        else:
            assert huge == big


class TestParserReuse:
    """main reuses one parser; each call must answer as a fresh process would."""

    CALLS = [
        ["validate", spec("half_lines_1_2")],
        ["member", spec("half_lines_1_2"), "--mu", "0.5", "--lambda", "0.6", "--set", "gamma2"],
        ["oracle", "fringe", spec("line_slope1"), "--mu", "0.5", "--lambda", "0.5",
         "--sizes", "8,16", "--j-scan", "4"],
        ["member", spec("half_lines_1_2"), "--mu", "0.5"],  # argparse exits 2
        ["params", spec("geometric_blocks_01")],
        ["report", spec("line_slope2"), "--mc-samples", "50", "--seed", "4"],
        ["member", spec("half_lines_1_2"), "--mu", "0.5", "--lambda", "0.6"],
        ["oracle", "fringe", spec("line_slope1"), "--mu", "0.5", "--lambda", "0.5",
         "--sizes", "8,16"],
    ]

    @staticmethod
    def _answer(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_consecutive_calls_match_fresh_calls(self, capsys):
        fresh = []
        for argv in self.CALLS:
            _build_parser.cache_clear()
            fresh.append(self._answer(capsys, argv))
        _build_parser.cache_clear()
        reused = [self._answer(capsys, argv) for argv in self.CALLS]
        assert _build_parser.cache_info().misses == 1
        assert reused == fresh
        assert fresh[3][0] == ("exit", 2)
        assert [code for code, _, _ in fresh if code != ("exit", 2)] == [0] * 7


def test_import_leaves_scipy_unloaded():
    import stairspec

    env = {**os.environ, "PYTHONPATH": str(Path(stairspec.__file__).resolve().parents[1])}
    code = "import sys, stairspec; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"


class TestArrayOutputsMatchScalar:
    """sample, raster and report equal a loop over the scalar reference, byte for byte."""

    @staticmethod
    def _regions(name: str) -> dict:
        profile = profile_from_json(json.loads((SPEC_DIR / f"{name}.json").read_text()))
        structure, params = validate(profile), compute_params(profile)
        return {
            "taylor": taylor_region(params),
            "gamma2": gamma2_region(params, structure),
            "gamma3": gamma3_region(params, structure),
        }

    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_sample(self, capsys, tmp_path, name):
        n = 13
        out_path = tmp_path / "grid.csv"
        assert main(["sample", spec(name), "--resolution", str(n), "--out", str(out_path)]) == 0
        regions = self._regions(name)
        ticks = [k / (n - 1) for k in range(n)]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["mu_abs", "lambda_abs", "taylor", "gamma2", "gamma3"])
        for a in ticks:
            for b in ticks:
                states = [reference_member(regions[s], a, b).state.value
                          for s in ("taylor", "gamma2", "gamma3")]
                writer.writerow([f"{a:.12g}", f"{b:.12g}", *states])
        assert out_path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("which", ["taylor", "gamma2", "gamma3"])
    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_raster(self, capsys, tmp_path, name, which):
        width, height = 23, 17
        out_path = tmp_path / "img.ppm"
        assert main(
            ["raster", spec(name), "--width", str(width), "--height", str(height),
             "--set", which, "--out", str(out_path)]
        ) == 0
        region = self._regions(name)[which]
        colors = {
            Membership.INSIDE: COLOR_IN,
            Membership.BOUNDARY: COLOR_BOUNDARY,
            Membership.OUTSIDE: COLOR_OUT,
        }
        expected = bytearray(f"P6\n{width} {height}\n255\n".encode("ascii"))
        for py in range(height):
            for px in range(width):
                state = reference_member(
                    region, px / (width - 1), (height - 1 - py) / (height - 1)
                ).state
                expected += bytes(colors[state])
        assert out_path.read_bytes() == bytes(expected)

    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_report(self, capsys, name):
        samples, seed = 500, 3
        code, out = run(capsys, "report", spec(name), "--mc-samples", str(samples),
                        "--seed", str(seed))
        assert code == 0
        region = self._regions(name)["taylor"]
        points = np.random.default_rng(seed).random((samples, 2))
        inside = sum(
            reference_member(region, float(a), float(b)).state is Membership.INSIDE
            for a, b in points
        )
        fraction = inside / samples
        doc = json.loads(out)
        doc["area_fraction"] = {
            "estimate": fraction,
            "std_error": math.sqrt(max(fraction * (1.0 - fraction), 0.0) / samples),
            "samples": samples,
            "seed": seed,
        }
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

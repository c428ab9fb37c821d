import argparse
import ast
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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stairspec
from stairspec import cli
from stairspec.cli import COLOR_BOUNDARY, COLOR_IN, COLOR_OUT, _build_parser, main
from stairspec.diagram import profile_from_json, validate
from stairspec.extnum import Membership
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

    def test_tail_parameter_refusal_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "window": {"j_lo": 0, "values": [0]},
            "minus_tail": {"kind": "periodic", "period": 0, "rise": 1},
            "plus_tail": {"kind": "full"},
        }))
        assert main(["validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "spec error: minus_tail: periodic tail needs period >= 1, got 0\n"


def _geometric_minus_spec(tmp_path, slope: str) -> str:
    minus = {"kind": "geometric", "slopes": [slope, "1"], "ratio": 2, "base_len": 1}
    return _write_spec(tmp_path, "deep_slope", 0, 0, minus, PERIODIC_1)


@pytest.mark.parametrize("command", ["validate", "report", "params"])
def test_slope_past_the_digit_limit_exits_3(capsys, tmp_path, command):
    """A slope with more denominator digits than the interpreter writes is a
    regime error wherever it is written, never a traceback."""
    assert main([command, _geometric_minus_spec(tmp_path, "1e-5000")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric-regime error: exponent has more decimal digits than the interpreter "
        "writes (1-bit numerator, 16610-bit denominator)\n"
    )


def test_slope_under_the_digit_limit_is_echoed_exactly(capsys, tmp_path):
    """A 4,001-digit denominator, under the limit, reads back as the same Fraction."""
    code, out = run(capsys, "validate", _geometric_minus_spec(tmp_path, "1e-4000"))
    assert code == 0
    slopes = json.loads(out)["input"]["minus_tail"]["slopes"]
    assert [Fraction(s) for s in slopes] == [Fraction(1, 10**4000), 1]


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

    # The shipped specs are all mixed/mixed or shift/shift; these two inline
    # profiles have one isometry of each Wold type, in either order.  Each
    # gives its window values, minus tail, plus tail and (eta_minus, eta_plus).
    ONE_MIXED = {
        "mixed_w_shift_z": ([0], {"kind": "periodic", "period": 1, "rise": 1}, {"kind": "full"},
                            ("1/1", "inf")),
        "shift_w_mixed_z": ([1, 0], {"kind": "periodic", "period": 1, "rise": 0},
                            {"kind": "periodic", "period": 1, "rise": 1}, ("0/1", "1/1")),
    }

    @pytest.mark.parametrize("case", list(ONE_MIXED))
    def test_one_mixed_isometry(self, capsys, tmp_path, case):
        values, minus, plus, (eta_minus, eta_plus) = self.ONE_MIXED[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps({
            "window": {"j_lo": 0, "values": values}, "minus_tail": minus, "plus_tail": plus,
        }))
        code, out = run(capsys, "report", str(path), "--mc-samples", "100")
        assert code == 0
        doc = json.loads(out)
        w_mixed = case == "mixed_w_shift_z"
        assert doc["gamma2"] == {
            "eta_minus": eta_minus,
            "eta_plus": eta_plus,
            "mu_axis_included": w_mixed,
            "lambda_axis_included": not w_mixed,
            "origin_included": True,
        }
        assert doc["gamma3"] == {
            "case": case,
            "bands": [{"upper_exp": "1/1", "lower_exp": "1/1"}],
            "t_cross_disc": w_mixed,
            "disc_cross_t": not w_mixed,
            "origin_included": True,
        }

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

    def test_spec_error_comes_before_flag_errors(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert main(["report", missing, "--mc-samples", "0"]) == 2
        assert capsys.readouterr().err.startswith(f"spec error: {missing}: ")

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

    def test_resolution_below_2_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        assert main(
            ["sample", spec("half_lines_1_2"), "--resolution", "1", "--out", str(out_path)]
        ) == 2
        assert capsys.readouterr().err == "spec error: --resolution must be >= 2\n"
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


@pytest.mark.parametrize(
    "argv",
    [["sample", spec("half_lines_1_2"), "--resolution", "5"],
     ["raster", spec("half_lines_1_2"), "--width", "16", "--height", "16"]],
    ids=["sample", "raster"],
)
def test_output_in_a_missing_directory_exits_2(capsys, tmp_path, argv):
    out_path = str(tmp_path / "missing" / "out")
    assert main([*argv, "--out", out_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"spec error: {out_path}: [Errno 2] No such file or directory: {out_path!r}\n"
    )
    assert not (tmp_path / "missing").exists()


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

    def test_fringe_finite_nilpotent_weights(self, capsys, tmp_path):
        """Every descending edge of a finite block: |mu| to the drops 2 and 1."""
        path = tmp_path / "finite.json"
        path.write_text(json.dumps({
            "window": {"j_lo": 0, "values": [3, 1, 0]},
            "minus_tail": {"kind": "empty"}, "plus_tail": {"kind": "full"},
        }))
        code, out = run(capsys, "fringe", str(path), "--mu", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "finite_nilpotent"
        assert doc["weights_first_32"] == [0.25, 0.5]

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

    @pytest.mark.parametrize("command,domain", [("gamma2", "(0, 1)"), ("t3", "[0, 1]")])
    def test_oracle_magnitude_message_names_its_domain(self, capsys, command, domain):
        argv = ["oracle", command, spec("half_lines_1_2"), "--mu", "1.5", "--lambda", "0.5"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"numeric-regime error: |mu| must lie in {domain}: 1.5\n"

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

        def started(*args):
            raise AssertionError("a window start was made")

        monkeypatch.setattr(oracle, "_window_gram", solved)
        monkeypatch.setattr(oracle, "_window_starts", started)
        code = main(
            ["oracle", "fringe", spec(name), "--mu", "0.5", "--lambda", "0.5",
             "--sizes", "16,64", "--j-scan", "1000000000"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric-regime error: the sweep of candidate window starts "
                              "for j_scan = 1000000000 over sizes 16, 64 is over")
        assert "budget of 65536" in err

    def test_oracle_t3_over_budget_exits_3_before_any_rung(self, capsys, monkeypatch):
        """The 256 ladder's 64 and 128 rungs fit the budget; its top rung of
        66,049 points does not, and is refused before either is solved."""
        from stairspec import oracle

        def solved(*args):
            raise AssertionError("a rung was solved")

        monkeypatch.setattr(oracle, "_lattice_stack", solved)
        monkeypatch.setattr(oracle, "_stacked_smin", solved)
        code = main(
            ["oracle", "t3", spec("wold_mixed_pair"), "--mu", "0.5", "--lambda", "0.5",
             "--window", "256"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "numeric-regime error: a lattice window of 257 x 257 points is over the budget of 65536"
        )

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


# The oracle probes over their size budgets, each refused before it reads
# a single border row.
OVER_BUDGET = {
    "terms": ["gamma2", spec("geometric_blocks_01"), "--lambda", "0.6", "--terms", str(10**12)],
    "window": ["t3", spec("wold_mixed_pair"), "--lambda", "0.5", "--window", str(10**7)],
    "sizes": ["fringe", spec("half_lines_1_2"), "--lambda", "0.6", "--sizes", f"16,{10**12}",
              "--j-scan", "0"],
}


@pytest.mark.parametrize("argv", list(OVER_BUDGET.values()), ids=list(OVER_BUDGET))
def test_oracle_over_a_size_budget_exits_3_before_reading_rows(capsys, monkeypatch, argv):
    from stairspec import oracle, shifts

    def read(*args):
        raise AssertionError("a border row was read")

    for module in (oracle, shifts):
        monkeypatch.setattr(module, "m_exact", read)
    assert main(["oracle", *argv, "--mu", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric-regime error: ")
    assert "budget of" in captured.err and captured.err.count("\n") == 1


# Each grid flag just over the points budget of 2**20, refused before any
# membership is evaluated or any output file is opened.
GRID_OVER_BUDGET = {
    "resolution": ["sample", "--resolution", "1025", "--out", "OUT"],
    "width-height": ["raster", "--width", "1024", "--height", "1025", "--out", "OUT"],
    "mc-samples": ["report", "--mc-samples", str(2**20 + 1)],
}


@pytest.mark.parametrize("argv", list(GRID_OVER_BUDGET.values()), ids=list(GRID_OVER_BUDGET))
def test_grid_over_its_points_budget_exits_3_before_evaluating(
    capsys, monkeypatch, tmp_path, argv
):
    def evaluated(*args):
        raise AssertionError("a grid was evaluated")

    monkeypatch.setattr(cli, "region_states", evaluated)
    command, *options = argv
    out = tmp_path / "out"
    options = [str(out) if option == "OUT" else option for option in options]
    assert main([command, spec("half_lines_1_2"), *options]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric-regime error: a grid of ")
    assert captured.err.endswith("points is over the budget of 1048576\n")
    assert not out.exists()


# Each size flag at 4,300 digits, the longest int a flag takes, with the
# command it belongs to and the options after the spec: the counts derived
# from it are longer than any str() writes, so no refusal may print one.
NINES = "9" * 4300
ORACLE_POINT = ["--mu", "0.5", "--lambda", "0.5"]
FLAGS_AT_4300_DIGITS = {
    "window": (["oracle", "t3"], [*ORACLE_POINT, "--window", NINES]),
    "j-scan": (["oracle", "fringe"], [*ORACLE_POINT, "--sizes", "2,3", "--j-scan", NINES]),
    "sizes": (["oracle", "fringe"], [*ORACLE_POINT, "--sizes", f"2,{NINES}"]),
    "terms": (["oracle", "gamma2"], [*ORACLE_POINT, "--terms", NINES]),
    "resolution": (["sample"], ["--resolution", NINES, "--out"]),
    "width-height": (["raster"], ["--width", NINES, "--height", NINES, "--out"]),
}


@pytest.mark.parametrize("command,options", list(FLAGS_AT_4300_DIGITS.values()),
                         ids=list(FLAGS_AT_4300_DIGITS))
def test_a_flag_of_4300_digits_exits_3(capsys, tmp_path, command, options):
    out = tmp_path / "out"
    if options[-1] == "--out":
        options = [*options, str(out)]
    assert main([*command, spec("wold_mixed_pair"), *options]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric-regime error: ")
    assert "budget of" in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


def test_raster_at_the_points_budget_is_drawn(tmp_path):
    out = tmp_path / "r.ppm"
    argv = ["raster", spec("half_lines_1_2"), "--width", "1024", "--height", "1024"]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.stat().st_size == len(b"P6\n1024 1024\n255\n") + 3 * 2**20


# Each leaf subcommand, a command line it answers with exit 0 ("OUT" is a file
# it writes), and the flags it reads besides --threads, which every one takes.
LEAVES = {
    "validate": (["validate", spec("half_lines_1_2")], ()),
    "report": (["report", spec("half_lines_1_2"), "--mc-samples", "50"], ("--tol", "--seed")),
    "params": (["params", spec("half_lines_1_2")], ()),
    "member": (["member", spec("half_lines_1_2"), "--mu", "0.5", "--lambda", "0.6"], ("--tol",)),
    "sample": (["sample", spec("half_lines_1_2"), "--resolution", "3", "--out", "OUT"],
               ("--tol",)),
    "raster": (["raster", spec("half_lines_1_2"), "--width", "16", "--height", "16",
                "--out", "OUT"], ("--tol",)),
    "fringe": (["fringe", spec("half_lines_1_2"), "--mu", "0.5"], ()),
    "oracle-fringe": (["oracle", "fringe", spec("line_slope1"), "--mu", "0.5", "--lambda", "0.5",
                       "--sizes", "8,16", "--j-scan", "4"], ()),
    "oracle-gamma2": (["oracle", "gamma2", spec("half_lines_1_2"), "--mu", "0.5",
                       "--lambda", "0.6", "--terms", "64"], ("--tol",)),
    "oracle-t3": (["oracle", "t3", spec("wold_mixed_pair"), "--mu", "0.5", "--lambda", "0.5",
                   "--window", "8"], ()),
}
FLAG_VALUES = {"--tol": "1e-9", "--seed": "3"}
UNREAD = [(leaf, flag) for leaf, (_, reads) in LEAVES.items()
          for flag in FLAG_VALUES if flag not in reads]
# Every option each leaf takes besides -h/--help; each leaf's one positional is the spec.
OPTIONS = {
    "validate": {"--threads"},
    "report": {"--threads", "--tol", "--mc-samples", "--seed"},
    "params": {"--threads"},
    "member": {"--threads", "--tol", "--mu", "--lambda", "--set"},
    "sample": {"--threads", "--tol", "--resolution", "--out"},
    "raster": {"--threads", "--tol", "--width", "--height", "--out", "--set"},
    "fringe": {"--threads", "--mu"},
    "oracle-fringe": {"--threads", "--mu", "--lambda", "--sizes", "--j-scan"},
    "oracle-gamma2": {"--threads", "--tol", "--mu", "--lambda", "--terms"},
    "oracle-t3": {"--threads", "--mu", "--lambda", "--window"},
}
MAGNITUDES = [(leaf, flag) for leaf, options in OPTIONS.items()
              for flag in ("--mu", "--lambda") if flag in options]


def _leaf_parsers(parser=None) -> dict:
    """Each leaf subcommand's parser, keyed as LEAVES is."""
    parser = parser or _build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {parser.prog.removeprefix("stairspec ").replace(" ", "-"): parser}
    return {leaf: leaf_parser for action in subs for child in action.choices.values()
            for leaf, leaf_parser in _leaf_parsers(child).items()}


class TestEveryFlagIsRead:
    """A subcommand takes only the flags it reads, and --threads."""

    @staticmethod
    def _argv(leaf, tmp_path):
        return [str(tmp_path / "out") if a == "OUT" else a for a in LEAVES[leaf][0]]

    def test_the_parser_has_sixteen_flag_slots(self):
        """LEAVES names every leaf of the parser and the flags it takes."""
        taken = {leaf: {opt for a in parser._actions for opt in a.option_strings
                        if opt in ("--tol", "--seed", "--threads")}
                 for leaf, parser in _leaf_parsers().items()}
        assert taken == {leaf: {"--threads", *reads} for leaf, (_, reads) in LEAVES.items()}
        assert sum(map(len, taken.values())) == 16

    def test_each_leaf_takes_exactly_its_options(self):
        leaves = _leaf_parsers()
        assert leaves.keys() == OPTIONS.keys() == LEAVES.keys()
        for leaf, parser in leaves.items():
            options = {opt for a in parser._actions for opt in a.option_strings}
            assert options - {"-h", "--help"} == OPTIONS[leaf], leaf
            assert [a.dest for a in parser._actions if not a.option_strings] == ["spec"], leaf

    @pytest.mark.parametrize("leaf,flag", MAGNITUDES,
                             ids=[f"{leaf}{flag}" for leaf, flag in MAGNITUDES])
    def test_malformed_magnitude_is_a_usage_error(self, capsys, tmp_path, leaf, flag):
        with pytest.raises(SystemExit) as exc:
            main([*self._argv(leaf, tmp_path), flag, "x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected a real or 're,im', got 'x'" in captured.err

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_spec_is_loaded_once(self, capsys, monkeypatch, tmp_path, leaf):
        """One load answers the leaf; a missing file is a spec error naming it."""
        loads = []
        load = cli._load_profile

        def counting(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(cli, "_load_profile", counting)
        argv = self._argv(leaf, tmp_path)
        assert main(argv) == 0
        assert len(loads) == 1
        capsys.readouterr()
        missing = str(tmp_path / "missing.json")
        assert main([missing if a == loads[0] else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"spec error: {missing}: ")
        assert loads[1:] == [missing]

    @pytest.mark.parametrize("leaf,flag", UNREAD, ids=[f"{leaf}{flag}" for leaf, flag in UNREAD])
    def test_unread_flag_is_a_usage_error(self, capsys, tmp_path, leaf, flag):
        with pytest.raises(SystemExit) as exc:
            main([*self._argv(leaf, tmp_path), flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_threads_and_read_flags_are_accepted(self, capsys, tmp_path, leaf):
        reads = LEAVES[leaf][1]
        flags = [f"{flag}={FLAG_VALUES[flag]}" for flag in reads]
        assert main([*self._argv(leaf, tmp_path), "--threads", "1", *flags]) == 0


class TestOneDocumentOrOneFile:
    """Each leaf prints its one JSON document on stdout, or writes its one
    file and prints nothing; ``main`` alone writes stdout."""

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_leaf_prints_its_document_or_writes_its_file(self, capsys, tmp_path, leaf):
        argv = TestEveryFlagIsRead._argv(leaf, tmp_path)
        args = _build_parser().parse_args(argv)
        doc = args.func(cli._load_profile(args.spec), args)
        written = tmp_path / "out"
        written.unlink(missing_ok=True)
        assert main(argv) == 0
        printed = capsys.readouterr().out
        if "OUT" in LEAVES[leaf][0]:
            assert doc is None
            assert printed == ""
            assert written.stat().st_size > 0
        else:
            assert printed == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_only_main_writes_stdout(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        main_def = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "main")
        in_main = {id(node) for node in ast.walk(main_def)}
        stdout = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "stdout"
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"]
        assert stdout and all(id(node) in in_main for node in stdout)
        prints = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print"]
        assert all(any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in node.keywords) for node in prints)


class TestExitCodeIsTheBaseClass:
    """Each refusal exits by its type: SpecError 2, RegimeError 3."""

    @staticmethod
    def _raises():
        """(module file, enclosing function, raise statement) for each raise
        in the package."""

        def raises(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from raises(child, child.name)
                    continue
                if isinstance(child, ast.Raise):
                    yield where, child
                yield from raises(child, where)

        for path in sorted(Path(stairspec.__file__).parent.glob("*.py")):
            for where, node in raises(ast.parse(path.read_text(encoding="utf-8")), "<module>"):
                yield path.name, where, node

    def test_every_raise_names_an_exit_base(self):
        """Each ``raise`` in the package names SpecError or RegimeError, but
        for one protocol raise (argparse's usage error, itself an exit 2) and
        two faults that no input can reach; and those two are the package's
        only exception classes."""
        others = set()
        for file, where, node in self._raises():
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(raised) if raised else "a bare re-raise"
            if name not in ("SpecError", "RegimeError"):
                others.add((file, where, name))
        assert others == {
            ("cli.py", "_magnitude", "argparse.ArgumentTypeError"),
            ("diagram.py", "_check_transpose", "AssertionError"),
            ("extnum.py", "__setattr__", "AttributeError"),
        }
        defined = [
            cls for info in pkgutil.iter_modules(stairspec.__path__, "stairspec.")
            for _, cls in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == info.name
        ]
        assert sorted(cls.__name__ for cls in defined) == ["RegimeError", "SpecError"]

    def test_every_size_budget_is_refused_by_check_budget(self):
        """No raise but the one in ``extnum.check_budget`` has a message that
        mentions a budget: every probe, grid and scan refuses through it."""
        refusals = {
            (file, where) for file, where, node in self._raises()
            if any(isinstance(text, ast.Constant) and "budget" in str(text.value)
                   for text in ast.walk(node))
        }
        assert refusals == {("extnum.py", "check_budget")}

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

    def test_gamma2_drop_near_float64_max_is_quiet(self, capsys, tmp_path):
        """A drop of 10**308 makes an infinite term without a numpy warning."""
        path = tmp_path / "drop.json"
        path.write_text(json.dumps({
            "window": {"j_lo": -1, "values": [10**308, 0]},
            "minus_tail": {"kind": "periodic", "period": 1, "rise": 0},
            "plus_tail": PERIODIC_1,
        }))
        code = main(["oracle", "gamma2", str(path), "--mu", "0.5", "--lambda", "0.5",
                     "--terms", "8"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["classification"] == "diverges"


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


# Commands whose process never imports the scipy.linalg package, with their
# options after the spec; the window scan of oracle fringe loads scipy's
# LAPACK extension on its own.
COMMANDS_WITHOUT_SCIPY_LINALG = {
    "oracle-fringe": (["oracle", "fringe"], ["--mu", "0.5", "--lambda", "0.05"]),
    "oracle-gamma2": (["oracle", "gamma2"], ["--mu", "0.5", "--lambda", "0.5"]),
    "fringe": (["fringe"], ["--mu", "0.5"]),
    "member": (["member"], ["--mu", "0.5", "--lambda", "0.5"]),
    "report": (["report"], ["--mc-samples", "1000"]),
}


@pytest.mark.parametrize("command,options", list(COMMANDS_WITHOUT_SCIPY_LINALG.values()),
                         ids=list(COMMANDS_WITHOUT_SCIPY_LINALG))
def test_command_leaves_scipy_linalg_unloaded(command, options):
    env = {**os.environ, "PYTHONPATH": str(Path(stairspec.__file__).resolve().parents[1])}
    code = (
        "import contextlib, io, sys\n"
        "from stairspec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *command, spec("half_lines_1_2"), *options],
        capture_output=True, text=True, check=True, env=env,
    )
    assert result.stdout.split() == ["False", str(command == ["oracle", "fringe"])]


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

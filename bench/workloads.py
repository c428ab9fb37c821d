"""The four benchmark workloads: inputs made from a seed, operations, checks.

Every workload exposes the same surface:

* ``ops`` -- the operations of one pass, in a seed-chosen order;
* ``setup_op`` -- the workload's first, smallest operation, run once by each
  set-up probe;
* ``finish(outputs)`` -- reads back the files a pass wrote;
* ``judge(outputs)`` -- returns ``(failed, errors)``: the ids of operations
  that produced no answer, and every disagreement between an answer and the
  independent computation in ``reference``;
* ``corruptions()`` -- ways to damage one answer each, with the check that
  must notice, for the self-test.

Outputs are compared with ``reference``, never with a stored copy of an
earlier run.  stairspec functions are always looked up as module attributes
(``D.transpose``), so the timing wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from stairspec import cli as C
from stairspec import diagram as D
from stairspec import oracle as O
from stairspec import params as PA
from stairspec import regions as R
from stairspec import shifts as S

INF = ref.INF
FR = Fraction

# Hand-derived from the tail rules (periodic slope = rise/period; geometric
# delta/rho = min/max slope and eta = the largest cycle-end average; empty and
# full tails = inf).  p = min delta, q = max rho; area = 1/(1+p) - 1/(1+q) is
# the spectrum's share of the magnitude square.
HAND_TABLE = {
    "geometric_blocks_01": ("0", "1", "2/3", "1", FR(1, 2)),
    "half_lines_1_2": ("1/2", "1", "1/2", "1", FR(1, 6)),
    "line_slope1": ("1", "1", "1", "1", FR(0)),
    "line_slope2": ("1/2", "1/2", "1/2", "1/2", FR(0)),
    "notched_plane": ("0", "inf", "0", "inf", FR(1)),
    "quarter_plane_steps": ("0", "inf", "inf", "0", FR(1)),
    "wold_mixed_pair": ("0", "inf", "0", "inf", FR(1)),
}
SPEC_NAMES = tuple(HAND_TABLE)
SETS = ("taylor", "gamma2", "gamma3")
COLORS = {bytes((30, 30, 200)): "in", bytes((240, 200, 40)): "boundary",
          bytes((245, 245, 245)): "out"}

# Acceptance criterion 7's |lambda| ladder.
LADDER = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
          0.55, 0.6, 0.65, 2**-0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99)
BORDERLINE = 0.02  # log-distance from a predicted radius inside which a verdict is not judged
SMIN_ABS_TOL = 1e-7  # Gram-matrix eigenvalues floor the scan's smin near 1e-8
MAX_REPORTED = 5


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    meta: dict


@dataclass(frozen=True)
class Raised:
    """Output of an operation that raised instead of answering."""

    text: str


def run_pass(ops: list[Op], tracer=None) -> tuple[float, list]:
    """Run every operation once; returns wall time and the outputs."""
    outputs: list = [None] * len(ops)
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            outputs[i] = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            outputs[i] = Raised(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outputs


def fingerprint(outputs: list) -> str:
    """Digest of a pass's outputs; equal digests mean bit-identical outputs."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, dict):
            h.update(b"{")
            for key in sorted(obj):
                feed(key)
                feed(obj[key])
            h.update(b"}")
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for item in obj:
                feed(item)
            h.update(b"]")
        elif isinstance(obj, np.ndarray):
            h.update(f"{obj.dtype}{obj.shape}".encode())
            h.update(obj.tobytes())
        elif isinstance(obj, bytes):
            h.update(obj)
        else:
            h.update(repr(obj).encode())

    feed(outputs)
    return h.hexdigest()


class Errors:
    """Disagreements per check, keeping the first few messages of each."""

    def __init__(self):
        self.count: dict[str, int] = {}
        self.samples: list[str] = []

    def add(self, check: str, message: str) -> None:
        n = self.count.get(check, 0)
        self.count[check] = n + 1
        if n < MAX_REPORTED:
            self.samples.append(f"{check}: {message}")

    def __bool__(self) -> bool:
        return bool(self.count)

    def summary(self) -> list[str]:
        return [f"{k}: {v} disagreement(s)" for k, v in sorted(self.count.items())] + self.samples


@dataclass
class Spec:
    name: str
    path: Path
    doc: dict
    x: ref.Exponents
    flags: tuple[bool, bool]
    kind: str
    border: ref.RefProfile


def load_specs(root: Path) -> dict[str, Spec]:
    """Load and validate the shipped spec documents; the hand table must agree
    with the exponents the reference derives from each document."""
    specs = {}
    for name in SPEC_NAMES:
        path = root / "specs" / f"{name}.json"
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        D.profile_from_json(doc)
        x = ref.exponents(doc)
        p, q, em, ep, _ = HAND_TABLE[name]
        derived = (x.p, x.q, x.eta_minus, x.eta_plus)
        if derived != tuple(ref.parse_exp(v) for v in (p, q, em, ep)):
            raise RuntimeError(f"{name}: derived exponents {derived} disagree with the hand table")
        specs[name] = Spec(name, path, doc, x, ref.wold_flags(doc), ref.shift_kind(doc),
                           ref.RefProfile(doc))
    return specs


def cli_call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = C.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_op(op_id: str, argv: list[str], **meta) -> Op:
    return Op(op_id, lambda: cli_call(argv), meta)


def cli_failed(out) -> bool:
    return isinstance(out, Raised) or out["rc"] != 0


def cli_failure(out) -> str:
    return out.text if isinstance(out, Raised) else f"exit {out['rc']}: {out['stderr'].strip()}"


def modulus(text: str) -> float:
    """The magnitude the CLI reads from a '--mu'/'--lambda' value."""
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return abs(complex(float(re_part), float(im_part)))
    return abs(float(text))


def shuffled(ops: list[Op], rng) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


class Workload:
    name = ""

    def finish(self, outputs: list) -> None:
        """Attach the files each CLI operation wrote to its output."""
        for op, out in zip(self.ops, outputs):
            if "files" in op.meta and isinstance(out, dict):
                out["files"] = {p.name: p.read_bytes() for p in op.meta["files"] if p.exists()}

    def bytes_written(self, outputs: list) -> int:
        """Bytes of the CSV and PPM files the CLI wrote in a pass."""
        return sum(sum(map(len, out.get("files", {}).values()))
                   for out in outputs if isinstance(out, dict))


# ---------------------------------------------------------------------------
# atlas: pictures of every shipped spec through the CLI
# ---------------------------------------------------------------------------

class Atlas(Workload):
    name = "atlas"
    RESOLUTION = 33
    SIDE = 56
    MC_SAMPLES = 3000

    def __init__(self, root: Path, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 1])
        self.specs = load_specs(root)
        ops = []
        for spec in self.specs.values():
            path = str(spec.path)
            csv_path = out_dir / f"{spec.name}.csv"
            ops.append(cli_op(f"sample:{spec.name}",
                              ["sample", path, "--resolution", str(self.RESOLUTION),
                               "--out", str(csv_path), "--threads", "1"],
                              spec=spec.name, files=[csv_path]))
            for s in SETS:
                ops.append(self._raster(spec, s, out_dir / f"{spec.name}-{s}.ppm"))
            ops.append(cli_op(f"report:{spec.name}",
                              ["report", path, "--mc-samples", str(self.MC_SAMPLES),
                               "--seed", str(int(rng.integers(0, 2**31 - 1))), "--threads", "1"],
                              spec=spec.name))
        self.ops = shuffled(ops, rng)
        self.setup_op = self._raster(self.specs["notched_plane"], "taylor", out_dir / "setup.ppm")

    def _raster(self, spec: Spec, s: str, path: Path) -> Op:
        side = str(self.SIDE)
        return cli_op(f"raster-{s}:{spec.name}",
                      ["raster", str(spec.path), "--width", side, "--height", side,
                       "--set", s, "--out", str(path), "--threads", "1"],
                      spec=spec.name, files=[path])

    def judge(self, outputs: list):
        errors = Errors()
        failed = {op.id: cli_failure(out) for op, out in zip(self.ops, outputs) if cli_failed(out)}
        by_id = {op.id: out for op, out in zip(self.ops, outputs) if op.id not in failed}
        for spec in self.specs.values():
            report = by_id.get(f"report:{spec.name}")
            if report is not None:
                self._check_report(spec, json.loads(report["stdout"]), errors)
            sample = by_id.get(f"sample:{spec.name}")
            if sample is not None:
                self._check_csv(spec, sample["files"].get(f"{spec.name}.csv", b""), errors)
            grids = {}
            for s in SETS:
                out = by_id.get(f"raster-{s}:{spec.name}")
                if out is not None:
                    grids[s] = self._check_ppm(spec, s, out["files"].get(f"{spec.name}-{s}.ppm", b""),
                                               errors)
            if all(grids.get(s) is not None for s in SETS):
                for idx, cell in enumerate(zip(*(grids[s] for s in SETS))):
                    if not ref.parts_consistent(*cell):
                        errors.add("atlas.raster.parts_consistency", f"{spec.name} pixel {idx}: {cell}")
        return failed, errors

    def _check_report(self, spec: Spec, doc: dict, errors: Errors) -> None:
        expected = spec.x.as_dict()
        for key, value in doc["params"].items():
            if ref.parse_exp(value) != expected[key]:
                errors.add("atlas.report.params", f"{spec.name} {key}={value}")
        band = (ref.parse_exp(doc["taylor_band"]["p"]), ref.parse_exp(doc["taylor_band"]["q"]))
        if band != (spec.x.p, spec.x.q):
            errors.add("atlas.report.band", f"{spec.name} {band}")
        area = HAND_TABLE[spec.name][4]
        est, se = doc["area_fraction"]["estimate"], doc["area_fraction"]["std_error"]
        if doc["area_fraction"]["samples"] != self.MC_SAMPLES:
            errors.add("atlas.report.samples", f"{spec.name} {doc['area_fraction']['samples']}")
        if area == 0:
            if est != 0.0:
                errors.add("atlas.report.area", f"{spec.name} line spec reports {est} inside")
        elif abs(est - float(area)) > 4.0 * se:
            errors.add("atlas.report.area", f"{spec.name} {est} +- {se} vs {area}")

    def _check_cell(self, spec: Spec, check: str, s: str, a: float, b: float, got: str, errors):
        if s == "taylor":
            want = ref.taylor_state(spec.x, a, b)
        elif s == "gamma2":
            want = ref.gamma2_state(spec.x, *spec.flags, a, b)
        else:
            return
        if want is not None and got != want:
            errors.add(f"{check}.{s}", f"{spec.name} at ({a}, {b}): {got} vs {want}")

    def _check_csv(self, spec: Spec, data: bytes, errors: Errors) -> None:
        lines = data.decode().splitlines()
        n = self.RESOLUTION
        if not lines or lines[0] != "mu_abs,lambda_abs,taylor,gamma2,gamma3" or len(lines) != n * n + 1:
            errors.add("atlas.sample.shape", f"{spec.name}: {len(lines)} lines")
            return
        ticks = [k / (n - 1) for k in range(n)]
        for idx, line in enumerate(lines[1:]):
            fields = line.split(",")
            a, b = ticks[idx // n], ticks[idx % n]
            if len(fields) != 5 or abs(float(fields[0]) - a) > 1e-12 or abs(float(fields[1]) - b) > 1e-12:
                errors.add("atlas.sample.grid", f"{spec.name} row {idx}: {line}")
                continue
            states = fields[2:]
            for s, got in zip(SETS, states):
                self._check_cell(spec, "atlas.sample", s, a, b, got, errors)
            if not ref.parts_consistent(*states):
                errors.add("atlas.sample.parts_consistency", f"{spec.name} at ({a}, {b}): {states}")

    def _check_ppm(self, spec: Spec, s: str, data: bytes, errors: Errors):
        side = self.SIDE
        header = f"P6\n{side} {side}\n255\n".encode()
        if not data.startswith(header) or len(data) != len(header) + 3 * side * side:
            errors.add("atlas.raster.format", f"{spec.name} {s}: {len(data)} bytes")
            return None
        body = data[len(header):]
        cells = []
        for idx in range(side * side):
            state = COLORS.get(body[3 * idx:3 * idx + 3])
            if state is None:
                errors.add("atlas.raster.color", f"{spec.name} {s} pixel {idx}")
                return None
            py, px = divmod(idx, side)
            self._check_cell(spec, "atlas.raster", s, px / (side - 1), (side - 1 - py) / (side - 1),
                             state, errors)
            cells.append(state)
        return cells

    def corruptions(self):
        """(check that must fire, what is damaged, how) for the self-test."""
        return [
            ("atlas.sample.taylor", "a judged taylor cell of the half-lines CSV",
             lambda o: self._flip_csv(o, "half_lines_1_2", 0)),
            ("atlas.sample.gamma2", "a judged gamma2 cell of the geometric-blocks CSV",
             lambda o: self._flip_csv(o, "geometric_blocks_01", 1)),
            ("atlas.raster.taylor", "a judged pixel of the half-lines taylor raster",
             lambda o: self._flip_pixel(o, "half_lines_1_2", "taylor")),
            ("atlas.raster.parts_consistency", "a pixel of the quarter-plane gamma3 raster",
             lambda o: self._flip_pixel(o, "quarter_plane_steps", "gamma3")),
            ("atlas.raster.format", "the last byte of the half-lines gamma2 raster",
             lambda o: self._truncate(o, "half_lines_1_2", "gamma2")),
            ("atlas.report.area", "the half-lines area estimate, moved by 0.05",
             lambda o: self._edit_report(o, "half_lines_1_2",
                                         lambda d: d["area_fraction"].update(
                                             estimate=d["area_fraction"]["estimate"] + 0.05))),
            ("atlas.report.params", "eta_minus of the geometric-blocks report",
             lambda o: self._edit_report(o, "geometric_blocks_01",
                                         lambda d: d["params"].update(eta_minus="1/3"))),
            ("atlas.report.band", "the taylor band of the line-slope-2 report",
             lambda o: self._edit_report(o, "line_slope2",
                                         lambda d: d["taylor_band"].update(q="1/1"))),
            ("atlas.raster.color", "one pixel of the notched-plane gamma2 raster, painted black",
             lambda o: self._paint(o, "notched_plane", "gamma2")),
            ("atlas.failed", "the exit code of the wold-pair report",
             lambda o: self._output(o, "report:wold_mixed_pair").update(rc=3)),
        ]

    def _output(self, outputs: list, op_id: str):
        return outputs[next(k for k, op in enumerate(self.ops) if op.id == op_id)]

    def _flip_csv(self, outputs: list, name: str, column: int) -> None:
        out = self._output(outputs, f"sample:{name}")
        spec, fname = self.specs[name], f"{name}.csv"
        lines = out["files"][fname].decode().split("\r\n")
        for row, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            a, b = float(fields[0]), float(fields[1])
            judged = (ref.taylor_state(spec.x, a, b) if column == 0
                      else ref.gamma2_state(spec.x, *spec.flags, a, b))
            if judged is not None:
                fields[2 + column] = "out" if fields[2 + column] == "in" else "in"
                lines[row] = ",".join(fields)
                out["files"][fname] = "\r\n".join(lines).encode()
                return
        raise RuntimeError("no judged cell")

    def _rasters(self, outputs: list, name: str) -> dict:
        return {s: self._output(outputs, f"raster-{s}:{name}")["files"] for s in SETS}

    def _flip_pixel(self, outputs: list, name: str, s: str) -> None:
        files = self._rasters(outputs, name)
        header = len(f"P6\n{self.SIDE} {self.SIDE}\n255\n")
        fname = f"{name}-{s}.ppm"
        body = {k: v[f"{name}-{k}.ppm"][header:] for k, v in files.items()}
        colour = {state: rgb for rgb, state in COLORS.items()}
        for idx in range(self.SIDE * self.SIDE):
            cell = {k: COLORS[body[k][3 * idx:3 * idx + 3]] for k in SETS}
            py, px = divmod(idx, self.SIDE)
            a, b = px / (self.SIDE - 1), (self.SIDE - 1 - py) / (self.SIDE - 1)
            if s == "taylor":
                usable = ref.taylor_state(self.specs[name].x, a, b) is not None
            else:  # flipping gamma3 breaks the union exactly when gamma2 is out
                usable = "boundary" not in cell.values() and cell["gamma2"] == "out"
            if usable:
                new = colour["out" if cell[s] == "in" else "in"]
                data = bytearray(files[s][fname])
                data[header + 3 * idx:header + 3 * idx + 3] = new
                files[s][fname] = bytes(data)
                return
        raise RuntimeError("no usable pixel")

    def _paint(self, outputs: list, name: str, s: str) -> None:
        files = self._output(outputs, f"raster-{s}:{name}")["files"]
        data = bytearray(files[f"{name}-{s}.ppm"])
        data[-3:] = bytes(3)
        files[f"{name}-{s}.ppm"] = bytes(data)

    def _truncate(self, outputs: list, name: str, s: str) -> None:
        files = self._output(outputs, f"raster-{s}:{name}")["files"]
        files[f"{name}-{s}.ppm"] = files[f"{name}-{s}.ppm"][:-1]

    def _edit_report(self, outputs: list, name: str, edit) -> None:
        out = self._output(outputs, f"report:{name}")
        doc = json.loads(out["stdout"])
        edit(doc)
        out["stdout"] = json.dumps(doc)


# ---------------------------------------------------------------------------
# certify: numerical oracles through the CLI
# ---------------------------------------------------------------------------

class Certify(Workload):
    name = "certify"
    GB_DEEP = (0.3, 0.6, 0.8, 0.95)
    G2_SPECS = ("geometric_blocks_01", "half_lines_1_2", "line_slope1", "line_slope2",
                "notched_plane", "wold_mixed_pair")
    G2_LAMBDAS = (0.3, 0.6, 0.75, 0.9)
    T3 = (("quarter_plane_steps", 40), ("quarter_plane_steps", 64),
          ("wold_mixed_pair", 40), ("wold_mixed_pair", 64))

    def __init__(self, root: Path, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 2])
        self.specs = load_specs(root)

        def point(r: float) -> str:  # a complex point of modulus r at a seeded angle
            theta = rng.uniform(0.0, 2.0 * math.pi)
            return f"{r * math.cos(theta)!r},{r * math.sin(theta)!r}"

        ops = []
        for lam in LADDER:
            ops.append(self._fringe("half_lines_1_2", point(0.5), point(lam), 64))
        # The unilateral ladder and the deep geometric scans keep fixed real
        # inputs: their scans sit at the Gram floor, and the failures counted
        # there must not depend on the seed.
        for lam in LADDER:
            ops.append(self._fringe("quarter_plane_steps", "0.5", repr(lam), 64))
        for lam in self.GB_DEEP:
            ops.append(self._fringe("geometric_blocks_01", "0.5", repr(lam), 4096))
        for name in self.G2_SPECS:
            for lam in self.G2_LAMBDAS:
                if ref.gamma2_expected(self.specs[name].x, 0.5, lam) is not None:
                    mu_t, lam_t = point(0.5), point(lam)
                    ops.append(cli_op(f"gamma2:{name}:{lam}",
                                      ["oracle", "gamma2", str(self.specs[name].path), f"--mu={mu_t}",
                                       f"--lambda={lam_t}", "--threads", "1"],
                                      spec=name, mu=modulus(mu_t), lam=modulus(lam_t)))
        for name, window in self.T3:
            mu_t, lam_t = point(0.5), point(0.5)
            ops.append(cli_op(f"t3:{name}:{window}",
                              ["oracle", "t3", str(self.specs[name].path), f"--mu={mu_t}",
                               f"--lambda={lam_t}", "--window", str(window), "--threads", "1"],
                              spec=name, mu=modulus(mu_t), lam=modulus(lam_t), window=window))
        self.ops = shuffled(ops, rng)
        self.setup_op = self._fringe("half_lines_1_2", "0.5", "0.05", 64)

    def _fringe(self, name: str, mu: str, lam: str, j_scan: int) -> Op:
        return cli_op(f"fringe:{name}:{modulus(lam)!r}:j{j_scan}",
                      ["oracle", "fringe", str(self.specs[name].path), f"--mu={mu}", f"--lambda={lam}",
                       "--j-scan", str(j_scan), "--threads", "1"],
                      spec=name, mu=modulus(mu), lam=modulus(lam), j_scan=j_scan)

    def judge(self, outputs: list):
        errors = Errors()
        failed = {}
        for op, out in zip(self.ops, outputs):
            if cli_failed(out):
                failed[op.id] = cli_failure(out)
                continue
            doc = json.loads(out["stdout"])
            kind = op.id.split(":", 1)[0]
            reason = getattr(self, f"_check_{kind}")(op, self.specs[op.meta["spec"]], doc, errors)
            if reason:
                failed[op.id] = reason
        return failed, errors

    def _check_fringe(self, op: Op, spec: Spec, doc: dict, errors: Errors):
        mu, lam, j_scan = op.meta["mu"], op.meta["lam"], op.meta["j_scan"]
        dense = ref.scan_min_dense(spec.border, *ref.shift_range(spec.doc), mu, lam, doc["sizes"][0], j_scan)
        got = doc["smin_by_size"][0]
        if abs(got - dense) > SMIN_ABS_TOL + 1e-6 * dense:
            errors.add("certify.fringe.dense_svd", f"{op.id}: scan {got:.3e} vs SVD {dense:.3e}")
        want = ref.ap_state(spec.kind, spec.x, mu, lam, BORDERLINE)
        verdict = {"inside_ap_spectrum": "in", "outside_ap_spectrum": "out"}.get(doc["verdict"])
        if want is None:
            return None  # on a predicted radius: genuinely borderline
        if verdict is None:
            return "unresolved"
        if verdict != want:
            errors.add("certify.fringe.verdict", f"{op.id}: {doc['verdict']} vs predicted {want}")
        return None

    def _check_gamma2(self, op: Op, spec: Spec, doc: dict, errors: Errors):
        mu, lam = op.meta["mu"], op.meta["lam"]
        want = ref.gamma2_expected(spec.x, mu, lam)
        if doc["classification"] != want:
            errors.add("certify.gamma2.class", f"{op.id}: {doc['classification']} vs {want}")
        down, up = ref.gamma2_limits(spec.x, mu, lam)
        if not (math.isclose(doc["predicted_root_minus"], down, rel_tol=1e-9)
                and math.isclose(doc["predicted_root_plus"], up, rel_tol=1e-9, abs_tol=1e-300)):
            errors.add("certify.gamma2.limits", f"{op.id}: {doc['predicted_root_minus']}, "
                       f"{doc['predicted_root_plus']} vs {down}, {up}")
        return None

    def _check_t3(self, op: Op, spec: Spec, doc: dict, errors: Errors):
        window = op.meta["window"]
        ladder = doc["smin_ladder"]
        sizes = [row["window"] for row in ladder]
        if sizes != [window // 4, window // 2, window]:
            errors.add("certify.t3.windows", f"{op.id}: {sizes}")
            return None
        values = [row["smin"] for row in ladder]
        if spec.name == "quarter_plane_steps" and not values[-1] < 1e-6:
            errors.add("certify.t3.witness", f"{op.id}: ladder ends at {values[-1]:.3e}")
        if spec.name == "wold_mixed_pair" and not min(values) >= 0.1:
            errors.add("certify.t3.floor", f"{op.id}: ladder {values}")
        half = max(sizes[0] // 2, 1)
        dense = ref.kernel_smin_dense(spec.border, op.meta["mu"], op.meta["lam"], (-half, half, -half, half))
        if abs(values[0] - dense) > 1e-10 + 1e-6 * dense:
            errors.add("certify.t3.dense_svd", f"{op.id}: {values[0]:.6e} vs SVD {dense:.6e}")
        return None

    def corruptions(self):
        """(check that must fire, what is damaged, how) for the self-test."""
        half = next(op.id for op in self.ops
                    if op.id.startswith("fringe:half_lines_1_2") and abs(op.meta["lam"] - 0.3) < 1e-9)
        g2 = next(op.id for op in self.ops if op.id.startswith("gamma2:"))

        def swap(d):
            d["verdict"] = ("outside_ap_spectrum" if d["verdict"] == "inside_ap_spectrum"
                            else "inside_ap_spectrum")

        def flip_class(d):
            d["classification"] = "converges" if d["classification"] == "diverges" else "diverges"

        def set_smin(rung, value):
            def edit(d):
                d["smin_ladder"][rung]["smin"] = value(d["smin_ladder"][rung]["smin"])
            return edit

        return [
            ("certify.fringe.verdict", f"the verdict of {half}", lambda o: self._edit(o, half, swap)),
            ("certify.fringe.dense_svd", f"the smallest-window minimum of {half}, doubled",
             lambda o: self._edit(o, half, lambda d: d["smin_by_size"].__setitem__(
                 0, 2 * d["smin_by_size"][0]))),
            ("certify.gamma2.class", f"the classification of {g2}", lambda o: self._edit(o, g2, flip_class)),
            ("certify.gamma2.limits", f"the predicted downward root of {g2}",
             lambda o: self._edit(o, g2, lambda d: d.update(
                 predicted_root_minus=d["predicted_root_minus"] * 1.001))),
            ("certify.t3.witness", "the last rung of the quarter-plane t3 ladder",
             lambda o: self._edit(o, "t3:quarter_plane_steps:40", set_smin(2, lambda v: 1e-3))),
            ("certify.t3.floor", "the last rung of the mixed-pair t3 ladder",
             lambda o: self._edit(o, "t3:wold_mixed_pair:40", set_smin(2, lambda v: 0.05))),
            ("certify.t3.dense_svd", "the first rung of the quarter-plane t3 ladder",
             lambda o: self._edit(o, "t3:quarter_plane_steps:64", set_smin(0, lambda v: v * 1.001))),
            ("certify.failed", f"the verdict of {half}, made unresolved",
             lambda o: self._edit(o, half, lambda d: d.update(verdict="unresolved"))),
        ]

    def _edit(self, outputs: list, op_id: str, edit) -> None:
        out = outputs[next(k for k, op in enumerate(self.ops) if op.id == op_id)]
        doc = json.loads(out["stdout"])
        edit(doc)
        out["stdout"] = json.dumps(doc)


# ---------------------------------------------------------------------------
# deep_tails: exact tail arithmetic through the library
# ---------------------------------------------------------------------------

def _periodic(period: int, rise: int) -> dict:
    return {"kind": "periodic", "period": period, "rise": rise}


def _geometric(slopes, ratio: int, base_len: int) -> dict:
    return {"kind": "geometric", "slopes": list(slopes), "ratio": ratio, "base_len": base_len}


def _doc(j_lo: int, values, minus: dict, plus: dict) -> dict:
    return {"window": {"j_lo": j_lo, "values": list(values)}, "minus_tail": minus, "plus_tail": plus}


GB_A = _geometric(["1/2", "2"], 2, 1)
GB_B = _geometric(["1/3", "3", "1"], 2, 2)
GB_C = _geometric(["2/3", "5/2"], 3, 1)
# Acceptance criterion 4's transpose suite; the last four with block tails
# transpose into inverted tails.
TRANSPOSE_SUITE = {
    "line_1_1": _doc(0, [0], _periodic(1, 1), _periodic(1, 1)),
    "line_2_1": _doc(0, [0], _periodic(2, 1), _periodic(2, 1)),
    "line_1_2": _doc(0, [0], _periodic(1, 2), _periodic(1, 2)),
    "line_3_2": _doc(0, [0], _periodic(3, 2), _periodic(3, 2)),
    "half_lines": _doc(0, [0], _periodic(2, 1), _periodic(1, 1)),
    "periodic_window": _doc(-1, [5, 2], _periodic(3, 2), _periodic(2, 5)),
    "wold_mixed": _doc(0, [1, 0], _periodic(1, 0), {"kind": "full"}),
    "gb_plus": _doc(0, [0], _periodic(1, 1), GB_A),
    "gb_minus": _doc(0, [3, 0], GB_B, _periodic(1, 2)),
    "gb_both": _doc(0, [0], GB_A, GB_B),
    "gb_both_window": _doc(2, [4, 1, 0], GB_C, GB_A),
}
INVERTED = ("gb_plus", "gb_minus", "gb_both", "gb_both_window")
# Acceptance criterion 5: minus-side block tails and their closed-form eta.
BRUTEFORCE = {
    "eta_2_3": (_doc(0, [0], _geometric(["0", "1"], 2, 1), _periodic(1, 1)), FR(2, 3)),
    "eta_3_2": (_doc(0, [0], _geometric(["1/2", "2"], 2, 1), _periodic(1, 1)), FR(3, 2)),
    "eta_2": (_doc(0, [0], _geometric(["0", "1", "3"], 2, 1), _periodic(1, 1)), FR(2)),
}


class DeepTails(Workload):
    name = "deep_tails"
    SPAN = 800  # border values per m_values range
    RANGE_START = -600
    SAMPLES = 16  # scalar eval_M calls per transposed profile
    BF_DEPTH = 10**6
    MU = 0.5
    SCAN_LAMBDAS = (0.05, 0.95)  # outside every predicted radius interval
    G2_LAMBDAS = (0.1, 0.95)  # both root-test limits far from 1
    SIZES = (16, 64, 256)
    J_SCAN = 32
    G2_TERMS = 256

    def __init__(self, root: Path, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 3])
        self.inputs = {name: D.profile_from_json(doc) for name, doc in TRANSPOSE_SUITE.items()}
        self.refs = {name: ref.RefProfile(doc) for name, doc in TRANSPOSE_SUITE.items()}
        self.refs_t = {name: ref.RefTransposed(self.refs[name]) for name in INVERTED}
        ops = []
        lo = self.RANGE_START  # fixed: an inverted tail costs more per element the deeper it goes
        for name in TRANSPOSE_SUITE:
            ks = sorted(int(k) for k in lo + rng.choice(self.SPAN, self.SAMPLES, replace=False))
            ops.append(self._transpose_op(name, lo, lo, ks))
        for name, (doc, _) in BRUTEFORCE.items():
            ops.append(Op(f"bruteforce:{name}", self._bruteforce(D.profile_from_json(doc)), {"name": name}))
        for name in INVERTED:
            ops.append(Op(f"oracles:{name}", self._oracles(self.inputs[name]), {"name": name}))
        self.ops = shuffled(ops, rng)
        self.setup_op = self._transpose_op("line_1_1", -600, -600, [-600])

    def _transpose_op(self, name: str, lo: int, lo_tt: int, ks: list[int]) -> Op:
        profile, span = self.inputs[name], self.SPAN

        def call():
            t = D.transpose(profile)
            tt = D.transpose(t)
            return {
                "params": PA.compute_params(profile).to_json(),
                "params_t": PA.compute_params(t).to_json(),
                "m_t": D.m_values(t, lo, lo + span - 1),
                "m_tt": D.m_values(tt, lo_tt, lo_tt + span - 1),
                "eval_t": [D.eval_M(t, k) for k in ks],
            }

        return Op(f"transpose:{name}", call, {"name": name, "lo": lo, "lo_tt": lo_tt, "ks": ks})

    def _bruteforce(self, profile):
        return lambda: PA.estimate_params_bruteforce(profile, self.BF_DEPTH, 2)

    def _oracles(self, profile):
        def call():
            t = D.transpose(profile)
            spec = S.fringe_operator(t, self.MU)
            return {
                "scans": [O.window_smin_scan(spec, lam, list(self.SIZES), j_scan=self.J_SCAN)
                          for lam in self.SCAN_LAMBDAS],
                "series": [O.gamma2_series_test(t, self.MU, lam, self.G2_TERMS)
                           for lam in self.G2_LAMBDAS],
            }

        return call

    def judge(self, outputs: list):
        errors = Errors()
        failed = {}
        for op, out in zip(self.ops, outputs):
            if isinstance(out, Raised):
                failed[op.id] = out.text
                continue
            kind = op.id.split(":", 1)[0]
            reason = getattr(self, f"_check_{kind}")(op, out, errors)
            if reason:
                failed[op.id] = reason
        return failed, errors

    def _check_transpose(self, op: Op, out: dict, errors: Errors):
        name, lo, lo_tt, ks = (op.meta[k] for k in ("name", "lo", "lo_tt", "ks"))
        base = self.refs[name]
        x = ref.exponents(TRANSPOSE_SUITE[name])
        xt = x.transposed()
        p = {k: ref.parse_exp(v) for k, v in out["params"].items()}
        d = {k: ref.parse_exp(v) for k, v in out["params_t"].items()}
        if p != x.as_dict():
            errors.add("deep_tails.params", f"{name}: {p}")
        if d != xt.as_dict():
            errors.add("deep_tails.params_transposed", f"{name}: {d}")
        identities = (d["delta_plus"] == ref.recip(p["rho_minus"]),
                      d["rho_plus"] == ref.recip(p["delta_minus"]),
                      d["delta_minus"] == ref.recip(p["rho_plus"]),
                      d["rho_minus"] == ref.recip(p["delta_plus"]))
        if not all(identities):
            errors.add("deep_tails.reciprocal_identities", f"{name}: {identities}")
        m_t = out["m_t"]
        if not bool(np.all(m_t[:-1] >= m_t[1:])):
            errors.add("deep_tails.m_values.monotone", f"{name}")
        for i, value in enumerate(m_t):
            want = base.N(lo + i)
            if float(want) != value:
                errors.add("deep_tails.m_values.column_border", f"{name} k={lo + i}: {value} vs {want}")
        for k, value in zip(ks, out["eval_t"]):
            if value != m_t[k - lo]:
                errors.add("deep_tails.eval_M.vs_m_values", f"{name} k={k}: {value} vs {m_t[k - lo]}")
        for i, value in enumerate(out["m_tt"]):
            want = base.M(lo_tt + i)
            if float(want) != value:
                errors.add("deep_tails.double_transpose", f"{name} j={lo_tt + i}: {value} vs {want}")
        return None

    def _check_bruteforce(self, op: Op, out, errors: Errors):
        want = BRUTEFORCE[op.meta["name"]][1]
        if not abs(out.eta_minus - float(want)) <= 1e-3:
            errors.add("deep_tails.bruteforce_eta", f"{op.meta['name']}: {out.eta_minus} vs {want}")
        return None

    def _check_oracles(self, op: Op, out: dict, errors: Errors):
        name = op.meta["name"]
        xt = ref.exponents(TRANSPOSE_SUITE[name]).transposed()
        reason = None
        for lam, scan in zip(self.SCAN_LAMBDAS, out["scans"]):
            dense = ref.scan_min_dense(self.refs_t[name], -INF, INF, self.MU, lam,
                                       self.SIZES[0], self.J_SCAN)
            if abs(scan.smin_by_size[0] - dense) > SMIN_ABS_TOL + 1e-6 * dense:
                errors.add("deep_tails.scan.dense_svd", f"{name} lambda={lam}: "
                           f"{scan.smin_by_size[0]:.3e} vs {dense:.3e}")
            want = ref.ap_state("bilateral", xt, self.MU, lam, BORDERLINE)
            verdict = {"inside_ap_spectrum": "in", "outside_ap_spectrum": "out"}.get(scan.verdict.value)
            if verdict is None:
                reason = "unresolved"
            elif verdict != want:
                errors.add("deep_tails.scan.verdict", f"{name} lambda={lam}: {verdict} vs {want}")
        for lam, series in zip(self.G2_LAMBDAS, out["series"]):
            want = ref.gamma2_expected(xt, self.MU, lam)
            if series.classification.value != want:
                errors.add("deep_tails.gamma2.class", f"{name} lambda={lam}: "
                           f"{series.classification.value} vs {want}")
        return reason

    def corruptions(self):
        """(check that must fire, what is damaged, how) for the self-test."""

        def bump(op_id: str, key: str, index, delta: int):
            def edit(outputs):
                out = self._output(outputs, op_id)
                values = out[key].copy()
                i = len(values) // 2 if index is None else index
                values[i] += delta
                out[key] = values
            return edit

        def unsort(outputs):
            out = self._output(outputs, "transpose:gb_plus")
            values = out["m_t"].copy()
            i = int(np.flatnonzero(values[:-1] > values[1:])[0])
            values[i] = values[i + 1] - 1
            out["m_t"] = values

        def params_t(outputs):
            self._output(outputs, "transpose:gb_plus")["params_t"]["delta_plus"] = "7/1"

        def eta(outputs):
            i = next(k for k, op in enumerate(self.ops) if op.id == "bruteforce:eta_2_3")
            outputs[i] = dataclasses.replace(outputs[i], eta_minus=outputs[i].eta_minus + 0.01)

        def scan(field: str):
            def edit(outputs):
                out = self._output(outputs, "oracles:gb_both")
                s = out["scans"][0]
                if field == "verdict":
                    new = dataclasses.replace(s, verdict=type(s.verdict)("inside_ap_spectrum"))
                else:
                    new = dataclasses.replace(s, smin_by_size=(2 * s.smin_by_size[0],) + s.smin_by_size[1:])
                out["scans"] = [new] + out["scans"][1:]
            return edit

        def series(outputs):
            out = self._output(outputs, "oracles:gb_minus")
            s = out["series"][0]
            out["series"] = [dataclasses.replace(
                s, classification=type(s.classification)("converges"))] + out["series"][1:]

        return [
            ("deep_tails.m_values.column_border", "one border value of transpose(gb_both)",
             bump("transpose:gb_both", "m_t", None, 1)),
            ("deep_tails.m_values.monotone", "the order of two border values of transpose(gb_plus)", unsort),
            ("deep_tails.eval_M.vs_m_values", "one scalar eval_M of transpose(gb_minus)",
             bump("transpose:gb_minus", "eval_t", 0, 1)),
            ("deep_tails.double_transpose", "one border value of the double transpose of gb_both_window",
             bump("transpose:gb_both_window", "m_tt", None, -1)),
            ("deep_tails.reciprocal_identities", "delta_plus of transpose(gb_plus)", params_t),
            ("deep_tails.params", "rho_minus of gb_minus",
             lambda o: self._output(o, "transpose:gb_minus")["params"].update(rho_minus="4/1")),
            ("deep_tails.bruteforce_eta", "the brute-force eta for slopes 0, 1", eta),
            ("deep_tails.scan.verdict", "a scan verdict on transpose(gb_both)", scan("verdict")),
            ("deep_tails.scan.dense_svd", "a smallest-window scan minimum on transpose(gb_both)",
             scan("smin")),
            ("deep_tails.gamma2.class", "a series classification on transpose(gb_minus)", series),
        ]

    def _output(self, outputs: list, op_id: str):
        return outputs[next(k for k, op in enumerate(self.ops) if op.id == op_id)]


# ---------------------------------------------------------------------------
# point_queries: many single-point questions answered from scratch
# ---------------------------------------------------------------------------

class PointQueries(Workload):
    name = "point_queries"
    PER_SPEC = 1000

    def __init__(self, root: Path, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 4])
        self.specs = load_specs(root)
        ops = []
        for spec in self.specs.values():
            for a, b in 0.001 + 0.998 * rng.random((self.PER_SPEC, 2)):
                ops.append(self._query(spec, float(a), float(b)))
        self.ops = shuffled(ops, rng)
        self.setup_op = self._query(self.specs["line_slope1"], 0.5, 0.25)

    @staticmethod
    def _query(spec: Spec, a: float, b: float) -> Op:
        doc = spec.doc

        def call():
            profile = D.profile_from_json(doc)
            structure = D.validate(profile)
            params = PA.compute_params(profile)
            regions = (R.taylor_region(params), R.gamma2_region(params, structure),
                       R.gamma3_region(params, structure))
            states = tuple(R.region_member(region, a, b).state.value for region in regions)
            shift = S.fringe_operator(profile, a)
            bounds = S.ridge_bounds(shift, params)
            return states + (S.sigma_ap_predict(shift, bounds, b).state.value,)

        return Op(f"query:{spec.name}:{a!r}:{b!r}", call, {"spec": spec, "a": a, "b": b})

    def judge(self, outputs: list):
        errors = Errors()
        failed = {}
        for op, out in zip(self.ops, outputs):
            if isinstance(out, Raised):
                failed[op.id] = out.text
                continue
            spec, a, b = op.meta["spec"], op.meta["a"], op.meta["b"]
            t, g2, g3, ap = out
            want = ref.taylor_state(spec.x, a, b)
            if want is not None and t != want:
                errors.add("point_queries.taylor", f"{op.id}: {t} vs {want}")
            want = ref.gamma2_state(spec.x, *spec.flags, a, b)
            if want is not None and g2 != want:
                errors.add("point_queries.gamma2", f"{op.id}: {g2} vs {want}")
            if not ref.parts_consistent(t, g2, g3):
                errors.add("point_queries.parts_consistency", f"{op.id}: {out}")
            want = ref.ap_state(spec.kind, spec.x, a, b)
            if want is not None and ap != want:
                errors.add("point_queries.sigma_ap", f"{op.id}: {ap} vs {want}")
        return failed, errors

    def corruptions(self):
        """(check that must fire, what is damaged, how) for the self-test."""

        def flip(slot: int, judged):
            def edit(outputs):
                for i, op in enumerate(self.ops):
                    if judged(op.meta["spec"], op.meta["a"], op.meta["b"], outputs[i]):
                        answer = list(outputs[i])
                        answer[slot] = "out" if answer[slot] == "in" else "in"
                        outputs[i] = tuple(answer)
                        return
                raise RuntimeError("no judged query")
            return edit

        return [
            ("point_queries.taylor", "a judged taylor answer",
             flip(0, lambda s, a, b, out: ref.taylor_state(s.x, a, b) is not None)),
            ("point_queries.gamma2", "a judged gamma2 answer",
             flip(1, lambda s, a, b, out: ref.gamma2_state(s.x, *s.flags, a, b) is not None)),
            ("point_queries.parts_consistency", "a gamma3 answer where gamma2 is out",
             flip(2, lambda s, a, b, out: "boundary" not in out[:3] and out[1] == "out")),
            ("point_queries.sigma_ap", "a judged sigma_ap answer",
             flip(3, lambda s, a, b, out: ref.ap_state(s.kind, s.x, a, b) is not None)),
        ]


WORKLOADS = {w.name: w for w in (Atlas, Certify, DeepTails, PointQueries)}

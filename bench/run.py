"""stairspec benchmark: one workload per run, or all four in turn.

    python3 bench/run.py --workload atlas --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15
    python3 bench/run.py --self-test

Run from the root of a checkout; the program is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See bench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
MIN_PASSES = 3
WORKLOAD_NAMES = ("atlas", "certify", "deep_tails", "point_queries")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def require_sources() -> None:
    if not (SRC / "stairspec" / "__init__.py").is_file():
        sys.exit(f"bench: no stairspec sources under {SRC}")


def import_program():
    """Import stairspec from this checkout's src, never from elsewhere."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import stairspec

    if Path(stairspec.__file__).resolve().parent != (SRC / "stairspec").resolve():
        sys.exit(f"bench: stairspec was imported from {stairspec.__file__}, not from {SRC}")
    import workloads

    return workloads


@contextlib.contextmanager
def built(workloads, name: str, seed: int):
    """The workload's inputs, with a private directory for the files its
    commands write; the directory is removed afterwards."""
    out_dir = OUT_DIR / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield workloads.WORKLOADS[name](ROOT, seed, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def setup_probe(name: str, seed: int) -> int:
    """Body of one set-up probe: import, load and validate the inputs, and run
    the workload's first, smallest operation."""
    workloads = import_program()
    with built(workloads, name, seed) as workload:
        _, outputs = workloads.run_pass([workload.setup_op])
    return 1 if isinstance(outputs[0], workloads.Raised) else 0


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters running ``setup_probe``."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        times.append(elapsed)
    return statistics.median(times)


class Ledger:
    """Attempted and failed operations over whole passes."""

    def __init__(self, workload, fingerprint):
        self.workload = workload
        self.fingerprint = fingerprint
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference = None
        self.messages: list[str] = []

    def record(self, outputs: list) -> None:
        """Judge a pass in full unless it repeats the first pass's outputs
        exactly, in which case it inherits that judgement."""
        self.workload.finish(outputs)
        digest = self.fingerprint(outputs)
        if self.reference is not None and digest == self.reference[0]:
            n_failed = self.reference[1]
        else:
            failed, errors = self.workload.judge(outputs)
            n_failed = len(failed)
            if errors:
                self.correct = False
                self.messages += errors.summary()
            if self.reference is None:
                self.reference = (digest, n_failed)
                self.messages += [f"failed: {op_id} ({why})" for op_id, why in sorted(failed.items())]
        self.attempted += len(outputs)
        self.failed += n_failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = None if trace else measure_setup(name, seed)
    workloads = import_program()
    with built(workloads, name, seed) as workload:
        return measure(workloads, workload, name, seed, seconds, trace, setup_s)


def measure(workloads, workload, name: str, seed: int, seconds: float, trace: bool, setup_s) -> dict:
    ledger = Ledger(workload, workloads.fingerprint)

    gc.collect()
    _, outputs = workloads.run_pass(workload.ops)  # warm-up pass, judged in full
    ledger.record(outputs)

    budget = seconds / 2 if trace else seconds
    times = []
    started = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - started < budget:
        gc.collect()
        elapsed, outputs = workloads.run_pass(workload.ops)
        ledger.record(outputs)
        times.append(elapsed)
    run_s = statistics.median(times)

    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        import tracing

        tracer = tracing.Tracer()
        gc.collect()
        tracer.install()
        try:
            t_base = time.perf_counter()
            traced_s, outputs = workloads.run_pass(workload.ops, tracer)
        finally:
            tracer.uninstall()
        ledger.record(outputs)
        metrics = tracer.metrics(workload.bytes_written(outputs), traced_s - run_s)
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.csv.gz", t_base)

    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": len(times) + 1 + (1 if trace else 0),
        "pass_times": times,
        "messages": ledger.messages,
    }


def print_result(name: str, result: dict) -> None:
    print(f"workload {name}: {'correct' if result['correct'] else 'INCORRECT'}, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"{result['passes']} passes")
    times = sorted(result["pass_times"])
    print(f"  timed passes: {len(times)}, min {times[0]:.4f} s, median {statistics.median(times):.4f} s, "
          f"max {times[-1]:.4f} s")
    for message in result["messages"][:40]:
        print(f"  {message}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']} {metric['unit']}")


def self_test() -> int:
    """Damage one output at a time and confirm that the check aimed at it
    reports the damage, so that no check is vacuous."""
    workloads = import_program()
    ok = True
    for name in WORKLOAD_NAMES:
        with built(workloads, name, 0) as workload:
            _, outputs = workloads.run_pass(workload.ops)
            workload.finish(outputs)
        clean_failed, clean = workload.judge(outputs)
        if clean:
            ok = False
            print(f"self-test {name}: the undamaged outputs already disagree: {clean.summary()[:3]}")
        for check, what, damage in workload.corruptions():
            damaged = copy.deepcopy(outputs)
            damage(damaged)
            failed, errors = workload.judge(damaged)
            caught = check in errors.count or (check == f"{name}.failed" and len(failed) > len(clean_failed))
            ok = ok and caught
            print(f"self-test {name}: damaged {what}: {check} {'caught it' if caught else 'MISSED it'}")
    print(json.dumps({"self_test": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_sources()
    # One thread everywhere, set before numpy is imported here or in a child,
    # so the numbers measure stairspec rather than the scheduler.
    os.environ.update({var: "1" for var in THREAD_VARS})

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.self_test:
        return self_test()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(args.workload, result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:  # one process per workload
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

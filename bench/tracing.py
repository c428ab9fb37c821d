"""Per-layer timing for the traced run.

Wrappers are installed on the names callers actually look up: every module
attribute of the ``stairspec`` package that is one of the traced functions
(``cli.region_member``, ``regions.band_member``, ``oracle.m_values`` and so
on), so intra-module and cross-module calls are both seen.  Each call becomes
a span (name, start, end, parent, operation index) kept in memory; self time
is a span's duration minus that of its child spans.  The ``rises`` method of
each tail class is timed too, without a span of its own: that time stays in
``m_values``' self time and gives the per-element cost of each tail kind.

Counts (elements, windows, terms, columns) are computed by the benchmark from
the arguments of each call, after the traced pass, so they repeat exactly.
"""

from __future__ import annotations

import gzip
import sys
import time
from pathlib import Path

import reference as ref
from stairspec import diagram as D

TRACED = (
    ("cli", "main"),
    ("regions", "region_member"),
    ("extnum", "band_member"),
    ("extnum", "envelope_pair_member"),
    ("regions", "taylor_region"),
    ("regions", "gamma2_region"),
    ("regions", "gamma3_region"),
    ("diagram", "profile_from_json"),
    ("diagram", "validate"),
    ("params", "compute_params"),
    ("diagram", "m_values"),
    ("diagram", "eval_M"),
    ("diagram", "eval_N"),
    ("diagram", "transpose"),
    ("params", "estimate_params_bruteforce"),
    ("shifts", "fringe_operator"),
    ("shifts", "ridge_bounds"),
    ("shifts", "sigma_ap_predict"),
    ("oracle", "window_smin_scan"),
    ("oracle", "gamma2_series_test"),
    ("oracle", "joint_adjoint_kernel_smin"),
)
TAIL_KINDS = {"periodic": D.PeriodicTail, "geometric": D.GeometricBlocksTail,
              "inverted": D.InvertedBlocksTail}
DENSE_MAX_COLUMNS = 500  # the oracle's dense/sparse switch


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# What each traced call keeps for counting: (arguments, result) -> record.
CAPTURE = {
    "diagram.m_values": lambda a, k, r: (_arg(a, k, 1, "j_from"), _arg(a, k, 2, "j_to")),
    "oracle.window_smin_scan": lambda a, k, r: (
        _arg(a, k, 0, "spec"), list(_arg(a, k, 2, "sizes")), _arg(a, k, 3, "j_scan"),
        _arg(a, k, 4, "stride"), None if r is None else r.verdict.value),
    "oracle.gamma2_series_test": lambda a, k, r: _arg(a, k, 3, "n_terms"),
    "oracle.joint_adjoint_kernel_smin": lambda a, k, r: (_arg(a, k, 0, "profile"),
                                                        _arg(a, k, 3, "window")),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, operation index)
        self.captured: dict[int, object] = {}
        self.stack: list[int] = []
        self.op = -1
        self.rises = {kind: [0.0, 0] for kind in TAIL_KINDS}  # seconds, elements
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, captured = self.spans, self.stack, self.captured
        capture = CAPTURE.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
                if capture is not None:
                    captured[idx] = capture(args, kwargs, result)

        return traced

    def _time_rises(self, kind: str, fn):
        acc = self.rises[kind]
        clock = time.perf_counter

        def timed(tail, ts, side):
            t0 = clock()
            try:
                return fn(tail, ts, side)
            finally:
                acc[0] += clock() - t0
                acc[1] += len(ts)

        return timed

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "stairspec" or n.startswith("stairspec.")]
        for modname, fname in TRACED:
            orig = getattr(sys.modules[f"stairspec.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, attr, orig))
                        setattr(module, attr, wrapper)
        for kind, cls in TAIL_KINDS.items():
            orig = cls.__dict__["rises"]
            self._restore.append((cls, "rises", orig))
            setattr(cls, "rises", self._time_rises(kind, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path: Path, t_base: float) -> None:
        """Spans as gzip'd CSV, times relative to the start of the pass."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index,name,start_s,end_s,parent,op\n")
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                handle.write(f"{idx},{name},{t0 - t_base:.9f},{t1 - t_base:.9f},{parent},{op}\n")

    # -- metrics ------------------------------------------------------------

    def metrics(self, bytes_written: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[idx]
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)

        out: dict[str, tuple[float, str]] = {}
        for modname, fname in TRACED:
            name = f"{modname}.{fname}"
            if name == "oracle.joint_adjoint_kernel_smin":
                continue
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        n = calls.get("regions.region_member", 0)
        out["regions.region_member.us_per_call"] = (
            total_s.get("regions.region_member", 0.0) / n * 1e6 if n else 0.0, "us")
        out["cli.bytes_written"] = (bytes_written, "bytes")

        elements = windows = terms = resolved = scans = 0
        split = {path: [0, 0, 0.0] for path in ("dense", "sparse")}  # calls, columns, self_s
        for idx, rec in self.captured.items():
            name = self.spans[idx][0]
            if name == "diagram.m_values":
                elements += max(rec[1] - rec[0] + 1, 0)
            elif name == "oracle.window_smin_scan":
                spec, sizes, j_scan, stride, verdict = rec
                for size in sizes:
                    windows += len(ref.window_starts(spec.j_min, spec.j_max, size, j_scan, stride))
                scans += 1
                resolved += verdict not in (None, "unresolved")
            elif name == "oracle.gamma2_series_test":
                terms += rec
            elif name == "oracle.joint_adjoint_kernel_smin":
                cols = ref.kernel_columns(ref.RefProfile(D.profile_to_json(rec[0])), rec[1])
                bucket = split["dense" if cols <= DENSE_MAX_COLUMNS else "sparse"]
                t0, t1 = self.spans[idx][1:3]
                bucket[0] += 1
                bucket[1] += cols
                bucket[2] += (t1 - t0) - child[idx]
        out["diagram.m_values.elements"] = (elements, "count")
        for kind, (secs, count) in self.rises.items():
            out[f"diagram.m_values.ns_per_element.{kind}"] = (secs / count * 1e9 if count else 0.0, "ns")
        out["oracle.window_smin_scan.windows"] = (windows, "count")
        out["oracle.window_smin_scan.resolved_ratio"] = (resolved / scans if scans else 0.0, "ratio")
        out["oracle.gamma2_series_test.terms"] = (terms, "count")
        for path, (n_calls, cols, secs) in split.items():
            out[f"oracle.joint_adjoint_kernel_smin.calls.{path}"] = (n_calls, "count")
            out[f"oracle.joint_adjoint_kernel_smin.columns.{path}"] = (cols, "count")
            out[f"oracle.joint_adjoint_kernel_smin.self_s.{path}"] = (secs, "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out


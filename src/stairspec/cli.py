"""Command-line interface: reports, membership queries, grids, and rasters.

Subcommands: validate | report | params | member | sample | raster | fringe |
oracle {fringe,gamma2,t3}.  Diagram specs are JSON documents; see the README
for the schema.  Every refusal is one of the library's two error types or
an output that cannot be written, and the exit code says which; stderr
carries one line, which names the check that refused.  0 ok, 2 for a
``SpecError`` (a malformed or invalid spec, or a flag value no command can
run with), 3 for a ``RegimeError`` (a valid spec whose requested
computation is outside its numeric regime: a simple diagram asked for its
parameters, regions or fringe shift, ``fringe`` and ``oracle fringe``
included; a magnitude out of range or NaN, a scan through non-finite rows,
border differences beyond float64, a probe or grid over one of its size
budgets, a sparse eigensolver that does not converge), 4 for an
``OutputError`` (an ``--out`` file that cannot be opened or written, or a
standard output that is full or closed).  A command line that does not
parse, a malformed ``--mu`` or ``--lambda`` included, is argparse's usage
error and exits 2 as well.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .diagram import (
    DiagramProfile,
    json_number,
    profile_from_json,
    profile_to_json,
    validate,
)
from .extnum import DEFAULT_TOL, Membership, RegimeError, SpecError, check_budget
from .oracle import (
    check_lattice_window,
    gamma2_series_test,
    joint_adjoint_kernel_smin,
    window_smin_scan,
)
from .params import compute_params
from .regions import CODE_STATES, RegionSpec, region_member, region_states, region_triple
from .shifts import ShiftKind, fringe_operator, ridge_bounds

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_REGIME_ERROR = 3
EXIT_OUTPUT_ERROR = 4

COLOR_IN = (30, 30, 200)
COLOR_BOUNDARY = (240, 200, 40)
COLOR_OUT = (245, 245, 245)

SETS = ("taylor", "gamma2", "gamma3")  # --set's choices, in region_triple's order

# report's gamma3 "case", keyed by (w_mixed, z_mixed)
WOLD_CASES = {(True, True): "mixed_mixed", (True, False): "mixed_w_shift_z",
              (False, True): "shift_w_mixed_z", (False, False): "shift_shift"}

# The most points of a `sample` grid, a `raster` image or `report`'s Monte
# Carlo sample, checked before any of them is allocated.
GRID_POINT_BUDGET = 2**20


def _load_profile(path: str) -> DiagramProfile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long an int, too deep
        raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    return profile_from_json(doc)


def _magnitude(text: str) -> float:
    """The modulus of '0.5' or of a complex point 're,im'."""
    try:
        if "," in text:
            re_part, im_part = text.split(",", 1)
            return abs(complex(float(re_part), float(im_part)))
        return abs(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a real or 're,im', got {text!r}") from exc


class OutputError(Exception):
    """An output that cannot be opened or written."""


@contextlib.contextmanager
def _output(path: str, mode: str, **kwargs):
    """``path`` opened for writing; failing to open or write it is an ``OutputError``."""
    try:
        with open(path, mode, **kwargs) as handle:
            yield handle
    except OSError as exc:
        raise OutputError(f"{path}: {exc}") from exc


def _regions(profile: DiagramProfile) -> tuple[RegionSpec, RegionSpec, RegionSpec]:
    """The Taylor, gamma2 and gamma3 regions, in ``SETS`` order."""
    return region_triple(compute_params(profile), validate(profile))


def _cmd_validate(profile: DiagramProfile, args) -> dict:
    return {"input": profile_to_json(profile), "structure": validate(profile).to_json()}


def _area_fraction(region: RegionSpec, samples: int, seed: int, tol: float):
    check_budget(f"a grid of {samples} points", samples, GRID_POINT_BUDGET)
    rng = np.random.default_rng(seed)
    points = rng.random((samples, 2))
    codes = region_states(region, points[:, 0], points[:, 1], tol)
    inside = int(np.count_nonzero(codes == Membership.INSIDE.rank))
    fraction = inside / samples
    std_error = math.sqrt(max(fraction * (1.0 - fraction), 0.0) / samples)
    return fraction, std_error


def _cmd_report(profile: DiagramProfile, args) -> dict:
    if args.mc_samples < 1:
        raise SpecError(f"--mc-samples must be >= 1, got {args.mc_samples}")
    if args.seed < 0:
        raise SpecError(f"--seed must be >= 0, got {args.seed}")
    doc = _cmd_validate(profile, args)
    if doc["structure"]["is_simple"]:
        doc["note"] = (
            "simple diagram: the pair is doubly commuting; spectral "
            "parameters and region bands are not reported"
        )
        return doc
    params = compute_params(profile)
    taylor, gamma2, gamma3 = region_triple(params, validate(profile))
    fraction, std_error = _area_fraction(taylor, args.mc_samples, args.seed, args.tol)
    doc["params"] = params.to_json()
    doc["taylor_band"] = {"p": str(taylor.bands[0][0]), "q": str(taylor.bands[0][1])}
    doc["gamma2"] = {
        "eta_minus": str(params.eta_minus),
        "eta_plus": str(params.eta_plus),
        "mu_axis_included": gamma2.w_mixed,
        "lambda_axis_included": gamma2.z_mixed,
        "origin_included": gamma2.origin_included,
    }
    doc["gamma3"] = {
        "case": WOLD_CASES[gamma3.w_mixed, gamma3.z_mixed],
        "bands": [
            {"upper_exp": str(p), "lower_exp": str(q)} for p, q in gamma3.bands
        ],
        "t_cross_disc": gamma3.w_mixed,
        "disc_cross_t": gamma3.z_mixed,
        "origin_included": gamma3.origin_included,
    }
    doc["area_fraction"] = {
        "estimate": fraction,
        "std_error": std_error,
        "samples": args.mc_samples,
        "seed": args.seed,
    }
    return doc


def _cmd_params(profile: DiagramProfile, args) -> dict:
    return compute_params(profile).to_json()


def _cmd_member(profile: DiagramProfile, args) -> dict:
    region = _regions(profile)[SETS.index(args.set)]
    return {
        "set": args.set,
        "mu_abs": args.mu,
        "lambda_abs": args.lam,
        "membership": region_member(region, args.mu, args.lam, args.tol).state.value,
        "tol": args.tol,
    }


def _cmd_sample(profile: DiagramProfile, args) -> None:
    n = args.resolution
    if n < 2:
        raise SpecError("--resolution must be >= 2")
    check_budget(f"a grid of {n} x {n} points", n**2, GRID_POINT_BUDGET)
    axis = np.array([k / (n - 1) for k in range(n)])
    labels = np.array([state.value for state in CODE_STATES], dtype=object)
    # Every region is evaluated before the file is opened, so a rejected
    # tolerance writes nothing.
    columns = [
        labels[region_states(region, axis[:, None], axis[None, :], args.tol)].ravel()
        for region in _regions(profile)
    ]
    ticks = [f"{t:.12g}" for t in axis.tolist()]
    mu_column = np.repeat(np.array(ticks, dtype=object), n)  # |mu| outermost
    rows = map(",".join, zip(mu_column, ticks * n, *columns))
    with _output(args.out, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(["mu_abs", "lambda_abs", *SETS]) + "\r\n")
        handle.writelines(row + "\r\n" for row in rows)


def _cmd_raster(profile: DiagramProfile, args) -> None:
    if args.width < 16 or args.height < 16:
        raise SpecError("--width and --height must be >= 16")
    region = _regions(profile)[SETS.index(args.set)]
    width, height = args.width, args.height
    check_budget(f"a grid of {width} x {height} points", width * height, GRID_POINT_BUDGET)
    colors = {
        Membership.INSIDE: COLOR_IN,
        Membership.BOUNDARY: COLOR_BOUNDARY,
        Membership.OUTSIDE: COLOR_OUT,
    }
    palette = np.array([colors[state] for state in CODE_STATES], dtype=np.uint8)
    mu_abs = np.array([px / (width - 1) for px in range(width)])
    lam_abs = np.array([(height - 1 - py) / (height - 1) for py in range(height)])  # origin bottom-left
    codes = region_states(region, mu_abs[None, :], lam_abs[:, None], args.tol)
    pixels = palette[codes].tobytes()
    with _output(args.out, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels)


def _fringe_weight_indices(spec) -> range:
    """The descending edges j -> j - 1 that ``fringe`` prints: the last 32 of
    the adjoint kind, every edge inside a finite block, else the 32 edges
    above row j_min (or j_lo)."""
    if spec.kind is ShiftKind.UNILATERAL_ADJOINT:
        top = int(spec.j_max)
        return range(top - 31, top + 1)
    if spec.kind is ShiftKind.FINITE_NILPOTENT:
        return range(int(spec.j_min) + 1, int(spec.j_max) + 1)
    start = int(spec.j_min) if spec.j_min != -math.inf else spec.profile.j_lo
    return range(start + 1, start + 33)


def _cmd_fringe(profile: DiagramProfile, args) -> dict:
    spec = fringe_operator(profile, args.mu)
    bounds = ridge_bounds(spec, compute_params(profile))
    return {
        "kind": spec.kind.value,
        "mu_abs": args.mu,
        "weights_first_32": spec.weights(_fringe_weight_indices(spec)).tolist(),
        "ridge_bounds": bounds.to_json(),
    }


def _cmd_oracle_fringe(profile: DiagramProfile, args) -> dict:
    spec = fringe_operator(profile, args.mu)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise SpecError(
            f"--sizes: expected comma-separated integers, got {args.sizes!r}"
        ) from exc
    result = window_smin_scan(spec, args.lam, sizes, j_scan=args.j_scan)
    return {
        "mu_abs": args.mu,
        "lambda_abs": args.lam,
        "sizes": list(result.sizes),
        "smin_by_size": list(result.smin_by_size),
        "verdict": result.verdict.value,
    }


def _cmd_oracle_gamma2(profile: DiagramProfile, args) -> dict:
    verdict = gamma2_series_test(profile, args.mu, args.lam, args.terms, args.tol)
    return {
        "mu_abs": args.mu,
        "lambda_abs": args.lam,
        "classification": verdict.classification.value,
        "log10_partial_sums": [
            {"terms": n, "down_series": json_number(lo), "up_series": json_number(hi)}
            for n, lo, hi in verdict.log10_partial_sums
        ],
        "root_minus": json_number(verdict.root_minus),
        "root_plus": json_number(verdict.root_plus),
        "predicted_root_minus": json_number(verdict.predicted_root_minus),
        "predicted_root_plus": json_number(verdict.predicted_root_plus),
    }


def _cmd_oracle_t3(profile: DiagramProfile, args) -> dict:
    if args.window < 4:
        raise SpecError(
            f"--window must be >= 4 (the ladder probes window // 4, window // 2 "
            f"and window), got {args.window}"
        )
    i_c, j_c = profile.window[-1], profile.j_lo  # the centre moves with the diagram
    sizes = (args.window // 4, args.window // 2, args.window)
    halves = [max(size // 2, 1) for size in sizes]
    windows = [(i_c - h, i_c + h, j_c - h, j_c + h) for h in halves]
    check_lattice_window(windows[-1])  # the largest rung, before any solve
    ladder = [
        {"window": size, "smin": joint_adjoint_kernel_smin(profile, args.mu, args.lam, window)}
        for size, window in zip(sizes, windows)
    ]
    return {"mu_abs": args.mu, "lambda_abs": args.lam, "smin_ladder": ladder}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    # Each flag is declared once, on a parent, and each subcommand takes only
    # the flags it reads; --threads is read by none and stays accepted
    # everywhere for existing command lines.
    spec, tol, mu, lam, region_set, out = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    spec.add_argument("spec")
    spec.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility and ignored")
    tol.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="log-domain boundary tolerance (default 1e-12)")
    mu.add_argument("--mu", type=_magnitude, required=True, help="modulus or 're,im'")
    lam.add_argument("--lambda", dest="lam", type=_magnitude, required=True,
                     help="modulus or 're,im'")
    region_set.add_argument("--set", choices=SETS, default="taylor")
    out.add_argument("--out", required=True)

    def leaf(subparsers, name, func, summary, *parents) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, parents=[spec, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    parser = argparse.ArgumentParser(
        prog="stairspec",
        description="Taylor-spectrum calculator for staircase-diagram isometry pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaf(sub, "validate", _cmd_validate, "check a diagram spec")
    p = leaf(sub, "report", _cmd_report, "full spectral report", tol)
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for Monte Carlo sampling (default 0)")
    leaf(sub, "params", _cmd_params, "the six spectral parameters")
    leaf(sub, "member", _cmd_member, "tri-state point membership", tol, mu, lam, region_set)
    p = leaf(sub, "sample", _cmd_sample, "membership grid as CSV", tol, out)
    p.add_argument("--resolution", type=int, required=True)
    p = leaf(sub, "raster", _cmd_raster, "membership raster as binary PPM", tol, out, region_set)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    leaf(sub, "fringe", _cmd_fringe, "shift reduction at a magnitude", mu)

    oracle = sub.add_parser("oracle", help="numerical verification probes")
    sub_oracle = oracle.add_subparsers(dest="oracle_command", required=True)
    p = leaf(sub_oracle, "fringe", _cmd_oracle_fringe, "windowed smin scan", mu, lam)
    p.add_argument("--sizes", default="256,1024,4096")
    p.add_argument("--j-scan", type=int, default=64)
    p = leaf(sub_oracle, "gamma2", _cmd_oracle_gamma2, "series convergence probe", tol, mu, lam)
    p.add_argument("--terms", type=int, default=4096)
    p = leaf(sub_oracle, "t3", _cmd_oracle_t3, "joint adjoint-kernel witness", mu, lam)
    p.add_argument("--window", type=int, default=40)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = args.func(_load_profile(args.spec), args)
        if doc is not None:  # sample and raster write their file and print nothing
            try:
                json.dump(doc, sys.stdout, indent=2, sort_keys=True)
                sys.stdout.write("\n")
                sys.stdout.flush()
            except OSError as exc:
                # Python's recipe for a closed pipe: stdout points at devnull,
                # so the flush at shutdown writes nothing more.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise OutputError(f"standard output: {exc}") from exc
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except RegimeError as exc:
        print(f"numeric-regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME_ERROR
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

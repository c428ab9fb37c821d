"""Command-line interface: reports, membership queries, grids, and rasters.

Subcommands: validate | report | params | member | sample | raster | fringe |
oracle {fringe,gamma2,t3}.  Diagram specs are JSON documents; see the README
for the schema.  The exit code is the base class of the error that stops a
command: 0 ok, 2 for a ``SpecError`` (a malformed or invalid spec or probe
size), 3 for a ``RegimeError`` (a valid spec whose requested computation is
outside its numeric regime: a simple diagram asked for its parameters,
regions or fringe shift, ``fringe`` and ``oracle fringe`` included; a
magnitude out of range or NaN, a scan through non-finite rows, border
differences beyond float64, a window scan over its budget, a sparse
eigensolver that does not converge).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys

import numpy as np

from .diagram import (
    DiagramProfile,
    SpecParseError,
    profile_from_json,
    profile_to_json,
    validate,
)
from .extnum import DEFAULT_TOL, Membership, RegimeError, SpecError
from .oracle import (
    ProbeSizeError,
    gamma2_series_test,
    joint_adjoint_kernel_smin,
    window_smin_scan,
)
from .params import compute_params
from .regions import (
    CODE_STATES,
    RegionSpec,
    gamma2_region,
    gamma3_region,
    region_member,
    region_states,
    taylor_region,
    wold_case,
)
from .shifts import ShiftKind, fringe_operator, ridge_bounds

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_REGIME_ERROR = 3

COLOR_IN = (30, 30, 200)
COLOR_BOUNDARY = (240, 200, 40)
COLOR_OUT = (245, 245, 245)


def _load_profile(path: str) -> DiagramProfile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long an int, too deep
        raise SpecParseError(f"{path}: invalid JSON: {exc}") from exc
    return profile_from_json(doc)


def _parse_magnitude(text: str, name: str) -> float:
    """Accept a modulus like '0.5' or a complex point 're,im'."""
    try:
        if "," in text:
            re_part, im_part = text.split(",", 1)
            return abs(complex(float(re_part), float(im_part)))
        return abs(float(text))
    except ValueError as exc:
        raise SpecParseError(f"--{name}: expected a real or 're,im', got {text!r}") from exc


def _region_triple(profile: DiagramProfile) -> tuple[RegionSpec, RegionSpec, RegionSpec]:
    structure = validate(profile)
    params = compute_params(profile)  # refuses a simple diagram
    return (
        taylor_region(params),
        gamma2_region(params, structure),
        gamma3_region(params, structure),
    )


def _dump(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_validate(args) -> int:
    profile = _load_profile(args.spec)
    structure = validate(profile)
    _dump({"input": profile_to_json(profile), "structure": structure.to_json()})
    return EXIT_OK


def _area_fraction(region: RegionSpec, samples: int, seed: int, tol: float):
    rng = np.random.default_rng(seed)
    points = rng.random((samples, 2))
    codes = region_states(region, points[:, 0], points[:, 1], tol)
    inside = int(np.count_nonzero(codes == Membership.INSIDE.rank))
    fraction = inside / samples
    std_error = math.sqrt(max(fraction * (1.0 - fraction), 0.0) / samples)
    return fraction, std_error


def _cmd_report(args) -> int:
    if args.mc_samples < 1:
        raise SpecParseError(f"--mc-samples must be >= 1, got {args.mc_samples}")
    if args.seed < 0:
        raise SpecParseError(f"--seed must be >= 0, got {args.seed}")
    profile = _load_profile(args.spec)
    structure = validate(profile)
    doc = {"input": profile_to_json(profile), "structure": structure.to_json()}
    if structure.is_simple:
        doc["note"] = (
            "simple diagram: the pair is doubly commuting; spectral "
            "parameters and region bands are not reported"
        )
        _dump(doc)
        return EXIT_OK
    params = compute_params(profile)
    taylor = taylor_region(params)
    gamma2 = gamma2_region(params, structure)
    gamma3 = gamma3_region(params, structure)
    fraction, std_error = _area_fraction(taylor, args.mc_samples, args.seed, args.tol)
    doc["params"] = params.to_json()
    doc["taylor_band"] = {"p": str(taylor.bands[0][0]), "q": str(taylor.bands[0][1])}
    doc["gamma2"] = {
        "eta_minus": str(params.eta_minus),
        "eta_plus": str(params.eta_plus),
        "mu_axis_included": gamma2.include_mu_axis,
        "lambda_axis_included": gamma2.include_lambda_axis,
        "origin_included": True,
    }
    doc["gamma3"] = {
        "case": wold_case(structure).value,
        "bands": [
            {"upper_exp": str(p), "lower_exp": str(q)} for p, q in gamma3.bands
        ],
        "t_cross_disc": gamma3.include_t_cross_d,
        "disc_cross_t": gamma3.include_d_cross_t,
        "origin_included": gamma3.origin_included,
    }
    doc["area_fraction"] = {
        "estimate": fraction,
        "std_error": std_error,
        "samples": args.mc_samples,
        "seed": args.seed,
    }
    _dump(doc)
    return EXIT_OK


def _cmd_params(args) -> int:
    profile = _load_profile(args.spec)
    params = compute_params(profile)
    _dump(params.to_json())
    return EXIT_OK


def _cmd_member(args) -> int:
    profile = _load_profile(args.spec)
    taylor, gamma2, gamma3 = _region_triple(profile)
    region = {"taylor": taylor, "gamma2": gamma2, "gamma3": gamma3}[args.set]
    mu_abs = _parse_magnitude(args.mu, "mu")
    lam_abs = _parse_magnitude(args.lam, "lambda")
    result = region_member(region, mu_abs, lam_abs, args.tol)
    _dump(
        {
            "set": args.set,
            "mu_abs": mu_abs,
            "lambda_abs": lam_abs,
            "membership": result.state.value,
            "tol": result.tolerance_used,
        }
    )
    return EXIT_OK


def _grid_rows(profile: DiagramProfile, resolution: int, tol: float):
    """Rows (mu_abs, lambda_abs, taylor, gamma2, gamma3), |mu| outermost.

    The regions are evaluated before the first row is produced, so a
    rejected tolerance raises before the caller writes anything.
    """
    ticks = [k / (resolution - 1) for k in range(resolution)]
    axis = np.array(ticks)
    labels = np.array([state.value for state in CODE_STATES])
    columns = [
        labels[region_states(region, axis[:, None], axis[None, :], tol)].ravel().tolist()
        for region in _region_triple(profile)
    ]
    grid = itertools.product(ticks, ticks)
    return ((mu_abs, lam_abs, *states) for (mu_abs, lam_abs), *states in zip(grid, *columns))


def _cmd_sample(args) -> int:
    if args.resolution < 2:
        raise SpecParseError("--resolution must be >= 2")
    profile = _load_profile(args.spec)
    rows = _grid_rows(profile, args.resolution, args.tol)
    try:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["mu_abs", "lambda_abs", "taylor", "gamma2", "gamma3"])
            for row in rows:
                writer.writerow([f"{row[0]:.12g}", f"{row[1]:.12g}", *row[2:]])
    except OSError as exc:
        raise SpecParseError(f"{args.out}: {exc}") from exc
    return EXIT_OK


def _cmd_raster(args) -> int:
    if args.width < 16 or args.height < 16:
        raise SpecParseError("--width and --height must be >= 16")
    profile = _load_profile(args.spec)
    taylor, gamma2, gamma3 = _region_triple(profile)
    region = {"taylor": taylor, "gamma2": gamma2, "gamma3": gamma3}[args.set]
    width, height = args.width, args.height
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
    try:
        with open(args.out, "wb") as handle:
            handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
            handle.write(pixels)
    except OSError as exc:
        raise SpecParseError(f"{args.out}: {exc}") from exc
    return EXIT_OK


def _fringe_weight_indices(spec) -> range:
    if spec.kind is ShiftKind.UNILATERAL_ADJOINT:
        top = int(spec.j_max)
        return range(top - 31, top + 1)
    if spec.kind is ShiftKind.FINITE_NILPOTENT:
        return range(int(spec.j_min), int(spec.j_max))
    start = int(spec.j_min) if spec.j_min != -math.inf else spec.profile.j_lo
    return range(start, start + 32)


def _cmd_fringe(args) -> int:
    profile = _load_profile(args.spec)
    mu_abs = _parse_magnitude(args.mu, "mu")
    spec = fringe_operator(profile, mu_abs)
    bounds = ridge_bounds(spec, compute_params(profile))
    _dump(
        {
            "kind": spec.kind.value,
            "mu_abs": mu_abs,
            "weights_first_32": spec.weights(_fringe_weight_indices(spec)).tolist(),
            "ridge_bounds": bounds.to_json(),
        }
    )
    return EXIT_OK


def _cmd_oracle_fringe(args) -> int:
    profile = _load_profile(args.spec)
    mu_abs = _parse_magnitude(args.mu, "mu")
    lam_abs = _parse_magnitude(args.lam, "lambda")
    spec = fringe_operator(profile, mu_abs)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise SpecParseError(
            f"--sizes: expected comma-separated integers, got {args.sizes!r}"
        ) from exc
    result = window_smin_scan(spec, lam_abs, sizes, j_scan=args.j_scan)
    _dump(
        {
            "mu_abs": mu_abs,
            "lambda_abs": lam_abs,
            "sizes": list(result.sizes),
            "smin_by_size": list(result.smin_by_size),
            "verdict": result.verdict.value,
        }
    )
    return EXIT_OK


def _finite_or_str(x: float):
    return x if math.isfinite(x) else str(x)


def _cmd_oracle_gamma2(args) -> int:
    profile = _load_profile(args.spec)
    mu_abs = _parse_magnitude(args.mu, "mu")
    lam_abs = _parse_magnitude(args.lam, "lambda")
    verdict = gamma2_series_test(profile, mu_abs, lam_abs, args.terms, args.tol)
    _dump(
        {
            "mu_abs": mu_abs,
            "lambda_abs": lam_abs,
            "classification": verdict.classification.value,
            "log10_partial_sums": [
                {"terms": n, "down_series": _finite_or_str(lo), "up_series": _finite_or_str(hi)}
                for n, lo, hi in verdict.log10_partial_sums
            ],
            "root_minus": _finite_or_str(verdict.root_minus),
            "root_plus": _finite_or_str(verdict.root_plus),
            "predicted_root_minus": _finite_or_str(verdict.predicted_root_minus),
            "predicted_root_plus": _finite_or_str(verdict.predicted_root_plus),
        }
    )
    return EXIT_OK


def _cmd_oracle_t3(args) -> int:
    profile = _load_profile(args.spec)
    mu_abs = _parse_magnitude(args.mu, "mu")
    lam_abs = _parse_magnitude(args.lam, "lambda")
    if args.window < 4:
        raise ProbeSizeError(
            f"--window must be >= 4 (the ladder probes window // 4, window // 2 "
            f"and window), got {args.window}"
        )
    i_c, j_c = profile.window[-1], profile.j_lo  # the centre moves with the diagram
    ladder = []
    for size in (args.window // 4, args.window // 2, args.window):
        half = max(size // 2, 1)
        smin = joint_adjoint_kernel_smin(
            profile, mu_abs, lam_abs, (i_c - half, i_c + half, j_c - half, j_c + half)
        )
        ladder.append({"window": size, "smin": smin})
    _dump({"mu_abs": mu_abs, "lambda_abs": lam_abs, "smin_ladder": ladder})
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="log-domain boundary tolerance (default 1e-12)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for Monte Carlo sampling (default 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored")

    parser = argparse.ArgumentParser(
        prog="stairspec",
        description="Taylor-spectrum calculator for staircase-diagram isometry pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a diagram spec")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", parents=[common], help="full spectral report")
    p.add_argument("spec")
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("params", parents=[common], help="the six spectral parameters")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("member", parents=[common], help="tri-state point membership")
    p.add_argument("spec")
    p.add_argument("--mu", required=True, help="modulus or 're,im'")
    p.add_argument("--lambda", dest="lam", required=True, help="modulus or 're,im'")
    p.add_argument("--set", choices=["taylor", "gamma2", "gamma3"], default="taylor")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("sample", parents=[common], help="membership grid as CSV")
    p.add_argument("spec")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("raster", parents=[common], help="membership raster as binary PPM")
    p.add_argument("spec")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--set", choices=["taylor", "gamma2", "gamma3"], default="taylor")
    p.set_defaults(func=_cmd_raster)

    p = sub.add_parser("fringe", parents=[common], help="shift reduction at a magnitude")
    p.add_argument("spec")
    p.add_argument("--mu", required=True)
    p.set_defaults(func=_cmd_fringe)

    p_oracle = sub.add_parser("oracle", help="numerical verification probes")
    sub_oracle = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p = sub_oracle.add_parser("fringe", parents=[common], help="windowed smin scan")
    p.add_argument("spec")
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--sizes", default="256,1024,4096")
    p.add_argument("--j-scan", type=int, default=64)
    p.set_defaults(func=_cmd_oracle_fringe)

    p = sub_oracle.add_parser("gamma2", parents=[common], help="series convergence probe")
    p.add_argument("spec")
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--terms", type=int, default=4096)
    p.set_defaults(func=_cmd_oracle_gamma2)

    p = sub_oracle.add_parser("t3", parents=[common], help="joint adjoint-kernel witness")
    p.add_argument("spec")
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--window", type=int, default=40)
    p.set_defaults(func=_cmd_oracle_t3)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except RegimeError as exc:
        print(f"numeric-regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME_ERROR


if __name__ == "__main__":
    sys.exit(main())

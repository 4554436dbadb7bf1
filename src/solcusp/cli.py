"""Command-line interface.

Subcommands mirror the library stages:

    lattice        build a Sol cross section and verify its deck isometries
    build-warp     construct and validate the interpolated warping function
    verify-riemann match both curvature pipelines against the component table
    certify        bound sectional curvature over all planes on a t-grid
    volume         cusp volume: closed forms outside the transition
                   window, adaptive Gauss-Kronrod inside it
    run            full pipeline writing lattice/warp/riemann/certify/volume
                   reports plus a summary verdict

Exit codes: 0 success/certified, 1 bad input or internal error, 2 violation
witness found (including failed condition margins) or a command-line usage
error, 3 inconclusive (negativity margin below the floor).
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from .certify import CertificationReport, certify
from .curvature import match_component_table
from .lattice import AnosovMatrix, build_sol_lattice, cross_section_volume
from .serialize import to_json_text, write_csv_text
from .volume import QuadratureError, cusp_volume
from .warp import (
    FAMILIES,
    GRID_STEP,
    InterpolationError,
    condition_margins,
    regimes,
    validation_grid,
    warp_from_name,
)

_STATUS_CODES = {
    "certified": 0,
    "violation": 2,
    "refused_conditions": 2,
    "inconclusive": 3,
}

_DEFAULT_CONFIG = {
    "matrix": [2, 1, 1, 1],
    "warp": {"family": "interpolated", "t0": -4.0, "t1": -1.0},
    "riemann": {"t_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
                "z_grid": [-1.0, -0.5, 0.0, 0.5, 1.0]},
    "certify": {"t_min": -6.0, "t_max": 10.0, "t_step": 0.05},
    "volume": {"t0": 0.0, "tol": 1e-10},
}


def _merge_config(base: dict, override, path: str = "") -> dict:
    if not isinstance(override, dict):
        where = f"config field {path}" if path else "the config"
        raise ValueError(f"{where} must be an object")
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"unknown config field: {where}")
        if isinstance(base[key], dict):
            merged[key] = _merge_config(base[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _emit(args, payload: dict, filename: str) -> None:
    text = to_json_text(payload)
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / filename).write_text(text)
    sys.stdout.write(text)


def _lattice_payload(A: AnosovMatrix) -> dict:
    lat = build_sol_lattice(A)
    return {
        "matrix": [A.a, A.b, A.c, A.d],
        "stretch": lat.stretch,
        "basis": lat.basis.tolist(),
        "generators": [
            {"linear": m.linear.tolist(), "offset": m.offset.tolist()}
            for m in lat.generators
        ],
        "volume": cross_section_volume(lat),
        "max_isometry_deviation": lat.isometry_deviation,
    }


def cmd_lattice(args) -> int:
    a, b, c, d = (int(v) for v in args.matrix.split(","))
    _emit(args, _lattice_payload(AnosovMatrix(a, b, c, d)), "lattice.json")
    return 0


def _warp_payload(warp) -> dict:
    margins = condition_margins(warp, validation_grid(warp))
    payload = {
        "family": warp.family,
        "min_margins": dict(zip("abcd", map(float, margins.min(axis=0)))),
        "grid_step": GRID_STEP,
    }
    lo, hi = regimes(warp)
    if np.isfinite(lo):
        payload["T0"] = lo
        payload["T1"] = hi
    return payload


def _warp_csv(warp) -> str:
    grid = validation_grid(warp)
    f, fp, fpp = warp.eval(grid)
    margins = condition_margins(warp, grid)
    rows = [
        (t, fi, fpi, fppi, *m)
        for t, fi, fpi, fppi, m in zip(grid, f, fp, fpp, margins)
    ]
    return write_csv_text(
        ["t", "f", "fp", "fpp", "margin_a", "margin_b", "margin_c", "margin_d"],
        rows,
    )


def cmd_build_warp(args) -> int:
    warp = warp_from_name("interpolated", args.t0, args.t1)
    _emit(args, _warp_payload(warp), "warp.json")
    if args.csv:
        Path(args.csv).write_text(_warp_csv(warp))
    return 0


def _parse_grid(spec: str) -> list[float]:
    lo, hi, count = spec.split(":")
    return list(np.linspace(float(lo), float(hi), int(count)))


def _riemann_payload(warp, t_grid, z_grid) -> dict:
    points = [(t, z) for t in t_grid for z in z_grid]
    report = match_component_table(warp, points)
    return {
        "index_map": {str(k): v for k, v in report.index_map.items()},
        "sign": report.sign,
        "max_residual": report.max_residual,
        "per_component_max_residual": report.per_component,
        "pipeline_agreement": report.pipeline_agreement,
        "bianchi_residual": report.bianchi_residual,
        "extra_nonzero_components": report.extra_components,
    }


def cmd_verify_riemann(args) -> int:
    warp = warp_from_name(args.warp, args.warp_t0, args.warp_t1)
    payload = _riemann_payload(
        warp, _parse_grid(args.t_grid), _parse_grid(args.z_grid)
    )
    _emit(args, payload, "riemann.json")
    return 0


def _certify_payload(report: CertificationReport) -> dict:
    return {
        "status": report.status,
        "global_negative": report.global_negative,
        "max_k": report.max_k,
        "pinched_from": report.pinched_from,
        "scale": report.scale,
        "floor": report.floor,
        "flagged_points": report.flagged_points,
        "witness": report.witness,
        "tail_notes": report.tail_notes,
        "config": report.config,
        "n_grid": int(len(report.grid)),
    }


def _certify_csv(report: CertificationReport) -> str:
    return write_csv_text(
        ["t", "k_min", "k_max", "margin_a", "margin_b", "margin_c",
         "margin_d", "method_agreement"],
        report.curve_rows(),
    )


def cmd_certify(args) -> int:
    warp = warp_from_name(args.warp, args.warp_t0, args.warp_t1)
    report = certify(warp, (args.t_min, args.t_max), args.step)
    _emit(args, _certify_payload(report), "certify.json")
    if args.csv:
        Path(args.csv).write_text(_certify_csv(report))
    return _STATUS_CODES[report.status]


def _volume_payload(warp, vol_c: float, t0: float, tol: float) -> dict:
    res = cusp_volume(warp, vol_c, t0, tol)
    return {"integral": res.integral, "total": res.total}


def cmd_volume(args) -> int:
    warp = warp_from_name(args.warp, args.warp_t0, args.warp_t1)
    payload = _volume_payload(warp, args.vol_c, args.t0, args.tol)
    _emit(args, payload, "volume.json")
    return 0


def cmd_run(args) -> int:
    file_cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    config = _merge_config(_DEFAULT_CONFIG, file_cfg)
    outdir = Path(args.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, payload: dict) -> None:
        (outdir / name).write_text(to_json_text(payload))

    summary = {"config": config, "status": "incomplete"}
    try:
        A = AnosovMatrix(*config["matrix"])
        lattice_payload = _lattice_payload(A)
        write("lattice.json", lattice_payload)
        vol_c = lattice_payload["volume"]

        wc = config["warp"]
        warp = warp_from_name(wc["family"], wc["t0"], wc["t1"])
        write("warp.json", _warp_payload(warp))

        rc = config["riemann"]
        riemann_payload = _riemann_payload(warp, rc["t_grid"], rc["z_grid"])
        write("riemann.json", riemann_payload)

        cc = config["certify"]
        report = certify(warp, (cc["t_min"], cc["t_max"]), cc["t_step"])
        write("certify.json", _certify_payload(report))
        (outdir / "certify.csv").write_text(_certify_csv(report))

        vc = config["volume"]
        vol = _volume_payload(warp, vol_c, vc["t0"], vc["tol"])
        write("volume.json", vol)

        summary = {
            "config": config,
            "status": report.status,
            "verdict": {
                "riemann_table_matched": riemann_payload["max_residual"] <= 1e-5
                and not riemann_payload["extra_nonzero_components"],
                "conditions_hold": bool(np.all(report.margins > 0.0)),
                "globally_negative": report.global_negative,
                "pinched_from": report.pinched_from,
                "scale": report.scale,
                "total_volume": vol["total"],
            },
        }
        write("summary.json", summary)
        sys.stdout.write(to_json_text(summary))
        return _STATUS_CODES[report.status]
    except Exception as exc:
        summary["error"] = f"{type(exc).__name__}: {exc}"
        summary["status"] = "error"
        write("summary.json", summary)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _add_warp_flags(sub, default="shifted-exp") -> None:
    sub.add_argument("--warp", default=default, choices=list(FAMILIES))
    sub.add_argument("--warp-t0", dest="warp_t0", type=float, default=-4.0,
                     help="transition start (interpolated warp)")
    sub.add_argument("--warp-t1", dest="warp_t1", type=float, default=-1.0,
                     help="transition end (interpolated warp)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solcusp",
        description="Certify the negatively curved Sol-cusp metric numerically.",
    )
    parser.add_argument("--config", default=None, help="JSON config file (run)")
    parser.add_argument("--output", default=None, help="directory for report files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="Sol cross-section from an Anosov matrix")
    p.add_argument("--matrix", default="2,1,1,1", help="a,b,c,d entries")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("build-warp", help="validated interpolated warp")
    p.add_argument("--t0", type=float, default=-4.0)
    p.add_argument("--t1", type=float, default=-1.0)
    p.add_argument("--csv", default=None, help="also write per-t curve CSV here")
    p.set_defaults(fn=cmd_build_warp)

    p = sub.add_parser("verify-riemann", help="match the curvature component table")
    _add_warp_flags(p)
    p.add_argument("--t-grid", default="-2:2:5", help="lo:hi:count")
    p.add_argument("--z-grid", default="-1:1:5", help="lo:hi:count")
    p.set_defaults(fn=cmd_verify_riemann)

    p = sub.add_parser("certify", help="bound sectional curvature over a grid")
    _add_warp_flags(p, default="interpolated")
    p.add_argument("--t-min", type=float, default=-6.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--csv", default=None, help="write the bounds curve CSV here")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("volume", help="cusp volume, closed form outside the window")
    _add_warp_flags(p)
    p.add_argument("--vol-c", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("run", help="full pipeline with report files")
    p.set_defaults(fn=cmd_run)

    # no prefix matching: a removed flag such as --h must fail, not parse as --help
    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None and args.command != "run":
        parser.error("--config applies to run only")
    try:
        return args.fn(args)
    except (ValueError, OSError, InterpolationError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

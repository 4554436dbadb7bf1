"""Command-line interface.

Subcommands mirror the library stages:

    lattice        build a Sol cross section and verify its deck isometries
    build-warp     construct and validate the interpolated warping function
    verify-riemann match both curvature pipelines against the component table
    certify        certify negative, pinched curvature from the proofs, and
                   bound it over all planes on a t-grid as evidence
    volume         cusp volume: closed forms outside the transition
                   window, the tanh-sinh rule inside it
    run            full pipeline writing lattice/warp/riemann/certify/volume
                   reports plus a summary verdict

Exit codes: 0 success/certified, 1 bad input or internal error (also a
pure-exp run, which has no cusp), 2 refused (a pure-exp grid reaching
t >= 0) or a command-line usage error.  Every interpolated window is built
through ``build_interpolation``, which widens it until the window proof
covers it, so no command refuses a window; only the library's ``certify``
does, on an ``Interpolated`` built directly.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .certify import CertificationReport, certify
from .curvature import MAX_MATCH_POINTS, match_component_table
from .lattice import AnosovMatrix, build_sol_lattice, cross_section_volume
from .serialize import to_json_text, write_csv_text
from .volume import QuadratureError, cusp_volume
from .warp import FAMILIES, PureExp, condition_margins, validation_grid, warp_from_name

_STATUS_CODES = {"certified": 0, "refused_conditions": 2}

_DEFAULT_CONFIG = {
    "matrix": [2, 1, 1, 1],
    "warp": {"family": "interpolated", "t0": -4.0, "t1": -1.0},
    "riemann": {"t_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
                "z_grid": [-1.0, -0.5, 0.0, 0.5, 1.0]},
    "certify": {"t_min": -6.0, "t_max": 10.0, "t_step": 0.05},
    "volume": {"t0": 0.0, "tol": 1e-10},
}


def _check_leaf(default, value, where: str) -> None:
    """Refuse a config value without its default's type: a string for a
    string; an int or a float (not a bool) within the float range, or any
    int for an int; a list of such numbers, nonempty, four for the matrix."""
    if isinstance(default, list):
        four = type(default[0]) is int
        kind = "a list of four integers a,b,c,d" if four else "a nonempty list"
        ok = isinstance(value, list) and (len(value) == 4 if four else len(value) > 0)
    elif isinstance(default, str):
        kind, ok = "a string", isinstance(value, str)
    else:
        kind = "a finite number"
        ok = (type(value) is int and type(default) is int
              or type(value) in (int, float) and abs(value) <= sys.float_info.max)
    if not ok:
        raise ValueError(f"config field {where} must be {kind}, got {json.dumps(value)}")
    if isinstance(default, list):
        for i, item in enumerate(value):
            _check_leaf(default[0], item, f"{where}[{i}]")


def _merge_config(base: dict, override, path: str = "") -> dict:
    if not isinstance(override, dict):
        where = f"config field {path}" if path else "the config"
        raise ValueError(f"{where} must be an object")
    merged = {}
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"unknown config field: {where}")
        if isinstance(base[key], dict):
            merged[key] = _merge_config(base[key], value, where)
        else:
            _check_leaf(base[key], value, where)
            merged[key] = copy.deepcopy(value)
    # in base's key order; each default not overridden is copied once
    return {key: merged[key] if key in merged else copy.deepcopy(value)
            for key, value in base.items()}


def _emit(args, payload: dict, filename: str) -> None:
    text = to_json_text(payload)
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / filename).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _lattice_payload(A: AnosovMatrix) -> dict:
    lat = build_sol_lattice(A)
    return {
        "matrix": [A.a, A.b, A.c, A.d],
        "stretch": lat.stretch,
        "basis": lat.basis.tolist(),
        "generators": [
            # lattice.json keeps each deck map's linear part as 3x3 rows
            {"linear": np.diag(m.diagonal).tolist(), "offset": m.offset.tolist()}
            for m in lat.generators
        ],
        "volume": cross_section_volume(lat),
        "max_isometry_deviation": lat.isometry_deviation,
    }


def cmd_lattice(args) -> int:
    try:
        a, b, c, d = (int(v) for v in args.matrix.split(","))
    except ValueError:
        raise ValueError(f"matrix {args.matrix!r} must be four integers a,b,c,d") from None
    _emit(args, _lattice_payload(AnosovMatrix(a, b, c, d)), "lattice.json")
    return 0


def _warp_entry(warp) -> dict:
    """The warp's family and, for a finite window, the window (T0, T1) in use:
    warp.json, and the "warp" entry of the standalone reports."""
    entry = {"family": warp.family}
    if np.isfinite(warp.t_lo):
        entry["T0"] = warp.t_lo
        entry["T1"] = warp.t_hi
    return entry


def cmd_build_warp(args) -> int:
    warp = warp_from_name("interpolated", args.t0, args.t1)
    if args.csv:  # built before any output: a refused grid writes nothing
        grid = validation_grid(warp)
        values = warp.eval(grid)
        csv = write_csv_text(
            ["t", "f", "fp", "fpp", "margin_a", "margin_b", "margin_c", "margin_d"],
            np.column_stack((grid, *values, condition_margins(warp, grid, values))),
        )
    _emit(args, _warp_entry(warp), "warp.json")
    if args.csv:
        Path(args.csv).write_text(csv)
    return 0


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        ok = count >= 1 and np.isfinite([lo, hi]).all()
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"grid {spec!r} must be lo:hi:count, with finite grid ends "
                         "lo and hi and an integer count >= 1")
    if count > MAX_MATCH_POINTS:
        raise ValueError(f"grid {spec!r} has more than {MAX_MATCH_POINTS} points")
    return list(np.linspace(lo, hi, count))


def _riemann_payload(warp, t_grid, z_grid) -> dict:
    if len(t_grid) * len(z_grid) > MAX_MATCH_POINTS:
        raise ValueError(f"{len(t_grid)} x {len(z_grid)} Riemann-match points exceed "
                         f"the bound of {MAX_MATCH_POINTS}")
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
    # run names the warp in warp.json; standalone, the report names it
    payload["warp"] = _warp_entry(warp)
    _emit(args, payload, "riemann.json")
    return 0


def _certify_payload(report: CertificationReport) -> dict:
    return {
        "status": report.status,
        # repeats status; perfbench/workloads.py reads it
        "global_negative": report.status == "certified",
        "max_k": report.max_k,
        "pinched_from": report.pinched_from,
        "scale": report.scale,
        "flagged_points": report.flagged_points,
        "witness": report.witness,
        "config": report.config,
        "n_grid": int(len(report.grid)),
    }


def _certify_csv(report: CertificationReport) -> str:
    return write_csv_text(
        ["t", "k_min", "k_max", "margin_a", "margin_b", "margin_c",
         "margin_d", "block_min", "block_max"],
        report.curve_rows(),
    )


def cmd_certify(args) -> int:
    warp = warp_from_name(args.warp, args.warp_t0, args.warp_t1)
    report = certify(warp, (args.t_min, args.t_max), args.step)
    payload = _certify_payload(report)
    payload["warp"] = _warp_entry(warp)
    _emit(args, payload, "certify.json")
    if args.csv:
        Path(args.csv).write_text(_certify_csv(report))
    return _STATUS_CODES[report.status]


def _volume_payload(warp, vol_c: float, t0: float, tol: float) -> dict:
    res = cusp_volume(warp, vol_c, t0, tol)
    return {"integral": res.integral, "total": res.total}


def cmd_volume(args) -> int:
    warp = warp_from_name(args.warp, args.warp_t0, args.warp_t1)
    payload = _volume_payload(warp, args.vol_c, args.t0, args.tol)
    payload["warp"] = _warp_entry(warp)
    _emit(args, payload, "volume.json")
    return 0


def cmd_run(args) -> int:
    outdir = Path(args.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, payload: dict) -> str:
        (outdir / name).write_text(text := to_json_text(payload), encoding="utf-8")
        return text

    # a config that cannot be read or parsed is reported as null, one that does
    # not merge as read
    summary = {"config": None, "status": "incomplete"}
    try:
        try:
            # JSON is UTF-8 whatever the locale: bytes in, and every report written as UTF-8
            raw = Path(args.config).read_bytes() if args.config else b"{}"
            summary["config"] = file_cfg = json.loads(raw)
        except (OSError, ValueError, RecursionError) as exc:
            raise ValueError(f"config {args.config}: {exc}") from None
        summary["config"] = config = _merge_config(_DEFAULT_CONFIG, file_cfg)
        # the three claims share one cusp [t0, inf), which the pinching must cover
        if config["warp"]["family"] == PureExp.family:
            raise ValueError("warp pure-exp has no cusp: it is negatively curved only for "
                             "t < 0, so no [t0, inf) carries all three claims")
        A = AnosovMatrix(*config["matrix"])
        lattice_payload = _lattice_payload(A)
        write("lattice.json", lattice_payload)
        vol_c = lattice_payload["volume"]

        wc = config["warp"]
        warp = warp_from_name(wc["family"], wc["t0"], wc["t1"])
        write("warp.json", _warp_entry(warp))

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
                # K < 0 iff margins a, c and d hold: one proved claim
                "conditions_hold": report.status == "certified",
                "globally_negative": report.status == "certified",
                "pinched_from": report.pinched_from,
                "scale": report.scale,
                "total_volume": vol["total"],
            },
        }
        sys.stdout.write(write("summary.json", summary))
        return 0  # pure-exp was refused above; every other warp run builds is certified
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``main`` finds each ``cmd_*`` by name."""
    parser = argparse.ArgumentParser(
        prog="solcusp",
        description="Certify the negatively curved Sol-cusp metric numerically.",
    )
    parser.add_argument("--config", default=None, help="JSON config file (run)")
    parser.add_argument("--output", default=None, help="directory for report files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="Sol cross-section from an Anosov matrix")
    p.add_argument("--matrix", default="2,1,1,1", help="a,b,c,d entries")

    p = sub.add_parser("build-warp", help="validated interpolated warp")
    p.add_argument("--t0", type=float, default=-4.0)
    p.add_argument("--t1", type=float, default=-1.0)
    p.add_argument("--csv", default=None, help="also write per-t curve CSV here")

    p = sub.add_parser("verify-riemann", help="match the curvature component table")
    _add_warp_flags(p)
    p.add_argument("--t-grid", default="-2:2:5", help="lo:hi:count")
    p.add_argument("--z-grid", default="-1:1:5", help="lo:hi:count")

    p = sub.add_parser("certify", help="certify negative, pinched curvature; a grid as evidence")
    _add_warp_flags(p, default="interpolated")
    p.add_argument("--t-min", type=float, default=-6.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--csv", default=None, help="write the bounds curve CSV here")

    p = sub.add_parser("volume", help="cusp volume, closed form outside the window")
    _add_warp_flags(p)
    p.add_argument("--vol-c", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-10)

    sub.add_parser("run", help="full pipeline with report files")

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
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

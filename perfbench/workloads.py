"""The benchmark's workloads: seeded inputs, one timed iteration, output checks.

Each workload is a ``Workload`` of three functions:

* ``generate(rng, workdir)`` builds every input from the seeded generator;
* ``run(inputs, index)`` is one timed iteration through solcusp's public API
  and returns what it produced, still unchecked;
* ``check(inputs, output, tally, state)`` compares that output with the
  references in ``reference.py`` and counts items and failures.

The program modules are looked up in ``sys.modules`` at call time, so that
the tracer's wrappers are the functions called while it is installed
(``solcusp.certify`` itself names the function, not the module).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference

ELEMENTARY = (np.array([[1, 0], [1, 1]]), np.array([[1, 1], [0, 1]]))


def module(name: str):
    return sys.modules[f"solcusp.{name}"]


@dataclass
class Tally:
    """Items checked, items failed and report claims a reference contradicts."""

    items: int = 0
    failed: int = 0
    false_claims: int = 0
    problems: list[str] = field(default_factory=list)

    def item(self, ok: bool, what: str, count: int = 1) -> None:
        self.items += count
        if not ok:
            self.failed += count
            self.problems.append(what)


@dataclass(frozen=True)
class Workload:
    generate: Callable
    run: Callable
    check: Callable


def anosov_word(rng, max_len: int) -> list[int]:
    """Entries of +-(product of a random word in the two elementary matrices).

    Words that use both letters give a positive matrix, so |trace| > 2.
    """
    while True:
        letters = rng.integers(0, 2, int(rng.integers(2, max_len + 1)))
        if 0 < letters.sum() < letters.size:
            break
    m = np.eye(2, dtype=np.int64)
    for k in letters:
        m = m @ ELEMENTARY[k]
    sign = 1 if rng.random() < 0.5 else -1
    return [sign * int(v) for v in m.ravel()]


def close(got, want, rel: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want))))


def volume_ok(integral, total, vol_c, ref, tol) -> bool:
    """cusp_volume promises an integral within tol of the improper one."""
    return abs(integral - ref) <= tol and close(total, vol_c * integral, 1e-14)


# ---------------------------------------------------------------------------
# certify-run: the full `solcusp run` pipeline from a config file
# ---------------------------------------------------------------------------

CERTIFY_STEP = 0.5
CERTIFY_SPAN = 16.0           # 33 grid points at CERTIFY_STEP
PINCH_PROBES = (12.0, 20.0, 40.0)
K_TOL = 1e-9
REPORTS = ("lattice.json", "warp.json", "riemann.json", "certify.json",
           "certify.csv", "volume.json", "summary.json")


def certify_generate(rng, workdir):
    t_min = -6.0 + float(rng.uniform(-0.25, 0.25))
    # only fields the roadmap keeps; sampling budget, seed and jobs stay default
    config = {
        "matrix": anosov_word(rng, 4),
        "warp": {"t0": -4.0 + float(rng.uniform(-0.5, 0.5)),
                 "t1": -1.0 + float(rng.uniform(-0.5, 0.5))},
        "riemann": {"t_grid": sorted(float(v) for v in rng.uniform(-2.0, 2.0, 5)),
                    "z_grid": sorted(float(v) for v in rng.uniform(-1.0, 1.0, 5))},
        "certify": {"t_min": t_min, "t_max": t_min + CERTIFY_SPAN,
                    "t_step": CERTIFY_STEP},
        "volume": {"t0": float(rng.uniform(-0.5, 0.5)), "tol": 1e-10},
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    return {"config": config, "path": path, "workdir": workdir}


def certify_run(inputs, index):
    outdir = inputs["workdir"] / f"reports-{index}"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = module("cli").main(
            ["--config", str(inputs["path"]), "--output", str(outdir), "run"])
    return {"rc": rc, "outdir": outdir}


def _check_reports(config, reports, tally):
    """Check one set of the seven reports against the references."""
    window = tuple(json.loads(reports["warp.json"])[k] for k in ("T0", "T1"))
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in reports["certify.csv"].decode().splitlines()[1:]])
    t, k_min, k_max = rows[:, 0], rows[:, 1], rows[:, 2]
    ref_min, ref_max = reference.curvature_extremes(*reference.warp_f(t, window))
    cc = config["certify"]
    grid = np.arange(cc["t_min"], cc["t_max"] + cc["t_step"] / 2, cc["t_step"])
    tally.item(t.size == grid.size and close(t, grid, 1e-12), "certify grid", 1)
    for i in range(min(t.size, grid.size)):
        tally.item(close(k_min[i], ref_min[i], K_TOL) and close(k_max[i], ref_max[i], K_TOL),
                   f"k extremes at t={t[i]!r}")

    cert = json.loads(reports["certify.json"])
    summary = json.loads(reports["summary.json"])
    verdict = summary["verdict"]
    lat = json.loads(reports["lattice.json"])
    vol = json.loads(reports["volume.json"])
    rie = json.loads(reports["riemann.json"])

    vol_ref = reference.stretch(config["matrix"])
    tally.item(lat["max_isometry_deviation"] <= 1e-12 and close(lat["volume"], vol_ref, 1e-12),
               "lattice report")
    vc = config["volume"]
    integral = reference.cusp_integral(window, vc["t0"])
    tally.item(volume_ok(vol["integral"], vol["total"], lat["volume"], integral, vc["tol"]),
               "volume report")
    rc = config["riemann"]
    tally.item(rie["max_residual"] <= 1e-5 and not rie["extra_nonzero_components"]
               and rie["index_map"] == {str(k): v for k, v in reference.EXPECTED_INDEX_MAP.items()}
               and rie["sign"] == reference.EXPECTED_SIGN,
               "riemann report", len(rc["t_grid"]) * len(rc["z_grid"]))
    negative = bool(np.all(ref_max < 0.0))
    tally.item(summary["status"] == "certified" == cert["status"] and negative
               and verdict["riemann_table_matched"] and verdict["conditions_hold"]
               and verdict["globally_negative"] and verdict["scale"] == cert["scale"]
               and verdict["total_volume"] == vol["total"],
               "summary verdict")

    # claims: K < 0 on the grid, and k_min / lambda^2 in (-1, 0) on
    # (pinched_from, inf) -- probed on the grid and past its end
    if cert["global_negative"]:
        tally.false_claims += int(not negative)
    lam2 = cert["scale"] ** 2
    pinched_from = cert["pinched_from"]
    if isinstance(pinched_from, (int, float)):
        on = t >= pinched_from
        tally.false_claims += int(np.sum(on & ((ref_min / lam2 <= -1.0) | (ref_max / lam2 >= 0.0))))
        probes = np.array([p for p in PINCH_PROBES if p >= pinched_from])
        if probes.size:
            pmin, pmax = reference.curvature_extremes(*reference.warp_f(probes, window))
            tally.false_claims += int(np.sum((pmin / lam2 <= -1.0) | (pmax / lam2 >= 0.0)))


def certify_check(inputs, output, tally, state):
    outdir = output["outdir"]
    tally.item(output["rc"] == 0, f"exit code {output['rc']}")
    try:
        reports = {name: (outdir / name).read_bytes() for name in REPORTS}
    except OSError as exc:
        tally.item(False, f"missing report: {exc}")
        return
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    first = state.setdefault("reports", reports)
    if first is not reports:
        tally.item(reports == first, "reports differ between same-seed iterations")
        if reports == first:
            return
    _check_reports(inputs["config"], reports, tally)


# ---------------------------------------------------------------------------
# riemann-match: component-table matching for the three warp families
# ---------------------------------------------------------------------------

RIEMANN_POINTS = 441
RESIDUAL_MAX = 1e-5


def riemann_generate(rng, workdir):
    warp = module("warp")
    lo = float(rng.uniform(-2.5, -1.5))
    hi = float(rng.uniform(-0.9, -0.3))
    cases = []
    for w in (warp.PureExp(), warp.ShiftedExp(), warp.Interpolated(lo, hi)):
        t = rng.uniform(-3.0, 3.0, RIEMANN_POINTS)
        z = rng.uniform(-1.0, 1.0, RIEMANN_POINTS)
        cases.append((w, [(float(a), float(b)) for a, b in zip(t, z)]))
    return {"cases": cases}


def riemann_run(inputs, index):
    match = module("curvature").match_component_table
    return [match(w, points) for w, points in inputs["cases"]]


def riemann_check(inputs, output, tally, state):
    # a report covers all its points, so a failed call fails every point
    for (w, points), rep in zip(inputs["cases"], output):
        ok = (rep.index_map == reference.EXPECTED_INDEX_MAP
              and rep.sign == reference.EXPECTED_SIGN
              and rep.max_residual <= RESIDUAL_MAX
              and not rep.extra_components)
        tally.item(ok, f"riemann match for {w.family}: map {rep.index_map}, sign {rep.sign}, "
                       f"residual {rep.max_residual:.3e}, {len(rep.extra_components)} extra",
                   len(points))


# ---------------------------------------------------------------------------
# volume-scan: lattices, interpolation windows, margins and cusp volumes
# ---------------------------------------------------------------------------

VOLUME_CASES = 200
MARGIN_STEP = 1e-4
MARGIN_PROBES = 64


def _volume_tol(t0: float) -> float:
    # absolute tolerance scaled with the integral's size, e^-3t0 / 3
    return 1e-10 * max(1.0, float(np.exp(-3.0 * t0)))


def volume_generate(rng, workdir):
    cases = []
    for _ in range(VOLUME_CASES):
        hi = float(rng.uniform(-1.5, -0.3))
        width = float(rng.uniform(0.2, 3.0))   # narrow windows get widened
        t0s = (float(rng.uniform(-3.0, -1.0)), float(rng.uniform(0.0, 1.0)))
        cases.append({
            "matrix": anosov_word(rng, 10),
            "window": (hi - width, hi),
            "volumes": [(t0, _volume_tol(t0)) for t0 in t0s],
            "probes": rng.random(MARGIN_PROBES),
        })
    return {"cases": cases}


def volume_run(inputs, index):
    lattice, warp, volume = module("lattice"), module("warp"), module("volume")
    outputs = []
    for case in inputs["cases"]:
        try:
            lat = lattice.build_sol_lattice(lattice.AnosovMatrix(*case["matrix"]))
            samples = lattice.default_samples()
            dev = max(lattice.verify_isometry(m, samples) for m in lat.generators)
            vol_c = lattice.cross_section_volume(lat)
            w = warp.build_interpolation(*case["window"])
            grid = np.arange(w.t_lo - 2.0, 1.0 + MARGIN_STEP / 2, MARGIN_STEP)
            margins = warp.condition_margins(w, grid)
            idx = (case["probes"] * grid.size).astype(int)
            vols = [volume.cusp_volume(w, vol_c, t0, tol) for t0, tol in case["volumes"]]
        except Exception as exc:  # a failing case is counted, the scan goes on
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        outputs.append({
            "stretch": lat.stretch, "deviation": dev, "vol_c": vol_c,
            "window": (w.t_lo, w.t_hi), "margin_min": float(margins.min()),
            "probe_t": grid[idx], "probe_margins": margins[idx],
            "volumes": [(v.integral, v.total) for v in vols],
        })
    return outputs


def volume_check(inputs, output, tally, state):
    integrals = state.setdefault("integrals", {})
    for n, (case, out) in enumerate(zip(inputs["cases"], output)):
        if "error" in out:
            tally.item(False, f"case {n}: {out['error']}")
            continue
        lo, hi = case["window"]
        window = out["window"]
        widened = (window[1] - window[0]) / (hi - lo)
        stretch = reference.stretch(case["matrix"])
        wrong = [what for what, ok in (
            ("stretch", close(out["stretch"], stretch, 1e-12)),
            ("isometry deviation", out["deviation"] <= 1e-12),
            ("cross-section volume", close(out["vol_c"], stretch, 1e-12)),
            ("widened window", window[1] == hi
             and abs(np.log2(widened) - round(np.log2(widened))) < 1e-9),
            ("margin sign", out["margin_min"] > 0.0),
            ("probe margins", close(out["probe_margins"],
                                    reference.margins(*reference.warp_f(out["probe_t"], window)),
                                    1e-9)),
        ) if not ok]
        for (t0, tol), (integral, total) in zip(case["volumes"], out["volumes"]):
            key = (window, t0)
            if key not in integrals:
                integrals[key] = reference.cusp_integral(window, t0)
            ref = integrals[key]
            if not volume_ok(integral, total, out["vol_c"], ref, tol):
                wrong.append(f"cusp volume from t0={t0!r}: integral {integral!r}, "
                             f"reference {ref!r}, error {integral - ref:.3e}, tol {tol:.3e}")
        tally.item(not wrong, f"case {n}: matrix {case['matrix']}, window {case['window']}, "
                              f"widened to {window}: " + "; ".join(wrong))


# ---------------------------------------------------------------------------
# layer-scan: one riemann-match and one volume-scan per iteration
# ---------------------------------------------------------------------------

def layer_generate(rng, workdir):
    return {"riemann": riemann_generate(rng, workdir), "volume": volume_generate(rng, workdir)}


def layer_run(inputs, index):
    return {"riemann": riemann_run(inputs["riemann"], index),
            "volume": volume_run(inputs["volume"], index)}


def layer_check(inputs, output, tally, state):
    riemann_check(inputs["riemann"], output["riemann"], tally, state)
    volume_check(inputs["volume"], output["volume"], tally, state)


WORKLOADS = {
    "certify-run": Workload(certify_generate, certify_run, certify_check),
    "layer-scan": Workload(layer_generate, layer_run, layer_check),
}

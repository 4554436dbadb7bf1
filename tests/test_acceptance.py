"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 runs the default 321-point certification grid; every
witness plane must attain its extreme eigenvalue to 1e-12.
"""

import filecmp
import json
import time

import numpy as np

from solcusp.certify import certify, extremize_k
from solcusp.cli import main as cli_main
from solcusp.curvature import (
    match_component_table,
    metric_at,
    riemann_closed,
    riemann_fd,
)
from solcusp.lattice import (
    AnosovMatrix,
    build_sol_lattice,
    cross_section_volume,
    default_samples,
    verify_isometry,
)
from solcusp.volume import cusp_volume
from solcusp.warp import (
    Interpolated,
    PureExp,
    ShiftedExp,
    build_interpolation,
    condition_margins,
)

GRID_5X5 = [(t, z) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)
            for z in (-1.0, -0.5, 0.0, 0.5, 1.0)]


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {number}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_riemann_table_match():
    start = time.monotonic()
    rep = match_component_table(ShiftedExp(), GRID_5X5)
    elapsed = time.monotonic() - start
    ok = (
        rep.max_residual <= 1e-5
        and rep.extra_components == []
        and rep.pipeline_agreement <= 1e-6
        and elapsed < 10.0
    )
    report(1, "component table matched", ok,
           f"map={rep.index_map}, residual={rep.max_residual:.2e}, "
           f"extras={len(rep.extra_components)}, {elapsed:.2f}s")


def test_criterion_2_pipeline_equivalence():
    start = time.monotonic()
    worst_diff = 0.0
    worst_closed = 0.0   # budget 1e-12, relative to tensor magnitude
    worst_fd = 0.0       # budget 1e-8
    for warp in (PureExp(), ShiftedExp(), Interpolated(-4.0, -1.0)):
        for (t, z) in GRID_5X5:
            Rc = riemann_closed(metric_at(warp, t, z))
            Rf = riemann_fd(warp, t, z)
            worst_diff = max(worst_diff, float(np.max(np.abs(Rc.full - Rf.full))))
            sc = max(1.0, float(np.max(np.abs(Rc.full))))
            sf = max(1.0, float(np.max(np.abs(Rf.full))))
            worst_closed = max(
                worst_closed,
                Rc.antisymmetry_residual() / sc,
                Rc.pair_symmetry_residual() / sc,
                Rc.bianchi_residual() / sc,
            )
            worst_fd = max(
                worst_fd,
                Rf.antisymmetry_residual() / sf,
                Rf.pair_symmetry_residual() / sf,
                Rf.bianchi_residual() / sf,
            )
    elapsed = time.monotonic() - start
    ok = (worst_diff <= 1e-6 and worst_closed <= 1e-12 and worst_fd <= 1e-8
          and elapsed < 10.0)
    report(2, "pipelines agree", ok,
           f"max diff={worst_diff:.2e}, closed residual={worst_closed:.1e}, "
           f"fd residual={worst_fd:.1e}, {elapsed:.2f}s")


def test_criterion_3_condition_certification():
    start = time.monotonic()
    shifted = condition_margins(ShiftedExp(), np.arange(-10.0, 10.0 + 5e-4, 1e-3))
    pure_neg = condition_margins(PureExp(), np.arange(-10.0, -1e-3 + 5e-7, 1e-3))
    a_at_half = condition_margins(PureExp(), np.array([0.5]))[0, 0]
    elapsed = time.monotonic() - start
    ok = (
        bool(np.all(shifted > 0.0))
        and bool(np.all(pure_neg > 0.0))
        and a_at_half < 0.0
        and elapsed < 5.0
    )
    report(3, "condition margins", ok,
           f"min shifted={shifted.min():.2e}, min pure(t<0)={pure_neg.min():.2e}, "
           f"a(0.5)={a_at_half:.4f}, {elapsed:.2f}s")


def test_criterion_4_interpolation_exists():
    start = time.monotonic()
    w = build_interpolation(-4.0, -1.0)
    grid = np.arange(w.t_lo - 2.0, 1.0 + 5e-4, 1e-3)
    min_margin = float(condition_margins(w, grid).min())
    elapsed = time.monotonic() - start
    ok = min_margin > 1e-6 and elapsed < 10.0
    report(4, "interpolation validated", ok,
           f"window=({w.t_lo:g},{w.t_hi:g}), min margin={min_margin:.3e}, "
           f"{elapsed:.2f}s")


def test_criterion_5_negativity_certificate():
    start = time.monotonic()
    w = build_interpolation(-4.0, -1.0)
    rep = certify(w, (-6.0, 10.0), 0.05)
    elapsed = time.monotonic() - start
    worst_agreement = max(b.method_agreement for b in rep.bounds_curve)
    ok = (
        rep.status == "certified"
        and rep.max_k < -1e-9
        and np.isfinite(rep.pinched_from)
        and rep.flagged_points == []
        and worst_agreement <= 1e-12
        and elapsed < 10.0
    )
    report(5, "negativity certified", ok,
           f"max_k={rep.max_k:.3e}, scale={rep.scale:.6f}, "
           f"pinched_from={rep.pinched_from:g}, agreement={worst_agreement:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_6_known_value_spot_checks():
    w = ShiftedExp()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for t in rng.uniform(-5.0, 10.0, size=20):
        f, fp, fpp = w.eval(float(t))
        k_zt = extremize_k(w, float(t)).frame_plane_k["zt"]
        worst = max(worst, abs(k_zt - (-fpp / f)))
    b = extremize_k(PureExp(), -1.0)
    k = b.frame_plane_k
    e2 = np.exp(-2.0)
    frame_ok = (
        abs(k["xt"] + 1.0) <= 1e-8
        and abs(k["zt"] + 1.0) <= 1e-8
        and abs(k["xy"] - (e2 - 1.0)) <= 1e-8
        and abs(k["xz"] - (-e2 - 1.0)) <= 1e-8
    )
    ok = worst <= 1e-8 and frame_ok
    report(6, "known-value spot checks", ok,
           f"max |K(Et,Ez) + f''/f|={worst:.2e}, frame values ok={frame_ok}")


def test_criterion_7_volume():
    start = time.monotonic()
    shifted = cusp_volume(ShiftedExp(), 1.0, 0.0, 1e-10)
    pure = cusp_volume(PureExp(), 1.0, 0.0, 1e-10)
    vol_c = cross_section_volume(build_sol_lattice(AnosovMatrix(2, 1, 1, 1)))
    total = cusp_volume(ShiftedExp(), vol_c, 0.0, 1e-10)
    elapsed = time.monotonic() - start
    ok = (
        abs(shifted.integral - 5.0 / 6.0) <= 1e-10
        and abs(pure.integral - 1.0 / 3.0) <= 1e-10
        and abs(total.total - vol_c * 5.0 / 6.0) <= 1e-9
        and elapsed < 1.0
    )
    report(7, "volume closed forms", ok,
           f"|err 5/6|={abs(shifted.integral - 5/6):.1e}, "
           f"|err 1/3|={abs(pure.integral - 1/3):.1e}, "
           f"total={total.total:.9f}, {elapsed:.2f}s")


def test_criterion_8_sol_lattice_isometries():
    start = time.monotonic()
    lat = build_sol_lattice(AnosovMatrix(2, 1, 1, 1))
    dev = max(verify_isometry(m, default_samples()) for m in lat.generators)
    L_err = abs(lat.stretch - np.log((3.0 + np.sqrt(5.0)) / 2.0))
    elapsed = time.monotonic() - start
    ok = dev <= 1e-12 and L_err <= 1e-12 and elapsed < 1.0
    report(8, "Sol lattice isometries", ok,
           f"max deviation={dev:.2e}, |L err|={L_err:.2e}, {elapsed:.2f}s")


def test_criterion_9_run_determinism(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "riemann": {"t_grid": [-1.0, 0.0, 1.0], "z_grid": [-0.5, 0.0, 0.5]},
        "certify": {"t_min": -2.0, "t_max": 2.0, "t_step": 0.25},
    }))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = cli_main(["--config", str(cfg), "--output", str(out_a), "run"])
    code_b = cli_main(["--config", str(cfg), "--output", str(out_b), "run"])
    capsys.readouterr()
    names = ["lattice.json", "warp.json", "riemann.json", "certify.json",
             "certify.csv", "volume.json", "summary.json"]
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    ok = code_a == code_b == 0 and sorted(match) == sorted(names)
    report(9, "byte-identical reruns", ok,
           f"identical={len(match)}/{len(names)}, mismatched={mismatch or 'none'}")

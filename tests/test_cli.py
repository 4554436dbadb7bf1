import argparse
import dataclasses
import gc
import json
import sys

import numpy as np
import pytest

from solcusp.certify import certify
from solcusp.cli import _certify_payload, main
from solcusp.serialize import format_float, to_json_text, write_csv_text
from solcusp.warp import Interpolated, build_interpolation, condition_margins, window_witness

REDUCED_RUN = {
    "riemann": {"t_grid": [-1.0, 0.0, 1.0], "z_grid": [-0.5, 0.0, 0.5]},
    "certify": {"t_min": -2.0, "t_max": 2.0, "t_step": 0.5},
    "volume": {"tol": 1e-10},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_serializer_is_deterministic_and_sorted():
    text = to_json_text({"b": 1.5, "a": [float("inf"), float("nan")], "c": None})
    assert text == '{"a":["inf","nan"],"b":1.5,"c":null}\n'
    assert format_float(1.0 / 3.0) == "0.33333333333333331"


def test_csv_writer_roundtrips_floats():
    text = write_csv_text(["t", "k"], [(0.1, -1.0 / 3.0)])
    line = text.splitlines()[1]
    assert [float(x) for x in line.split(",")] == [0.1, -1.0 / 3.0]


def test_lattice_command(capsys):
    code, out = run_cli(capsys, "lattice", "--matrix", "2,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["stretch"] == pytest.approx(np.log((3 + np.sqrt(5)) / 2))
    assert payload["max_isometry_deviation"] <= 1e-12
    assert len(payload["generators"]) == 3
    assert payload["volume"] == pytest.approx(payload["stretch"])


def test_repeated_main_calls_leave_no_parser_garbage(tmp_path, capsys):
    # the parser is built once per process; a parser per call would leave
    # its reference cycles for the cyclic collector
    calls = [["lattice"], ["--output", str(tmp_path), "run"]] * 3
    main(calls[0])
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in calls:
            main(argv)
        unreachable = gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert parsers == []
    assert unreachable == 0


def test_main_calls_the_command_bound_on_the_module(monkeypatch, capsys):
    # the cached parser must not pin the command it was built with
    main(["lattice"])
    monkeypatch.setattr(sys.modules["solcusp.cli"], "cmd_lattice", lambda args: 7)
    assert main(["lattice"]) == 7
    capsys.readouterr()


def test_lattice_command_reports_the_builders_deviation(monkeypatch, capsys):
    # build_sol_lattice already checked the deck generators; the report
    # takes its number instead of checking them again
    cli_module = sys.modules["solcusp.cli"]
    built = cli_module.build_sol_lattice

    def marked(A):
        return dataclasses.replace(built(A), isometry_deviation=0.25e-12)

    monkeypatch.setattr(cli_module, "build_sol_lattice", marked)
    code, out = run_cli(capsys, "lattice", "--matrix", "2,1,1,1")
    assert code == 0
    assert json.loads(out)["max_isometry_deviation"] == 0.25e-12


def test_lattice_command_rejects_bad_matrix(capsys):
    code, _ = run_cli(capsys, "lattice", "--matrix", "1,1,0,1")
    assert code == 1


def test_build_warp_command(tmp_path, capsys):
    csv_path = tmp_path / "warp.csv"
    code, out = run_cli(
        capsys, "build-warp", "--t0", "-4", "--t1", "-1", "--csv", str(csv_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "interpolated"
    assert payload["grid_step"] == 1e-3
    assert payload["T0"] == -4.0 and payload["T1"] == -1.0
    assert min(payload["min_margins"].values()) > 1e-6
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,f,fp,fpp,margin_a,margin_b,margin_c,margin_d"


def test_build_warp_evaluates_its_report_grid_once(monkeypatch, tmp_path, capsys):
    # warp.json and the CSV share one eval of the 7 001-point grid
    calls = []
    eval_ = Interpolated.eval
    monkeypatch.setattr(Interpolated, "eval", lambda self, t: calls.append(np.size(t)) or eval_(self, t))
    code, _ = run_cli(capsys, "build-warp", "--t0=-4", "--t1=-1", "--csv", str(tmp_path / "w.csv"))
    assert code == 0 and calls == [7001]


def test_verify_riemann_command(capsys):
    code, out = run_cli(
        capsys, "verify-riemann", "--warp", "shifted-exp",
        "--t-grid=-1:1:3", "--z-grid=-0.5:0.5:3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["index_map"] == {"1": "x", "2": "y", "3": "z", "4": "t"}
    assert payload["max_residual"] <= 1e-5
    assert payload["extra_nonzero_components"] == []


def test_certify_command_certified(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    code, out = run_cli(
        capsys, "certify", "--warp", "shifted-exp",
        "--t-min", "-1", "--t-max", "1", "--step", "0.5",
        "--csv", str(csv_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "certified"
    assert payload["max_k"] < -1e-9
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,k_min,k_max,margin_a,margin_b,margin_c,margin_d,method_agreement"
    assert len(lines) == 6


@pytest.mark.parametrize("argv", [
    ["certify", "--samples", "2000"],
    ["certify", "--refine", "4"],
    ["certify", "--seed", "0"],
    ["--seed", "0", "run"],
    ["--jobs", "2", "run"],
    ["certify", "--agreement-tol", "1e-4"],
    ["verify-riemann", "--h", "1e-4"],
    ["certify", "--floor", "1e-9"],
    ["build-warp", "--margin", "1e-6"],
    ["build-warp", "--step", "1e-3"],
])
def test_sampling_flags_are_gone(argv, capsys):
    # nothing is sampled, so there is no budget, seed or worker count; the
    # witness-gap bound, the finite-difference step and both floors are fixed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    # t1 > 0: pure-exp fails margin a there, so no widening can help
    ["build-warp", "--t0=-1", "--t1=0.5"],
    ["certify", "--warp", "interpolated", "--warp-t0=-1", "--warp-t1=0.5"],
    ["volume", "--warp", "interpolated", "--t0=-3", "--tol", "1e-20"],
    ["--config", "{config}", "run"],
], ids=["no-window", "no-window-certify", "quadrature", "config-not-object"])
def test_bad_input_is_an_error_line_not_a_traceback(tmp_path, capsys, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1, 2]")
    argv = [a.format(config=cfg) for a in argv]
    assert main(["--output", str(tmp_path / "o"), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv,name", [
    (["volume", "--t0", "nan"], "t0"),
    (["volume", "--t0", "inf"], "t0"),
    (["volume", "--vol-c", "inf"], "vol_c"),
    (["volume", "--tol", "nan"], "tol"),
    (["verify-riemann", "--t-grid", "nan:2:5"], "grid ends"),
    (["verify-riemann", "--z-grid=-1:inf:5"], "grid ends"),
    (["certify", "--step", "nan"], "t_step"),
    (["certify", "--step", "inf"], "t_step"),
])
def test_non_finite_flags_are_errors(argv, name, capsys):
    # each once exited 0 with a "nan", "inf" or 0 report, or failed inside
    # numpy with an error that named no flag
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and name in captured.err


@pytest.mark.parametrize("argv,where", [
    (["volume", "--warp", "pure-exp", "--t0", "-300"], "t0=-300.0"),
    (["certify", "--warp", "pure-exp", "--t-min", "-800", "--t-max", "-1", "--step", "1"],
     "t=-800.0"),
    (["certify", "--warp", "pure-exp", "--t-min", "-200", "--t-max", "-199", "--step", "1"],
     "t=-200.0"),
    # e^(-2t) overflows in the metric: once a RuntimeWarning before the error
    (["certify", "--warp", "pure-exp", "--t-min", "-356", "--t-max", "-355", "--step", "1"],
     "t=-356.0"),
    (["build-warp", "--t0=-800", "--t1=-1"], "t=-802.0"),
    (["verify-riemann", "--warp", "shifted-exp", "--t-grid=-400:-399:2"], "t=-400.0"),
    (["certify", "--step", "1e-300"], "t_step"),
    # W^2 overflows: once an OverflowError traceback from Interpolated.eval
    (["certify", "--warp", "interpolated", "--warp-t0=-1e200", "--warp-t1=-1"], "width 1e+200"),
], ids=["volume", "certify-margins", "certify-frame-form", "certify-metric", "build-warp",
        "verify-riemann", "certify-grid-size", "certify-window-width"])
def test_overflowing_commands_are_errors(argv, where, capsys):
    # each once printed "inf" or "nan" numbers and exited 0, failed inside
    # LAPACK or numpy with a message naming no input, or ran out of memory
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and where in captured.err


def test_build_warp_proves_a_window_the_grid_gave_up_on(capsys):
    # 20 doublings of (-2e-7, -1e-7) once ended in an error; the proof's
    # search needs no cap, since any window 4 wide is admissible
    code, out = run_cli(capsys, "build-warp", "--t0=-2e-7", "--t1=-1e-7")
    assert code == 0
    payload = json.loads(out)
    assert payload["T1"] == -1e-7 and payload["T0"] < -1.0
    assert window_witness(Interpolated(payload["T0"], payload["T1"])) is None
    assert min(payload["min_margins"].values()) > 0.0


@pytest.mark.parametrize("section,field,value", [
    ("volume", "t0", float("nan")),
    ("riemann", "t_grid", [float("nan"), 0.0]),
    ("certify", "t_step", float("inf")),
])
def test_run_with_a_non_finite_config_value_is_an_error(tmp_path, capsys, section, field, value):
    # {"volume": {"t0": NaN}} once wrote a "nan" total_volume under status
    # "certified" and exited 0
    body = {**REDUCED_RUN, section: {**REDUCED_RUN[section], field: value}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(body))
    outdir = tmp_path / "out"
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(outdir), "run")
    assert code == 1
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "error"
    assert "finite" in summary["error"]


def test_run_with_an_overflowing_volume_is_an_error(tmp_path, capsys):
    # e^(-3 t0) overflows at t0 = -250: the total was once "nan" under
    # status "certified", and the run exited 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"warp": {"family": "shifted-exp"}, "volume": {"t0": -250.0}}))
    outdir = tmp_path / "out"
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(outdir), "run")
    assert code == 1
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "error" and "verdict" not in summary
    assert "t0=-250.0" in summary["error"]


def test_certify_validates_the_window_like_build_warp(tmp_path, capsys):
    # the grid of the unchecked window (-1e-4, -5e-5) sees none of it, while
    # margin c reaches -3.9e9 inside; certify once called it certified
    outdir = tmp_path / "o"
    main(["--output", str(outdir), "certify", "--warp", "interpolated",
          "--warp-t0=-1e-4", "--warp-t1=-5e-5"])
    capsys.readouterr()
    warp = build_interpolation(-1e-4, -5e-5)
    t = np.linspace(warp.t_lo, warp.t_hi, 20001)
    assert condition_margins(warp, t).min() > 1e-6
    expected = to_json_text(_certify_payload(certify(warp, (-6.0, 10.0), 0.05)))
    assert (outdir / "certify.json").read_text() == expected


def test_run_pipeline_rejects_removed_sampling_fields(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"certify": {"n_samples": 2000}}))
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(tmp_path / "o"), "run")
    assert code == 1


@pytest.mark.parametrize("section,field,value", [
    ("certify", "agreement_tol", 1e-4),
    ("riemann", "h", 1e-4),
    ("output", "formats", ["json", "csv"]),
    ("output", "directory", "."),
    ("certify", "floor", 1e-9),
    ("warp", "margin", 1e-6),
    ("warp", "step", 1e-3),
])
def test_run_pipeline_rejects_removed_config_fields(tmp_path, capsys, section, field, value):
    # fixed behaviour now: a 1e-12 flag bound, a 1e-4 step, certify.csv
    # always, the 1e-9 and 1e-6 floors, the 1e-3 validation grid; --output
    # alone places the reports, so the whole output section is unknown
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {field: value}}))
    assert main(["--config", str(cfg), "--output", str(tmp_path / "o"), "run"]) == 1
    where = section if section == "output" else f"{section}.{field}"
    assert capsys.readouterr().err == f"error: unknown config field: {where}\n"


@pytest.mark.parametrize("command", [
    ["certify", "--step", "0.5"], ["lattice"], ["build-warp"], ["verify-riemann"],
    ["volume"],
])
def test_config_is_a_usage_error_outside_run(tmp_path, capsys, command):
    # only run reads a config; elsewhere it would be silently ignored,
    # even when the file does not exist
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"certify": {"t_step": 0.25}}))
    for path in (cfg, tmp_path / "missing.json"):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), *command])
        assert exc.value.code == 2
        assert "--config applies to run only" in capsys.readouterr().err


def test_certify_command_refuses_pure_exp_on_positive_range(capsys):
    code, out = run_cli(
        capsys, "certify", "--warp", "pure-exp",
        "--t-min", "0.1", "--t-max", "2.0", "--step", "0.5",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "refused_conditions"
    assert payload["witness"]["condition"] == "a"


def test_volume_command(capsys):
    code, out = run_cli(
        capsys, "volume", "--warp", "shifted-exp",
        "--vol-c", "1.0", "--t0", "0.0", "--tol", "1e-10",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"integral", "total", "warp"}
    assert payload["warp"] == {"family": "shifted-exp"}
    assert abs(payload["integral"] - 5.0 / 6.0) <= 1e-15


@pytest.mark.parametrize("command", ["volume", "verify-riemann"])
def test_standalone_reports_name_the_widened_window(command, tmp_path, capsys):
    # no grid point lies in (-1e-4, -5e-5), so the window is widened; the
    # standalone report names the window its numbers belong to
    warp = build_interpolation(-1e-4, -5e-5)
    assert warp.t_lo < -1.0 and warp.t_hi == -5e-5
    flags = ["--warp", "interpolated", "--warp-t0=-1e-4", "--warp-t1=-5e-5"]
    code, out = run_cli(capsys, command, *flags, *(["--t0=-5"] if command == "volume" else []))
    assert code == 0
    assert json.loads(out)["warp"] == {"family": "interpolated", "T0": warp.t_lo, "T1": warp.t_hi}
    # run names its window in warp.json; its other reports keep their schema
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REDUCED_RUN))
    assert main(["--config", str(cfg), "--output", str(tmp_path), "run"]) == 0
    name = {"volume": "volume.json", "verify-riemann": "riemann.json"}[command]
    assert "warp" not in json.loads((tmp_path / name).read_text())


def test_run_pipeline_writes_all_reports(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REDUCED_RUN))
    outdir = tmp_path / "out"
    code, out = run_cli(
        capsys, "--config", str(cfg), "--output", str(outdir), "run",
    )
    assert code == 0
    for name in ("lattice.json", "warp.json", "riemann.json",
                 "certify.json", "certify.csv", "volume.json", "summary.json"):
        assert (outdir / name).exists(), name
    summary = json.loads((outdir / "summary.json").read_text())
    verdict = summary["verdict"]
    assert verdict["riemann_table_matched"] is True
    assert verdict["conditions_hold"] is True
    assert verdict["globally_negative"] is True
    assert np.isfinite(verdict["pinched_from"])
    assert verdict["scale"] > 1.0
    assert verdict["total_volume"] > 0.0
    # the one volume of a run is volume.json's; certify reports none
    cert = json.loads((outdir / "certify.json").read_text())
    assert "volume" not in cert and "vol_c" not in cert["config"]
    assert verdict["total_volume"] == json.loads((outdir / "volume.json").read_text())["total"]
    # the embedded config reproduces the run
    assert summary["config"]["certify"]["t_step"] == 0.5


def test_run_pipeline_with_pure_exp_reports_failed_conditions(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    body = json.loads(json.dumps(REDUCED_RUN))
    body["warp"] = {"family": "pure-exp"}
    body["certify"] = {"t_min": 0.1, "t_max": 2.0, "t_step": 0.5}
    cfg.write_text(json.dumps(body))
    outdir = tmp_path / "out"
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(outdir), "run")
    assert code == 2
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "refused_conditions"
    assert summary["verdict"]["conditions_hold"] is False
    assert summary["verdict"]["globally_negative"] is False
    # refused before any curvature work: the curve CSV has no rows
    assert (outdir / "certify.csv").read_text() == (
        "t,k_min,k_max,margin_a,margin_b,margin_c,margin_d,method_agreement\n")


def test_run_pipeline_config_round_trip(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REDUCED_RUN))
    out_a = tmp_path / "a"
    assert run_cli(capsys, "--config", str(cfg), "--output", str(out_a), "run")[0] == 0
    # the summary embeds the resolved config; running from it reproduces
    # the reports byte for byte
    resolved = json.loads((out_a / "summary.json").read_text())["config"]
    cfg2 = tmp_path / "resolved.json"
    cfg2.write_text(json.dumps(resolved))
    out_b = tmp_path / "b"
    assert run_cli(capsys, "--config", str(cfg2), "--output", str(out_b), "run")[0] == 0
    for name in ("lattice.json", "warp.json", "riemann.json",
                 "certify.json", "certify.csv", "volume.json", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_pipeline_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(tmp_path / "o"), "run")
    assert code == 1


def test_run_pipeline_reports_bad_matrix(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    body = dict(REDUCED_RUN)
    body["matrix"] = [1, 1, 0, 1]
    cfg.write_text(json.dumps(body))
    outdir = tmp_path / "out"
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(outdir), "run")
    assert code == 1
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "error"
    assert "trace" in summary["error"]

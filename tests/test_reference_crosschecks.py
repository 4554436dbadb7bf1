"""The program's reports against the benchmark's independent reference.

``perfbench/reference.py`` codes the warp, the curvature frame form, the
margins and the cusp integral again from their definitions, and imports no
solcusp.  It is loaded here by path and only read, as
``test_public_surface.py`` loads ``spans.py``.  Each test drives
``cli.main`` in process on a command the CI also runs through the installed
entry point, and holds its report to the reference:

* ``certify.csv`` of the default run: its six value columns within
  1e-12 max(1, |ref|) of the reference, both on the program's warp values
  and on the reference's own (the 4.6e-12 gap in f'' at t = -1.1 they once
  had was the cancellation of 1 - sigma in the program's step); the
  reference's extremes pinched at lambda^2 = 2 on every row; and each row's
  block codes naming a sub-block of the reference's frame form whose least
  or largest eigenvalue is k_min or k_max, to the same bound;
* three interpolated volumes, which reach the window quadrature, each
  within its tol of the reference's QUADPACK integral.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from solcusp.cli import main
from solcusp.warp import Interpolated

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
NAMES = ("k_min", "k_max", "margin_a", "margin_b", "margin_c", "margin_d")


@pytest.fixture(scope="module")
def reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """(window, certify.csv rows) of the default run."""
    out = tmp_path_factory.mktemp("reports")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--output", str(out), "run"]) == 0
    warp = json.loads((out / "warp.json").read_bytes())
    lines = (out / "certify.csv").read_text().splitlines()
    assert lines[0] == ("t,k_min,k_max,margin_a,margin_b,margin_c,margin_d,"
                        "block_min,block_max")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert rows.shape == (321, 9)
    return (warp["T0"], warp["T1"]), rows


def scaled_gap(got, ref):
    return np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)), initial=0.0)


@pytest.mark.parametrize("values_of", ["program", "reference"])
def test_certify_csv_values_match_the_reference(reference, default_run, values_of):
    window, rows = default_run
    t = rows[:, 0]
    values = (Interpolated(*window).eval(t) if values_of == "program"
              else reference.warp_f(t, window))
    refs = (*reference.curvature_extremes(*values), *reference.margins(*values).T)
    for name, got, ref in zip(NAMES, rows[:, 1:7].T, refs):
        assert scaled_gap(got, ref) <= 1e-12, name


def test_the_references_extremes_are_pinched_on_every_row(reference, default_run):
    window, rows = default_run
    ref_min, ref_max = reference.curvature_extremes(*reference.warp_f(rows[:, 0], window))
    assert np.all(ref_min / 2.0 > -1.0) and np.all(ref_max < 0.0)


def test_block_codes_name_the_references_sub_block(reference, default_run):
    # 0 = xy, 1 = the mixed pair, 2 = zt: the code of k_min names a sub-block
    # whose least eigenvalue is k_min, the code of k_max one whose largest is k_max
    window, rows = default_run
    codes = rows[:, 7:9]
    assert np.isin(codes, (0.0, 1.0, 2.0)).all()
    form = reference.frame_form(*reference.warp_f(rows[:, 0], window))
    blocks = ([0], [1, 2], [5])
    for col, pick in enumerate((0, -1)):
        for code, idx in enumerate(blocks):
            on = codes[:, col] == code
            ref = np.linalg.eigvalsh(form[on][:, idx][:, :, idx])[:, pick]
            assert scaled_gap(rows[on, 1 + col], ref) <= 1e-12, (NAMES[col], code)


@pytest.mark.parametrize("argv,t0,tol", [
    (["--warp-t0=-4", "--warp-t1=-1", "--t0=-5", "--tol", "1e-6"], -5.0, 1e-6),
    (["--t0=-2", "--tol", "1e-10"], -2.0, 1e-10),
    (["--t0=-4"], -4.0, 1e-10),
], ids=["t0-5", "t0-2", "t0-4"])
def test_interpolated_volumes_match_the_reference_integral(reference, capsys, argv, t0, tol):
    assert main(["volume", "--warp", "interpolated", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["warp"] == {"family": "interpolated", "T0": -4, "T1": -1}
    assert abs(report["integral"] - reference.cusp_integral((-4.0, -1.0), t0)) <= tol

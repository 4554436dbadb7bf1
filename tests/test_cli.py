import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import per_point_reference as ref

import solcusp
from solcusp.certify import certify
from solcusp.cli import _certify_payload, main
from solcusp.curvature import MAX_MATCH_POINTS, match_component_table
from solcusp.serialize import format_float, to_json_text, write_csv_text
from solcusp.warp import (
    FAMILIES,
    Interpolated,
    ShiftedExp,
    build_interpolation,
    condition_margins,
    validation_grid,
    window_witness,
)

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


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_json_strings_round_trip(text):
    assert json.loads(to_json_text(text)) == text
    assert json.loads(to_json_text({text: [text]})) == {text: [text]}


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(min_codepoint=0x20, codec="utf-8")))
def test_json_strings_without_control_characters_keep_their_bytes(text):
    # the escape of \ and " alone, which every report string written so far
    # got; a lone surrogate (category Cs) cannot be written as itself in UTF-8
    assert to_json_text(text) == '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"\n'


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(exclude_categories=())))
@example("a\udc80b")
@example("\ud83d\ude00")  # a surrogate pair as two code points
def test_json_text_of_any_string_is_utf8_and_parses(text):
    # lone surrogates included: each is written as json.dumps's \uxxxx
    # escape, so the text encodes and parses as json.dumps's own would
    for obj in (text, {text: [text]}):
        encoded = to_json_text(obj).encode("utf-8")
        assert json.loads(encoded) == json.loads(json.dumps(obj))
    # character by character: json.dumps's escape, ASCII-only for a surrogate
    escaped = [json.dumps(c, ensure_ascii="\ud800" <= c <= "\udfff")[1:-1] for c in text]
    assert to_json_text(text) == '"' + "".join(escaped) + '"\n'


@pytest.mark.parametrize("field,value,message", [
    ("warp", {"family": "\udc80"}, "unknown warp family: '\\udc80'"),
    ("matrix", [2, 1, 1, "\udc80"], 'config field matrix[3] must be a finite number, got "\\udc80"'),
])
def test_run_with_a_lone_surrogate_writes_a_summary_that_parses(field, value, message,
                                                                tmp_path, capsys):
    # valid JSON once left summary.json empty: the UTF-8 write of the
    # surrogate failed after the file was opened
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({field: value}))
    outdir = tmp_path / "out"
    code = main(["--config", str(cfg), "--output", str(outdir), "run"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "error" and summary["error"] == f"ValueError: {message}"
    assert summary["config"][field] == (
        {"family": "\udc80", "t0": -4.0, "t1": -1.0} if field == "warp" else value)
    for path in outdir.iterdir():
        json.loads(path.read_text(encoding="utf-8"))


def test_run_writes_a_control_character_as_valid_json(tmp_path, capsys):
    # "2\n" once went into summary.json as a raw newline, which json.load rejects
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"matrix": ["2\n", 1, 1, 1]}))
    outdir = tmp_path / "out"
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(outdir), "run")
    assert code == 1
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["error"] == 'ValueError: config field matrix[0] must be a finite number, got "2\\n"'
    assert summary["config"]["matrix"] == ["2\n", 1, 1, 1]


# floats at the edges of the rendering: NaN, +-inf, +-0.0, subnormals, +-max
SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                                  5e-324, -5e-324, 2.2250738585072009e-308,
                                  1.7976931348623157e308, -1.7976931348623157e308])
ANY_FLOAT = st.one_of(SPECIAL_FLOATS, st.floats())
UTF8_TEXT = st.text(st.characters(codec="utf-8"), max_size=8)
# the values reports hold; np.float64 is a float
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), ANY_FLOAT,
                        ANY_FLOAT.map(np.float64), UTF8_TEXT)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(UTF8_TEXT, st.integers()), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_json_text_equals_the_per_value_encoders(obj):
    assert to_json_text(obj) == ref.encode_json(obj)


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(1), np.float32(0.5),
                                   np.zeros(2)])
def test_json_text_refuses_numpy_values_other_than_float64(value):
    with pytest.raises(TypeError, match="^cannot serialize "):
        to_json_text({"x": [value]})


@settings(max_examples=100, deadline=None)
@given(header=st.lists(st.text(st.characters(codec="utf-8", exclude_characters=",\n")),
                       min_size=1, max_size=8),
       rows=hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 8)),
                       elements=ANY_FLOAT),
       as_list=st.booleans())
def test_csv_text_equals_the_per_cell_encoder(header, rows, as_list):
    # an array, as certify and build-warp pass, or a list of float tuples
    if as_list:
        rows = [tuple(r) for r in rows.tolist()]
    assert write_csv_text(header, rows) == ref.encode_csv(header, rows)


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


@pytest.mark.parametrize("exponent", [400, 155, 154])
def test_overflowing_anosov_matrix_is_an_error_line(exponent, tmp_path, capsys):
    # N, 1, N - 1, 1 once failed three ways: an OverflowError traceback
    # (10^400), "Singular matrix" after a RuntimeWarning (10^155) and "SVD
    # did not converge" once the deck check's e^(2(z + L)) overflowed (10^154)
    n = 10**exponent
    assert main(["lattice", "--matrix", f"{n},1,{n - 1},1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: trace {n + 1} ")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**REDUCED_RUN, "matrix": [n, 1, n - 1, 1]}))
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(tmp_path / "o"), "run")
    assert code == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["error"].startswith(f"ValueError: trace {n + 1} ")


@pytest.mark.parametrize("exponent", [20, 400])
def test_singular_float_eigenbasis_is_an_error_line(exponent, tmp_path, capsys):
    # (a, 1; ad - 1, d) with trace 3: both float eigenvectors (1, mu - a)
    # round to (1, -a).  At |a| = 10^20 the lattice once read "nan" (basis
    # and volume) and exited 0; at 10^400, an OverflowError traceback
    a = 10**exponent
    matrix = [a, 1, a * (3 - a) - 1, 3 - a]
    assert main(["lattice", "--matrix", ",".join(map(str, matrix))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: matrix {matrix}: ")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**REDUCED_RUN, "matrix": matrix}))
    code, _ = run_cli(capsys, "--config", str(cfg), "--output", str(tmp_path / "o"), "run")
    assert code == 1
    # refused at the lattice stage, before any other report
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["summary.json"]
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["error"].startswith(f"ValueError: matrix {matrix}: ")


@pytest.mark.parametrize("t0", [-5.0, -1.0])
def test_run_claims_all_three_on_one_cusp_region(t0, tmp_path, capsys):
    # pure-exp is certified on t < 0 only, so no cusp [t0, inf) carries all
    # three claims: run refuses it before writing any report but the error
    # summary (it once wrote five reports, then refused at the volume's t0;
    # before that, it read certified with the volume of a cusp whose part
    # nothing checked).  The default warp is pinched on all of R, and the
    # same run is certified
    for family in ("pure-exp", "interpolated"):
        cfg = tmp_path / f"{family}.json"
        cfg.write_text(json.dumps({"warp": {"family": family},
                                   "certify": {"t_min": -3.0, "t_max": -1.0},
                                   "volume": {"t0": t0, "tol": 1e-6}}))
        outdir = tmp_path / family
        code = main(["--config", str(cfg), "--output", str(outdir), "run"])
        captured = capsys.readouterr()
        summary = json.loads((outdir / "summary.json").read_text())
        if family == "pure-exp":
            assert code == 1 and captured.out == ""
            assert captured.err == ("error: warp pure-exp has no cusp: it is negatively curved "
                                    "only for t < 0, so no [t0, inf) carries all three claims\n")
            assert [p.name for p in outdir.iterdir()] == ["summary.json"]
            assert summary["status"] == "error" and "verdict" not in summary
            assert summary["error"] == "ValueError: " + captured.err[len("error: "):-1]
            assert summary["config"]["warp"]["family"] == "pure-exp"
        else:
            assert code == 0 and len(list(outdir.iterdir())) == 7
            cert = json.loads((outdir / "certify.json").read_text())
            assert summary["status"] == cert["status"] == "certified"
            assert summary["verdict"]["pinched_from"] == cert["pinched_from"] == "-inf"


def test_run_writes_utf8_reports_under_an_ascii_locale(tmp_path):
    # the config was read, and the reports written, in the locale's encoding:
    # under an ASCII locale a UTF-8 config with a non-ASCII string could not
    # be read, and a config string the locale cannot encode left summary.json
    # empty
    cfg = tmp_path / "config.json"
    cfg.write_bytes(json.dumps({"warp": {"family": "\u20ac"}}, ensure_ascii=False).encode())
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(solcusp.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "solcusp.cli", "--config", str(cfg), "--output",
         str(tmp_path / "out"), "run"], env=env, capture_output=True, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: unknown warp family: ")
    summary = json.loads((tmp_path / "out" / "summary.json").read_bytes())
    assert summary["config"]["warp"]["family"] == "\u20ac"


def _matrix_word(word):
    """Entries of +-(1 0; 1 1) (1 1; 0 1) times a word in the two: a product
    with both letters, so Anosov."""
    sign, letters = word
    m = np.array([[1, 1], [1, 2]])
    for k in letters:
        m = m @ (np.array([[1, 0], [1, 1]]) if k else np.array([[1, 1], [0, 1]]))
    return [sign * int(v) for v in m.ravel()]


VALID_RUN_CONFIGS = st.fixed_dictionaries({
    "matrix": st.tuples(st.sampled_from([1, -1]), st.lists(st.booleans(), max_size=3))
              .map(_matrix_word),
    "warp": st.fixed_dictionaries({
        # the one text field: a family name, or any string, lone surrogates included
        "family": st.sampled_from(sorted(FAMILIES) + [None]).flatmap(
            lambda name: st.just(name) if name else st.text(
                st.characters(exclude_categories=()), max_size=3)),
        "t0": st.floats(-7.0, -0.5),
        "t1": st.floats(-3.0, 0.5),
    }),
    "riemann": st.fixed_dictionaries({
        "t_grid": st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
        "z_grid": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
    }),
    "certify": st.tuples(st.floats(-8.0, 2.0), st.floats(0.5, 30.0), st.floats(0.25, 2.0)).map(
        lambda c: {"t_min": c[0], "t_max": c[0] + c[1], "t_step": c[2]}),
    "volume": st.fixed_dictionaries({
        "t0": st.floats(-4.0, 5.0),
        "tol": st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-3]),
    }),
})


# out of type or not finite in every leaf of a config; a string is out of
# type everywhere but in warp.family
BAD_LEAVES = st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False, None,
                              {"x": 0.0}, "0.5"])
# an int past the float range, out of range in a float slot (an int slot
# takes any int)
HUGE_INTS = st.sampled_from([2**1024, -(10**400)])
# a matrix of other than four entries; a grid is refused only empty
BAD_MATRICES = st.one_of(st.lists(st.integers(-3, 3), max_size=3),
                         st.lists(st.integers(-3, 3), min_size=5, max_size=6))


# a leaf json.dumps writes in place of the drawn one, then replaced in the text
DIGITS_5001 = "<an integer of 5 001 digits>"


@st.composite
def run_configs(draw):
    """A drawn config and None, or half the time the config with one drawn
    leaf (a field or a list entry) replaced by a bad value, and (its name,
    the value).  One bad config in five is instead a text that does not
    parse, and (None, the reason): the drawn leaf an integer past int()'s
    4 300-digit limit, or the config's text cut short."""
    config = draw(VALID_RUN_CONFIGS)
    if draw(st.booleans()):
        return config, None
    leaves = []
    for section, body in config.items():
        fields = body.items() if isinstance(body, dict) else [(None, body)]
        for field, value in fields:
            where = f"{section}.{field}" if field else section
            parent = body if field else config
            leaves.append((parent, field or section, where))
            if isinstance(value, list):
                leaves += [(value, i, f"{where}[{i}]") for i in range(len(value))]
    parent, key, where = draw(st.sampled_from(leaves))
    if draw(st.integers(0, 4)) == 0:
        text = json.dumps(config)
        if draw(st.booleans()):
            return text[:draw(st.integers(1, len(text) - 1))], (None, "cut short")
        parent[key] = DIGITS_5001
        return json.dumps(config).replace(f'"{DIGITS_5001}"', "1" + "0" * 5000), (None, "digits")
    bad = BAD_LEAVES.filter(lambda v: not (where == "warp.family" and isinstance(v, str)))
    if isinstance(parent[key], float):
        bad = st.one_of(bad, HUGE_INTS)
    elif where == "matrix":
        bad = st.one_of(bad, BAD_MATRICES)
    elif isinstance(parent[key], list):
        bad = st.one_of(bad, st.just([]))
    parent[key] = value = draw(bad)
    return config, (where, value)


RUN_CONFIGS = run_configs()


@settings(max_examples=100, deadline=None)
@given(RUN_CONFIGS)
@example(({"warp": {"family": "\udc80"}, "certify": {"t_step": 0.5}}, None))
@example(({"matrix": [1, 1, 0, 1], "certify": {"t_step": 0.5}}, None))
@example(({"certify": {"t_min": -1.0, "t_step": 0.5}, "volume": {"t0": -5.0, "tol": 1e-6}}, None))
@example(({"warp": {"family": "shifted-exp", "t1": float("nan")}}, ("warp.t1", float("nan"))))
@example(({"certify": {"t_step": 2**1024}}, ("certify.t_step", 2**1024)))
@example(({"matrix": [2, 1, 1, 1, 0]}, ("matrix", [2, 1, 1, 1, 0])))
@example(({"riemann": {"z_grid": []}}, ("riemann.z_grid", [])))
@example(({"matrix": [2, 1, "1", 1]}, ("matrix[2]", "1")))
@example(('{"matrix": [2,1,', (None, "cut short")))
@example(('{"volume": {"t0": 1%s}}' % ("0" * 5000), (None, "digits")))
def test_any_run_config_exits_with_a_status_and_parsing_reports(drawn):
    # warnings are recorded, not raised: run would turn the exception into
    # exit 1.  Any warning fails the property; so does a report that does
    # not parse, a certified report holding "nan", or a certified volume
    # from below the pinched region.  A config with a bad leaf ends in an
    # error that names the leaf, and one that does not parse in an error
    # that names the file, with a null config in summary.json
    config, bad = drawn
    with tempfile.TemporaryDirectory() as tmp:
        cfg, outdir = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(["--config", str(cfg), "--output", str(outdir), "run"])
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1)
        assert (code == 1) == stderr.getvalue().startswith("error: ")
        reports = {path.name: path.read_bytes() for path in outdir.iterdir()}
    for name, text in reports.items():
        if name.endswith(".json"):
            json.loads(text)
    summary = json.loads(reports["summary.json"])
    if bad is not None:
        where, value = bad
        assert code == 1 and summary["status"] == "error" and list(reports) == ["summary.json"]
        if where is None:
            assert stderr.getvalue().startswith(f"error: config {cfg}: ")
            assert summary["config"] is None
        else:
            assert stderr.getvalue().startswith(f"error: config field {where} must be ")
    if summary["status"] == "certified":
        assert len(reports) == 7 and code == 0
        assert not any(b'"nan"' in text for text in reports.values())
        assert b"nan" not in reports["certify.csv"]
        assert summary["config"]["volume"]["t0"] >= float(summary["verdict"]["pinched_from"])


def test_build_warp_command(tmp_path, capsys):
    csv_path = tmp_path / "warp.csv"
    code, out = run_cli(
        capsys, "build-warp", "--t0", "-4", "--t1", "-1", "--csv", str(csv_path),
    )
    assert code == 0
    # warp.json names the proved window and nothing else
    warp = json.loads(out)
    assert warp == {"family": "interpolated", "T0": -4.0, "T1": -1.0}
    # a standalone certify at the default window names the same one
    assert json.loads(run_cli(capsys, "certify")[1])["warp"] == warp
    margins = csv_margins(csv_path)
    assert margins.shape == (7001, 4) and margins.min() > 1e-6


def test_build_warp_csv_margins_equal_the_sorted_grids_by_bytes(tmp_path, capsys):
    # the CSV's margins come from warp.eval's values; condition_margins of
    # the same sorted grid without values writes them in place, by regime:
    # both must be the same float64 bytes (%.17g round-trips, -0 included)
    csv_path = tmp_path / "warp.csv"
    code, _ = run_cli(capsys, "--output", str(tmp_path), "build-warp", "--t0=-4", "--t1=-1",
                      "--csv", str(csv_path))
    assert code == 0
    entry = json.loads((tmp_path / "warp.json").read_bytes())
    warp = Interpolated(entry["T0"], entry["T1"])
    grid = validation_grid(warp)
    lines = csv_path.read_text().splitlines()
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert rows[:, 0].tobytes() == grid.tobytes()
    assert csv_margins(csv_path).tobytes() == condition_margins(warp, grid).tobytes()


def csv_margins(path) -> np.ndarray:
    """The four margin columns of a build-warp CSV, after checking its header."""
    lines = path.read_text().splitlines()
    assert lines[0] == "t,f,fp,fpp,margin_a,margin_b,margin_c,margin_d"
    return np.array([[float(c) for c in line.split(",")[4:]] for line in lines[1:]])


def record_eval_sizes(monkeypatch) -> list:
    """The size of the t of every later Interpolated.eval call."""
    calls = []
    eval_ = Interpolated.eval
    monkeypatch.setattr(Interpolated, "eval", lambda self, t: calls.append(np.size(t)) or eval_(self, t))
    return calls


def test_build_warp_evaluates_its_report_grid_once(monkeypatch, tmp_path, capsys):
    # the CSV's columns share one eval of the 7 001-point grid
    calls = record_eval_sizes(monkeypatch)
    code, _ = run_cli(capsys, "build-warp", "--t0=-4", "--t1=-1", "--csv", str(tmp_path / "w.csv"))
    assert code == 0 and calls == [7001]


def test_only_the_warp_csv_samples_the_report_grid(monkeypatch, tmp_path, capsys):
    # the window proof decides; warp.json reports no grid, so without --csv
    # build-warp evaluates nothing, and run evaluates only its own grids
    calls = record_eval_sizes(monkeypatch)
    code, _ = run_cli(capsys, "--output", str(tmp_path / "b"), "build-warp", "--t0=-4", "--t1=-1")
    assert code == 0 and calls == []
    code, _ = run_cli(capsys, "--output", str(tmp_path / "r"), "run")
    assert code == 0 and calls and 7001 not in calls
    assert (tmp_path / "b" / "warp.json").read_bytes() == (tmp_path / "r" / "warp.json").read_bytes()
    assert (tmp_path / "r" / "warp.json").read_text() == (
        '{"T0":-4,"T1":-1,"family":"interpolated"}\n')


def test_a_window_past_the_report_grid_is_proved_and_certified(tmp_path, capsys):
    # the report grid [-802, 1] would overflow e^-t, but nothing needs it:
    # the proof covers (-800, -1), and certify and volume work on their own grids
    code, out = run_cli(capsys, "build-warp", "--t0=-800", "--t1=-1")
    assert code == 0
    assert json.loads(out) == {"family": "interpolated", "T0": -800.0, "T1": -1.0}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**REDUCED_RUN, "warp": {"t0": -800.0, "t1": -1.0}}))
    code, out = run_cli(capsys, "--config", str(cfg), "--output", str(tmp_path / "o"), "run")
    assert code == 0 and json.loads(out)["status"] == "certified"


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
    # pure-exp's grid from -1 by 0.25 stops at t_max = -0.1, on 4 points,
    # short of t = 0, where margin a is 0
    csv_path = tmp_path / "curve.csv"
    for family, t_range, step, n_grid in (("shifted-exp", ("-1", "1"), "0.5", 5),
                                          ("pure-exp", ("-1", "-0.1"), "0.25", 4)):
        code, out = run_cli(
            capsys, "certify", "--warp", family,
            "--t-min", t_range[0], "--t-max", t_range[1], "--step", step,
            "--csv", str(csv_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "certified"
        assert payload["warp"] == {"family": family}
        assert payload["n_grid"] == n_grid
        assert payload["max_k"] < -1e-9
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,k_min,k_max,margin_a,margin_b,margin_c,margin_d,block_min,block_max"
        assert len(lines) == n_grid + 1


@pytest.mark.parametrize("argv", [
    ["certify", "--warp", "shifted-exp", "--t-min", "-6", "--t-max", "40", "--step", "0.01"],
    ["certify", "--warp", "shifted-exp", "--t-min", "0", "--t-max", "60"],
    ["certify", "--t-min", "0", "--t-max", "20.8"],
], ids=["shifted-to-40", "shifted-to-60", "interpolated-to-20.8"])
def test_certify_decides_from_the_proof_where_the_float_grid_could_not(argv, capsys):
    # float margin a = f - 1 rounds to 0 past t = 36.7, which once refused
    # the shifted grids, and max_k = -9.3e-10 once read inconclusive; every
    # margin is proved positive and -2 < K < 0 on every plane at every t
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "certified" and payload["witness"] is None
    assert payload["pinched_from"] == "-inf" and payload["scale"] == 1.4142135623730951
    assert "floor" not in payload


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
    # witness-gap bound and the finite-difference step are fixed, and the
    # verdicts, which come from proofs, need no floor
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


@pytest.mark.parametrize("argv,form", [
    (["verify-riemann", "--t-grid", "0:1"], "lo:hi:count"),
    (["verify-riemann", "--t-grid", "0:1:-3"], "lo:hi:count"),
    (["verify-riemann", "--z-grid", "0:0:0"], "lo:hi:count"),
    (["lattice", "--matrix", "2,1,1"], "four integers a,b,c,d"),
], ids=["grid-two-parts", "grid-negative-count", "grid-zero-count", "matrix-three-entries"])
def test_malformed_flag_values_are_errors_that_quote_them(argv, form, capsys):
    # these once printed Python's unpacking error, numpy's sample-count
    # error, or failed in the match with "points must be nonempty"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and repr(argv[-1]) in captured.err
    assert form in captured.err


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
    # f^2 = e^712 overflows in the frame form: once a RuntimeWarning before the error
    (["certify", "--warp", "pure-exp", "--t-min", "-356", "--t-max", "-355", "--step", "1"],
     "t=-356.0"),
    (["build-warp", "--t0=-800", "--t1=-1", "--csv", os.devnull], "t=-802.0"),
    (["verify-riemann", "--warp", "shifted-exp", "--t-grid=-400:-399:2"], "t=-400.0"),
    (["certify", "--step", "1e-300"], "t_step"),
    # W^2 overflows: once an OverflowError traceback from Interpolated.eval
    (["certify", "--warp", "interpolated", "--warp-t0=-1e200", "--warp-t1=-1"], "width 1e+200"),
], ids=["volume", "certify-margins", "certify-metric", "build-warp",
        "verify-riemann", "certify-grid-size", "certify-window-width"])
def test_overflowing_commands_are_errors(argv, where, capsys):
    # each once printed "inf" or "nan" numbers and exited 0, failed inside
    # LAPACK or numpy with a message naming no input, or ran out of memory
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and where in captured.err


def test_pure_exp_certify_needs_no_metric_where_it_overflows(tmp_path, capsys):
    # e^(-2t) overflows in the metric at t = -200 and certify once refused
    # the grid for it; the curvature needs f = e^200 only.  The exact
    # pure-exp extremes there are -1 - e^2t (a block) and e^2t - 1 (xy)
    csv_path = tmp_path / "curve.csv"
    code = main(["certify", "--warp", "pure-exp", "--t-min", "-200", "--t-max", "-199",
                 "--step", "1", "--csv", str(csv_path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["status"] == "certified"
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in csv_path.read_text().splitlines()[1:]])
    t, k_min, k_max = rows[:, 0], rows[:, 1], rows[:, 2]
    assert np.array_equal(t, [-200.0, -199.0])
    assert np.array_equal(k_min, -1.0 - np.exp(2.0 * t))
    assert np.array_equal(k_max, np.exp(2.0 * t) - 1.0)


@pytest.mark.parametrize("argv", [
    # 10^6 points: about 18 GB at the match's 18 KB a point
    ["verify-riemann", "--t-grid=-2:2:1000", "--z-grid=-1:1:1000"],
    ["verify-riemann", f"--t-grid=-2:2:{MAX_MATCH_POINTS + 1}", "--z-grid=0:0:1"],
    ["verify-riemann", "--t-grid=-2:2:10000000000"],
    ["--config", "{config}", "run"],
], ids=["product", "one-axis", "huge-count", "run"])
def test_riemann_match_grid_is_refused_before_any_allocation(argv, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"riemann": {"t_grid": [0.0] * 1000, "z_grid": [0.0] * 1000}}))
    argv = [a.format(config=cfg) for a in argv]
    tracemalloc.start()
    try:
        code = main(["--output", str(tmp_path / "o"), *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert str(MAX_MATCH_POINTS) in capsys.readouterr().err
    assert peak < 20e6


def test_match_component_table_refuses_too_many_points():
    points = [(0.0, 0.0)] * (MAX_MATCH_POINTS + 1)
    with pytest.raises(ValueError, match=f"{MAX_MATCH_POINTS + 1} points exceed"):
        match_component_table(ShiftedExp(), points)


def test_build_warp_proves_a_window_the_grid_gave_up_on(tmp_path, capsys):
    # 20 doublings of (-2e-7, -1e-7) once ended in an error; the proof's
    # search needs no cap, since any window 4 wide is admissible
    csv_path = tmp_path / "warp.csv"
    code, out = run_cli(capsys, "build-warp", "--t0=-2e-7", "--t1=-1e-7", "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["T1"] == -1e-7 and payload["T0"] < -1.0
    assert window_witness(Interpolated(payload["T0"], payload["T1"])) is None
    assert csv_margins(csv_path).min() > 0.0


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


@pytest.mark.parametrize("text,where", [
    ('{"warp": {"family": "shifted-exp", "t0": NaN}}', "warp.t0"),
    ('{"warp": {"family": "shifted-exp", "t1": "-1"}}', "warp.t1"),
    ('{"matrix": [2, 1, 1, true]}', "matrix[3]"),
    ('{"certify": {"t_step": true}}', "certify.t_step"),
    ('{"warp": {"family": 3}}', "warp.family"),
    ('{"volume": {"t0": 1e999}}', "volume.t0"),
    ('{"riemann": {"t_grid": 0.0}}', "riemann.t_grid"),
    ('{"riemann": {"z_grid": [0.0, null]}}', "riemann.z_grid[1]"),
    pytest.param('{"certify": {"t_step": 1%s}}' % ("0" * 400), "certify.t_step",
                 id="certify.t_step-401-digit-int"),
    ('{"matrix": [2, 1, 1]}', "matrix"),
    ('{"matrix": [2, 1, 1, 1, 0]}', "matrix"),
    ('{"riemann": {"t_grid": []}}', "riemann.t_grid"),
    ('{"matrix": ["2", 1, 1, 1]}', "matrix[0]"),
    pytest.param('{"certify": {"t_step": 1%s}}' % ("0" * 5000), None,
                 id="5001-digit-int-does-not-parse"),
    pytest.param('{"matrix": [2,1,', None, id="malformed-json"),
    pytest.param(None, None, id="missing-file"),
])
def test_run_refuses_a_config_value_without_its_defaults_type(tmp_path, capsys, text, where):
    # the first four once exited 0 with status "certified" and echoed the
    # value ("nan", "-1" or true) in summary.json; the next four already
    # ended in exit 1, in the stage that read them, and the next five in a
    # message that named no field (such as "int too large to convert to
    # float" or "missing 1 required positional argument: 'd'").  The last
    # three do not parse or cannot be read (where None): they once ended in
    # Python's raw message, naming no file, and wrote no summary.json
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    outdir = tmp_path / "out"
    assert main(["--config", str(cfg), "--output", str(outdir), "run"]) == 1
    err = capsys.readouterr().err
    prefix = f"config {cfg}: " if where is None else f"config field {where} must be a "
    assert err.startswith(f"error: {prefix}") and err.count("\n") == 1
    assert [path.name for path in outdir.iterdir()] == ["summary.json"]
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "error" and summary["error"].startswith(f"ValueError: {prefix}")
    if where is None:
        assert summary["config"] is None


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
    # margin c reaches -3.9e9 inside; certify once called it certified.  The
    # report is the payload of the widened window plus the window it names
    outdir = tmp_path / "o"
    main(["--output", str(outdir), "certify", "--warp", "interpolated",
          "--warp-t0=-1e-4", "--warp-t1=-5e-5"])
    capsys.readouterr()
    warp = build_interpolation(-1e-4, -5e-5)
    t = np.linspace(warp.t_lo, warp.t_hi, 20001)
    assert condition_margins(warp, t).min() > 1e-6
    expected = to_json_text({
        **_certify_payload(certify(warp, (-6.0, 10.0), 0.05)),
        "warp": {"family": "interpolated", "T0": warp.t_lo, "T1": warp.t_hi},
    })
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
    # always, no floor, the 1e-3 validation grid; --output
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


def test_a_window_refusal_is_the_librarys_and_never_an_exit_code(capsys):
    # the CLI widens the steep window (-0.2, -0.1) until the proof covers it,
    # so certify exits 0 on it; only certify on the Interpolated built
    # directly refuses it, and exit 2 stays the pure-exp grid's and usage's
    code, out = run_cli(capsys, "certify", "--warp-t0=-0.2", "--warp-t1=-0.1")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "certified"
    assert payload["warp"]["T1"] == -0.1 and payload["warp"]["T0"] < -0.2
    report = certify(Interpolated(-0.2, -0.1), (-6.0, 10.0), 0.05)
    assert report.status == "refused_conditions"
    assert report.witness["kind"] == "window" and report.witness["condition"] == "c"


def test_volume_command(capsys):
    # the closed forms: 5/6 for shifted-exp and, at the default flags, 1/3
    # for pure-exp; neither report names a window
    for family, flags, integral in (
        ("shifted-exp", ["--vol-c", "1.0", "--t0", "0.0", "--tol", "1e-10"], 5.0 / 6.0),
        ("pure-exp", [], 1.0 / 3.0),
    ):
        code, out = run_cli(capsys, "volume", "--warp", family, *flags)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"integral", "total", "warp"}
        assert payload["warp"] == {"family": family}
        assert abs(payload["integral"] - integral) <= 1e-15 * integral, family


@pytest.mark.parametrize("command", ["volume", "verify-riemann", "certify"])
def test_standalone_reports_name_the_widened_window(command, tmp_path, capsys):
    # no grid point lies in (-1e-4, -5e-5), so the window is widened; the
    # standalone report names the window its numbers belong to
    warp = build_interpolation(-1e-4, -5e-5)
    assert warp.t_lo < -1.0 and warp.t_hi == -5e-5
    flags = ["--warp", "interpolated", "--warp-t0=-1e-4", "--warp-t1=-5e-5"]
    # from t0 = -5 the integral is ~1.1e6, whose rounding level (~7e-10)
    # refuses the default tol 1e-10: this test is about the window's name
    volume_flags = ["--t0=-5", "--tol", "1e-6"]
    code, out = run_cli(capsys, command, *flags, *(volume_flags if command == "volume" else []))
    assert code == 0
    assert json.loads(out)["warp"] == {"family": "interpolated", "T0": warp.t_lo, "T1": warp.t_hi}
    # run names its window in warp.json; its other reports keep their schema
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REDUCED_RUN))
    assert main(["--config", str(cfg), "--output", str(tmp_path), "run"]) == 0
    name = {"volume": "volume.json", "verify-riemann": "riemann.json",
            "certify": "certify.json"}[command]
    assert "warp" not in json.loads((tmp_path / name).read_text())


def test_run_pipeline_writes_all_reports(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REDUCED_RUN))
    # the reduced config, and the default one
    for config, outdir, t_step in ((["--config", str(cfg)], tmp_path / "out", 0.5),
                                   ([], tmp_path / "default", 0.05)):
        code, out = run_cli(capsys, *config, "--output", str(outdir), "run")
        assert code == 0
        for name in ("lattice.json", "warp.json", "riemann.json",
                     "certify.json", "certify.csv", "volume.json", "summary.json"):
            assert (outdir / name).exists(), name
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["status"] == "certified"
        verdict = summary["verdict"]
        assert verdict["riemann_table_matched"] is True
        assert verdict["conditions_hold"] is True
        assert verdict["globally_negative"] is True
        assert verdict["pinched_from"] == "-inf"
        assert verdict["scale"] == 1.4142135623730951
        assert np.isfinite(verdict["total_volume"]) and verdict["total_volume"] > 0.0
        # the one volume of a run is volume.json's; certify reports none
        cert = json.loads((outdir / "certify.json").read_text())
        assert "volume" not in cert and "vol_c" not in cert["config"]
        assert verdict["total_volume"] == json.loads((outdir / "volume.json").read_text())["total"]
        # the embedded config reproduces the run
        assert summary["config"]["certify"]["t_step"] == t_step


def test_certify_csv_of_a_refused_pure_exp_grid_has_no_rows(tmp_path, capsys):
    # refused before any curvature work: the curve CSV is its header alone
    # (run, which wrote it too, now refuses pure-exp before any report)
    csv = tmp_path / "certify.csv"
    code, out = run_cli(capsys, "certify", "--warp", "pure-exp", "--t-min", "0.1",
                        "--t-max", "2.0", "--step", "0.5", "--csv", str(csv))
    assert code == 2 and json.loads(out)["status"] == "refused_conditions"
    assert csv.read_text() == (
        "t,k_min,k_max,margin_a,margin_b,margin_c,margin_d,block_min,block_max\n")


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

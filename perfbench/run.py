"""Benchmark of the solcusp certification pipeline.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  Every input
is drawn from ``--seed``.  Iterations of the workload repeat, with the same
inputs, until ``--seconds`` have passed (at least two), and every output is
checked against the benchmark's own references (``reference.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced.  With ``--trace 1``
untraced and traced iterations alternate; the metrics are the per-layer ones
from the traced iterations plus the tracing overhead, and the spans are
written to ``.perfbench_out/`` when the run ends.  The line before it is a
JSON object of run details: environment, samples, fail_frac, false_claims.

Exits with code 2, printing no result, when the program's sources are
missing.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Modules that load numpy (workloads, reference, spans, solcusp) are imported
# inside functions, so that a set-up probe's clock starts before numpy loads.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("lattice", "warp", "curvature", "certify", "volume", "serialize", "cli")
MIN_ITERATIONS = 2
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

# Workload and metric names, with units, come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import plus input generation once and print it")
    return p.parse_args(argv)


def import_program():
    """Import solcusp and its seven layer modules from the checkout's src/, or exit 2."""
    if not (SRC / "solcusp" / "__init__.py").is_file():
        print(f"perfbench: no solcusp sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import solcusp
    if Path(solcusp.__file__).resolve().parent != SRC / "solcusp":
        print(f"perfbench: imported solcusp from {solcusp.__file__}", file=sys.stderr)
        raise SystemExit(2)
    for layer in LAYERS:
        importlib.import_module(f"solcusp.{layer}")
    return solcusp


def make_inputs(workload: str, seed: int, workdir: Path):
    import numpy as np
    import workloads
    return workloads.WORKLOADS[workload].generate(np.random.default_rng(seed), workdir)


def setup_probe(args) -> None:
    """Child process: time the program import plus input generation.

    Inputs that are files go to the working directory the parent chose.
    """
    start = time.perf_counter()
    import_program()
    make_inputs(args.workload, args.seed, Path.cwd())
    print(repr(time.perf_counter() - start))


def measure_setup(args, tmpdir: Path) -> float:
    """Median over fresh interpreters of import plus input generation."""
    samples = []
    for n in range(SETUP_PROBES):
        workdir = tmpdir / f"probe-{n}"
        workdir.mkdir()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=workdir, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }


def layer_metrics(stats: dict, counters: dict, wall: float) -> dict:
    """Per-layer metrics of one traced iteration."""
    names = stats["names"]

    def get(name, key):
        return names[name][key] if name in names else 0

    durations = get("certify.extremize_point", "durations") or [0.0]
    percentiles = statistics.quantiles(durations, n=10, method="inclusive") \
        if len(durations) > 1 else durations * 9
    planes = counters.get("certify.planes_sampled", 0)
    m = {f"{layer}.self_s": sum(e["self"] for n, e in names.items()
                                if n.split(".", 1)[0] == layer)
         for layer in LAYERS}
    m.update({
        "certify.extremize_point.self_s": get("certify.extremize_point", "self"),
        "certify.extremize_point.calls": get("certify.extremize_point", "calls"),
        "certify.extremize_point.p50_ms": 1e3 * statistics.median(durations),
        "certify.extremize_point.p90_ms": 1e3 * percentiles[8],
        "certify.planes_sampled": planes,
        "certify.resampled_ratio": counters.get("certify.resampled", 0) / planes if planes else 0.0,
        "certify.agreement_max": counters.get("certify.agreement_max", 0.0),
        "certify.flagged_points": counters.get("certify.flagged_points", 0),
        "certify.rescale_to_pinching.s": get("certify.rescale_to_pinching", "total"),
        "curvature.match_component_table.self_s": get("curvature.match_component_table", "self"),
        "warp.condition_margins.s": get("warp.condition_margins", "total"),
        "warp.condition_margins.points": counters.get("warp.condition_margins.points", 0),
        "warp.condition_margins.bytes_computed":
            counters.get("warp.condition_margins.bytes_computed", 0),
        "warp.build_interpolation.s": get("warp.build_interpolation", "total"),
        # every validation after the first in a build is one widening
        "warp.widenings": stats["children"].get(
            ("warp.build_interpolation", "warp.condition_margins"), 0)
            - get("warp.build_interpolation", "calls"),
        "volume.integrand_evals": counters.get("volume.integrand_evals", 0),
        "serialize.bytes": counters.get("serialize.bytes", 0),
        "cli.run.self_s": get("cli.run", "self"),
        "trace.unattributed_frac": (wall - stats["top_level"]) / wall,
        "trace.spans": sum(e["calls"] for e in names.values()),
    })
    for name in ("curvature.riemann_fd", "curvature.riemann_closed", "curvature.metric_at",
                 "warp.eval", "lattice.verify_isometry", "volume.cusp_volume"):
        m[f"{name}.s"] = get(name, "total")
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("lattice.build_sol_lattice", "volume.adaptive_quad", "serialize.to_json_text"):
        m[f"{name}.s"] = get(name, "total")
    return m


def run_benchmark(args, solcusp, tmpdir: Path) -> None:
    setup_s = measure_setup(args, tmpdir)
    import spans
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.workload, args.seed, tmpdir)
    tracer = spans.Tracer(solcusp) if args.trace else None

    tally = workloads.Tally()
    state: dict = {}
    walls, cpus, traced = [], [], []
    start = time.perf_counter()
    n = 0
    while n < MIN_ITERATIONS or time.perf_counter() - start < args.seconds:
        tracing = tracer is not None and n % 2 == 1
        with tracer.installed() if tracing else contextlib.nullcontext():
            if tracing:
                tracer.counters = {}
                first = len(tracer.spans)
            w0, c0 = time.perf_counter(), time.process_time()
            output = workload.run(inputs, n)
            c1, w1 = time.process_time(), time.perf_counter()
        if tracing:
            stats = tracer.iteration_stats(first, len(tracer.spans))
            traced.append((w1 - w0, layer_metrics(stats, tracer.counters, w1 - w0)))
        else:
            walls.append(w1 - w0)
            cpus.append(c1 - c0)
        workload.check(inputs, output, tally, state)
        n += 1

    fail_frac = tally.failed / tally.items if tally.items else 1.0
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kind = "end_to_end"
    else:
        metrics = {name: statistics.median(m[name] for _, m in traced)
                   for name in traced[0][1]}
        metrics["fail_frac"] = fail_frac
        metrics["false_claims"] = tally.false_claims
        metrics["trace.overhead_frac"] = (
            statistics.median(w for w, _ in traced) / statistics.median(walls) - 1.0)
        kind = "per_layer"
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.tsv")

    problems = list(dict.fromkeys(tally.problems))[:10]  # iterations repeat a failure
    details = {
        "workload": args.workload, "seed": args.seed, "iterations": n,
        "untraced_wall_s": walls, "untraced_cpu_s": cpus,
        "traced_wall_s": [w for w, _ in traced],
        "fail_frac": fail_frac, "false_claims": tally.false_claims,
        "problems": problems, "environment": environment(),
    }
    print(json.dumps(details))
    for problem in problems:
        print(f"perfbench: failed check: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.items,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units(kind).items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    solcusp = import_program()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        run_benchmark(args, solcusp, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            tmp_root.rmdir()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

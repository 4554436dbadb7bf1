"""Span tracing of solcusp's seven layers from outside the package.

While installed, every traced public function is replaced, in every solcusp
module that holds it, by a wrapper that records a span (name, start, end,
parent).  Replacing it under the names callers look it up by (for example
``solcusp.certify.metric_at`` as well as ``solcusp.curvature.metric_at``)
catches the calls layers make to each other, not only the benchmark's own.
The scalar ``eval`` of each warp family is wrapped on its class.

Spans stay in memory; ``write`` stores them when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# layer -> public functions wrapped as spans named "<layer>.<function>".
# christoffel and component_table are left out: they run inside
# riemann_fd and the labelling scan tens of thousands of times per iteration,
# and their time belongs to those callers.
TRACED = {
    "lattice": ("build_sol_lattice", "verify_isometry", "cross_section_volume"),
    "warp": ("build_interpolation", "condition_margins"),
    "curvature": ("metric_at", "riemann_closed", "riemann_fd", "match_component_table"),
    "certify": ("certify", "extremize_k", "extremize_point", "rescale_to_pinching"),
    "volume": ("cusp_volume", "adaptive_quad"),
    "serialize": ("to_json_text", "write_csv_text"),
    "cli": ("main", "cmd_run"),
}
WARP_CLASSES = ("PureExp", "ShiftedExp", "Interpolated")

# Span of cli.cmd_run is reported as cli.run, the subcommand it implements.
SPAN_NAMES = {"cli.cmd_run": "cli.run"}


class Tracer:
    """Records spans and counters while installed into the solcusp modules."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name_id, start, end, parent]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn, before=None, after=None):
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- hooks that turn call arguments and results into counters ----------

    def _hooks(self, name: str):
        if name == "certify.extremize_point":
            def after(args, kwargs, result):
                n = args[1] if len(args) > 1 else kwargs.get("n_samples", 100_000)
                self.add("certify.planes_sampled", n)
                self.add("certify.resampled", result.resampled)
                self.counters["certify.agreement_max"] = max(
                    self.counters.get("certify.agreement_max", 0.0),
                    result.method_agreement,
                )
            return None, after
        if name == "certify.certify":
            def after(args, kwargs, result):
                self.add("certify.flagged_points", len(result.flagged_points))
            return None, after
        if name == "warp.condition_margins":
            def after(args, kwargs, result):
                t = np.asarray(args[1] if len(args) > 1 else kwargs["t"], dtype=float)
                self.add("warp.condition_margins.points", t.size)
                # computed, not measured: the t array read plus the margins written
                self.add("warp.condition_margins.bytes_computed", t.nbytes + result.nbytes)
            return None, after
        if name.startswith("serialize."):
            def after(args, kwargs, result):
                self.add("serialize.bytes", len(result.encode()))
            return None, after
        if name == "volume.adaptive_quad":
            def before(args, kwargs):
                fn = args[0]

                def counted(x):
                    self.add("volume.integrand_evals", 1)
                    return fn(x)

                return (counted, *args[1:]), kwargs
            return before, None
        return None, None

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions everywhere they are looked up; undo after."""
        pkg = self.package.__name__
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        undo = []
        for layer, functions in TRACED.items():
            home = sys.modules[f"{pkg}.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                name = SPAN_NAMES.get(f"{layer}.{fname}", f"{layer}.{fname}")
                wrapper = self.wrap(name, original, *self._hooks(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        warp = sys.modules[f"{pkg}.warp"]
        for cls_name in WARP_CLASSES:
            cls = getattr(warp, cls_name)
            undo.append((cls, "eval", cls.__dict__["eval"]))
            cls.eval = self.wrap("warp.eval", cls.__dict__["eval"])
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def iteration_stats(self, first: int, last: int) -> dict:
        """Per-name totals over spans[first:last] (one traced iteration).

        Returns {"calls", "total", "self", "durations"} per span name under
        "names", call counts per (parent name, child name) under "children"
        and the summed duration of top-level spans under "top_level".
        """
        spans = self.spans[first:last]
        child = np.zeros(len(spans))
        for span in spans:
            parent = span[3]
            if parent >= first:
                child[parent - first] += span[2] - span[1]
        stats: dict[str, dict] = {}
        children: dict[tuple[str, str], int] = {}
        top_level = 0.0
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = self.names[name_id]
            entry = stats.setdefault(name, {
                "calls": 0, "total": 0.0, "self": 0.0, "durations": []})
            dur = end - start
            entry["calls"] += 1
            entry["total"] += dur
            entry["self"] += dur - child[i]
            entry["durations"].append(dur)
            if parent < first:
                top_level += dur
            else:
                key = (self.names[self.spans[parent][0]], name)
                children[key] = children.get(key, 0) + 1
        return {"names": stats, "children": children, "top_level": top_level}

    def write(self, path) -> None:
        """Write every span as a tab-separated line: name, start, end, parent."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\n")
            for name_id, start, end, parent in self.spans:
                out.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\n")

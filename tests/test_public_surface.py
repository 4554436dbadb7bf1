"""The names outside code reaches into the package by.

The traced benchmark (``perfbench/spans.py``) wraps every function it lists
in ``TRACED`` under ``solcusp.<layer>`` and the ``eval`` of each class in
``WARP_CLASSES``; a name deleted from the library must fail here, not only
in a traced benchmark run.  The package root exports the names the README
examples import, and no others.
"""

import importlib
import importlib.util
from pathlib import Path

import solcusp

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_layer():
    spans = load_spans()
    missing = [f"{layer}.{name}" for layer, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"solcusp.{layer}"), name, None))]
    warp = importlib.import_module("solcusp.warp")
    missing += [f"warp.{cls}.eval" for cls in spans.WARP_CLASSES
                if "eval" not in getattr(warp, cls, object).__dict__]
    assert missing == []
    assert {"extremize_point", "extremize_k"} <= set(spans.TRACED["certify"])


def test_package_root_exports_the_readme_names():
    names = ["build_interpolation", "certify", "metric_at", "riemann_closed", "riemann_fd"]
    assert sorted(solcusp.__all__) == names
    assert all(callable(getattr(solcusp, name)) for name in names)
    assert solcusp.__version__ == "0.1.0"

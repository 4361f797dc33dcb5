"""Every name the benchmark's tracer wraps still exists in the library.

`bench/tracing.py` records a missing target as absent and drops its metrics,
so renaming or unbinding a traced name would silently change the set of
per-layer metrics the benchmark reports.  This test fails instead.
"""
import importlib.util
from pathlib import Path

import dualgeo
import dualgeo.cli  # noqa: F401  (cli.main is a traced target)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_present():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(dualgeo)
        assert tracer.absent == []
    finally:
        tracer.uninstall()

"""dualgeo benchmark: one workload per process, one caller, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
The process repeats whole passes over the workload's seeded problem list
until the next pass boundary would land farther from S seconds than the
current one, checking every op against its closed-form oracle.  Human-
readable lines come first; the last line of stdout is the JSON result.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json); --trace 1
installs per-layer wrappers (tracing.py), reports the per-layer metrics and
writes the spans to bench/results/.
"""
from __future__ import annotations

import os

# One caller, no extra threads: pin the BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPS = 5

sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import tracing as tr  # noqa: E402
import workloads as wl  # noqa: E402

CLI_SUBCOMMANDS = tuple(wl.README_ARGV)
PER_PASS = {"lengths.shoot_integrations", "chsh.refine_nfev", "tables.bytes_out", "trace.spans"}
# Per-layer metrics that come from a hook on another layer's wrapper.
DERIVED_FROM = {
    "lengths.shoot_integrations": "lengths.geodesic",
    "chsh.refine_nfev": "chsh.minimize",
    "chsh.scan_tensor_bytes": "chsh.tsirelson_scan",
    "tables.bytes_out": "tables.to_csv",
}


def import_dualgeo():
    """Import dualgeo from this checkout's src/, never from site-packages."""
    if not (SRC / "dualgeo" / "__init__.py").is_file():
        raise SystemExit(f"error: no dualgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dualgeo
    import dualgeo.cli  # noqa: F401

    if Path(dualgeo.__file__).resolve().parent != (SRC / "dualgeo").resolve():
        raise SystemExit(f"error: imported dualgeo from {dualgeo.__file__}, not {SRC}")
    return dualgeo


# -- set-up time ----------------------------------------------------------------

_IMPORT_CHILD = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import dualgeo.cli; print(time.perf_counter() - t)"
)


def _child(args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, timeout=60, cwd=ROOT)


def measure_setup_s():
    """Median wall time of `import dualgeo.cli` in fresh interpreters."""
    code = _IMPORT_CHILD.format(src=str(SRC))
    return statistics.median(float(_child(["-c", code]).stdout) for _ in range(SETUP_REPS))


def measure_import_layers():
    """Self import time of dualgeo's and scipy's modules (-X importtime), median of 3."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import dualgeo.cli"
    sums = {"dualgeo": [], "scipy": []}
    for _ in range(3):
        err = _child(["-X", "importtime", "-c", code]).stderr
        tot = {k: 0 for k in sums}
        for m in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \|\s*([\w.]+)", err):
            top = m.group(2).split(".")[0]
            if top in tot:
                tot[top] += int(m.group(1))
        for k in sums:
            sums[k].append(tot[k] / 1e6)
    return {k: statistics.median(v) for k, v in sums.items()}


# -- provenance -----------------------------------------------------------------


def _blas():
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (KeyError, TypeError):
        info["name"] = "unknown"
    # Ask the loaded OpenBLAS itself how many threads it runs.
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info.setdefault("threads", {})[Path(lib).name] = fn()
                break
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(dg, args, problems):
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256_16": wl.input_hash(problems),
        "problems_per_pass": len(problems),
        "dualgeo": dg.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "blas": _blas(),
        "trace": args.trace,
    }


# -- the run --------------------------------------------------------------------


def run_passes(ops, seconds, tracer=None):
    """Whole passes over `ops`; returns [(name, latency_s, failure or None)], passes."""
    records = []
    start = time.perf_counter()
    passes = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
                tracer.enter("op." + op.name)
            t0 = time.perf_counter()
            failure = None
            try:
                result = op.run()
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                latency = time.perf_counter() - t0
                failure = f"raised {type(exc).__name__}: {exc}"
            else:
                latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.exit()
                tracer.paused = True  # oracle checks are not part of the op
            if failure is None:
                try:
                    failure = op.check(result)
                except Exception as exc:  # noqa: BLE001 - a result the oracle cannot read
                    failure = f"check raised {type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.measure_pending()
                tracer.paused = False
            records.append((op.name, latency, failure))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return records, passes


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def end_to_end(records, setup_s):
    lat = [r[1] for r in records]
    failed = sum(r[2] is not None for r in records)
    return {
        "ops_per_s": (len(records) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * percentile(lat, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, records, passes, imports):
    """Every per-layer metric of BENCHMARK.json; a layer the workload does not
    reach reads 0, and a layer whose target no longer exists is left out.
    Counts, self times, bytes and spans are per pass over the problem list,
    so for one seed the counts repeat exactly whatever the number of passes."""
    c, self_s, total_s, ctr = tracer.calls, tracer.self_s, tracer.total_s, tracer.counters

    def per_call(key):
        return 1e3 * total_s[key] / c[key] if c[key] else 0.0

    m = {}
    for name in ("distributions.expect", "distributions.score", "distributions.logp_hessian",
                 "geometry.christoffel", "geometry.fisher_metric", "geometry.divergence_hessians"):
        m[f"{name}.calls"] = (c[name], "count")
        m[f"{name}.self_ms"] = (1e3 * self_s[name], "ms")
    for name in ("distributions.validate", "distributions.convert", "distributions.kl",
                 "berry.StateFamily.state"):
        m[f"{name}.calls"] = (c[name], "count")
    m["geometry.christoffel.ms_per_call"] = (per_call("geometry.christoffel"), "ms")
    m["geometry.christoffel.gaussian_raw.ms_per_call"] = (
        per_call("geometry.christoffel[Gaussian1D.raw]"), "ms")
    m["geometry.fisher_metric.gaussian_raw.ms_per_call"] = (
        per_call("geometry.fisher_metric[Gaussian1D.raw]"), "ms")
    for name in ("lengths.geodesic", "lengths.path_length", "chsh.tsirelson_scan",
                 "berry.berry_phase_loop", "berry.berry_phase_surface",
                 "continuum.membrane_solve", "quantum.schmidt", "tables.to_csv",
                 "tables.to_json", "cli.main"):
        m[f"{name}.self_ms"] = (1e3 * self_s[name], "ms")
    m["lengths.shoot_integrations"] = (ctr["lengths.shoot_integrations"], "count")
    m["chsh.tsirelson_scan.peak_alloc_mb"] = (tracer.max_peak_mb("chsh.tsirelson_scan"), "MB")
    m["chsh.tsirelson_scan.output_mb"] = (ctr["chsh.tsirelson_scan.output_mb"], "MB")
    m["chsh.scan_tensor_bytes"] = (ctr["chsh.scan_tensor_bytes"], "bytes")
    m["chsh.refine_nfev"] = (ctr["chsh.refine_nfev"], "count")
    m["berry.berry_phase_surface.peak_alloc_mb"] = (
        tracer.max_peak_mb("berry.berry_phase_surface"), "MB")
    m["berry.berry_phase_surface.output_mb"] = (ctr["berry.berry_phase_surface.output_mb"], "MB")
    m["tables.bytes_out"] = (ctr["tables.bytes_out"], "bytes")
    for sub in CLI_SUBCOMMANDS:
        lat = [r[1] for r in records if r[0] == f"readme.{sub}"]
        m[f"cli.{sub}.p50_ms"] = (1e3 * percentile(lat, 50) if lat else 0.0, "ms")
    m["setup.import_dualgeo_s"] = (imports["dualgeo"], "s")
    m["setup.import_scipy_s"] = (imports["scipy"], "s")
    m["trace.ops_per_s"] = (len(records) / sum(r[1] for r in records), "1/s")
    m["trace.spans"] = (tracer.span_count, "count")

    for k, (v, unit) in m.items():
        if k.endswith((".calls", ".self_ms")) or k in PER_PASS:
            m[k] = (v / passes, unit)

    def gone(metric):
        layer = DERIVED_FROM.get(metric) or metric.rsplit(".", 1)[0]
        return any(layer == a or layer.startswith(a + ".") for a in tracer.absent)

    return {k: v for k, v in m.items() if not gone(k)}


def op_summary(records):
    by = {}
    for name, lat, failure in records:
        e = by.setdefault(name, {"n": 0, "failed": 0, "lat": [], "why": None})
        e["n"] += 1
        e["lat"].append(lat)
        if failure is not None:
            e["failed"] += 1
            e["why"] = failure
    return {k: {"n": v["n"], "failed": v["failed"], "p50_ms": 1e3 * percentile(v["lat"], 50),
                **({"failure": v["why"]} if v["why"] else {})} for k, v in sorted(by.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problems = wl.generate(args.workload, args.seed)
    dg = import_dualgeo()
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        ops = wl.build_ops(dg, args.workload, problems, str(scratch))
        info = provenance(dg, args, problems)
        print("provenance: " + json.dumps(info, sort_keys=True), flush=True)

        tracer = None
        if args.trace:
            tracer = tr.Tracer()
            tracer.install(dg)
        records, passes = run_passes(ops, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(records)
    failures = [r for r in records if r[2] is not None]
    unexpected = sorted({r[0] for r in failures} - wl.KNOWN_CONTRACT_BREAKERS)
    summary = op_summary(records)

    if tracer is None:
        metrics = end_to_end(records, measure_setup_s())
    else:
        metrics = per_layer(tracer, records, passes, measure_import_layers())
        tracer.write_spans(RESULTS / f"spans-{args.workload}.csv.gz")

    lat = [r[1] for r in records]
    failed_ratio = len(failures) / attempted
    p90 = 1e3 * percentile(lat, 90) if attempted >= 100 else None
    print(f"workload {args.workload}: {passes} passes, {attempted} ops, {len(failures)} failed "
          f"(failed_ratio {failed_ratio:.4f})")
    if unexpected:
        print("  unexpected failures: " + ", ".join(unexpected))
    if not args.trace:
        if p90 is not None:
            beyond = sum(1e3 * x > p90 for x in lat)
            print(f"  op_p90_ms = {p90:.4f} ms (n={attempted}, {beyond} beyond)")
        else:
            print(f"  op_p90_ms not reported: {attempted} ops < 100")
    for k, (v, unit) in metrics.items():
        print(f"  {k} = {v:.6g} {unit}")
    if tracer is not None and tracer.absent:
        print("  absent layers: " + ", ".join(tracer.absent))
    for name, s in summary.items():
        print(f"  op {name}: n={s['n']} p50={s['p50_ms']:.3f} ms failed={s['failed']}"
              + (f" ({s['failure']})" if "failure" in s else ""))

    detail = {"provenance": info, "passes": passes, "ops": summary,
              "failed_ratio": failed_ratio, "op_p90_ms": None if args.trace else p90,
              "absent": tracer.absent if tracer else [],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (RESULTS / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing installed from the benchmark, not from the library.

`Tracer.install(package)` wraps the public functions of each `dualgeo`
module on every name a caller looks up: a module-level function is replaced
in every `dualgeo` module that imported it (so `dualgeo.lengths.christoffel`
is wrapped as well as `dualgeo.geometry.christoffel`), and a method is
replaced on every class of its module that defines it.  A target that no
longer exists is recorded as absent and its metrics are left out; nothing
fails.

Spans are kept in memory as flat arrays (id, parent, name, op, start, end)
and written out once the run ends.  A span's self time is its duration
minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

# Timed layers: name -> "module:function", "module:Class.method" or
# "module:*.method" (every class of the module that defines the method).
SPAN_TARGETS = {
    "distributions.expect": "distributions:*.expect",
    "distributions.score": "distributions:*.score",
    "distributions.logp_hessian": "distributions:*.logp_hessian",
    "geometry.christoffel": "geometry:christoffel",
    "geometry.fisher_metric": "geometry:fisher_metric",
    "geometry.divergence_hessians": "geometry:divergence_hessians",
    "lengths.geodesic": "lengths:geodesic",
    "lengths.path_length": "lengths:path_length",
    "chsh.tsirelson_scan": "chsh:tsirelson_scan",
    "chsh.minimize": "chsh:minimize",
    "berry.berry_phase_loop": "berry:berry_phase_loop",
    "berry.berry_phase_surface": "berry:berry_phase_surface",
    "continuum.membrane_solve": "continuum:membrane_solve",
    "quantum.schmidt": "quantum:schmidt",
    "tables.to_csv": "tables:to_csv",
    "tables.to_json": "tables:to_json",
    "cli.main": "cli:main",
}

# Layers that are only counted: they run too often for a span each.
COUNT_TARGETS = {
    "distributions.validate": "distributions:*.validate",
    "distributions.convert": "distributions:*.convert",
    "distributions.kl": "distributions:*.kl",
    "berry.StateFamily.state": "berry:StateFamily.state",
}

# Spans beyond this many are counted and timed but not stored.
SPAN_STORE_CAP = 400_000


def _family_chart(args, kwargs):
    family, pt = args[0], args[1]
    return f"{type(family).__name__}.{pt.chart}"


# Per-call keys recorded next to the plain totals.
_KEYS = {
    "geometry.christoffel": _family_chart,
    "geometry.fisher_metric": _family_chart,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.absent = []
        self.paused = False
        self.op = -1
        self.span_count = 0
        self._stack = []  # [span id, name id, start, child seconds]
        self._store = {k: array(t) for k, t in
                       (("id", "q"), ("parent", "q"), ("name", "i"), ("op", "i"),
                        ("start", "d"), ("end", "d"))}
        self._patched = []
        self._peaks = {}
        self._pending = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name):
        self._stack.append([self.span_count, self._name_id(name), time.perf_counter(), 0.0])
        self.span_count += 1

    def exit(self, key=None):
        end = time.perf_counter()
        span_id, name_id, start, child = self._stack.pop()
        dur = end - start
        name = self.names[name_id]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if key is not None:
            self.calls[f"{name}[{key}]"] += 1
            self.total_s[f"{name}[{key}]"] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if span_id < SPAN_STORE_CAP:
            s = self._store
            s["id"].append(span_id)
            s["parent"].append(self._stack[-1][0] if self._stack else -1)
            s["name"].append(name_id)
            s["op"].append(self.op)
            s["start"].append(start)
            s["end"].append(end)

    def write_spans(self, path):
        """Write stored spans as gzipped CSV: id,parent,name,op,start_s,end_s."""
        s = self._store
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,op,start_s,end_s\n")
            for i in range(len(s["id"])):
                fh.write(f"{s['id'][i]},{s['parent'][i]},{self.names[s['name'][i]]},"
                         f"{s['op'][i]},{s['start'][i]:.9f},{s['end'][i]:.9f}\n")

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        keyfn = _KEYS.get(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            christoffel_before = self.calls["geometry.christoffel"]
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(keyfn(args, kwargs) if keyfn else None)
            if hook:
                hook(self, fn, args, kwargs, result, christoffel_before)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package):
        """Wrap every target found in `package` (the imported dualgeo module)."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for name, spec in targets.items():
                if not self._patch(package, modules, name, spec, make):
                    self.absent.append(name)

    def _patch(self, package, modules, name, spec, make):
        mod_name, _, attr = spec.partition(":")
        module = getattr(package, mod_name, None)
        if module is None:
            return False
        if "." not in attr:
            orig = getattr(module, attr, None)
            if not callable(orig):
                return False
            wrapped = make(name, orig)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._set(m, k, wrapped)
            return True
        cls_name, _, meth = attr.partition(".")
        if cls_name == "*":
            owners = [c for c in vars(module).values()
                      if inspect.isclass(c) and c.__module__ == module.__name__]
        else:
            owner = getattr(module, cls_name, None)
            owners = [owner] if inspect.isclass(owner) else []
        found = False
        for cls in owners:
            fn = cls.__dict__.get(meth)
            if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                self._set(cls, meth, make(name, fn))
                found = True
        return found

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- memory --------------------------------------------------------

    def peak_alloc(self, name, size_key, fn, args, kwargs):
        """Queue a tracemalloc measurement of this call, once per input size."""
        if (name, size_key) not in self._peaks:
            self._peaks[(name, size_key)] = None
            self._pending.append((name, size_key, fn, args, kwargs))

    def measure_pending(self):
        """Repeat each queued call under tracemalloc with tracing paused, so
        neither its time nor its call counts enter the metrics.  Called
        between ops, outside their timing."""
        self.paused = True
        try:
            for name, size_key, fn, args, kwargs in self._pending:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    self._peaks[(name, size_key)] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        finally:
            self.paused = False
            self._pending.clear()

    def max_peak_mb(self, name):
        peaks = [v for (n, _), v in self._peaks.items() if n == name and v is not None]
        return max(peaks) / 2**20 if peaks else 0.0


# -- hooks: counts that need the arguments or the result of a call -------
# Each runs after the call's span closes: hook(tracer, fn, args, kwargs,
# result, christoffel calls counted before the call).


def _geodesic_hook(tracer, fn, args, kwargs, result, christoffel_before):
    """Shooting integrations = christoffel calls inside the call / (4 RK4 stages x steps)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if bound.arguments["alpha"] == 0:
        rhs_calls = tracer.calls["geometry.christoffel"] - christoffel_before
        tracer.counters["lengths.shoot_integrations"] += rhs_calls / (4 * bound.arguments["steps"])


def _minimize_hook(tracer, fn, args, kwargs, result, _):
    tracer.counters["chsh.refine_nfev"] += result.nfev


def _set_max(tracer, key, value):
    tracer.counters[key] = max(tracer.counters[key], value)


def _tsirelson_hook(tracer, fn, args, kwargs, result, _):
    n = int(args[1] if len(args) > 1 else kwargs["grid_size"])
    # computed, not measured: one float64 N^4 temporary of the grid search,
    # next to the N x N correlator grid the scan evaluates
    _set_max(tracer, "chsh.scan_tensor_bytes", 8.0 * n**4)
    _set_max(tracer, "chsh.tsirelson_scan.output_mb", 8.0 * n**2 / 2**20)
    tracer.peak_alloc("chsh.tsirelson_scan", n, fn, args, kwargs)


def _surface_hook(tracer, fn, args, kwargs, result, _):
    nu1, nv1, _ = (args[1] if len(args) > 1 else kwargs["mesh"]).grid.shape
    # computed: one float64 phase per plaquette
    _set_max(tracer, "berry.berry_phase_surface.output_mb", 8.0 * (nu1 - 1) * (nv1 - 1) / 2**20)
    tracer.peak_alloc("berry.berry_phase_surface", (nu1, nv1), fn, args, kwargs)


def _bytes_hook(tracer, fn, args, kwargs, result, _):
    tracer.counters["tables.bytes_out"] += len(result)


_HOOKS = {
    "lengths.geodesic": _geodesic_hook,
    "chsh.minimize": _minimize_hook,
    "chsh.tsirelson_scan": _tsirelson_hook,
    "berry.berry_phase_surface": _surface_hook,
    "tables.to_csv": _bytes_hook,
    "tables.to_json": _bytes_hook,
}

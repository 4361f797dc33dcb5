"""Batch command-line front end.

Every computation is a subcommand emitting a ScanTable as CSV or JSON with a
provenance block.  Angles are radians unless --deg is given.  Exit codes:
0 success, 2 validation error, 3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, berry, chsh, continuum, lengths, quantum, tables
from . import geometry
from .distributions import (
    MEAN,
    NATURAL,
    RAW,
    Bernoulli,
    Categorical,
    Gaussian1D,
    ParameterPoint,
)
from .errors import NonConvergenceError


class _CliError(Exception):
    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError("args", message)


# Size limits that keep every accepted input within bounded memory.
MAX_SCAN = 1024
MAX_SEGMENTS = 10**6
MAX_MESH_POINTS = 2**20
MAX_COUNT = 2**16
MAX_NODES = 10**5
MAX_K = 64
# lengths holds a few (count, d, d) metric arrays: count * d^2 at most this
MAX_LENGTH_GRID = 2**20


def _check_range(field, value, lo, hi):
    if not lo <= value <= hi:
        raise _CliError(field, f"must lie in [{lo}, {hi}], got {value}")


def _floats(text, field):
    try:
        values = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise _CliError("value", f"cannot parse {text!r} as comma-separated floats") from exc
    if not np.isfinite(values).all():
        raise _CliError(field, "must be finite")
    return values


def _family(args):
    name = args.family
    if name == "gaussian":
        return Gaussian1D()
    if name == "bernoulli":
        return Bernoulli()
    if name == "categorical":
        _check_range("k", args.k, 2, MAX_K)
        return Categorical(args.k)
    raise _CliError("family", f"unknown family {name!r}")


def _angle(value, deg):
    return float(np.deg2rad(value)) if deg else float(value)


def _meta(args, operation, **extra):
    meta = {
        "operation": operation,
        "toolkit_version": __version__,
        "parameters": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "output", "format") and not callable(v)
        },
    }
    meta.update(extra)
    return meta


def _emit(args, table):
    data = tables.to_csv(table) if args.format == "csv" else tables.to_json(table)
    if args.output is None:
        sys.stdout.buffer.write(data)
    else:
        with open(args.output, "wb") as fh:
            fh.write(data)
    return 0


# -- subcommand handlers ------------------------------------------------


def _cmd_fisher(args):
    fam = _family(args)
    pt = ParameterPoint(args.chart, _floats(args.point, "point"))
    g = geometry.fisher_metric(fam, pt)
    d = g.components.shape[0]
    rows = [[float(i), float(j), g.components[i, j]] for i in range(d) for j in range(d)]
    return _emit(args, tables.ScanTable(("i", "j", "g_ij"), rows, _meta(args, "fisher")))


def _cmd_legendre(args):
    values = _floats(args.theta, "theta")
    if args.family == "quadratic":
        pot = geometry.PotentialPair.quadratic(dim=len(values))
        theta = ParameterPoint(pot.primal_chart, values)
    else:
        fam = _family(args)
        pot = geometry.PotentialPair.from_family(fam)
        theta = ParameterPoint(NATURAL, values)
        fam.validate(theta)
    eta, phi_value = geometry.legendre_dual(pot, theta)
    cols = tuple(f"eta_{i}" for i in range(eta.coords.size)) + ("phi",)
    rows = [list(eta.coords) + [phi_value]]
    return _emit(args, tables.ScanTable(cols, rows, _meta(args, "legendre")))


def _cmd_divergence(args):
    fam = _family(args)
    p = ParameterPoint(args.chart, _floats(args.p, "p"))
    q = ParameterPoint(args.chart, _floats(args.q, "q"))
    pot = geometry.PotentialPair.from_family(fam)
    kl_pq = geometry.kl_divergence(fam, p, q)
    kl_qp = geometry.kl_divergence(fam, q, p)
    breg = geometry.bregman_divergence(pot, fam.convert(q, NATURAL), fam.convert(p, MEAN))
    cols = ["kl_pq", "kl_qp", "bregman"]
    row = [kl_pq, kl_qp, breg]
    if args.r is not None:
        r = ParameterPoint(args.chart, _floats(args.r, "r"))
        cols.append("triangle_gap")
        row.append(geometry.pythagorean_gap(fam, p, r, q))
    return _emit(args, tables.ScanTable(tuple(cols), [row], _meta(args, "divergence")))


def _cmd_lengths(args):
    fam = _family(args)
    _check_range("count", args.count, 2, MAX_COUNT)
    grid = args.count * fam.dim**2
    if grid > MAX_LENGTH_GRID:
        raise _CliError("count", f"count * dim^2 = {grid} exceeds {MAX_LENGTH_GRID}")
    path = lengths.ParamPath.straight(args.chart, _floats(args.start, "start"), _floats(args.end, "end"), args.count)
    rep = lengths.length_report(path, fam)
    cols = ("primal", "dual", "harmonic", "divergence_based", "grid_size")
    rows = [[rep.primal, rep.dual, rep.harmonic, rep.divergence_based, float(rep.grid_size)]]
    return _emit(args, tables.ScanTable(cols, rows, _meta(args, "lengths")))


def _cmd_geodesic(args):
    fam = _family(args)
    _check_range("count", args.count, 2, MAX_COUNT)
    a = ParameterPoint(args.chart, _floats(args.a, "a"))
    b = ParameterPoint(args.chart, _floats(args.b, "b"))
    path = lengths.geodesic(fam, args.chart, a, b, args.alpha, count=args.count)
    cols = ("t",) + tuple(f"x_{i}" for i in range(path.samples.shape[1]))
    rows = [[t] + list(x) for t, x in zip(path.ts, path.samples)]
    return _emit(args, tables.ScanTable(cols, rows, _meta(args, "geodesic")))


def _cmd_berry(args):
    if args.family_id != "spin-half":
        raise _CliError("family-id", f"unknown state family {args.family_id!r}")
    fam = berry.spin_half()
    _check_range("segments", args.segments, 8, MAX_SEGMENTS)
    _check_range("surface-nu", args.surface_nu, 1, MAX_MESH_POINTS)
    _check_range("surface-nv", args.surface_nv, 1, MAX_MESH_POINTS)
    points = (args.surface_nu + 1) * (args.surface_nv + 1)
    if points > MAX_MESH_POINTS:
        raise _CliError(
            "surface-mesh", f"(surface-nu + 1) * (surface-nv + 1) = {points} exceeds {MAX_MESH_POINTS}"
        )
    theta_c = _angle(args.theta_c, args.deg)
    loop = berry.latitude_loop(theta_c, args.segments)
    loop_phase = berry.berry_phase_loop(fam, loop, unwrapped=True)
    mesh = berry.polar_cap(theta_c, args.surface_nu, args.surface_nv)
    flux = berry.berry_phase_surface(fam, mesh)
    cols = ("loop_phase", "surface_flux", "discrepancy", "principal_phase")
    rows = [[loop_phase, flux, abs(loop_phase - flux), berry.principal_phase(loop_phase)]]
    return _emit(args, tables.ScanTable(cols, rows, _meta(args, "berry")))


def _make_state(args):
    if args.state == "singlet":
        return chsh.singlet()
    if args.state == "product":
        return chsh.product_state()
    if args.state == "partial":
        if args.weight is None:
            raise _CliError("weight", "--weight is required for --state partial")
        return chsh.schmidt_pair(args.weight)
    raise _CliError("state", f"unknown state {args.state!r}")


def _cmd_chsh(args):
    state = _make_state(args)
    if args.scan is not None:
        _check_range("scan", args.scan, 8, MAX_SCAN)
        table = chsh.tsirelson_scan(state, args.scan)
        table.meta.update(_meta(args, "chsh_scan"))
        return _emit(args, table)
    if args.settings is None:
        raise _CliError("settings", "either --settings or --scan is required")
    vals = [_angle(v, args.deg) for v in _floats(args.settings, "settings")]
    if len(vals) != 4:
        raise _CliError("settings", "expected four angles a,a',b,b'")
    res = chsh.chsh_S(state, *vals)
    excess = chsh.loop_excess(state, *vals)
    cols = ("a", "a_prime", "b", "b_prime", "E_ab", "E_abp", "E_apb", "E_apbp", "S", "excess")
    rows = [
        list(res.settings)
        + [res.correlators["ab"], res.correlators["ab'"], res.correlators["a'b"], res.correlators["a'b'"]]
        + [res.s_value, excess]
    ]
    return _emit(args, tables.ScanTable(cols, rows, _meta(args, "chsh", regime=res.regime)))


def _cmd_decompose(args):
    theta = _angle(args.theta, args.deg)
    e, c = quantum.ec_decomposition(theta, args.n)
    bench = quantum.BipartiteState(np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0))
    rotated = quantum.rotate_subsystem_controlled(bench, geometry.RotationMap(2, theta))
    entropy = quantum.entanglement_entropy(quantum.schmidt(rotated))
    cols = ("E", "C", "total", "controlled_rotation_entropy_nats", "entropy_bits")
    rows = [[e, c, e + c, entropy, entropy / np.log(2.0)]]
    return _emit(args, tables.ScanTable(cols, rows, _meta(args, "decompose")))


def _cmd_membrane(args):
    _check_range("nodes", args.nodes, 16, MAX_NODES)
    prob = continuum.MembraneProblem(args.tension, args.pressure, args.radius, args.nodes)
    field = continuum.membrane_solve(prob)
    exact = continuum.membrane_closed_form(prob, field.radii)
    error = np.abs(field.deflections - exact)
    rows = np.column_stack([field.radii, field.deflections, exact, error])
    orders = continuum.membrane_convergence_order(prob)
    # the max of the error column is membrane_max_error, without a second solve
    meta = _meta(args, "membrane", max_error=float(np.max(error)), convergence_orders=orders)
    return _emit(args, tables.ScanTable(("r", "w", "w_closed_form", "abs_error"), rows, meta))


def _cmd_string(args):
    model = continuum.StringModel(args.amplitude, tuple(_floats(args.levels, "levels")))
    rep = continuum.string_length_report(model, args.x)
    q = continuum.wavelength_quantization_check(model, args.x)
    cols = (
        "exact_length",
        "approximate_length",
        "discrepancy",
        "wavelength",
        "waves_on_domain",
        "wavelength_over_domain",
        "is_integer",
    )
    rows = [
        [
            rep.exact,
            rep.approximate,
            rep.discrepancy,
            q.wavelength,
            q.waves_on_domain,
            q.wavelength_over_domain,
            1.0 if q.is_integer else 0.0,
        ]
    ]
    return _emit(args, tables.ScanTable(cols, rows, _meta(args, "string")))


# -- parser wiring ------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="dualgeo", description="Dual-affine information geometry toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None)
        p.add_argument("--deg", action="store_true", help="interpret angles as degrees")

    p = sub.add_parser("fisher")
    p.add_argument("--family", required=True, choices=("gaussian", "bernoulli", "categorical"))
    p.add_argument("--chart", default=MEAN, choices=(NATURAL, MEAN, RAW))
    p.add_argument("--point", required=True)
    p.add_argument("--k", type=int, default=3, help=f"categorical outcomes, 2 to {MAX_K}")
    common(p)
    p.set_defaults(func=_cmd_fisher)

    p = sub.add_parser("legendre")
    p.add_argument("--family", required=True, choices=("gaussian", "bernoulli", "categorical", "quadratic"))
    p.add_argument("--theta", required=True)
    p.add_argument("--k", type=int, default=3, help=f"categorical outcomes, 2 to {MAX_K}")
    common(p)
    p.set_defaults(func=_cmd_legendre)

    p = sub.add_parser("divergence")
    p.add_argument("--family", required=True, choices=("gaussian", "bernoulli", "categorical"))
    p.add_argument("--chart", default=MEAN, choices=(NATURAL, MEAN, RAW))
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--r", default=None)
    p.add_argument("--k", type=int, default=3, help=f"categorical outcomes, 2 to {MAX_K}")
    common(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("lengths")
    p.add_argument("--family", required=True, choices=("gaussian", "bernoulli", "categorical"))
    p.add_argument("--chart", default=MEAN, choices=(NATURAL, MEAN, RAW))
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument(
        "--count", type=int, default=129,
        help=f"path samples, 2 to {MAX_COUNT}; count * dim^2 at most {MAX_LENGTH_GRID} (dim = k - 1 for categorical)",
    )
    p.add_argument("--k", type=int, default=3, help=f"categorical outcomes, 2 to {MAX_K}")
    common(p)
    p.set_defaults(func=_cmd_lengths)

    p = sub.add_parser("geodesic")
    p.add_argument("--family", required=True, choices=("gaussian", "bernoulli", "categorical"))
    p.add_argument("--chart", default=MEAN, choices=(NATURAL, MEAN, RAW))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--alpha", type=int, default=0, choices=(-1, 0, 1))
    p.add_argument("--count", type=int, default=65, help=f"path samples, 2 to {MAX_COUNT}")
    p.add_argument("--k", type=int, default=3, help=f"categorical outcomes, 2 to {MAX_K}")
    common(p)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("berry")
    p.add_argument("--family", "--family-id", dest="family_id", default="spin-half")
    p.add_argument("--theta-c", dest="theta_c", type=float, required=True)
    p.add_argument("--segments", type=int, default=2000, help=f"loop segments, 8 to {MAX_SEGMENTS}")
    mesh_help = f"(surface-nu + 1) * (surface-nv + 1) at most {MAX_MESH_POINTS}"
    p.add_argument("--surface-nu", dest="surface_nu", type=int, default=128, help=f"theta cells; {mesh_help}")
    p.add_argument("--surface-nv", dest="surface_nv", type=int, default=256, help=f"phi cells; {mesh_help}")
    common(p)
    p.set_defaults(func=_cmd_berry)

    p = sub.add_parser("chsh")
    p.add_argument("--state", default="singlet", choices=("singlet", "product", "partial"))
    p.add_argument("--weight", type=float, default=None)
    p.add_argument("--settings", default=None)
    p.add_argument("--scan", type=int, default=None, help=f"grid angles per setting, 8 to {MAX_SCAN}")
    common(p)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("decompose")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=float, default=1.0)
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("membrane")
    p.add_argument("--tension", "--T", dest="tension", type=float, required=True)
    p.add_argument("--pressure", "--p", dest="pressure", type=float, required=True)
    p.add_argument("--radius", "--R", dest="radius", type=float, required=True)
    p.add_argument("--nodes", type=int, default=256, help=f"radial nodes, 16 to {MAX_NODES}")
    common(p)
    p.set_defaults(func=_cmd_membrane)

    p = sub.add_parser("string")
    p.add_argument("--amplitude", "--A", dest="amplitude", type=float, required=True)
    p.add_argument("--levels", "--fs", dest="levels", required=True, help="energy levels, comma-separated; their sum is f_s")
    p.add_argument("--x", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_string)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise _CliError(name.replace("_", "-"), "must be finite")
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc.field}: {exc.reason}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: numerics: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

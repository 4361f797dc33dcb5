"""The four workloads: seeded problem lists, the op each problem runs, and
the oracle check of its result.

`generate(workload, seed)` returns plain data only (numbers, strings,
argv lists); that data is what the input hash covers.  `build_ops` turns it
into `Op`s that call the library.  Each workload is one pass over a fixed
mix of problem slots; the seed draws the parameters inside each slot from
the stated ranges, so every run does the same mix of work.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as O

WORKLOADS = ("geodesic_shoot", "length_functionals", "quantum_scan", "cli_batch")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is right, else why not


# -- input generation ---------------------------------------------------------


def _raw_gaussian_pair(rng):
    """Interior Gaussian endpoints: mu_a in [-0.5, 0.5], sigma_a in [0.8, 1.25],
    mu_b = mu_a + [0.5, 1], sigma_b = sigma_a * [1.5, 2]."""
    mu_a, s_a = rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.25)
    return [mu_a, s_a], [mu_a + rng.uniform(0.5, 1.0), s_a * rng.uniform(1.5, 2.0)]


def _probs3(rng):
    """Categorical(3) probabilities proportional to U(1, 3): each in [1/7, 3/5]."""
    w = rng.uniform(1.0, 3.0, 3)
    return list(w / w.sum())


def _bern_pair(rng, lo=0.1):
    """Bernoulli means a in [lo, 0.4], b in [0.6, 1 - lo]."""
    return rng.uniform(lo, 0.4), rng.uniform(0.6, 1.0 - lo)


def _gen_geodesic(rng):
    # The RK4 step count is fixed per slot so that the seed moves only the
    # endpoints.  Twelve cheap Bernoulli ops, spread through the pass, put
    # the median op in a group sampled across the whole run.  Bernoulli means
    # stay in [0.15, 0.85]: wider pairs, and the singular natural-chart pair
    # of ROADMAP (log-odds -30 -> 30), make the shooting fail.  Those are not
    # dodged: cli_batch runs both as contract cases.
    heavy = {2: ("categorical", "mean", 8), 5: ("gaussian", "natural", 12),
             9: ("categorical", "mean", 8), 13: ("gaussian", "raw", 8)}
    out = []
    for i in range(16):
        family, chart, steps = heavy.get(i, ("bernoulli", "mean", 16))
        if family == "bernoulli":
            a, b = _bern_pair(rng, lo=0.15)
            out.append(dict(family=family, chart=chart, steps=steps, a=[a], b=[b]))
        elif family == "categorical":
            out.append(dict(family=family, chart=chart, steps=steps, a=_probs3(rng), b=_probs3(rng)))
        else:
            a, b = _raw_gaussian_pair(rng)
            out.append(dict(family=family, chart=chart, steps=steps, a=a, b=b))
    return out


def _gen_lengths(rng):
    # Every family and chart; the sample count is fixed per slot.
    slots = [("bernoulli", "mean", 129), ("bernoulli", "natural", 129),
             ("bernoulli", "mean", 33), ("bernoulli", "natural", 33),
             ("categorical", "mean", 65), ("categorical", "natural", 65),
             ("gaussian", "raw", 33), ("gaussian", "natural", 33), ("gaussian", "mean", 33)]
    out = []
    for family, chart, count in slots:
        if family == "bernoulli":
            a, b = _bern_pair(rng)
            out.append(dict(family=family, chart=chart, count=count, a=[a], b=[b]))
        elif family == "categorical":
            out.append(dict(family=family, chart=chart, count=count,
                            a=_probs3(rng), b=_probs3(rng)))
        else:
            a, b = _raw_gaussian_pair(rng)
            out.append(dict(family=family, chart=chart, count=count, a=a, b=b))
    return out


def _unit_c2(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return [[float(z.real), float(z.imag)] for z in v]


def _gen_quantum(rng):
    amps = rng.normal(size=(2, 2, 2))
    amps /= np.linalg.norm(amps)
    amps2 = rng.normal(size=(2, 2, 2))
    amps2 /= np.linalg.norm(amps2)
    return [
        dict(kind="tsirelson", state="singlet", n=48),
        dict(kind="tsirelson", state="partial", weight=rng.uniform(0.15, 0.85), n=40),
        dict(kind="tsirelson", state="product", a=_unit_c2(rng), b=_unit_c2(rng), n=32),
        dict(kind="tsirelson", state="random", amplitudes=amps.tolist(), n=48),
        dict(kind="tsirelson", state="random", amplitudes=amps2.tolist(), n=24),
        # Five loops of equal size put the median op in one group sampled
        # across the whole run, between the cheap ops and the scans.
        *(dict(kind="berry_loop", theta_c=rng.uniform(0.3, 2.8), segments=2000) for _ in range(5)),
        dict(kind="berry_loop", theta_c=rng.uniform(0.3, 2.8), segments=500),
        dict(kind="berry_surface", theta_c=rng.uniform(0.3, 2.8), nu=64, nv=128),
        dict(kind="berry_surface", theta_c=rng.uniform(0.3, 2.8), nu=128, nv=256),
        dict(kind="ec", theta=rng.uniform(0.0, math.pi), n=rng.uniform(0.5, 2.0)),
        dict(kind="schmidt", theta=rng.uniform(0.1, math.pi - 0.1)),
        dict(kind="membrane", tension=rng.uniform(0.5, 2.0), pressure=rng.uniform(0.5, 2.0),
             radius=rng.uniform(0.5, 2.0), nodes=512),
        dict(kind="string", amplitude=rng.uniform(0.5, 2.0),
             levels=list(rng.uniform(0.2, 1.0, 2)), x=rng.uniform(0.5, 3.0)),
    ]


# The README's ten documented invocations, verbatim.
README_ARGV = {
    "fisher": "fisher --family gaussian --chart raw --point 0,1",
    "legendre": "legendre --family gaussian --theta 1.0,-0.5",
    "divergence": "divergence --family bernoulli --chart mean --p 0.3 --q 0.6",
    "lengths": "lengths --family bernoulli --chart mean --start 0.2 --end 0.8",
    "geodesic": "geodesic --family bernoulli --chart mean --a 0.2 --b 0.8 --alpha 0",
    "berry": "berry --family spin-half --theta-c 1.5707963 --segments 2000",
    "chsh": "chsh --state singlet --scan 24 --format json",
    "decompose": "decompose --theta 0.785398 --n 1.0",
    "membrane": "membrane --T 1 --p 1 --R 1 --nodes 512",
    "string": "string --A 1 --fs 1 --x 1.5707963267948966",
}

# Exit-code contract breakers (five reproduced in ROADMAP), with the outcome the
# contract (0 ok, 2 validation, 3 non-convergence, never a traceback)
# requires.  They fail at the commit that introduced the benchmark and are
# counted as failed ops; `KNOWN_CONTRACT_BREAKERS` only keeps them from
# flipping the run's `correct` flag.
CONTRACT_ARGV = {
    "contract.raw_sigma_underflow": ("fisher --family gaussian --chart raw --point 0,1e-200", "exit_2_or_3"),
    "contract.kl_saturated_logits": ("divergence --family bernoulli --chart natural --p 40 --q -40", "kl_finite"),
    "contract.mean_underflow": ("fisher --family bernoulli --chart mean --point 1e-300", "exit_2_or_3"),
    "contract.natural_overflow": ("fisher --family bernoulli --chart natural --point 800", "exit_2_or_3"),
    "contract.singular_geodesic": ("geodesic --family bernoulli --chart natural --a -30 --b 30 --alpha 0", "exit_3"),
    # Found while defining the geodesic_shoot ranges: shooting between these
    # interior means steps outside (0, 1) and exits 2 ("parameters: eta must
    # lie in (0, 1)"), a numerical failure reported as a parameter error.
    "contract.wide_bernoulli_geodesic": ("geodesic --family bernoulli --chart mean --a 0.1 --b 0.9 --alpha 0",
                                         "geodesic_0_or_3"),
}
KNOWN_CONTRACT_BREAKERS = frozenset(CONTRACT_ARGV)


def _gen_cli(rng):
    f = lambda lo, hi: repr(float(rng.uniform(lo, hi)))  # noqa: E731
    validation = {
        "invalid.sigma_negative": f"fisher --family gaussian --chart raw --point {f(-1, 1)},-{f(0.1, 2)}",
        "invalid.partial_without_weight": "chsh --state partial --scan 24",
        "invalid.weight_above_one": f"chsh --state partial --weight {f(1.1, 2)} --scan 24",
        "invalid.tension_negative": f"membrane --T -{f(0.1, 2)} --p 1 --R 1",
        "invalid.mean_outside": f"fisher --family bernoulli --chart mean --point {f(1.1, 2)}",
        "invalid.string_x_negative": f"string --A 1 --fs 1 --x -{f(0.1, 2)}",
        "invalid.point_unparsable": "fisher --family bernoulli --chart mean --point 0.3x",
    }
    problems = [dict(name=f"readme.{k}", argv=v.split(), expect="readme") for k, v in README_ARGV.items()]
    problems += [dict(name=k, argv=v.split(), expect=e) for k, (v, e) in CONTRACT_ARGV.items()]
    problems += [dict(name=k, argv=v.split(), expect="exit_2") for k, v in validation.items()]
    order = rng.permutation(len(problems))
    return [problems[i] for i in order]


_GENERATORS = {
    "geodesic_shoot": _gen_geodesic,
    "length_functionals": _gen_lengths,
    "quantum_scan": _gen_quantum,
    "cli_batch": _gen_cli,
}


def generate(workload, seed):
    return _GENERATORS[workload](np.random.default_rng(seed))


# -- ops ----------------------------------------------------------------------


def _family(dg, name):
    d = dg.distributions
    if name == "bernoulli":
        return d.Bernoulli()
    if name == "gaussian":
        return d.Gaussian1D()
    return d.Categorical(3)


def _chart_coords(p):
    """Endpoint coordinates in the problem's chart, from the generated means/raw values."""
    fam, chart = p["family"], p["chart"]

    def conv(v):
        if fam == "bernoulli":
            return [math.log(v[0] / (1.0 - v[0]))] if chart == "natural" else list(v)
        if fam == "categorical":
            return [math.log(v[0] / v[2]), math.log(v[1] / v[2])] if chart == "natural" else v[:2]
        mu, s = v
        if chart == "natural":
            return [mu / s**2, -1.0 / (2.0 * s**2)]
        if chart == "mean":
            return [mu, mu**2 + s**2]
        return list(v)

    return conv(p["a"]), conv(p["b"])


def _fisher_rao(p):
    if p["family"] == "bernoulli":
        return O.fisher_rao_bernoulli(p["a"][0], p["b"][0])
    if p["family"] == "categorical":
        return O.fisher_rao_categorical(p["a"], p["b"])
    return O.fisher_rao_gaussian(*p["a"], *p["b"])


def _geodesic_op(dg, p):
    fam = _family(dg, p["family"])
    a, b = _chart_coords(p)
    pa = dg.distributions.ParameterPoint(p["chart"], np.array(a))
    pb = dg.distributions.ParameterPoint(p["chart"], np.array(b))
    ref = _fisher_rao(p)

    def run():
        return dg.lengths.geodesic(fam, p["chart"], pa, pb, 0, count=65, steps=p["steps"])

    def check(path):
        if np.max(np.abs(path.samples[0] - a)) > 1e-12 or np.max(np.abs(path.samples[-1] - b)) > 1e-6:
            return "path does not join the endpoints"
        err = O.rel_err(dg.lengths.primal_length(path, fam), ref)
        return None if err <= O.GEODESIC_LENGTH_RTOL else f"length rel err {err:.3g}"

    return Op(f"geodesic.{p['family']}.{p['chart']}.s{p['steps']}", run, check)


def _lengths_op(dg, p):
    fam = _family(dg, p["family"])
    a, b = _chart_coords(p)
    ref = _fisher_rao(p)

    def run():
        path = dg.lengths.ParamPath.straight(p["chart"], a, b, p["count"])
        return dg.lengths.length_report(path, fam)

    def check(rep):
        errs = {
            "dual": (O.rel_err(rep.dual, rep.primal), O.DUAL_LENGTH_RTOL),
            "harmonic": (O.rel_err(rep.harmonic, rep.primal), O.HARMONIC_LENGTH_RTOL),
            "divergence_based": (O.rel_err(rep.divergence_based, math.sqrt(2.0) * rep.primal),
                                 O.DIVERGENCE_LENGTH_RTOL),
            # no path is shorter than the geodesic
            "primal>=fisher_rao": (max(0.0, (ref - rep.primal) / ref), O.BERNOULLI_LENGTH_RTOL),
        }
        if p["family"] == "bernoulli":  # one dimension: every monotone path is a geodesic
            errs["primal=fisher_rao"] = (O.rel_err(rep.primal, ref), O.BERNOULLI_LENGTH_RTOL)
        bad = [f"{k} err {e:.3g}" for k, (e, tol) in errs.items() if not e <= tol]
        return "; ".join(bad) or None

    return Op(f"lengths.{p['family']}.{p['chart']}.n{p['count']}", run, check)


def _state(dg, p):
    c = dg.chsh
    if p["state"] == "singlet":
        return c.singlet()
    if p["state"] == "partial":
        return c.schmidt_pair(p["weight"])
    if p["state"] == "product":
        return c.product_state([complex(*z) for z in p["a"]], [complex(*z) for z in p["b"]])
    amps = np.array(p["amplitudes"])
    return dg.quantum.BipartiteState(amps[..., 0] + 1j * amps[..., 1])


def _quantum_op(dg, p):
    kind = p["kind"]
    if kind == "tsirelson":
        state = _state(dg, p)
        ref = O.chsh_max_horodecki(state.amplitudes)

        def check(table):
            err = abs(table.meta["max_abs_S"] - ref)
            return None if err <= O.CHSH_ABS else f"max |S| off by {err:.3g}"

        return Op(f"tsirelson.{p['state']}.n{p['n']}",
                  lambda: dg.chsh.tsirelson_scan(state, p["n"]), check)
    if kind in ("berry_loop", "berry_surface"):
        b = dg.berry
        ref = O.berry_cap_phase(p["theta_c"])
        tol = O.BERRY_LOOP_ABS if kind == "berry_loop" else O.BERRY_SURFACE_ABS
        if kind == "berry_loop":
            def run():
                return b.berry_phase_loop(b.spin_half(), b.latitude_loop(p["theta_c"], p["segments"]),
                                          unwrapped=True)
            name = f"berry_loop.k{p['segments']}"
        else:
            def run():
                return b.berry_phase_surface(b.spin_half(), b.polar_cap(p["theta_c"], p["nu"], p["nv"]))
            name = f"berry_surface.{p['nu']}x{p['nv']}"

        def check(phase):
            err = abs(phase - ref)
            return None if err <= tol else f"phase off by {err:.3g}"

        return Op(name, run, check)
    if kind == "ec":
        def check(ec):
            e, c = ec
            if e + c != p["n"]:
                return "E + C != N"
            err = abs(e - p["n"] * math.sin(p["theta"]) ** 2)
            return None if err <= O.QUANTUM_ABS else f"E off by {err:.3g}"

        return Op("ec_decomposition", lambda: dg.quantum.ec_decomposition(p["theta"], p["n"]), check)
    if kind == "schmidt":
        q = dg.quantum
        start = q.BipartiteState(np.array([[1.0, 0.0], [1.0, 0.0]]) / math.sqrt(2.0))
        ref = O.controlled_rotation_entropy(p["theta"])

        def run():
            rotated = q.rotate_subsystem_controlled(start, dg.geometry.RotationMap(2, p["theta"]))
            return q.entanglement_entropy(q.schmidt(rotated))

        return Op("schmidt_entropy", run,
                  lambda s: None if abs(s - ref) <= O.QUANTUM_ABS else f"entropy off by {abs(s - ref):.3g}")
    if kind == "membrane":
        cont = dg.continuum
        prob = cont.MembraneProblem(p["tension"], p["pressure"], p["radius"], p["nodes"])

        def check(field):
            exact = O.membrane_parabola(p["tension"], p["pressure"], p["radius"], field.radii)
            err = float(np.max(np.abs(field.deflections - exact))) / abs(exact[0])
            return None if err <= O.MEMBRANE_RTOL else f"deflection rel err {err:.3g}"

        return Op("membrane_solve", lambda: cont.membrane_solve(prob), check)
    cont = dg.continuum
    model = cont.StringModel(p["amplitude"], tuple(p["levels"]))
    ref = O.string_arc_length(p["amplitude"], sum(p["levels"]), p["x"])

    def check(rep):
        if not rep.exact >= p["x"]:
            return "arc length shorter than its chord"
        err = O.rel_err(rep.exact, ref)
        return None if err <= O.STRING_RTOL else f"arc length rel err {err:.3g}"

    return Op("string_length_report", lambda: cont.string_length_report(model, p["x"]), check)


# -- CLI ops ------------------------------------------------------------------


@dataclass
class CliOutcome:
    code: object  # exit code, or "uncaught <Exception>" where a process would print a traceback
    stderr: str
    data: bytes | None


def _rows(dg, out):
    table = dg.tables.from_json(out.data) if out.data.startswith(b"{") else dg.tables.from_csv(out.data)
    return table, [dict(zip(table.columns, r)) for r in table.rows]


def _bernoulli_geodesic_ok(rows, a, b):
    """Levi-Civita geodesics of the Bernoulli family run uniformly in arcsin sqrt(eta)."""
    ts = np.array([x["t"] for x in rows])
    phi = np.arcsin(np.sqrt([x["x_0"] for x in rows]))
    lin = phi[0] + ts * (phi[-1] - phi[0])
    return (abs(rows[0]["x_0"] - a) <= 1e-12 and abs(rows[-1]["x_0"] - b) <= 1e-6
            and float(np.max(np.abs(phi - lin))) <= O.GEODESIC_LENGTH_RTOL * abs(phi[-1] - phi[0]))


def _readme_oracles():
    """Oracle for each README invocation: (table, rows) -> bool."""
    s2 = math.sqrt(2.0)

    def fisher(_, r):  # Gaussian raw chart at (0, 1): g = diag(1, 2)
        g = {(int(x["i"]), int(x["j"])): x["g_ij"] for x in r}
        want = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 2.0}
        return max(abs(g[k] - v) for k, v in want.items()) <= O.CLI_RTOL * 2.0

    def legendre(_, r):  # theta = (1, -1/2): eta = (1, 2), phi = -1/2
        r = r[0]
        return max(abs(r["eta_0"] - 1.0), abs(r["eta_1"] - 2.0), abs(r["phi"] + 0.5)) <= O.CLI_RTOL

    def divergence(_, r):
        r = r[0]
        pq, qp = O.bernoulli_kl_mean(0.3, 0.6), O.bernoulli_kl_mean(0.6, 0.3)
        return (O.rel_err(r["kl_pq"], pq) <= O.CLI_RTOL and O.rel_err(r["kl_qp"], qp) <= O.CLI_RTOL
                and O.rel_err(r["bregman"], pq) <= O.CLI_RTOL)

    def lengths(_, r):
        r = r[0]
        return (O.rel_err(r["primal"], O.fisher_rao_bernoulli(0.2, 0.8)) <= O.BERNOULLI_LENGTH_RTOL
                and O.rel_err(r["dual"], r["primal"]) <= O.DUAL_LENGTH_RTOL
                and O.rel_err(r["harmonic"], r["primal"]) <= O.HARMONIC_LENGTH_RTOL
                and O.rel_err(r["divergence_based"], s2 * r["primal"]) <= O.DIVERGENCE_LENGTH_RTOL)

    def geodesic(_, r):
        return _bernoulli_geodesic_ok(r, 0.2, 0.8)

    def berry(_, r):
        ref = O.berry_cap_phase(1.5707963)
        return (abs(r[0]["loop_phase"] - ref) <= O.BERRY_LOOP_ABS
                and abs(r[0]["surface_flux"] - ref) <= O.BERRY_SURFACE_ABS)

    def chsh(table, _):
        return abs(table.meta["max_abs_S"] - 2.0 * s2) <= O.CHSH_ABS

    def decompose(_, r):
        r, th = r[0], 0.785398
        ent = O.controlled_rotation_entropy(th)
        return (r["E"] + r["C"] == r["total"] == 1.0 and abs(r["E"] - math.sin(th) ** 2) <= O.QUANTUM_ABS
                and abs(r["controlled_rotation_entropy_nats"] - ent) <= O.QUANTUM_ABS
                and abs(r["entropy_bits"] - ent / math.log(2.0)) <= O.QUANTUM_ABS)

    def membrane(_, r):
        w = np.array([x["w"] for x in r])
        exact = O.membrane_parabola(1.0, 1.0, 1.0, np.array([x["r"] for x in r]))
        return float(np.max(np.abs(w - exact))) <= O.MEMBRANE_RTOL * 0.25

    def string(_, r):
        r, x = r[0], 1.5707963267948966
        return (r["exact_length"] >= x and abs(r["approximate_length"] - 1.0) <= 1e-15
                and O.rel_err(r["exact_length"], O.string_arc_length(1.0, 1.0, x)) <= O.STRING_RTOL)

    return dict(fisher=fisher, legendre=legendre, divergence=divergence, lengths=lengths,
                geodesic=geodesic, berry=berry, chsh=chsh, decompose=decompose,
                membrane=membrane, string=string)


_README_ORACLES = _readme_oracles()
_EXIT_CODES = {"exit_2": (2,), "exit_3": (3,), "exit_2_or_3": (2, 3)}


def _cli_check(dg, name, expect):
    """Check one CLI outcome against the exit-code contract and, on exit 0, its oracle."""

    def succeeded(out, oracle):
        if out.code != 0 or out.data is None:
            return f"exit {out.code}, want 0: {out.stderr.strip()[-160:]}"
        return None if oracle(*_rows(dg, out)) else "output misses its oracle"

    def refused(out, codes):
        if out.code not in codes:
            return f"exit {out.code}, want {codes}"
        if not out.stderr.startswith("error: "):
            return "no 'error: <field>: <reason>' line"
        return None

    if expect == "readme":
        oracle = _README_ORACLES[name.split(".", 1)[1]]
        return lambda out: succeeded(out, oracle)
    if expect == "kl_finite":  # ~40 nats each way; finite, so it must be reported
        ref = O.bernoulli_kl_natural(40.0, -40.0)

        def kl_ok(_, r):
            return O.rel_err(r[0]["kl_pq"], ref) <= O.CLI_RTOL and O.rel_err(r[0]["kl_qp"], ref) <= O.CLI_RTOL
        return lambda out: succeeded(out, kl_ok)
    if expect == "geodesic_0_or_3":  # a valid interior pair: a path, or a non-convergence exit
        return lambda out: (refused(out, (3,)) if out.code != 0 else
                            succeeded(out, lambda _, r: _bernoulli_geodesic_ok(r, 0.1, 0.9)))
    return lambda out: refused(out, _EXIT_CODES[expect])


def _cli_op(dg, p, out_path):
    argv = p["argv"] + ["--output", out_path]

    def run():
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = dg.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a process would print a traceback and exit 1
                code = f"uncaught {type(exc).__name__}"
        data = None
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
        return CliOutcome(code, err.getvalue(), data)

    return Op(p["name"], run, _cli_check(dg, p["name"], p["expect"]))


def build_ops(dg, workload, problems, scratch_dir):
    if workload == "geodesic_shoot":
        return [_geodesic_op(dg, p) for p in problems]
    if workload == "length_functionals":
        return [_lengths_op(dg, p) for p in problems]
    if workload == "quantum_scan":
        return [_quantum_op(dg, p) for p in problems]
    out_path = os.path.join(scratch_dir, "cli-output.dat")
    return [_cli_op(dg, p, out_path) for p in problems]


def input_hash(problems):
    return hashlib.sha256(json.dumps(problems, sort_keys=True).encode()).hexdigest()[:16]

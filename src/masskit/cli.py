"""Workbench commands: mass, solve, deform, compactify, ale, converge.

Each command reads one JSON scene, drives the matching pipeline, and
emits canonical reports plus a run manifest into the output directory.
Run settings come from flags only: --out (default masskit-out),
--threads (default 1, at least 1) and --seed, which overrides the scene's
seed.  Exit codes: 0 success, 1 configuration error, 2 audit or regime
failure, 3 solver or internal numerical fault.  A usage error, such as a
missing --config or --threads 0, exits 2 before any scene is read.
`Run` is the run ledger: the audit outcomes and output names that
run_manifest.json records.  An audit records only a check the library
does not make: where a library call enforces an inequality it raises
RegimeError on it, and the CLI does not record it a second time.
Identical scene and seed give byte-identical outputs (the writers in
`reports` fix the bytes of each file); only run_manifest.json's
wall_clock field varies between repeats.  Each command body imports the
modules it runs, so a `mass` run or `--help` loads no solver and no scipy.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import click
import numpy as np

from . import adm, config as scene, reports
from .curvature import sample_directions, scalar_curvature_bartnik
from .errors import (ConfigError, DegenerateMetricError, DomainError,
                     InternalFault, RegimeError, SolverError)
from .tolerances import BAND_WITNESS, LAPLACIAN_TOL, WITNESS_R

FLUX_TOL = 1e-8
ORDER_BAND = (1.8, 2.2)
ORACLE_RTOL = 1e-4
# mass-matches-expected bounds |extrapolated - expected| by
# MASS_RTOL max(1, |expected|)
MASS_RTOL = 0.01
# random directions per radius of a scalar_flatness study
DIRECTIONS = 12
# lattice points per axis of the emitted torus chart
TORUS_CHART_SAMPLES = 5


class Run:
    """Run ledger: emitted files, audit outcomes, the closing manifest.

    Each audit is one inequality `lhs op rhs` recorded exactly once; a
    FAIL entry keeps both sides, the signed margin, and a location
    string so the violation can be found without rerunning.
    """

    def __init__(self, command, cfg, out_dir, seed, threads):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.seed = seed
        self.threads = threads
        self.outcomes = []
        self.outputs = []
        self.manifest = {"command": command, "config_hash": cfg.sha256,
                         "seed": seed, "threads": threads,
                         "outcomes": self.outcomes, "outputs": self.outputs,
                         "error": None}

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def audit(self, name, op, lhs, rhs, location=None):
        """Record the inequality; returns True when it holds.  The strict
        comparisons demand a positive margin."""
        if op not in ("<=", ">=", "<", ">"):
            raise InternalFault("unknown audit comparison %r" % op)
        if any(rec["audit"] == name for rec in self.outcomes):
            raise InternalFault("audit %r recorded twice" % name)
        lhs = float(lhs)
        rhs = float(rhs)
        margin = rhs - lhs if op in ("<=", "<") else lhs - rhs
        passed = margin > 0.0 if op in ("<", ">") else margin >= 0.0
        self.outcomes.append({
            "audit": name,
            "comparison": op,
            "lhs": lhs,
            "rhs": rhs,
            "margin": margin,
            "status": "PASS" if passed else "FAIL",
            "location": location,
        })
        return passed

    def emit_json(self, name, obj):
        reports.write_json(self.path(name), obj)
        self.outputs.append(name)

    def emit_csv(self, name, header, rows):
        reports.write_csv(self.path(name), header, rows)
        self.outputs.append(name)

    def emit_json_lines(self, name, records):
        reports.write_json_lines(self.path(name), records)
        self.outputs.append(name)

    def map_ladder(self, fn, items):
        """Order-preserving map; rungs are independent, reduction is left
        to the caller in ladder order, so the result does not depend on
        the worker count."""
        items = list(items)
        if self.threads <= 1 or len(items) <= 1:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(fn, items))

    def close(self, status, started, error=None):
        self.manifest["status"] = status
        self.manifest["wall_clock"] = round(time.perf_counter() - started, 6)
        if error is not None:
            self.manifest["error"] = {"class": type(error).__name__,
                                      "message": str(error)}
        reports.write_json(self.path("run_manifest.json"), self.manifest)


def _dispatch(command, body, config_path, out, threads, seed):
    try:
        cfg = scene.load_config(config_path)
    except ConfigError as exc:
        click.echo("config error: %s" % exc, err=True)
        sys.exit(1)
    run = Run(command, cfg, out_dir=out,
              seed=cfg.seed if seed is None else int(seed), threads=threads)
    started = time.perf_counter()
    try:
        body(cfg.block(command), scene.build_metric(cfg), run)
    except (ConfigError, DomainError) as exc:
        run.close("config-error", started, error=exc)
        click.echo("config error: %s" % exc, err=True)
        sys.exit(1)
    except (RegimeError, DegenerateMetricError) as exc:
        run.close("fail", started, error=exc)
        click.echo("regime failure: %s" % exc, err=True)
        sys.exit(2)
    except (SolverError, InternalFault) as exc:
        run.close("fault", started, error=exc)
        click.echo("numerical fault: %s" % exc, err=True)
        sys.exit(3)
    failures = [rec for rec in run.outcomes if rec["status"] == "FAIL"]
    if failures:
        run.close("fail", started)
        for rec in failures:
            click.echo("FAIL %s: %.12g %s %.12g (margin %.3g)"
                       % (rec["audit"], rec["lhs"], rec["comparison"],
                          rec["rhs"], rec["margin"]), err=True)
        sys.exit(2)
    run.close("ok", started)
    click.echo("ok: %d audits passed; wrote %d files to %s"
               % (len(run.outcomes), len(run.outputs) + 1, run.out_dir))


def _cmd_mass(block, metric, run):
    method = block.get("method", "auto")
    if "quadrature_order" in block and method != "quadrature":
        raise ConfigError("mass.quadrature_order is not read unless "
                          "mass.method is 'quadrature'")
    order = int(block.get("quadrature_order", adm.DEFAULT_QUADRATURE_ORDER))
    report = adm.adm_mass(metric, block["radii"], order=order, method=method,
                          map_fn=run.map_ladder)
    run.emit_json("mass_report.json", report.to_json_dict())
    run.emit_csv("mass_ladder.csv",
                 ("rho", "partial_mass", "abs_err_vs_extrapolated"),
                 report.to_csv_rows())
    run.audit("extrapolation-confident", "<=", int(report.low_confidence), 0)
    if "expected" in block:
        expected = float(block["expected"])
        run.audit("mass-matches-expected", "<=",
                  abs(report.extrapolated - expected),
                  MASS_RTOL * max(1.0, abs(expected)))


def _cmd_solve(block, metric, run):
    from . import elliptic, oracles
    f = scene.build_profile(block["potential"], metric.n,
                            where="solve.potential")
    dom = scene.build_domain(block["domain"], metric.n)
    support = float(block["support_radius"])
    problem = elliptic.EllipticProblem(metric, f, support, dom)
    c_S = block.get("c_S")
    if c_S is None:
        from .rayleigh import sobolev_estimate
        c_S = sobolev_estimate(dom, metric).c_S
    small = elliptic.check_smallness(problem, float(c_S))
    run.audit("potential-smallness", "<=", small.lhs, small.threshold)
    solution = elliptic.solve_conformal_factor(problem)
    run.emit_json_lines("solve_iterations.jsonl", solution.diagnostics)
    payload = solution.to_json_dict()
    payload["smallness"] = small.to_json_dict()
    if block.get("oracle", {}).get("enabled", False):
        shot = oracles.shoot_conformal_factor(metric, f, support)
        run.audit("matches-shooting-oracle", "<=",
                  abs(solution.A_integral - shot.A),
                  ORACLE_RTOL * max(abs(shot.A), 1e-3))
        payload["oracle_A"] = float(shot.A)
    run.emit_json("solve_report.json", payload)
    run.audit("outer-flux-vanishes", "<=", abs(solution.flux_grad), FLUX_TOL)
    run.audit("energy-flux-vanishes", "<=", abs(solution.flux_u_grad),
              FLUX_TOL)


def _cmd_deform(block, metric, run):
    from . import density
    ladder = tuple(float(s) for s in block.get("s_ladder",
                                               density.DEFAULT_S_LADDER))
    report = density.density_deform(
        metric, float(block["eps_target"]), s_ladder=ladder,
        c_S=block.get("c_S"), m=block.get("mass"))
    header = ("s", "delta_s", "A_integral", "A_fit", "tau", "m_bar",
              "min_R", "end_norm", "mass_shift")
    rows = []
    for rung in report.rungs:
        row = rung.to_row()
        rows.append(tuple(row[k] for k in header[:-1]) + (rung.mass_shift,))
    run.emit_csv("deform_trend.csv", header, rows)
    verify = density.verify_mass_shift(report)
    payload = report.to_json_dict()
    payload["independent_mass_check"] = verify
    run.emit_json("deform_report.json", payload)
    rungs = report.rungs
    shifts = [abs(r.mass_shift) for r in rungs]
    if len(shifts) >= 2:
        steps = [shifts[i + 1] - shifts[i] for i in range(len(shifts) - 1)]
        j = int(np.argmax(steps))
        run.audit("shift-trend-decreasing", "<", steps[j], 0.0,
                  location="s=%g" % rungs[j + 1].s)
    run.audit("independent-mass-check", "<=", verify["error"],
              density.VERIFY_RTOL * max(1.0, abs(verify["reported"])))


def _emit_torus_chart(run, metric, torus_report):
    """JSON header plus CSV metric samples on a cube-periodic lattice."""
    n = int(torus_report["n"])
    side = float(torus_report["side"])
    half = 0.5 * side
    # left-closed lattice: +half duplicates -half under face identification
    axis = -half + side * np.arange(TORUS_CHART_SAMPLES) / TORUS_CHART_SAMPLES
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    r = np.linalg.norm(X, axis=1)
    keep = r >= 1.05 * metric.r_min
    X = X[keep]
    G = metric.g(X)
    iu = np.triu_indices(n)
    header = tuple("x%d" % (k + 1) for k in range(n)) + tuple(
        "g%d%d" % (i + 1, j + 1) for i, j in zip(*iu))
    rows = np.concatenate([X, G[:, iu[0], iu[1]]], axis=1)
    run.emit_json("torus_chart.json", {
        "dimension": n,
        "side": side,
        "collar": torus_report["collar"],
        "flat_radius": torus_report["flat_radius"],
        "constant_factor": torus_report["constant_factor"],
        "grid_shape": [TORUS_CHART_SAMPLES] * n,
        "spacing": side / TORUS_CHART_SAMPLES,
        "samples_emitted": int(keep.sum()),
        "samples_skipped_core": int((~keep).sum()),
        "columns": list(header),
    })
    run.emit_csv("torus_chart.csv", header, rows)


def _cmd_compactify(block, metric, run):
    from . import lohkamp
    if metric.conformal_u is None:
        raise ConfigError("compactify needs a conformally flat metric "
                          "(schwarzschild or conformally_flat family)")
    state = lohkamp.lohkamp_cutoff(metric.conformal_u, float(block["s1"]),
                                   n=metric.n)
    superharmonic = lohkamp.check_superharmonic(state)
    run.audit("cap-never-subharmonic", "<=", superharmonic["max_lap"],
              LAPLACIAN_TOL)
    run.audit("cap-superharmonic-in-band", "<=",
              superharmonic["min_band_lap"], BAND_WITNESS)
    capped, metric_report = lohkamp.lohkamp_metric(state, superharmonic)
    torus_cfg = block.get("torus", {})
    spec = lohkamp.TorusGlueSpec(
        flat_radius=float(torus_cfg.get("flat_radius", state.r_flat)),
        collar=torus_cfg.get("collar"))
    torus_report = lohkamp.torus_glue(capped, spec)
    run.audit("torus-curvature-witness", ">", torus_report["witness_R"],
              WITNESS_R)
    run.emit_json("compactify_report.json", {
        "cut": {"s1": state.s1, "s2": state.s2, "epsilon": state.epsilon,
                "t0": state.t0, "t1": state.t1, "cap": state.cap,
                "m_bar": state.m_bar, "band": list(state.band),
                "r_flat": state.r_flat, "dimension": state.n},
        "superharmonic": superharmonic,
        "capped_metric": metric_report,
        "torus": torus_report,
    })
    _emit_torus_chart(run, capped, torus_report)


def _scene_matrix(rows, n, where):
    """A scene's JSON matrix as a float (n, n) array; ConfigError naming
    its path `where` unless it has n rows of n numbers."""
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ConfigError("%s must be a %dx%d matrix" % (where, n, n))
    return np.array(rows, dtype=float)


def _cmd_ale(block, metric, run):
    from . import groups
    n = metric.n
    generators = [_scene_matrix(G, n, "ale.generators[%d]" % i)
                  for i, G in enumerate(block["generators"])]
    group = groups.GroupAction.from_generators(generators)
    radii = block.get("radii")
    _, audit = groups.ale_lift(
        metric, group,
        radii=None if radii is None else np.asarray(radii, dtype=float))
    payload = dict(audit)
    fixed_cfg = block.get("fixed_point")
    if fixed_cfg is not None:
        pairs = []
        for k, element in enumerate(fixed_cfg["elements"]):
            T = _scene_matrix(element["matrix"], n,
                              "ale.fixed_point.elements[%d].matrix" % k)
            v = np.asarray(element.get("offset", [0.0] * n), dtype=float)
            pairs.append((T, v))
        point = groups.fixed_point_of_finite_group(pairs)
        payload["fixed_point"] = point
    run.emit_json("ale_report.json", payload)


def _scalar_refinement(metric, op, k, run):
    h_values = [float(h) for h in op["h_values"]]
    if any(b >= a for a, b in zip(h_values, h_values[1:])):
        raise ConfigError("converge.operations[%d].h_values must be strictly "
                          "decreasing" % k)
    radii = [float(r) for r in op.get("radii", (8.0, 16.0, 32.0))]
    U = sample_directions(metric.n, DIRECTIONS, rng=run.seed)
    X = np.concatenate([rho * U for rho in radii], axis=0)
    errs = run.map_ladder(
        lambda h: float(np.abs(scalar_curvature_bartnik(metric, X,
                                                        h=h)).max()),
        h_values)
    # an exactly flat metric has zero error at every step: no order
    orders = [float(np.log(errs[i] / errs[i + 1])
                    / np.log(h_values[i] / h_values[i + 1]))
              if errs[i] > 0.0 and errs[i + 1] > 0.0 else None
              for i in range(len(errs) - 1)]
    return h_values, errs, orders


def _cmd_converge(block, metric, run):
    summaries = []
    for k, op in enumerate(block["operations"]):
        kind = op["kind"]
        if kind == "scalar_flatness":
            if "h_values" not in op:
                raise ConfigError("converge.operations[%d] of kind "
                                  "scalar_flatness needs h_values" % k)
            h_values, errs, orders = _scalar_refinement(metric, op, k, run)
            name = "converge_op%d_scalar.csv" % k
            rows = [(h_values[0], errs[0], None)]
            rows += [(h_values[i + 1], errs[i + 1], orders[i])
                     for i in range(len(orders))]
            run.emit_csv(name, ("h", "max_abs_R", "observed_order"), rows)
            if orders[-1] is not None:
                run.audit("scalar-order-low#%d" % k, ">=", orders[-1],
                          ORDER_BAND[0])
                run.audit("scalar-order-high#%d" % k, "<=", orders[-1],
                          ORDER_BAND[1])
            if "ceiling" in op:
                run.audit("scalar-ceiling#%d" % k, "<=", errs[-1],
                          float(op["ceiling"]))
            summaries.append({"kind": kind, "table": name,
                              "h_values": h_values, "max_abs_R": errs,
                              "observed_orders": orders})
        else:
            if "radii" not in op or len(op["radii"]) < 3:
                raise ConfigError("converge.operations[%d] of kind "
                                  "mass_ladder needs at least 3 radii" % k)
            radii = np.asarray(op["radii"], dtype=float)
            if not np.all(np.diff(radii) > 0):
                raise ConfigError("converge.operations[%d].radii must be "
                                  "strictly increasing" % k)
            report = adm.adm_mass(metric, radii, map_fn=run.map_ladder)
            name = "converge_op%d_mass.csv" % k
            run.emit_csv(name,
                         ("rho", "partial_mass", "abs_err_vs_extrapolated"),
                         report.to_csv_rows())
            run.audit("mass-extrapolation-confident#%d" % k, "<=",
                      int(report.low_confidence), 0)
            if report.observed_order is not None:
                run.audit("mass-order-positive#%d" % k, ">",
                          report.observed_order, 0.0)
            summaries.append({"kind": kind, "table": name,
                              "extrapolated": report.extrapolated,
                              "observed_order": report.observed_order,
                              "low_confidence": report.low_confidence})
    run.emit_json("converge_report.json", {"operations": summaries})


@click.group()
def main():
    """Numerical workbench for asymptotically flat end metrics: mass
    ladders, conformal-factor solves, scalar-curvature deformation, end
    compactification, and quotient-end lifts."""


for _name, _body, _summary in (
        ("mass", _cmd_mass,
         "ADM mass ladder with extrapolation for the configured metric."),
        ("solve", _cmd_solve,
         "Conformal-factor solve with flux audits and an iteration log."),
        ("deform", _cmd_deform,
         "Scalar-curvature deformation ladder with the per-scale trend."),
        ("compactify", _cmd_compactify,
         "Cap a negative-mass end flat and glue it into a cubical torus."),
        ("ale", _cmd_ale,
         "Lift a quotient end to its cover and audit the mass ratio."),
        ("converge", _cmd_converge,
         "Refinement studies: step-halving and radius-ladder order tables.")):
    main.add_command(click.Command(
        _name, help=_summary,
        callback=functools.partial(_dispatch, _name, _body),
        params=[
            click.Option(["--config", "config_path"], required=True,
                         type=click.Path(dir_okay=False),
                         help="Scene configuration JSON."),
            click.Option(["--out"], type=click.Path(file_okay=False),
                         default="masskit-out",
                         help="Output directory (default: masskit-out)."),
            click.Option(["--threads"], type=click.IntRange(min=1), default=1,
                         help="Worker threads for ladder fan-out "
                              "(default: 1)."),
            click.Option(["--seed"], type=int,
                         help="Override the config seed for sampled audit "
                              "points."),
        ]))


if __name__ == "__main__":
    main()

"""Per-layer spans and counters for the traced benchmark run.

A layer is one masskit module.  During a traced pass every public function
of each layer module (plus the evaluation methods of ``MetricSpec`` and
``RProfile`` and the CLI entry point) is replaced by a wrapper that records
a span: layer, function, start, end, parent span and thread.  The wrapper
is installed in every namespace that binds the function, because modules
such as ``density`` and ``rigidity`` import ``solve_conformal_factor`` by
name.  A call made while the innermost open span already belongs to the
same layer opens no new span, so a layer's self time is its outermost
spans' duration minus the time their child spans cover.

Counters come from arguments and return values at the same boundaries; two
library functions are counted without a span: ``solve_ivp`` as
``masskit.oracles`` binds it (right-hand-side evaluations) and
``scipy.sparse.linalg.cg`` (inner solves of the full-3D eigenvalue bound).
Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

# module name -> layer name (metric names must start with a letter)
LAYERS = {
    "metrics": "metrics", "radial": "radial", "curvature": "curvature",
    "_kernels_np": "kernels_np", "grids": "grids", "adm": "adm",
    "elliptic": "elliptic", "rayleigh": "rayleigh", "oracles": "oracles",
    "density": "density", "rigidity": "rigidity", "lohkamp": "lohkamp",
    "groups": "groups", "config": "config", "reports": "reports",
    "cli": "cli",
}

# per-layer metric -> (unit, better, end-to-end metric it should move,
# workloads that exercise it).  BENCHMARK.json lists the same names.
PER_LAYER = {
    "metrics.g_points": ("count", "lower", "wall_s", "chart-curvature, full3d-bounds"),
    "metrics.g_s": ("s", "lower", "wall_s", "chart-curvature, full3d-bounds"),
    "metrics.dg_points": ("count", "lower", "wall_s", "probe-oracles, cli-scenes"),
    "radial.calls": ("count", "lower", "wall_s", "probe-oracles"),
    "radial.scalar_calls": ("count", "lower", "wall_s", "probe-oracles"),
    "radial.self_s": ("s", "lower", "wall_s", "probe-oracles"),
    "curvature.points": ("count", "lower", "wall_s", "chart-curvature"),
    "curvature.stencil_points": ("count", "lower", "wall_s", "chart-curvature"),
    "curvature.self_s": ("s", "lower", "wall_s", "chart-curvature"),
    "kernels_np.points": ("count", "lower", "wall_s", "chart-curvature"),
    "kernels_np.self_s": ("s", "lower", "wall_s", "chart-curvature"),
    "grids.quadrature_nodes": ("count", "lower", "wall_s", "chart-curvature"),
    "grids.mesh_nodes": ("count", "lower", "wall_s, peak_rss_mib", "full3d-bounds"),
    "grids.operator_nnz": ("count", "lower", "wall_s, peak_rss_mib", "full3d-bounds"),
    "grids.self_s": ("s", "lower", "wall_s", "full3d-bounds, chart-curvature"),
    "adm.surface_integrals": ("count", "lower", "wall_s", "chart-curvature"),
    "adm.self_s": ("s", "lower", "wall_s", "chart-curvature"),
    "adm.extrapolation_err": ("ratio", "lower", "ref_digits", "chart-curvature"),
    "elliptic.solves": ("count", "lower", "wall_s", "probe-oracles, cli-scenes"),
    "elliptic.unknowns": ("count", "lower", "wall_s", "probe-oracles, cli-scenes"),
    "elliptic.max_residual": ("1", "lower", "pass_frac", "probe-oracles, cli-scenes"),
    "elliptic.self_s": ("s", "lower", "wall_s", "probe-oracles, cli-scenes"),
    "rayleigh.eig_iterations": ("count", "lower", "wall_s", "full3d-bounds"),
    "rayleigh.sobolev_iterations": ("count", "lower", "wall_s", "full3d-bounds, probe-oracles"),
    "rayleigh.inner_solves": ("count", "lower", "wall_s", "full3d-bounds"),
    "rayleigh.self_s": ("s", "lower", "wall_s", "full3d-bounds"),
    "oracles.rhs_evals": ("count", "lower", "wall_s", "probe-oracles"),
    "oracles.self_s": ("s", "lower", "wall_s", "probe-oracles"),
    "density.rungs": ("count", "lower", "wall_s", "probe-oracles, cli-scenes"),
    "density.delta_bisections": ("count", "lower", "wall_s", "probe-oracles, cli-scenes"),
    "density.self_s": ("s", "lower", "wall_s", "probe-oracles, cli-scenes"),
    "rigidity.delta_solves": ("count", "lower", "wall_s", "probe-oracles"),
    "rigidity.self_s": ("s", "lower", "wall_s", "probe-oracles"),
    "lohkamp.self_s": ("s", "lower", "wall_s", "cli-scenes"),
    "groups.nodes_kept_ratio": ("ratio", "higher", "wall_s", "chart-curvature, cli-scenes"),
    "groups.self_s": ("s", "lower", "wall_s", "chart-curvature, cli-scenes"),
    "config.self_s": ("s", "lower", "wall_s, setup_s", "cli-scenes"),
    "reports.files": ("count", "lower", "wall_s", "cli-scenes"),
    "reports.bytes": ("bytes", "lower", "wall_s", "cli-scenes"),
    "reports.self_s": ("s", "lower", "wall_s", "cli-scenes"),
    "cli.commands": ("count", "lower", "wall_s, pass_frac", "cli-scenes"),
    "cli.self_s": ("s", "lower", "wall_s", "cli-scenes"),
    "trace.overhead_frac": ("ratio", "lower", "none", "all"),
}


def _npoints(X):
    return int(np.atleast_2d(np.asarray(X)).shape[0])


# hooks: (tracer, args, result, outermost, parent_layer, duration) -> None
def _g_hook(t, args, out, outer, parent, dur):
    if not outer:
        return
    pts = _npoints(args[1])
    t.add("metrics.g_points", pts)
    t.add("metrics.g_s", dur)
    if parent == "curvature":
        t.add("curvature.stencil_points", pts)


def _dg_hook(t, args, out, outer, parent, dur):
    if outer:
        t.add("metrics.dg_points", _npoints(args[1]))


def _radial_hook(t, args, out, outer, parent, dur):
    if outer:
        t.add("radial.calls", 1)
        if np.size(args[1]) == 1:
            t.add("radial.scalar_calls", 1)


def _kernel_hook(t, args, out, outer, parent, dur):
    if outer:
        t.add("kernels_np.points", np.shape(args[0])[0])


def _count(key):
    def hook(t, args, out, outer, parent, dur):
        t.add(key, 1)
    return hook


def _truncated_hook(t, args, out, outer, parent, dur):
    t.add("elliptic.solves", 1)
    t.add("elliptic.unknowns", out.mesh.num_nodes)
    t.peak("elliptic.max_residual", out.residual)


def _conformal_hook(t, args, out, outer, parent, dur):
    if parent == "rigidity":
        t.add("rigidity.delta_solves", 1)


def _iterations(key):
    def hook(t, args, out, outer, parent, dur):
        t.add(key, out.iterations)
    return hook


def _grid_ops_hook(t, args, out, outer, parent, dur):
    t.add("grids.mesh_nodes", args[0].num_nodes)
    t.add("grids.operator_nnz", out[1].nnz)


def _fundamental_hook(t, args, out, outer, parent, dur):
    t.add("groups.nodes_kept", out["nodes_kept"])
    t.add("groups.nodes_total", out["nodes_total"])


def _write_hook(t, args, out, outer, parent, dur):
    t.add("reports.files", 1)
    t.add("reports.bytes", len(args[1]))


HOOKS = {
    ("metrics", "MetricSpec.g"): _g_hook,
    ("metrics", "MetricSpec.dg"): _dg_hook,
    ("radial", "RProfile.__call__"): _radial_hook,
    ("radial", "RProfile.value"): _radial_hook,
    ("radial", "RProfile.d1"): _radial_hook,
    ("radial", "RProfile.d2"): _radial_hook,
    ("curvature", "fd_metric_derivatives"):
        lambda t, a, o, outer, p, d: t.add("curvature.points", _npoints(a[1])),
    ("kernels_np", "christoffel_first"): _kernel_hook,
    ("kernels_np", "scalar_curvature"): _kernel_hook,
    ("kernels_np", "ricci_tensor"): _kernel_hook,
    ("grids", "sphere_quadrature"):
        lambda t, a, o, outer, p, d: t.add("grids.quadrature_nodes", len(o[1])),
    ("grids", "radial_mesh"):
        lambda t, a, o, outer, p, d: t.add("grids.mesh_nodes", o.num_nodes),
    ("grids", "grid_operators"): _grid_ops_hook,
    ("adm", "adm_surface_integral"): _count("adm.surface_integrals"),
    ("elliptic", "solve_truncated"): _truncated_hook,
    ("elliptic", "solve_conformal_factor"): _conformal_hook,
    ("rayleigh", "eigenvalue_bound_full3d"): _iterations("rayleigh.eig_iterations"),
    ("rayleigh", "eigenvalue_lower_bound"): _iterations("rayleigh.eig_iterations"),
    ("rayleigh", "sobolev_estimate"): _iterations("rayleigh.sobolev_iterations"),
    ("rayleigh", "sobolev_estimate_full3d"):
        _iterations("rayleigh.sobolev_iterations"),
    ("density", "density_deform"):
        lambda t, a, o, outer, p, d: t.add("density.rungs", len(o.rungs)),
    ("density", "choose_delta"):
        lambda t, a, o, outer, p, d: t.add("density.delta_bisections",
                                           o.bisections),
    ("groups", "fundamental_domain_mass"): _fundamental_hook,
    ("reports", "write_bytes"): _write_hook,
}

# counted on entry: the CLI entry point always leaves through SystemExit
ENTRY_COUNTS = {("cli", "main"): "cli.commands"}

# methods traced besides module-level public functions
METHODS = {"metrics": ("MetricSpec", ("g", "dg", "h", "check_pointwise")),
           "radial": ("RProfile", ("__call__", "value", "d1", "d2"))}


class Tracer:
    """Spans and counters of one traced pass; `install` patches masskit."""

    def __init__(self):
        self.spans = []        # (id, parent id, layer, name, t0, t1, thread)
        self.self_s = {}
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._ids = iter(range(1, 1 << 62))

    def add(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0.0), float(value))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, name, fn):
        hook = HOOKS.get((layer, name))
        entry_count = ENTRY_COUNTS.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if entry_count is not None:
                tracer.add(entry_count, 1)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, out, False, layer, 0.0)
                return out
            frame = [layer, 0.0, next(tracer._ids)]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                with tracer._lock:
                    tracer.self_s[layer] = (tracer.self_s.get(layer, 0.0)
                                            + dur - frame[1])
                tracer.spans.append((frame[2], parent and parent[2], layer,
                                     name, t0, t1, threading.get_ident()))
            if hook is not None:
                hook(tracer, args, out, True,
                     parent[0] if parent is not None else None, dur)
            return out

        return traced

    def _counter(self, key, value_of, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.add(key, value_of(out))
            return out

        return counted

    def _bind_everywhere(self, orig, replacement, namespaces):
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def install(self):
        """Patch masskit for the traced pass."""
        # import every layer first, so that no module binds a wrapper while
        # the patching runs
        layer_mods = {name: importlib.import_module("masskit." + name)
                      for name in LAYERS}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "masskit"
                                            or n.startswith("masskit."))]
        for modname, layer in LAYERS.items():
            mod = layer_mods[modname]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                public_fn = (inspect.isfunction(obj)
                             and obj.__module__ == mod.__name__)
                if public_fn or (modname == "cli" and name == "main"):
                    self._bind_everywhere(obj, self.wrap(layer, name, obj),
                                          namespaces)
            if modname in METHODS:
                cls_name, methods = METHODS[modname]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth,
                            self.wrap(layer, "%s.%s" % (cls_name, meth), orig))
        oracles = importlib.import_module("masskit.oracles")
        self._bind_everywhere(
            oracles.solve_ivp,
            self._counter("oracles.rhs_evals", lambda r: r.nfev,
                          oracles.solve_ivp), [oracles])
        linalg = importlib.import_module("scipy.sparse.linalg")
        self._bind_everywhere(
            linalg.cg,
            self._counter("rayleigh.inner_solves", lambda r: 1, linalg.cg),
            [linalg] + namespaces)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self):
        """Per-layer metric values of this pass (without overhead_frac)."""
        out = {}
        for key in PER_LAYER:
            layer, _, what = key.partition(".")
            if what == "self_s":
                out[key] = self.self_s.get(layer, 0.0)
            elif key != "trace.overhead_frac":
                out[key] = float(self.counts.get(key, 0))
        kept = self.counts.get("groups.nodes_kept", 0)
        total = self.counts.get("groups.nodes_total", 0)
        out["groups.nodes_kept_ratio"] = kept / total if total else 0.0
        return out

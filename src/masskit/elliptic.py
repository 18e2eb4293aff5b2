"""Exhaustion solver for Delta_g u - f u = 0 on an end with a toy far end.

The domain is the end annulus [r_min, R] together with an optional attached
cylinder whose length grows along a schedule; the cylinder carries a zero
Neumann cut at its far section, so no boundary data is ever imposed on the
attached end.  The inner cut r_min is the metric's: a domain names only its
truncation radii and cylinder lengths, so the solver and the shooting
oracle start from the same sphere.  The potential acts on the annulus
only; the cylinder, junction half cell included, carries none.  Outer
truncations use Dirichlet v = 0 on the sphere r = R, with a Robin closure
(d_r v + (n-2) v / r = 0) available as the final acceleration step; both
must agree on the retained region.

All solves reduce to a symmetric tridiagonal system in the log-radius
coordinate; the conservation-form assembly makes the discrete flux through
any section below the support of f vanish identically.

Coefficients are sampled once: a DomainModel builds each mesh (metric,
truncation radius, cylinder length) on first use and returns it after that,
and a problem keeps f at the nodes of the last mesh it sampled, so the
first Dirichlet solve reuses the smallness gate's samples on the first
truncation's mesh, and the Robin solve both the last Dirichlet rung's mesh
and its samples.

Smallness has one gate, `EllipticProblem.require_smallness`: every solve
raises RegimeError through it unless `check_smallness` passed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import (ConfigError, InternalFault, RegimeError, SolverError)
from .grids import RadialMesh, mesh_stiffness, radial_mesh, sphere_area

# relative residual budget of every tridiagonal solve
SOLVE_TOL = 1e-10
# toy-end cylinder nodes per unit length
CYLINDER_NODES_PER_UNIT = 64


@dataclass
class DomainModel:
    """Schedules of the end annulus [metric.r_min, R] and of an optional
    growing-cylinder toy end; annulus_nodes spans the first truncation."""

    n: int
    truncation_radii: tuple = (16.0, 32.0, 64.0)
    cylinder_lengths: tuple = ()
    annulus_nodes: int = 1024
    # meshes built so far, by (metric, R, cylinder length)
    _meshes: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        radii = tuple(float(R) for R in self.truncation_radii)
        if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("truncation schedule must be nonempty and "
                              "strictly increasing")
        lengths = tuple(float(L) for L in self.cylinder_lengths)
        if any(L <= 0 for L in lengths):
            raise ConfigError("cylinder lengths must be positive")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ConfigError("cylinder schedule must be strictly increasing")
        self.truncation_radii = radii
        self.cylinder_lengths = lengths

    @property
    def has_toy_end(self):
        return len(self.cylinder_lengths) > 0

    def mesh(self, metric, R, cyl_len=0.0):
        """Mesh on [metric.r_min, R] keeping the node spacing of the first
        rung, built on first use and shared after that."""
        key = (metric, float(R), float(cyl_len))
        if key not in self._meshes:
            r_min, R0 = metric.r_min, self.truncation_radii[0]
            if R0 <= r_min:
                raise ConfigError("truncation radius %.3g must exceed the "
                                  "metric's r_min %.3g" % (R0, r_min))
            dsigma = np.log(R0 / r_min) / (self.annulus_nodes - 1)
            num = int(round(np.log(R / r_min) / dsigma)) + 1
            cyl_num = int(round(cyl_len * CYLINDER_NODES_PER_UNIT))
            self._meshes[key] = radial_mesh(metric, R, num, cyl_len=cyl_len,
                                            cyl_num=cyl_num)
        return self._meshes[key]


@dataclass
class SmallnessReport:
    lhs: float
    threshold: float
    ratio: float
    passed: bool
    c_S: float

    def to_json_dict(self):
        return {"lhs": self.lhs, "threshold": self.threshold,
                "ratio": self.ratio, "passed": self.passed, "c_S": self.c_S}


@dataclass
class EllipticProblem:
    """Potential problem Delta_g u - f u = 0 over a DomainModel."""

    metric: object
    f: object                      # function of r: a profile or a callable
    support_radius: float
    domain: DomainModel
    # set by check_smallness
    smallness: SmallnessReport = field(default=None, init=False)
    # (mesh, f at its nodes) of the last f_nodes call
    _f_at: tuple = field(default=(None, None), init=False, repr=False,
                         compare=False)
    # residual budget of every solve: a class constant, not a field
    tol = SOLVE_TOL

    def __post_init__(self):
        if self.metric.n != self.domain.n:
            raise ConfigError("metric dimension disagrees with the domain")
        R0 = self.domain.truncation_radii[0]
        if not (self.metric.r_min < self.support_radius <= 0.5 * R0):
            raise ConfigError(
                "potential support [%.3g, %.3g] must sit inside the first "
                "truncation (R0/2 = %.3g)"
                % (self.metric.r_min, self.support_radius, 0.5 * R0))

    def f_values(self, r):
        """f at radii r, evaluated only inside support_radius: zero beyond."""
        r = np.asarray(r, dtype=float)
        return np.piecewise(r, [r <= self.support_radius], [self.f])

    def f_nodes(self, mesh):
        """f at the mesh's nodes; cylinder nodes count as beyond the support.
        Sampled once for consecutive calls on the same mesh, and read-only."""
        if self._f_at[0] is not mesh:
            vals = self.f_values(np.where(mesh.is_cyl, np.inf, mesh.r))
            vals.flags.writeable = False
            self._f_at = (mesh, vals)
        return self._f_at[1]

    def require_smallness(self):
        """The one smallness gate: RegimeError unless check_smallness passed."""
        if self.smallness is None:
            raise RegimeError("run check_smallness before solving")
        if not self.smallness.passed:
            raise RegimeError(
                "negative-part size %.4g exceeds the threshold %.4g; the "
                "solvability regime does not cover this potential"
                % (self.smallness.lhs, self.smallness.threshold))


def check_smallness(problem, c_S):
    """(integral of |f_-|^{n/2} d mu)^{2/n} against the threshold c_S / 2,
    summed over f at the first rung's nodes weighted by wsrc, exactly as
    the solver applies it."""
    if c_S <= 0.0:
        raise ConfigError("Sobolev constant must be positive")
    dom = problem.domain
    n = dom.n
    mesh = dom.mesh(problem.metric, dom.truncation_radii[0],
                    (dom.cylinder_lengths or (0.0,))[0])
    lhs = lp_norm(mesh.wsrc, np.minimum(problem.f_nodes(mesh), 0.0),
                  n / 2.0, n)
    threshold = 0.5 * c_S
    report = SmallnessReport(lhs=lhs, threshold=float(threshold),
                             ratio=float(lhs / threshold), passed=lhs <= threshold,
                             c_S=float(c_S))
    problem.smallness = report
    return report


@dataclass
class TruncatedSolution:
    mesh: RadialMesh
    v: np.ndarray
    energy: float
    residual: float
    R: float
    fvals: np.ndarray              # f at the mesh's nodes, as solved

    def interp(self, r):
        """Annulus values of v at radii r."""
        return _annulus_interp(self.mesh, self.v, r)


def _annulus_interp(mesh, vals, r):
    """Node values vals on the annulus, interpolated in log radius at r."""
    mask = ~mesh.is_cyl
    sig = np.log(np.asarray(r, dtype=float) / mesh.r_min)
    return np.interp(sig, mesh.coord[mask], vals[mask])


def _solve_tridiag(lower, diag, upper, rhs):
    """Solve the tridiagonal system with sub/super diagonals lower, upper;
    the solution and its max-norm residual, checked against SOLVE_TOL."""
    M = diag.size
    ab = np.zeros((3, M))
    ab[0, 1:] = upper[: M - 1]
    ab[1] = diag
    ab[2, :-1] = lower[: M - 1]
    x = solve_banded((1, 1), ab, rhs)
    Ax = diag * x
    Ax[:-1] += upper[: M - 1] * x[1:]
    Ax[1:] += lower[: M - 1] * x[:-1]
    rnorm = float(np.abs(Ax - rhs).max())
    scale = float(np.abs(rhs).max()) or 1.0
    if rnorm > SOLVE_TOL * max(1.0, scale):
        raise SolverError("linear solve residual %.2e above budget" % rnorm)
    return x, rnorm


def _assemble_and_solve(mesh, fvals, bc_outer, n, kappa_out):
    """Solve (K + f wsrc) v = -f wsrc with the chosen outer closure;
    kappa_out is the log-radius flux coefficient of the Robin closure."""
    lower, diag, upper = mesh_stiffness(mesh.kappa_face / mesh.dcoord)
    source = fvals * mesh.wsrc
    diag = diag + source
    rhs = -source
    if bc_outer == "dirichlet":
        # eliminate the outer node: v = 0 there
        x, rnorm = _solve_tridiag(lower[:-1], diag[:-1], upper[:-1],
                                  rhs[:-1])
        v = np.concatenate([x, [0.0]])
    else:
        # robin closure in log radius: d_sigma v = -(n-2) v at the outer
        # node, entering the last balance as an extra diagonal term
        diag[-1] += (n - 2.0) * kappa_out
        v, rnorm = _solve_tridiag(lower, diag, upper, rhs)
    return v, rnorm


def solve_truncated(problem, R=None, cyl_len=0.0, bc_outer="dirichlet"):
    """One mixed-boundary solve at truncation R (default the largest) with a
    cylinder of length cyl_len (default none)."""
    problem.require_smallness()
    dom = problem.domain
    if R is None:
        R = dom.truncation_radii[-1]
    mesh = dom.mesh(problem.metric, R, cyl_len)
    fvals = problem.f_nodes(mesh)
    v, rnorm = _assemble_and_solve(mesh, fvals, bc_outer, dom.n,
                                   mesh.kappa_max / mesh.r_max)
    dv = np.diff(v)
    energy = float(sphere_area(dom.n)
                   * np.sum(mesh.kappa_face * dv * dv / mesh.dcoord))
    return TruncatedSolution(mesh=mesh, v=v, energy=energy, residual=rnorm,
                             R=float(R), fvals=fvals)


@dataclass
class ConformalFactorSolution:
    mesh: RadialMesh
    u: np.ndarray
    v: np.ndarray
    A_integral: float
    A_fit: float
    B_fit: float
    remainder_bound: float
    flux_grad: float
    flux_u_grad: float
    min_u: float
    exhaustion_diffs: list
    robin_gap: float
    diagnostics: list = field(default_factory=list)

    def u_at(self, r):
        """Annulus values of u at radii r."""
        return _annulus_interp(self.mesh, self.u, r)

    def to_json_dict(self):
        return {
            "A_integral": self.A_integral, "A_fit": self.A_fit,
            "B_fit": self.B_fit, "remainder_bound": self.remainder_bound,
            "flux_grad": self.flux_grad, "flux_u_grad": self.flux_u_grad,
            "min_u": self.min_u, "robin_gap": self.robin_gap,
            "exhaustion_diffs": list(self.exhaustion_diffs),
            "num_nodes": int(self.mesh.num_nodes),
        }


def _fit_coefficients(mesh, v, n, r_out):
    mask = (~mesh.is_cyl) & (mesh.r >= r_out / 10.0) & (mesh.r <= 0.9 * r_out)
    r = mesh.r[mask]
    basis = np.stack([r ** (2.0 - n), r ** (1.0 - n)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, v[mask], rcond=None)
    resid = v[mask] - basis @ coef
    bound = float(np.max(np.abs(resid) * r ** (n - 1))) if r.size else 0.0
    return float(coef[0]), float(coef[1]), bound


def solve_conformal_factor(problem):
    """Exhaustion loop with a final Robin solve; full solution report."""
    problem.require_smallness()
    dom = problem.domain
    n = dom.n
    R_ref = dom.truncation_radii[0]
    r_probe = np.geomspace(problem.metric.r_min * 1.01, R_ref * 0.99, 257)
    diagnostics = []
    diffs = []
    prev = None
    lengths = dom.cylinder_lengths if dom.has_toy_end else (0.0,)
    for i, L in enumerate(lengths):
        for R in dom.truncation_radii:
            sol = solve_truncated(problem, R=R, cyl_len=L)
            probe = sol.interp(r_probe)
            if prev is not None:
                diffs.append(float(np.abs(probe - prev).max()))
            prev = probe
            diagnostics.append({"stage": "dirichlet", "i": i, "R": float(R),
                                "residual": sol.residual,
                                "min_u": float(1.0 + sol.v.min()),
                                "energy": sol.energy})

    # robin acceleration at the largest truncation, longest cylinder
    rob = solve_truncated(problem, cyl_len=lengths[-1], bc_outer="robin")
    robin_gap = float(np.abs(rob.interp(r_probe) - prev).max())
    u = 1.0 + rob.v
    min_u = float(u.min())
    if min_u <= 0.0:
        raise InternalFault(
            "positivity lost (min u = %.3g) despite smallness margin %.3g; "
            "numerical fault" % (min_u, problem.smallness.ratio))
    mesh, fvals = rob.mesh, rob.fvals
    A_int = float(-np.sum(fvals * u * mesh.wsrc) / (n - 2.0))
    A_fit, B_fit, rem = _fit_coefficients(mesh, rob.v, n,
                                          dom.truncation_radii[-1])
    if abs(A_int - A_fit) > 1e-2 * max(abs(A_int), 1e-8):
        raise SolverError(
            "expansion extraction inconsistent: A_integral=%.6g A_fit=%.6g"
            % (A_int, A_fit))

    # discrete flux through the cut at node 0 (zero Neumann there): the
    # first face flux less node 0's half-cell source, which is zero on a
    # toy-end cylinder and f0 wsrc0 u0 at r_min without one
    flux = float(sphere_area(n) * (mesh.kappa_face[0] * (u[1] - u[0])
                                   / mesh.dcoord[0]
                                   - fvals[0] * mesh.wsrc[0] * u[0]))
    diagnostics.append({"stage": "robin", "R": float(rob.R),
                        "residual": rob.residual, "min_u": min_u,
                        "A_integral": A_int, "A_fit": A_fit})
    return ConformalFactorSolution(
        mesh=mesh, u=u, v=rob.v, A_integral=A_int, A_fit=A_fit,
        B_fit=B_fit, remainder_bound=rem, flux_grad=flux,
        flux_u_grad=flux * u[0], min_u=min_u,
        exhaustion_diffs=diffs, robin_gap=robin_gap, diagnostics=diagnostics)


def lp_norm(weights, vals, p, n):
    """(integral |vals|^p d mu)^{1/p} by the lumped mesh rule: |S^{n-1}|
    times the sum of |vals|^p times weights, a mesh's wsrc or wbar."""
    return float((sphere_area(n)
                  * np.sum(np.abs(vals) ** p * weights)) ** (1.0 / p))

"""Variational constants: Sobolev-quotient descent and eigenvalue bounds.

Both quantities are Rayleigh minima over grid functions.  The Sobolev
constant estimate minimizes

    Q(zeta) = integral |grad zeta|^2 dmu / (integral |zeta|^{2n/(n-2)} dmu)^{(n-2)/n}

over interior-supported functions (Dirichlet rings at both extremes), so the
result is an upper estimate of the domain's true constant and is labeled as
such.  The eigenvalue bound is the smallest generalized eigenvalue of
K + M_R against the mass matrix: by shifted inverse iteration on the radial
tridiagonal system, by preconditioned LOBPCG on the full 3D grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConfigError, EstimationError
from .grids import apply_stiffness, radial_kappa_w, sphere_area

SHARP_FLAT_3D = 3.0 * (np.pi / 2.0) ** (4.0 / 3.0)


@dataclass
class SobolevReport:
    c_S: float
    kind: str                      # "upper-estimate"
    radii: np.ndarray
    profile: np.ndarray
    domain_label: str
    iterations: int
    converged: bool

    def __post_init__(self):
        if self.c_S <= 0.0:
            raise ConfigError("Sobolev estimate must be positive")

    def to_json_dict(self):
        return {"c_S": self.c_S, "kind": self.kind,
                "domain": self.domain_label, "iterations": self.iterations,
                "converged": self.converged}


def _quotient_parts(mesh, zeta, n):
    p = 2.0 * n / (n - 2.0)
    area = sphere_area(n)
    energy = area * float(zeta @ apply_stiffness(mesh, zeta))
    denom = (area * float(np.sum(np.abs(zeta) ** p * mesh.wbar))) ** (2.0 / p)
    return energy, denom


def sobolev_quotient(mesh, zeta, n):
    """Q evaluated on one grid function (boundary values must vanish)."""
    e, d = _quotient_parts(mesh, zeta, n)
    if d <= 0.0:
        raise ConfigError("test function vanishes identically")
    return e / d


def bubble_profile(r, lam):
    """Aubin-Talenti shape (lam / (lam^2 + r^2))^{1/2} up to normalization."""
    return np.sqrt(lam / (lam ** 2 + r ** 2))


def anchored_bubble(mesh, lam):
    """Bubble pinned to zero at both rings by a harmonic correction.

    Subtracting the radial harmonic interpolant alpha + beta r^{2-n} that
    matches the bubble on the two boundary spheres costs only capacity energy,
    so the quotient of the anchored profile stays within a few percent of the
    true annulus minimum once lam sits near the geometric middle of the domain.
    """
    r = mesh.r
    rmin, rmax = mesh.r_min, mesh.r_max
    k = 2.0 - mesh.n
    b = bubble_profile(r, lam)
    b0 = bubble_profile(rmin, lam)
    b1 = bubble_profile(rmax, lam)
    beta = (b0 - b1) / (rmin ** k - rmax ** k)
    alpha = b0 - beta * rmin ** k
    zeta = np.maximum(b - alpha - beta * r ** k, 0.0)
    zeta[0] = zeta[-1] = 0.0
    return zeta


def sobolev_estimate(domain, metric, max_iters=600, tol=1e-10):
    """Upper estimate of the domain Sobolev constant by projected descent."""
    n = domain.n
    L = domain.cylinder_lengths[-1] if domain.has_toy_end else 0.0
    mesh = domain.mesh(metric, domain.truncation_radii[-1], L)
    p = 2.0 * n / (n - 2.0)
    area = sphere_area(n)
    wbar = mesh.wbar

    # deterministic start: bubble spread across the middle of the domain
    zeta = anchored_bubble(mesh, lam=np.exp(0.5 * (np.log(mesh.r_min)
                                                   + np.log(mesh.r_max))))
    interior = np.ones(mesh.num_nodes, dtype=bool)
    interior[0] = interior[-1] = False

    def project(z):
        z = z.copy()
        z[~interior] = 0.0
        _, d = _quotient_parts(mesh, z, n)
        if d <= 0.0:
            raise EstimationError("descent iterate collapsed", last_iterate=z)
        return z / np.sqrt(d)

    # stiffness-preconditioned descent: solving K d = grad turns the unit
    # step into inverse iteration for the nonlinear eigenproblem, and the
    # backtracking keeps the quotient monotone
    from .grids import mesh_stiffness
    lo, di, up = mesh_stiffness(mesh)
    Mi = mesh.num_nodes - 2
    ab = np.zeros((3, Mi))
    ab[0, 1:] = up[1: Mi]
    ab[1] = di[1:-1]
    ab[2, :-1] = lo[1: Mi]

    def ksolve(rhs):
        out = np.zeros(mesh.num_nodes)
        out[1:-1] = solve_banded((1, 1), ab, rhs[1:-1])
        return out

    zeta = project(zeta)
    Q = sobolev_quotient(mesh, zeta, n)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        target = np.abs(zeta) ** (p - 1.0) * np.sign(zeta) * wbar
        direction = zeta - Q * ksolve(target)
        direction[~interior] = 0.0
        alpha = 1.0
        improved = False
        for _ in range(40):
            cand = project(zeta - alpha * direction)
            Qc = sobolev_quotient(mesh, cand, n)
            if Qc < Q * (1.0 - 1e-15):
                improved = True
                break
            alpha *= 0.5
        if not improved:
            converged = True
            break
        if abs(Q - Qc) <= tol * abs(Q):
            zeta, Q = cand, Qc
            converged = True
            break
        zeta, Q = cand, Qc
    if not converged:
        raise EstimationError(
            "Sobolev descent did not settle in %d iterations (Q=%.6g)"
            % (max_iters, Q), last_iterate=zeta)
    label = "annulus[%.3g,%.3g]" % (mesh.r_min, mesh.r_max)
    if L > 0:
        label += "+cyl[%.3g]" % L
    return SobolevReport(c_S=float(Q), kind="upper-estimate", radii=mesh.r,
                         profile=zeta, domain_label=label, iterations=it,
                         converged=converged)


def sobolev_estimate_full3d(metric, r_max, shape=(40, 10, 20),
                            num_lam=9):
    """Upper Sobolev estimate through the full 3D annulus operators.

    Evaluates the critical quotient on a deterministic ladder of anchored
    bubble profiles (lam geometric across the domain) assembled with the
    3D volume weights and stiffness, and returns the smallest value.  Each
    candidate is a genuine smooth test function, so the result is a valid
    upper estimate of the domain constant and doubles as a cross-check of
    the 3D operator assembly against the radial mesh.

    Unconstrained lattice minimization is deliberately not attempted: at
    the critical exponent the discrete quotient concentrates at grid scale
    (node-lumped quadrature overstates the critical norm of single-node
    spikes), which drives the lattice minimum far below the continuum
    constant and makes it meaningless as a domain estimate.
    """
    from .grids import SphericalGrid, grid_operators

    if metric.n != 3:
        raise ConfigError("full-3D Sobolev estimate is n=3 only, got n=%d"
                          % metric.n)
    grid = SphericalGrid(r_min=metric.r_min, r_max=float(r_max), shape=shape)
    vol, K = grid_operators(grid, metric)
    X = grid.points()
    r = np.sqrt((X ** 2).sum(axis=1))
    p = 3.0  # 2n/(n-2) at n = 3 is 6; quotient uses norm^2 -> power 2/p = 1/3

    def quotient(z):
        energy = float(z @ (K @ z))
        denom = float(np.sum(z ** 6 * vol)) ** (1.0 / p)
        if denom <= 0.0:
            raise EstimationError("test profile vanishes on the grid",
                                  last_iterate=z)
        return energy / denom

    lams = np.exp(np.linspace(np.log(2.0 * grid.r_min),
                              np.log(0.5 * grid.r_max), int(num_lam)))
    best_q = np.inf
    best_z = None
    for lam in lams:
        b = bubble_profile(r, lam)
        b0 = bubble_profile(grid.r_min, lam)
        b1 = bubble_profile(grid.r_max, lam)
        beta = (b0 - b1) / (1.0 / grid.r_min - 1.0 / grid.r_max)
        alpha = b0 - beta / grid.r_min
        zeta = np.maximum(b - alpha - beta / r, 0.0)
        q = quotient(zeta)
        if q < best_q:
            best_q, best_z = q, zeta
    Nr, Nth, Nph = grid.shape
    label = "annulus3d[%.3g,%.3g]x%dx%dx%d" % (grid.r_min, grid.r_max,
                                               Nr, Nth, Nph)
    return SobolevReport(c_S=float(best_q), kind="upper-estimate", radii=r,
                         profile=best_z, domain_label=label,
                         iterations=int(num_lam), converged=True)


def eigenvalue_bound_full3d(metric, rho, scalar_term, shape=(40, 10, 20),
                            max_iters=200, tol=1e-10):
    """Smallest Rayleigh value of the curvature-shifted energy on the 3D grid.

    Same quantity as the radial `eigenvalue_lower_bound` (inner boundary
    Neumann-natural, outer sphere Dirichlet) but minimized over all grid
    functions on the log-radius x latitude x longitude grid.  LOBPCG
    (Knyazev 2001) from a radial sine start solves A x = lam M x, A = K +
    diag(R vol), M = diag(vol), with the Jacobi preconditioner of A - shift M
    (shift = min(0, min R) - 1 keeps it positive).  tol bounds the residual
    norm |A x - lam M x| of the M-normalized mode; missing it within
    max_iters iterations raises EstimationError with the last iterate.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import lobpcg

    from .grids import SphericalGrid, grid_operators

    if metric.n != 3:
        raise ConfigError("full-3D eigenvalue bound is n=3 only, got n=%d"
                          % metric.n)
    grid = SphericalGrid(r_min=metric.r_min, r_max=float(rho), shape=shape)
    vol, K = grid_operators(grid, metric)
    X = grid.points()
    r = np.sqrt((X ** 2).sum(axis=1))
    if callable(scalar_term):
        Rv = np.asarray(scalar_term(r), dtype=float)
    else:
        Rv = np.full(r.size, float(scalar_term))

    Nr, Nth, Nph = grid.shape
    idx_r = np.repeat(np.arange(Nr), Nth * Nph)
    interior = idx_r < Nr - 1          # Dirichlet only on the outer ring

    mass = vol[interior]
    A = (K[interior][:, interior] + diags(Rv[interior] * mass)).tocsr()
    shift = min(0.0, float(Rv.min())) - 1.0
    jacobi = diags(1.0 / (A.diagonal() - shift * mass))

    ri = r[interior]
    x = np.sin(np.pi * (grid.r_max - ri) / (grid.r_max - grid.r_min))
    with warnings.catch_warnings():
        # lobpcg only warns when it misses tol; the check below raises
        warnings.simplefilter("ignore", UserWarning)
        lam, vec, res_hist = lobpcg(A, x[:, None], B=diags(mass), M=jacobi,
                                    tol=tol, maxiter=max_iters, largest=False,
                                    retResidualNormsHistory=True)
    lam = float(lam[0])
    x = vec[:, 0] * np.copysign(1.0, vec[:, 0].sum())   # positive mode
    it = len(res_hist) - 2     # history: start, iterations, returned mode
    if not res_hist[-1] <= tol:
        raise EstimationError("3D LOBPCG did not reach residual %.3g in %d "
                              "iterations (residual %.3g, last %.6g)"
                              % (tol, it, res_hist[-1], lam), last_iterate=x)
    mode = np.zeros(grid.num_nodes)
    mode[interior] = x
    return EigenvalueReport(value=lam, radii=r, mode=mode, iterations=it,
                            shift=shift)


def _ball_mesh_coeffs(metric_or_none, n, rho, num, r_min=None):
    """Linear mesh on (0, rho] with flux/volume coefficients at faces/nodes."""
    if r_min is None:
        h = rho / num
        r = np.linspace(0.5 * h, rho, num)
    else:
        r = np.linspace(r_min, rho, num)
    faces = 0.5 * (r[:-1] + r[1:])
    if metric_or_none is None:
        kap_f = faces ** (n - 1)
        w = r ** (n - 1)
    else:
        kap_f, _ = radial_kappa_w(metric_or_none, faces)
        _, w = radial_kappa_w(metric_or_none, r)
    return r, faces, kap_f, w


@dataclass
class EigenvalueReport:
    value: float
    radii: np.ndarray
    mode: np.ndarray
    iterations: int
    shift: float

    def to_json_dict(self):
        return {"value": self.value, "iterations": self.iterations,
                "shift": self.shift}


def eigenvalue_lower_bound(metric, rho, scalar_term, num=2048,
                           max_iters=500, tol=1e-12, r_min=None):
    """Smallest Rayleigh value of (grad energy + c_n R zeta^2) / (zeta^2).

    metric None means the flat ball [0, rho] (inner Neumann by radial
    regularity); otherwise the compact annulus [r_min, rho] of the radial
    metric.  scalar_term is c_n R(g) as a callable of r (or a constant).
    Dirichlet at the outer sphere in both cases.
    """
    n = 3 if metric is None else metric.n
    if metric is not None and r_min is None:
        r_min = metric.r_min
    r, faces, kap_f, w = _ball_mesh_coeffs(metric, n, rho, num, r_min=r_min)
    h = r[1] - r[0]
    if callable(scalar_term):
        Rv = np.asarray(scalar_term(r), dtype=float)
    else:
        Rv = np.full(r.size, float(scalar_term))
    wbar = w * h
    if metric is not None:
        # the cell around the inner boundary node is only half as wide
        wbar[0] *= 0.5

    # interior system after eliminating the Dirichlet node at rho; each
    # interior node keeps both face couplings in its diagonal
    M = r.size - 1
    c = kap_f / h
    diag = c[:M].copy()
    diag[1:] += c[: M - 1]
    lower = -c[: M - 1]
    upper = -c[: M - 1]
    diag_full = diag + Rv[:M] * wbar[:M]
    mass = wbar[:M]

    shift = min(0.0, float(Rv.min())) - 1.0
    A = diag_full - shift * mass
    ab = np.zeros((3, M))
    ab[0, 1:] = upper
    ab[1] = A
    ab[2, :-1] = lower

    x = np.sin(np.pi * (r[:M] - r[0] + 0.5 * h) / (rho - r[0] + 0.5 * h))
    x /= np.sqrt(np.sum(mass * x * x))
    lam_old = np.inf
    lam = 0.0
    it = 0
    for it in range(1, max_iters + 1):
        y = solve_banded((1, 1), ab, mass * x)
        y /= np.sqrt(np.sum(mass * y * y))
        Ky = diag_full * y
        Ky[:-1] += upper * y[1:]
        Ky[1:] += lower * y[:-1]
        lam = float(np.sum(y * Ky) / np.sum(mass * y * y))
        x = y
        if abs(lam - lam_old) <= tol * max(1.0, abs(lam)):
            break
        lam_old = lam
    else:
        raise EstimationError("inverse iteration did not settle (last %.6g)"
                              % lam, last_iterate=x)
    mode = np.concatenate([x, [0.0]])
    return EigenvalueReport(value=lam, radii=r, mode=mode, iterations=it,
                            shift=shift)

"""Variational constants: Sobolev-quotient minimum and eigenvalue bounds.

Both quantities are Rayleigh minima over grid functions.  The Sobolev
constant estimate minimizes

    Q(zeta) = integral |grad zeta|^2 dmu / (integral |zeta|^{2n/(n-2)} dmu)^{(n-2)/n}

over interior-supported functions (Dirichlet rings at both extremes) by
L-BFGS in Cholesky variables of the stiffness, so the result is an upper
estimate of the domain's true constant and is labeled as such.  The
eigenvalue bound is the smallest generalized eigenvalue of K + M_R against
the mass matrix on the annulus [r_min, rho] of a metric; there is no flat
ball.  On the solver's log-radius mesh, whose rings at equal node count are
the full-3D grid's, LAPACK's symmetric tridiagonal eigensolver finds it
after a symmetric mass scaling; on the full 3D grid, preconditioned LOBPCG
started from the Rayleigh-Ritz mode over the radial grid functions, which
is already the ground state when the metric is radial.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, eigh, eigh_tridiagonal
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import minimize

from .elliptic import lp_norm
from .errors import ConfigError, EstimationError
from .grids import (SphericalGrid, apply_stiffness, grid_operators,
                    mesh_stiffness, radial_mesh, sphere_area)

SHARP_FLAT_3D = 3.0 * (np.pi / 2.0) ** (4.0 / 3.0)
# residual norm the 3D LOBPCG mode must reach
_LOBPCG_TOL = 1e-10
# default full-3D grid (Nr, Nth, Nph)
FULL3D_SHAPE = (40, 10, 20)


@dataclass
class SobolevReport:
    c_S: float
    kind: str                      # "upper-estimate"
    radii: np.ndarray
    profile: np.ndarray
    domain_label: str
    iterations: int                # L-BFGS iterations; 3D: candidates tried
    converged: bool

    def __post_init__(self):
        if self.c_S <= 0.0:
            raise ConfigError("Sobolev estimate must be positive")


def sobolev_quotient(mesh, zeta, n):
    """Q evaluated on one grid function (boundary values must vanish)."""
    p = 2.0 * n / (n - 2.0)
    energy = sphere_area(n) * float(zeta @ apply_stiffness(mesh, zeta))
    denom = lp_norm(mesh, zeta, p, n) ** 2
    if denom <= 0.0:
        raise ConfigError("test function vanishes identically")
    return energy / denom


def bubble_profile(r, lam):
    """Aubin-Talenti shape (lam / (lam^2 + r^2))^{1/2} up to normalization."""
    return np.sqrt(lam / (lam ** 2 + r ** 2))


def _anchored_profile(r, rmin, rmax, n, lam):
    """Bubble at radii r minus the radial harmonic interpolant
    alpha + beta r^{2-n} matching it on the spheres rmin and rmax, clipped
    at zero."""
    k = 2.0 - n
    b0 = bubble_profile(rmin, lam)
    b1 = bubble_profile(rmax, lam)
    beta = (b0 - b1) / (rmin ** k - rmax ** k)
    alpha = b0 - beta * rmin ** k
    return np.maximum(bubble_profile(r, lam) - alpha - beta * r ** k, 0.0)


def anchored_bubble(mesh, lam):
    """Bubble pinned to zero at both rings by a harmonic correction.

    Subtracting the radial harmonic interpolant that matches the bubble on
    the two boundary spheres costs only capacity energy, so the quotient of
    the anchored profile stays within a few percent of the true annulus
    minimum once lam sits near the geometric middle of the domain.
    """
    zeta = _anchored_profile(mesh.r, mesh.r_min, mesh.r_max, mesh.n, lam)
    zeta[0] = zeta[-1] = 0.0
    return zeta


def sobolev_estimate(domain, metric, max_iters=600):
    """Upper estimate of the domain Sobolev constant by L-BFGS.

    Minimizes Q over the interior values z in the variables y = U z, where
    U^T U = K is the banded Cholesky factorization of the interior
    stiffness: the energy is then |y|^2, and one L-BFGS-B call (Liu &
    Nocedal 1989) with the analytic gradient converges in an iteration
    count that does not grow with the mesh.  Missing convergence within
    max_iters iterations raises EstimationError with the last iterate.
    """
    n = domain.n
    L = domain.cylinder_lengths[-1] if domain.has_toy_end else 0.0
    mesh = domain.mesh(metric, domain.truncation_radii[-1], L)
    p = 2.0 * n / (n - 2.0)
    wbar = mesh.wbar[1:-1]
    scale = sphere_area(n) ** (1.0 - 2.0 / p)
    # interior bands in LAPACK upper storage: the rings stay Dirichlet
    _, di, up = mesh_stiffness(mesh.kappa_face / mesh.dcoord)
    U = cholesky_banded(np.vstack([np.r_[0.0, up[1:-1]], di[1:-1]]))

    def quotient_and_grad(y):
        z = dtbtrs(U, y)[0]
        zp = np.abs(z) ** (p - 2.0) * z * wbar
        energy, denom = float(y @ y), float(zp @ z)
        Q = scale * energy / denom ** (2.0 / p)
        return Q, 2.0 * Q * (y / energy - dtbtrs(U, zp, trans="T")[0] / denom)

    # deterministic start: bubble spread across the middle of the domain,
    # y0 = U z0 with U upper bidiagonal
    z0 = anchored_bubble(mesh, lam=np.sqrt(mesh.r_min * mesh.r_max))[1:-1]
    y0 = U[1] * z0
    y0[:-1] += U[0, 1:] * z0[1:]
    res = minimize(quotient_and_grad, y0, jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iters, "ftol": 1e-11,
                            "gtol": 1e-9, "maxcor": 20})
    zeta = np.r_[0.0, dtbtrs(U, res.x)[0], 0.0]
    if not res.success:
        raise EstimationError("Sobolev L-BFGS did not settle in %d iterations "
                              "(Q=%.6g): %s" % (res.nit, res.fun, res.message),
                              last_iterate=zeta)
    label = "annulus[%.3g,%.3g]" % (mesh.r_min, mesh.r_max)
    if L > 0:
        label += "+cyl[%.3g]" % L
    return SobolevReport(c_S=float(res.fun), kind="upper-estimate",
                         radii=mesh.r, profile=zeta, domain_label=label,
                         iterations=res.nit, converged=True)


def sobolev_estimate_full3d(metric, r_max):
    """Upper Sobolev estimate through the full 3D annulus operators.

    Evaluates the critical quotient on a deterministic ladder of nine
    anchored bubble profiles (lam geometric across the domain) assembled
    with the 3D volume weights and stiffness on the FULL3D_SHAPE grid, and
    returns the smallest value.  Each candidate is a genuine smooth test
    function, so the result is a valid upper estimate of the domain constant
    and doubles as a cross-check of the 3D operator assembly against the
    radial mesh.

    Unconstrained lattice minimization is deliberately not attempted: at
    the critical exponent the discrete quotient concentrates at grid scale
    (node-lumped quadrature overstates the critical norm of single-node
    spikes), which drives the lattice minimum far below the continuum
    constant and makes it meaningless as a domain estimate.
    """
    if metric.n != 3:
        raise ConfigError("full-3D Sobolev estimate is n=3 only, got n=%d"
                          % metric.n)
    grid = SphericalGrid(r_min=metric.r_min, r_max=float(r_max),
                         shape=FULL3D_SHAPE)
    vol, K = grid_operators(grid, metric)
    r = np.repeat(np.exp(grid.sigma), grid.num_nodes // len(grid.sigma))
    p = 3.0  # 2n/(n-2) at n = 3 is 6; quotient uses norm^2 -> power 2/p = 1/3

    def quotient(z):
        energy = float(z @ (K @ z))
        denom = float(np.sum(z ** 6 * vol)) ** (1.0 / p)
        if denom <= 0.0:
            raise EstimationError("test profile vanishes on the grid",
                                  last_iterate=z)
        return energy / denom

    lams = np.exp(np.linspace(np.log(2.0 * grid.r_min),
                              np.log(0.5 * grid.r_max), 9))
    best_q = np.inf
    best_z = None
    for lam in lams:
        zeta = _anchored_profile(r, grid.r_min, grid.r_max, 3, lam)
        q = quotient(zeta)
        if q < best_q:
            best_q, best_z = q, zeta
    Nr, Nth, Nph = grid.shape
    label = "annulus3d[%.3g,%.3g]x%dx%dx%d" % (grid.r_min, grid.r_max,
                                               Nr, Nth, Nph)
    return SobolevReport(c_S=float(best_q), kind="upper-estimate", radii=r,
                         profile=best_z, domain_label=label,
                         iterations=len(lams), converged=True)


def _node_values(scalar_term, r):
    """c_n R at the radii r, from a callable of r or a constant."""
    if callable(scalar_term):
        return np.asarray(scalar_term(r), dtype=float)
    return np.full(r.size, float(scalar_term))


def eigenvalue_bound_full3d(metric, rho, scalar_term, shape=FULL3D_SHAPE,
                            max_iters=200):
    """Smallest Rayleigh value of the curvature-shifted energy on the 3D grid.

    Same quantity as the radial `eigenvalue_lower_bound` (inner boundary
    Neumann-natural, outer sphere Dirichlet) but minimized over all grid
    functions on the log-radius x latitude x longitude grid.  LOBPCG
    (Knyazev 2001) solves A x = lam M x, A = K + diag(R vol), M = diag(vol),
    with the Jacobi preconditioner of A - shift M (shift = min(0, min R) - 1
    keeps it positive).  Its start is the Rayleigh-Ritz mode of the pencil
    over the radial grid functions, P = kron(I, 1) on the interior rings:
    on a radial metric K P and M P are P times sin(theta)-weighted 1D
    operators, so the ground state lies in range(P) and LOBPCG stops at
    iteration 0.  The residual norm |A x - lam M x| of the M-normalized mode
    must reach 1e-10; missing it within max_iters iterations raises
    EstimationError with the last iterate.
    """
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import LinearOperator, lobpcg

    if metric.n != 3:
        raise ConfigError("full-3D eigenvalue bound is n=3 only, got n=%d"
                          % metric.n)
    grid = SphericalGrid(r_min=metric.r_min, r_max=float(rho), shape=shape)
    vol, K = grid_operators(grid, metric)
    # node radii in C order (r, theta, phi): exp(sigma) of each ring
    r = np.repeat(np.exp(grid.sigma), grid.num_nodes // len(grid.sigma))
    Rv = _node_values(scalar_term, r)

    Nr, Nth, Nph = grid.shape
    idx_r = np.repeat(np.arange(Nr), Nth * Nph)
    interior = idx_r < Nr - 1          # Dirichlet only on the outer ring

    mass = vol[interior]
    A = (K[interior][:, interior] + diags(Rv[interior] * mass)).tocsr()
    shift = min(0.0, float(Rv.min())) - 1.0
    inv_diag = 1.0 / (A.diagonal() - shift * mass)
    updates = 0

    def jacobi(v):
        # LOBPCG applies its preconditioner once per update, so the
        # applications count the iterations run
        nonlocal updates
        updates += 1
        return inv_diag * v.ravel()

    # dtype given, so LinearOperator does not probe jacobi with a zero vector
    precond = LinearOperator(A.shape, jacobi, dtype=float)

    # Rayleigh-Ritz start over the radial grid functions, range(P)
    P = kron(identity(Nr - 1), np.ones((Nth * Nph, 1)), format="csr")
    _, y = eigh((P.T @ A @ P).toarray(), np.diag(P.T @ mass),
                subset_by_index=[0, 0])
    with warnings.catch_warnings():
        # lobpcg only warns when it misses tol; the check below raises
        warnings.simplefilter("ignore", UserWarning)
        # lobpcg updates at iterations 0..maxiter, so max_iters - 1 caps
        # the updates at max_iters
        lam, vec, res_hist = lobpcg(A, P @ y, B=diags(mass), M=precond,
                                    tol=_LOBPCG_TOL, maxiter=max_iters - 1,
                                    largest=False,
                                    retResidualNormsHistory=True)
    lam = float(lam[0])
    x = vec[:, 0] * np.copysign(1.0, vec[:, 0].sum())   # positive mode
    if not res_hist[-1] <= _LOBPCG_TOL:
        raise EstimationError("3D LOBPCG did not reach residual %.3g in %d "
                              "iterations (residual %.3g, last %.6g)"
                              % (_LOBPCG_TOL, updates, res_hist[-1], lam),
                              last_iterate=x)
    mode = np.zeros(grid.num_nodes)
    mode[interior] = x
    return EigenvalueReport(value=lam, radii=r, mode=mode, iterations=updates,
                            shift=shift)


@dataclass
class EigenvalueReport:
    value: float
    radii: np.ndarray
    mode: np.ndarray
    # radial mesh: 0 (direct LAPACK solve); 3D grid: LOBPCG iterations,
    # 0 when the radial Rayleigh-Ritz start already met the tolerance
    iterations: int
    shift: float


def eigenvalue_lower_bound(metric, rho, scalar_term, num=2048):
    """Smallest Rayleigh value of (grad energy + c_n R zeta^2) / (zeta^2).

    On the compact annulus [metric.r_min, rho] of the radial metric, with
    the inner sphere Neumann-natural and the outer one Dirichlet, over the
    solver's log-radius mesh `radial_mesh(metric, rho, num)`: at num = Nr
    its radii are the rings of the full-3D grid.  scalar_term is c_n R(g)
    as a callable of r (or a constant).  The pencil A x = lam M x,
    A = K + diag(R wbar), M = diag(wbar), is scaled symmetrically by
    M^{-1/2}; LAPACK's tridiagonal bisection and inverse iteration
    (?stebz/?stein through scipy's eigh_tridiagonal) return its smallest
    eigenpair.  shift = min(0, min R) - 1 is a strict lower bound of the
    spectrum, as on the 3D path.
    """
    mesh = radial_mesh(metric, rho, num)
    Rv = _node_values(scalar_term, mesh.r)
    # interior system after eliminating the Dirichlet node at rho
    lower, diag, _ = mesh_stiffness(mesh.kappa_face / mesh.dcoord)
    mass = mesh.wbar[:-1]
    s = 1.0 / np.sqrt(mass)
    lam, vec = eigh_tridiagonal(diag[:-1] / mass + Rv[:-1],
                                lower[:-1] * s[:-1] * s[1:],
                                select="i", select_range=(0, 0))
    x = vec[:, 0] * s
    x *= np.copysign(1.0, x.sum())      # positive mode
    return EigenvalueReport(value=float(lam[0]), radii=mesh.r,
                            mode=np.concatenate([x, [0.0]]), iterations=0,
                            shift=min(0.0, float(Rv.min())) - 1.0)

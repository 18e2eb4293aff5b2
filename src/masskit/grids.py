"""Discretization carriers.

Two tiers: RADIAL (any dimension, spherically symmetric problems reduced to a
1D conservation-form mesh, optionally with a finite-cylinder toy end attached
at the inner boundary; one `radial_mesh` serves the conformal-factor solve,
its smallness gate, the density deformation's delta bisection, the Ricci
probe's negative-part norm, the Sobolev estimate and the radial eigenvalue
bound) and FULL3D (n = 3 product grid, log-radius times pole-offset
latitude times uniform longitude, its stiffness one sparse congruence
D^T W D of the stacked axis difference operators).
The RADIAL tier, the adaptive `integrate` with the harmonic tail on it, and
the sphere rules import numpy only; the FULL3D functions import
scipy.sparse inside their bodies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial, reduce

import numpy as np

from .errors import ConfigError, SolverError
from .radial import jets

# lowest sphere-quadrature order; the scene schema reads it
MIN_QUADRATURE_ORDER = 8
# cap on the nodes x n^3 first derivatives of a flux sum: 2^25 float64
# entries, 256 MiB
FLUX_ENTRY_LIMIT = 2 ** 25
# cap on the Gauss-Legendre panels of one `integrate` call
MAX_PANELS = 1024


@dataclass
class RadialMesh:
    """1D conservation-form mesh for spherically symmetric elliptic problems.

    Node layout: optional toy-end cylinder nodes at mesh coordinate t < 0
    (uniform), then the annulus at sigma = log r in [log r_min, log r_max]
    (uniform).  The junction r = r_min is a single shared node.  kappa/w are
    per-steradian flux and volume coefficients in the local mesh coordinate:

        annulus:  kappa_s = kappa(r)/r,  w_s = w(r) r
        cylinder: kappa_t = w_t = section area a(r_min)^{(n-1)/2} r_min^{n-1}

    with kappa(r) = a^{(n-1)/2} (a+b)^{-1/2} r^{n-1} and
    w(r) = a^{(n-1)/2} (a+b)^{1/2} r^{n-1} for the metric a(r) delta + b xhat xhat.
    wbar is each node's volume; wsrc, the weight of a potential, keeps only
    the annulus half cells, so the toy end carries no potential, not even
    at the junction.  Without a cylinder the two are equal.
    A mesh is shared by every solve on it, so its arrays are read-only.
    """
    n: int
    coord: np.ndarray          # strictly increasing mesh coordinate, (M,)
    r: np.ndarray              # physical radius per node (r_min on the cylinder)
    is_cyl: np.ndarray         # bool mask, (M,)
    kappa_face: np.ndarray     # (M-1,), flux coefficient at faces
    wbar: np.ndarray           # (M,), lumped weight of the two half cells
    wsrc: np.ndarray           # (M,), source weight: annulus half cells only
    r_min: float
    r_max: float               # outer sphere, exactly the r_max asked for
    kappa_max: float           # kappa(r_max), for an outer closure

    @property
    def num_nodes(self):
        return self.coord.size

    @property
    def dcoord(self):
        return np.diff(self.coord)


def radial_kappa_w(metric, r):
    """Per-steradian flux/volume coefficients of a radial metric at radii r."""
    r = np.asarray(r, dtype=float)
    form = metric.radial_form
    if form is None:
        raise ConfigError("metric %r carries no radial form" % metric.family)
    (a0,), (b0,) = jets((form.a, form.b), r, 0)
    n = metric.n
    kap = a0 ** ((n - 1) / 2.0) * (a0 + b0) ** -0.5 * r ** (n - 1)
    w = a0 ** ((n - 1) / 2.0) * (a0 + b0) ** 0.5 * r ** (n - 1)
    return kap, w


def harmonic_tail(metric, R):
    """Integral of 1/kappa over [R, inf): the tail of the radial harmonic
    function that vanishes at infinity, per unit flux, by `integrate` in
    t = R/s over [0, 1]."""
    R = float(R)
    return integrate(lambda t: R / (t * t * radial_kappa_w(metric, R / t)[0]),
                     (0.0, 1.0), "tail quadrature on [%.3g, inf)" % R)


def integrate(fn, edges, what):
    """Integral of fn from edges[0] to edges[-1] on the shooting oracle's
    `adaptive_panels` of 16 Gauss-Legendre points, starting from the
    panels between edges, where the integrand's kinks belong, and split
    while the last three Legendre coefficients exceed 1e-13 times the
    largest sample, to a width of 1e-7.  fn takes an array of points to the
    values there.  A non-finite sample, or more than MAX_PANELS panels,
    raises SolverError naming what.
    """
    x, w, tail_rows = _legendre_panel()

    def sample(t):
        vals = fn(t)
        if not np.isfinite(vals).all():
            raise SolverError("%s met a non-finite sample" % what)
        return vals[:, None]

    a, b, vals, _ = adaptive_panels(sample, np.asarray(edges, dtype=float),
                                    0.5 * (1.0 + x), tail_rows, 1e-13, 1e-7,
                                    MAX_PANELS, what)
    return float(np.sum(0.5 * (b - a) * (vals[:, 0] @ w)))


def adaptive_panels(sample, edges, s, tail_rows, tol, min_width,
                    max_panels, what):
    """Panels (a, b), sorted, their samples and the count of points sampled.

    sample(t), t the panels' points at local fractions s, shape (panels,
    nodes), gives values (panels, functions, nodes) for a whole level.  A
    panel is halved while tail_rows take some function's values to
    coefficients above tol times that function's largest sample so far, a
    running maximum, down to min_width; past max_panels, SolverError.
    """
    a, b = edges[:-1], edges[1:]
    done, scale, count = [], 0.0, 0
    while a.size:
        # exact at both ends, unlike a + s h, so the last panel stops at b
        vals = sample((1.0 - s) * a[:, None] + s * b[:, None])
        count += vals[:, 0].size
        scale = np.maximum(scale, np.abs(vals).max(axis=(0, 2)))
        coef = np.abs(vals @ tail_rows.T).max(axis=2)
        split = (coef > tol * scale).any(axis=1) & (b - a >= 2.0 * min_width)
        done.append((a[~split], b[~split], vals[~split]))
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        if sum(d[0].size for d in done) + a.size > max_panels:
            raise SolverError("%s needs more than %d panels to resolve its "
                              "integrand" % (what, max_panels))
    order = np.argsort(np.concatenate([d[0] for d in done]))
    return (*(np.concatenate(p)[order] for p in zip(*done)), count)


@cache
def _legendre_panel():
    """16-point Gauss-Legendre nodes and weights on [-1, 1], and the rows
    taking values at the nodes to the last three Legendre coefficients.
    Built on first use, not at import."""
    x, w = _gauss_jacobi(16, 0)
    # Bonnet: (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}
    P = [np.ones_like(x), x]
    for j in range(1, 15):
        P.append(((2 * j + 1) * x * P[j] - j * P[j - 1]) / (j + 1))
    # a_j = (j + 1/2) sum w P_j f, exact for j < 16
    return x, w, (np.arange(13, 16) + 0.5)[:, None] * np.array(P[13:]) * w


def radial_mesh(metric, r_max, num, cyl_len=0.0, cyl_num=0):
    """Build the composite 1D mesh for a radial metric on its chart.

    The annulus runs from the metric's inner cut r_min to r_max, which must
    exceed it; num is the annulus node count (log-spaced); cyl_len/cyl_num
    attach the toy end at r_min.  Node ordering: deepest cylinder node
    first, outer sphere last.
    """
    n = metric.n
    r_min = float(metric.r_min)
    if r_max <= r_min:
        raise ConfigError("r_max %.3g must exceed r_min %.3g" % (r_max, r_min))
    if num < 16:
        raise ConfigError("annulus node count %d too small" % num)
    sig = np.linspace(np.log(r_min), np.log(r_max), int(num))
    r_ann = np.exp(sig)
    if cyl_len > 0.0 and cyl_num > 0:
        t = np.linspace(-float(cyl_len), 0.0, int(cyl_num) + 1)[:-1]
    else:
        t = np.empty(0)
    coord = np.concatenate([t, sig - sig[0]])
    r = np.concatenate([np.full(t.size, r_min), r_ann])
    is_cyl = np.zeros(coord.size, dtype=bool)
    is_cyl[:t.size] = True

    form = metric.radial_form
    a_in = form.a.value(r_min)
    section = a_in ** ((n - 1) / 2.0) * r_min ** (n - 1)

    # faces: a face is in the cylinder iff its midpoint coordinate is < 0
    mid = 0.5 * (coord[:-1] + coord[1:])
    kappa_face = np.empty(coord.size - 1)
    cylf = mid < 0.0
    kappa_face[cylf] = section
    # mid stores sigma offsets from log(r_min); recover the face radius
    r_face = np.exp(np.log(r_min) + mid[~cylf])
    kap_ann, _ = radial_kappa_w(metric, r_face)
    kappa_face[~cylf] = kap_ann / r_face

    # lumped half-cell weights (left half, then right), side-aware at the
    # junction
    d = np.diff(coord)
    kap_nodes, w_nodes = radial_kappa_w(metric, np.append(r, float(r_max)))
    w_sigma = w_nodes[:-1] * r
    wbar = np.zeros(coord.size)
    wbar[1:] += 0.5 * d * np.where(cylf, section, w_sigma[1:])
    wbar[:-1] += 0.5 * d * np.where(cylf, section, w_sigma[:-1])
    # the annulus half cells alone: the junction keeps its outer half, which
    # is all of wbar[0] when there is no cylinder
    wsrc = np.where(is_cyl, 0.0, wbar)
    wsrc[t.size] = 0.5 * d[t.size] * w_sigma[t.size]
    for arr in (coord, r, is_cyl, kappa_face, wbar, wsrc):
        arr.flags.writeable = False
    return RadialMesh(n=n, coord=coord, r=r, is_cyl=is_cyl,
                      kappa_face=kappa_face, wbar=wbar, wsrc=wsrc,
                      r_min=r_min, r_max=float(r_max),
                      kappa_max=float(kap_nodes[-1]))


def mesh_stiffness(c):
    """Tridiagonal bands (lower, diag, upper) of -div(kappa grad) from the
    face conductances c = kappa_face / (node spacing)."""
    diag = np.zeros(c.size + 1)
    diag[:-1] += c
    diag[1:] += c
    return -c, diag, -c


@dataclass
class SphericalGrid:
    """FULL3D n=3 grid: log-radius x pole-offset latitude x uniform longitude."""
    r_min: float
    r_max: float
    shape: tuple                      # (Nr, Nth, Nph)
    sigma: np.ndarray = field(init=False)
    theta: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)

    def __post_init__(self):
        Nr, Nth, Nph = self.shape
        self.sigma = np.linspace(np.log(self.r_min), np.log(self.r_max), Nr)
        self.theta = (np.arange(Nth) + 0.5) * np.pi / Nth
        self.phi = np.arange(Nph) * 2.0 * np.pi / Nph
        if self.theta[0] <= 0.0 or self.theta[-1] >= np.pi:
            raise ConfigError("latitude nodes touch a pole")

    @property
    def num_nodes(self):
        Nr, Nth, Nph = self.shape
        return Nr * Nth * Nph

    @property
    def spacings(self):
        _, Nth, Nph = self.shape
        return (self.sigma[1] - self.sigma[0], np.pi / Nth, 2.0 * np.pi / Nph)

    def jacobians(self):
        """d x / d(sigma, theta, phi) at every node, (num_nodes, 3, 3)."""
        sg, th, ph = np.meshgrid(self.sigma, self.theta, self.phi, indexing="ij")
        r = np.exp(sg).ravel()
        st, ct = np.sin(th).ravel(), np.cos(th).ravel()
        sp_, cp = np.sin(ph).ravel(), np.cos(ph).ravel()
        # columns: d/dsigma = x, d/dtheta, d/dphi
        return np.stack([r * st * cp, r * ct * cp, -r * st * sp_,
                         r * st * sp_, r * ct * sp_, r * st * cp,
                         r * ct, -r * st, np.zeros_like(r)],
                        axis=-1).reshape(-1, 3, 3)


def _diff_ops(grid):
    """Sparse node-based central difference operators per curvilinear axis.

    Row i of an axis operator is (f[ip] - f[im]) / ((ip - im) h) with
    ip, im = i +- 1 wrapped in phi and clamped at the sigma and theta edges:
    0.5/h inside, one-sided (first-order) 1/h on the edge rows.  Returned
    per axis as Kronecker products over the whole grid.
    """
    import scipy.sparse as sp
    axes = []
    for N, h, periodic in zip(grid.shape, grid.spacings, (False, False, True)):
        i = np.arange(N)
        ip, im = i + 1, i - 1
        if not periodic:
            ip, im = np.minimum(ip, N - 1), np.maximum(im, 0)
        w = 1.0 / ((ip - im) * h)
        axes.append(sp.csr_matrix((np.r_[w, -w], (np.r_[i, i],
                                                  np.r_[ip % N, im % N])),
                                  shape=(N, N)))
    eye = [sp.identity(N) for N in grid.shape]
    # csr throughout: sp.kron's default BSR blocks store explicit zeros
    # when an axis is short
    return tuple(reduce(partial(sp.kron, format="csr"),
                        eye[:a] + [op] + eye[a + 1:])
                 for a, op in enumerate(axes))


def grid_operators(grid, metric):
    """Volume weights and symmetric stiffness for the metric on a FULL3D grid.

    Returns (vol, K): vol[i] = sqrt(det g_curv) h^3 per node, and K the
    symmetric part of the single congruence D^T W D, with D the three axis
    difference operators stacked into a (3N, N) matrix and W the 3x3 block
    matrix of diag(g_curv^{ab} vol), so that zeta^T K zeta approximates the
    Dirichlet energy of the metric.
    """
    import scipy.sparse as sp
    J = grid.jacobians()
    G = metric.g(J[:, :, 0])
    # staged einsum, not J^T G J by matmul: matmul's rounding turns the
    # off-diagonal entries that cancel to exactly 0 here (74% of them on a
    # flat grid) into 1e-17, and K then stores 44% more nonzeros
    g_curv = np.einsum('pkj,pki->pij', J, G @ J)
    hs, ht, hp = grid.spacings
    vol = np.sqrt(np.linalg.det(g_curv)) * (hs * ht * hp)
    ginv = np.linalg.inv(g_curv)
    D = sp.vstack(_diff_ops(grid), format="csr")
    W = sp.bmat([[sp.diags(ginv[:, a, b] * vol) for b in range(3)]
                 for a in range(3)], format="csr")
    M = D.T @ W @ D
    return vol, (0.5 * (M + M.T)).tocsr()


def sphere_quadrature(n, order):
    """Product quadrature nodes/weights on the unit sphere S^{n-1}, any n.

    The trapezoid in the periodic longitude gives S^1; then S^k is built from
    S^{k-1} for k = 2..n-1 as x = (sqrt(1 - t^2) y, t), with Gauss-Jacobi
    nodes t = cos(theta_k) for the weight (1 - t^2)^{(k-2)/2} of
    dsigma_k = (1 - t^2)^{(k-2)/2} dt dsigma_{k-1} (Stroud, *Approximate
    Calculation of Multiple Integrals*, 1971), computed by Golub-Welsch
    (*Calculation of Gauss quadrature rules*, Math. Comp. 23, 1969) with one
    Newton polish.  Exact for polynomials of degree < 2 order.  The last
    coordinate is the cosine of the outermost polar angle, which varies
    slowest.  Returns (U, w) with U of shape (2 order^{n-1}, n) unit vectors
    and sum(w) = |S^{n-1}|.

    A flux sum over the rule holds nodes x n^3 first derivatives, so a rule
    whose array would exceed FLUX_ENTRY_LIMIT entries is refused before any
    array is built.
    """
    order = int(order)
    if order < MIN_QUADRATURE_ORDER:
        raise ConfigError("quadrature order %d below the minimum %d"
                          % (order, MIN_QUADRATURE_ORDER))
    count = 2 * order ** (n - 1)
    if count * n ** 3 > FLUX_ENTRY_LIMIT:
        raise ConfigError(
            "sphere quadrature at n=%d, order %d has %d nodes; their %d first "
            "derivatives exceed the limit of %d entries"
            % (n, order, count, count * n ** 3, FLUX_ENTRY_LIMIT))
    nphi = 2 * order
    phi = np.arange(nphi) * 2.0 * np.pi / nphi
    U = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    w = np.full(nphi, 2.0 * np.pi / nphi)
    for k in range(2, n):
        t, wt = _gauss_jacobi(order, k - 2)
        U = np.column_stack(
            [(np.sqrt(1.0 - t ** 2)[:, None, None] * U).reshape(-1, k),
             np.repeat(t, len(U))])
        w = np.outer(wt, w).ravel()
    return U, w


def _gauss_jacobi(m, k):
    """m-point Gauss rule for the weight (1 - t^2)^{k/2} on [-1, 1].

    Golub-Welsch nodes, the eigenvalues of the Jacobi matrix with
    off-diagonal sqrt(j (j + k) / ((2j + k - 1)(2j + k + 1))), are up to
    1e-15 off; one Newton step on the orthonormal recurrence (q_0 = 1)
    brings them within an ulp.  Weights: mu_0 / sum_{j<m} q_j(t)^2.
    """
    j = np.arange(1.0, m + 1)
    b = np.sqrt(j * (j + k) / ((2 * j + k - 1) * (2 * j + k + 1)))

    def recurrence(t):
        """q_0..q_m at t, and the derivative of q_m."""
        q, dq = [np.ones_like(t), t / b[0]], [0.0, 1.0 / b[0]]
        for i in range(1, m):
            q.append((t * q[i] - b[i - 1] * q[i - 1]) / b[i])
            dq.append((q[i] + t * dq[i] - b[i - 1] * dq[i - 1]) / b[i])
        return np.array(q), dq[-1]

    t = np.linalg.eigvalsh(np.diag(b[:-1], -1))
    q, dq = recurrence(t)
    t = t - q[-1] / dq
    q, _ = recurrence(t)
    # mu_0 = integral of the weight = |S^{k+2}| / |S^{k+1}|
    return t, sphere_area(k + 3) / sphere_area(k + 2) / (q[:-1] ** 2).sum(0)


def sphere_area(n):
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2), with Gamma(x + 1) = x Gamma(x)
    run up from Gamma(1/2) = sqrt(pi) or Gamma(1) = 1."""
    gamma = 1.0 if n % 2 == 0 else np.sqrt(np.pi)
    for i in range(2 - n % 2, n - 1, 2):
        gamma *= i / 2.0
    return 2.0 * np.pi ** (n / 2.0) / gamma

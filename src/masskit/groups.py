"""Finite orthogonal symmetry groups and quotient-end mass.

A finite subgroup of O(n) acting freely on the unit sphere turns an
invariant end chart into a quotient end with 1/|G| of the asymptotic
volume.  `ale_lift` verifies the invariance, lifts the chart to its cover,
and audits that the cover mass equals |G| times the quotient mass, where
the quotient side is integrated independently over a lexicographic
fundamental domain of the sphere: the orbit representatives among the
nodes of `grids.sphere_quadrature` (any n), summed by the same
`adm.surface_flux` as every other mass flux.
`fixed_point_of_finite_group` locates the common fixed point of a finite
group of Euclidean isometries from the orbit centroid of the origin.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import adm as _adm
from .curvature import sample_directions
from .errors import ConfigError, RegimeError
from .grids import sphere_area, sphere_quadrature
from .metrics import congruence
from .tolerances import MATCH_TOL, RATIO_TOL, VANISHING_MASS

# eigenvalue margin for "no fixed direction on the sphere"
FREE_TOL = 1e-8
DEFAULT_CLOSURE_CAP = 512
# sample radii (in units of r_min) for the invariance audit, each along
# 20 directions drawn with seed 7
_INVARIANCE_RADII = (2.0, 5.0, 12.0, 30.0)


def _is_identity(T):
    return np.max(np.abs(T - np.eye(T.shape[0]))) < MATCH_TOL


def _orthogonal(T, n, what):
    """T as a float (n, n) array; ConfigError naming `what` unless it has
    that shape and is orthogonal to MATCH_TOL."""
    T = np.asarray(T, dtype=float)
    if T.shape != (n, n):
        raise ConfigError("%s shape %s does not match dimension n=%d"
                          % (what, T.shape, n))
    if np.max(np.abs(T.T @ T - np.eye(n))) > MATCH_TOL:
        raise ConfigError("%s is not orthogonal to %.1g" % (what, MATCH_TOL))
    return T


def _contains(stack, T):
    if not stack:
        return False
    arr = np.asarray(stack)
    return bool(np.min(np.max(np.abs(arr - T[None]), axis=(1, 2))) < MATCH_TOL)


@dataclass(frozen=True)
class GroupAction:
    """Finite subgroup of O(n), elements listed with the identity first.

    Construction validates orthogonality of every element and, for groups
    of order at most 128, closure under products; `from_generators` builds
    the closure by breadth-first multiplication.  Every non-identity
    element must move every point of the unit sphere (no eigenvalue 1),
    so the quotient of the punctured chart is a manifold.
    """

    elements: tuple
    generators: tuple
    n: int

    def __post_init__(self):
        if not self.elements:
            raise ConfigError("group needs at least the identity element")
        for T in self.elements:
            _orthogonal(T, self.n, "group element")
        if not _is_identity(self.elements[0]):
            raise ConfigError("elements must list the identity first")
        for T in self.elements[1:]:
            ev = np.linalg.eigvals(T)
            if float(np.min(np.abs(ev - 1.0))) <= FREE_TOL:
                raise ConfigError(
                    "group element fixes a direction on the sphere "
                    "(eigenvalue 1); the action is not free")
        if len(self.elements) <= 128:
            stack = list(self.elements)
            for A in self.elements:
                for B in self.elements:
                    if not _contains(stack, A @ B):
                        raise ConfigError("element set is not closed under "
                                          "products")

    @property
    def order(self):
        return len(self.elements)

    @classmethod
    def from_generators(cls, generators, cap=DEFAULT_CLOSURE_CAP):
        """Close a generator list under products, identity included."""
        gens = list(generators)
        if not gens:
            raise ConfigError("need at least one generator")
        n = np.shape(gens[0])[0]
        gens = [_orthogonal(G, n, "generator") for G in gens]
        elems = [np.eye(n)]
        frontier = [np.eye(n)]
        while frontier:
            new = []
            for E in frontier:
                for G in gens:
                    P = G @ E
                    if not _contains(elems + new, P):
                        new.append(P)
            elems.extend(new)
            frontier = new
            if len(elems) > cap:
                raise ConfigError("generators did not close within %d "
                                  "elements" % cap)
        return cls(elements=tuple(elems), generators=tuple(gens), n=n)

    @classmethod
    def trivial(cls, n):
        return cls(elements=(np.eye(n),), generators=(), n=int(n))


def _lex_ge(A, B):
    """Rowwise lexicographic A >= B with exact float comparison: true
    unless A < B in the first column where the rows differ."""
    lt = A < B
    first = np.argmax(lt | (A > B), axis=1)
    return ~lt[np.arange(len(A)), first]


def fundamental_domain_mass(metric, group, radii=None):
    """Quotient-end mass by flux quadrature over a fundamental domain.

    Keeps the sphere nodes that are lexicographically largest in their
    group orbit (one representative per orbit for a free action), sums the
    mass flux over those nodes with `adm.surface_flux` and the full-sphere
    normalization, and extrapolates the radius ladder.  Independent of any cover-side mass
    computation: for an invariant metric the result is the cover mass
    divided by the group order.
    """
    if group.n != metric.n:
        raise ConfigError("group dimension %d does not match metric "
                          "dimension %d" % (group.n, metric.n))
    n = metric.n
    radii = _adm.ladder_radii(radii)
    U, w = sphere_quadrature(n, _adm.DEFAULT_QUADRATURE_ORDER)
    keep = np.ones(len(U), dtype=bool)
    for T in group.elements[1:]:
        keep &= _lex_ge(U, U @ T.T)
    nodes = U[keep], w[keep]
    masses = np.array([_adm.surface_flux(metric, rho, nodes)
                       for rho in radii]) / (2.0 * (n - 1) * sphere_area(n))
    mass, p_obs, low_confidence = _adm.extrapolate_ladder(radii, masses, n)
    return {
        "mass": mass,
        "partial_masses": masses,
        "radii": radii,
        "observed_order": p_obs,
        "low_confidence": low_confidence,
        "nodes_kept": int(keep.sum()),
        "nodes_total": int(len(U)),
        "quadrature_order": _adm.DEFAULT_QUADRATURE_ORDER,
    }


def invariance_gap(metric, group):
    """Largest violation of T^t g(Tx) T = g(x) over seeded sample points."""
    n = metric.n
    dirs = sample_directions(n, 20, rng=7)
    X = np.concatenate([metric.r_min * s * dirs for s in _INVARIANCE_RADII])
    G = metric.g(X)
    gap = 0.0
    for T in group.generators if group.generators else group.elements[1:]:
        back = congruence(T)(metric.g(X @ T.T))
        gap = max(gap, float(np.max(np.abs(back - G))))
    return gap


def ale_lift(metric, group, radii=None):
    """Lift an invariant quotient chart to its cover and audit the masses.

    The chart metric must satisfy T^t g(Tx) T = g(x) for every group
    element at the seeded sample points; violations are regime failures.
    The lifted cover shares the chart evaluator.  The audit computes the
    cover mass by the standard ladder and the quotient mass independently
    by fundamental-domain quadrature; their ratio must equal the group
    order within 0.1%.  Returns (cover_metric, audit dict).
    """
    if group.n != metric.n:
        raise ConfigError("group dimension %d does not match metric "
                          "dimension %d" % (group.n, metric.n))
    gap = invariance_gap(metric, group)
    if gap > MATCH_TOL:
        raise RegimeError("chart is not invariant under the group: "
                          "largest conjugation gap %.3g exceeds %.1g"
                          % (gap, MATCH_TOL))
    cover = dataclasses.replace(metric, family=metric.family + "-cover")
    cover_rep = _adm.adm_mass(cover, radii=radii)
    fd = fundamental_domain_mass(metric, group, radii=radii)
    cover_mass = cover_rep.mass
    quot_mass = fd["mass"]

    if abs(quot_mass) <= VANISHING_MASS:
        if abs(cover_mass) > VANISHING_MASS * group.order:
            raise RegimeError(
                "quotient flux vanishes but cover mass %.3g does not"
                % cover_mass)
        ratio = None
        rel_err = 0.0
    else:
        ratio = cover_mass / quot_mass
        rel_err = abs(ratio - group.order) / group.order
        if rel_err > RATIO_TOL:
            raise RegimeError(
                "cover/quotient mass ratio %.9g differs from the group "
                "order %d by %.3g (limit %.1g)"
                % (ratio, group.order, rel_err, RATIO_TOL))
    audit = {
        "group_order": group.order,
        "invariance_gap": gap,
        "cover_mass": cover_mass,
        "quotient_mass": quot_mass,
        "mass_ratio": ratio,
        "ratio_rel_error": rel_err,
        "ale_mass": cover_mass / group.order,
        "radii": list(fd["radii"]),
        "quadrature_order": _adm.DEFAULT_QUADRATURE_ORDER,
        "nodes_kept": fd["nodes_kept"],
        "nodes_total": fd["nodes_total"],
    }
    return cover, audit


def fixed_point_of_finite_group(isometries):
    """Common fixed point of a finite group of Euclidean isometries.

    `isometries` lists the group as (T, v) pairs for x -> T x + v with T
    orthogonal.  The centroid of the orbit of the origin, p = mean of v,
    is fixed by every element of a genuine finite group; the residual
    max |T p + v - p| is verified to 1e-12 and a violation (for example a
    set containing a pure translation) is a regime failure.
    """
    pairs = []
    for T, v in isometries:
        v = np.asarray(v, dtype=float)
        if v.ndim != 1:
            raise ConfigError("translation part shape %s is not a vector"
                              % (v.shape,))
        pairs.append((_orthogonal(T, v.size, "linear part"), v))
    if not pairs:
        raise ConfigError("need at least one isometry")
    p = np.mean([v for _, v in pairs], axis=0)
    scale = max(1.0, float(np.linalg.norm(p)))
    residual = max(float(np.linalg.norm(T @ p + v - p)) for T, v in pairs)
    if residual > MATCH_TOL * scale:
        raise RegimeError(
            "no common fixed point: orbit centroid moves by %.3g (the "
            "maps do not form a finite group of isometries)" % residual)
    return p

"""Taylor jets of the radial profiles against sympy, and the closed-form
radial scalar curvature against the conformal formula and against a
symbolic Christoffel computation."""
import numpy as np
import pytest
import sympy as sp

from masskit import metrics, radial
from masskit.rigidity import perturbed_scalar_spline, ricci_perturbed_metric

R_SYM = sp.Symbol("r", positive=True)
ORDER = 4


def smoothstep_sym(x):
    return x ** 3 * (10 - 15 * x + 6 * x ** 2)


def sym_jet(expr, r, k=ORDER):
    """Taylor coefficients f^(j)(r) / j!, j = 0..k, evaluated at 30 digits."""
    out, d = [], expr
    for j in range(k + 1):
        out.append(float(d.evalf(30, subs={R_SYM: sp.Float(r, 30)}))
                   / float(sp.factorial(j)))
        d = sp.diff(d, R_SYM)
    return np.array(out)


def triple(profile, r):
    """(y, dy, ddy): the value and first two derivatives from the order-2
    jet."""
    c = profile.jet(r, 2)
    return c[0], c[1], 2.0 * c[2]


def assert_jet_matches(profile, expr, radii, rtol=1e-12):
    jet = profile.jet(np.array(radii), ORDER)
    assert jet.shape == (ORDER + 1, len(radii))
    for i, r in enumerate(radii):
        ref = sym_jet(expr, r)
        scale = np.abs(ref).max()
        assert np.abs(jet[:, i] - ref).max() <= rtol * scale, (r, jet[:, i])


r = R_SYM
u_expr = (1 + sp.Rational(1, 2) / r
          + sp.Float("0.3") * sp.exp(-((r - 2) / sp.Float("0.7")) ** 2))


def u_profile():
    return (radial.const(1.0) + radial.power(0.5, -1.0)
            + radial.gaussian(0.3, 2.0, 0.7))


@pytest.mark.parametrize("name,profile,expr,radii", [
    ("power", radial.power(0.7, -1.3),
     sp.Float("0.7") * r ** sp.Float("-1.3"), [0.8, 1.7, 3.1]),
    ("gaussian", radial.gaussian(0.4, 2.0, 1.5),
     sp.Float("0.4") * sp.exp(-((r - 2) / sp.Float("1.5")) ** 2),
     [0.8, 1.7, 3.1]),
    ("bubble", radial.bubble(0.6, 1.3),
     sp.Float("0.6") / sp.sqrt(1 + (sp.Float("1.3") * r) ** 2),
     [0.2, 1.7, 3.1]),
    ("window-up", radial.window(1.0, 1.5, 3.0, 4.5),
     smoothstep_sym((r - 1) / sp.Float("0.5")), [1.1, 1.25, 1.45]),
    ("window-down", radial.window(1.0, 1.5, 3.0, 4.5),
     1 - smoothstep_sym((r - 3) / sp.Float("1.5")), [3.2, 3.9, 4.4]),
    ("window-plateau", radial.window(1.0, 1.5, 3.0, 4.5), sp.Integer(1),
     [1.6, 2.9]),
    ("window-outside", radial.window(1.0, 1.5, 3.0, 4.5), sp.Integer(0),
     [0.5, 4.6]),
    ("powc", u_profile().powc(-0.7), u_expr ** sp.Float("-0.7"),
     [1.2, 2.3, 3.6]),
    ("logp", u_profile().logp(), sp.log(u_expr), [1.2, 2.3, 3.6]),
    ("product", u_profile() * radial.power(2.0, 0.5),
     u_expr * 2 * sp.sqrt(r), [1.2, 2.3]),
    ("compose", radial.compose(radial.gaussian(1.0, 1.2, 0.8), u_profile()),
     sp.exp(-((u_expr - sp.Float("1.2")) / sp.Float("0.8")) ** 2),
     [1.2, 2.3, 3.6]),
])
def test_order4_jets_match_sympy(name, profile, expr, radii):
    assert_jet_matches(profile, expr, radii)


def test_triple_and_accessors_read_the_jet():
    p = u_profile().powc(4.0)
    rr = np.array([1.3, 2.7])
    y, dy, ddy = triple(p, rr)
    jet = p.jet(rr, 2)
    assert np.array_equal(y, jet[0]) and np.array_equal(dy, jet[1])
    assert np.array_equal(ddy, 2.0 * jet[2])
    assert np.array_equal(p(rr), y) and np.array_equal(p.value(rr), y)
    assert np.array_equal(p.d1(rr), dy) and np.array_equal(p.d2(rr), ddy)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_radial_scalar_matches_conformal_formula(n):
    u = metrics.schwarzschild_factor(1.0, n) + radial.power(-0.1, -2.0) \
        + radial.bubble(0.2, 0.7)
    rr = np.linspace(1.2, 9.0, 41)
    ref = radial.conformal_scalar(u, n)(rr)
    got = radial.radial_scalar(u.powc(4.0 / (n - 2)), None, n)(rr)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_closed_form_curvatures_evaluate_each_leaf_once():
    """Each closed form evaluates its highest-order operand first, so the
    shared memo computes a leaf's jet once per call rather than once per
    order asked."""
    orders = []
    u = metrics.schwarzschild_factor(1.0, 3)
    leaf = radial.RProfile(lambda at, k: orders.append(k) or at(u, k))
    g = metrics.conformally_flat(leaf, 3)
    gbar = ricci_perturbed_metric(g, radial.window(1.5, 2.0, 3.0, 3.5),
                                  (1.5, 3.5), 0.08)
    rr = np.linspace(1.6, 3.4, 7)
    for p in (radial.flat_laplacian(leaf, 3), radial.conformal_scalar(leaf, 3),
              radial.radial_scalar(g.radial_form.a, g.radial_form.b, 3),
              perturbed_scalar_spline(gbar, (1.5, 3.5), g.r_min)):
        orders.clear()
        p(rr)
        assert len(orders) == 1, orders


def _christoffel_ricci(g, coords):
    """Ricci tensor of a diagonal metric diag(g) in the given coordinates."""
    dim = len(coords)
    ginv = [1 / gi for gi in g]
    gam = [[[sp.Integer(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                t = 0
                if a == c:
                    t += sp.diff(g[a], coords[b])
                if a == b:
                    t += sp.diff(g[a], coords[c])
                if b == c:
                    t -= sp.diff(g[b], coords[a])
                gam[a][b][c] = ginv[a] * t / 2
    ric = [[sp.Integer(0)] * dim for _ in range(dim)]
    for b in range(dim):
        d = b   # the Ricci tensor of these metrics is diagonal
        t = 0
        for a in range(dim):
            t += (sp.diff(gam[a][b][d], coords[a])
                  - sp.diff(gam[a][b][a], coords[d]))
            for e in range(dim):
                t += gam[a][a][e] * gam[e][b][d] - gam[a][d][e] * gam[e][b][a]
        ric[b][d] = t
    return ric, ginv


def _radial_form_scalar():
    """R of (a + b) dr^2 + a r^2 dOmega^2 as an expression in r and the
    symbols a_j, b_j standing for the j-th derivatives of a and b."""
    th = sp.Symbol("theta", positive=True)
    coords = (R_SYM, th, sp.Symbol("phi"))
    a, b = sp.Function("a")(R_SYM), sp.Function("b")(R_SYM)
    ric, ginv = _christoffel_ricci(
        [a + b, a * R_SYM ** 2, a * R_SYM ** 2 * sp.sin(th) ** 2], coords)
    R = sum(gi * ric[i][i] for i, gi in enumerate(ginv))
    syms = {}
    for name, f in (("a", a), ("b", b)):
        for j in (2, 1, 0):
            s = sp.Symbol("%s%d" % (name, j))
            R = R.subs(sp.diff(f, R_SYM, j) if j else f, s)
            syms[s] = (name, j)
    return sp.simplify(R), syms


@pytest.fixture(scope="module")
def perturbed_scalar_reference():
    """Exact R of g - eps eta Ric(g) on the Ricci probe's spec (Schwarzschild
    m = 1, eps = 0.08, eta = window(1.5, 2, 3, 3.5)), from Christoffel
    symbols in spherical coordinates, as a function of (r, piece of eta)."""
    th = sp.Symbol("theta", positive=True)
    coords = (R_SYM, th, sp.Symbol("phi"))
    U = (1 + 1 / (2 * R_SYM)) ** 4
    ric, _ = _christoffel_ricci(
        [U, U * R_SYM ** 2, U * R_SYM ** 2 * sp.sin(th) ** 2], coords)
    alpha = sp.simplify(ric[1][1] / R_SYM ** 2)
    beta = sp.simplify(ric[0][0] - alpha)
    eps = sp.Rational(8, 100)
    etas = {"up": smoothstep_sym((R_SYM - sp.Rational(3, 2)) * 2),
            "plateau": sp.Integer(1),
            "down": 1 - smoothstep_sym((R_SYM - 3) * 2)}
    R, syms = _radial_form_scalar()

    def reference(r0, piece):
        eta = etas[piece]
        forms = {"a": U - eps * eta * alpha, "b": -eps * eta * beta}
        at = {R_SYM: sp.Float(r0, 40)}
        vals = {s: sp.diff(forms[name], R_SYM, j).evalf(40, subs=at)
                for s, (name, j) in syms.items()}
        vals[R_SYM] = sp.Float(r0, 40)
        return float(R.evalf(40, subs=vals))

    return reference


# Exact R is 1.28e-9 at 1.5 + 1e-9 and 1.28e-4 at 1.5001, continuous at the
# bump edge; there the closed form is off by 1.5e-16 absolute (the roundoff
# of its two O(1) terms, which cancel), elsewhere by at most 1.2e-12
# relative.
@pytest.mark.parametrize("r0,piece,rtol", [(1.5 + 1e-9, "up", 1e-5),
                                           (1.5001, "up", 1e-10),
                                           (2.5, "plateau", 1e-10),
                                           (3.4999, "down", 1e-10)])
def test_perturbed_scalar_matches_sympy(perturbed_scalar_reference, r0, piece,
                                        rtol):
    ref = perturbed_scalar_reference(r0, piece)
    g = metrics.schwarzschild(1.0, 3)
    gbar = ricci_perturbed_metric(g, radial.window(1.5, 2.0, 3.0, 3.5),
                                  (1.5, 3.5), 0.08)
    R = perturbed_scalar_spline(gbar, (1.5, 3.5), g.r_min)
    assert abs(R(np.array([r0]))[0] - ref) <= rtol * abs(ref)

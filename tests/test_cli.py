"""CLI helpers: the threaded mass ladder against the library one."""
import types

import numpy as np

from masskit import adm, cli, metrics


def quadrupole_chart(c=0.05):
    """Schwarzschild m=1 plus the traceless l=2 term c (x.Ax) / r^3 delta."""
    A = np.diag([1.0, -0.4, -0.6])

    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        s = c * np.einsum("pi,ij,pj->p", X, A, X) / r ** 3
        return s[:, None, None] * np.eye(3)[None]

    return metrics.perturbed(metrics.schwarzschild(1.0, 3), h)


def test_mass_report_matches_adm_mass_serial_and_threaded(tmp_path):
    chart = quadrupole_chart()
    assert chart.radial_form is None
    radii = np.array([8.0, 16.0, 32.0, 64.0])
    ref = adm.adm_mass(chart, radii, order=16)
    cfg = types.SimpleNamespace(sha256="0" * 64)
    for threads in (1, 2):
        run = cli.Run("mass", cfg, str(tmp_path / str(threads)), 0, threads)
        rep = cli._mass_report(chart, radii, 16, "auto", run)
        assert rep.method == "quadrature" == ref.method
        assert np.array_equal(rep.partial_masses, ref.partial_masses)
        assert rep.extrapolated == ref.extrapolated

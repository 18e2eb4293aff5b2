"""Thresholds read by more than one module.

The library raises on them and the CLI audits against them, so a check and
the report of it cannot disagree on where the cut lies.
"""

# scalar curvature at or above this counts as nonnegative (roundoff floor)
MIN_R_TARGET = -1e-8
# a positive scalar-curvature witness must exceed this
WITNESS_R = 1e-6
# roundoff gate for "harmonic" and "nonpositive Laplacian" audits
LAPLACIAN_TOL = 1e-10
# the cap's transition band must push the flat Laplacian strictly below this
BAND_WITNESS = -1e-6
# matrix-level tolerance for orthogonality, closure, invariance and fixed
# points
MATCH_TOL = 1e-12
# relative tolerance of the cover/quotient mass-ratio audit
RATIO_TOL = 1e-3
# cover and quotient masses both at or below this count as vanishing
VANISHING_MASS = 1e-10

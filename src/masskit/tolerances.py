"""Thresholds read by more than one module.

Each inequality has one home: the library call that raises on it, or, where
the library only reports the number, the one CLI audit that records it.
"""

# scalar curvature at or above this counts as nonnegative (roundoff floor)
MIN_R_TARGET = -1e-8
# a positive scalar-curvature witness must exceed this
WITNESS_R = 1e-6
# roundoff gate for "harmonic" and "nonpositive Laplacian" audits
LAPLACIAN_TOL = 1e-10
# the cap's transition band must push the flat Laplacian strictly below this
BAND_WITNESS = -1e-6

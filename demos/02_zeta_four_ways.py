"""The zeta and eta maps computed by four independent constructions.

Each construction is a separate algorithm: boundary boxes of the core,
sorting the levels, a laser filling, and an interval-intersection grid.
Run:  python demos/02_zeta_four_ways.py
"""

import rational_dyck as rd
from rational_dyck.maps import (
    eta_via_cores,
    eta_via_intervals,
    eta_via_lasers,
    eta_via_sweep,
    zeta_via_cores,
    zeta_via_intervals,
    zeta_via_lasers,
    zeta_via_sweep,
)
from rational_dyck.render import RenderSpec, render_ascii

P = rd.make_path(5, 8, "NNNENEEENEEEE")

print("input:", P)
print("lambda (rows of the zeta image):", rd.lambda_partition(P).parts)
print("mu (columns of the eta image)  :", rd.mu_partition(P).parts)
print()

for name, z_fn, e_fn in [
    ("cores    ", zeta_via_cores, eta_via_cores),
    ("sweep    ", zeta_via_sweep, eta_via_sweep),
    ("lasers   ", zeta_via_lasers, eta_via_lasers),
    ("intervals", zeta_via_intervals, eta_via_intervals),
]:
    print(f"{name}: zeta = {z_fn(P)}   eta = {e_fn(P)}")

print()
zeta_image, eta_image = rd.cross_check(P)
print("cross-checked entry points:", zeta_image, "/", eta_image)
print()

print("the laser filling behind the third construction:")
print(render_ascii(P, RenderSpec(overlays=("lasers",))))
print("the interval grid behind the fourth ('#' above, '*' below):")
print(render_ascii(P, RenderSpec(overlays=("intervals",))))

print("relations, checked here on every (3,5) path:")
for p in rd.enumerate_paths(3, 5):
    assert rd.eta(p) == rd.zeta(rd.conjugate(p))
    assert rd.zeta(rd.flip(p)) == rd.flip(rd.eta(p))
print("  eta == zeta of the conjugate; flipping swaps the two maps."
      "  All 7 paths agree.")

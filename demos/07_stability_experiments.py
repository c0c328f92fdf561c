"""Stability experiments: extremal families, deficits, fitted exponents.

Perturbing the regular simplex while keeping the unit ball extremal lets
the deficit of the gauge mean be compared with the geometric distance to
the best-aligned simplex.  The vertex-added family shows a linear
volume-distance response; cutting corners off the circumscribed simplex
produces the characteristic 1/n Hausdorff exponent.

Every body here is a polytope in two or three dimensions, whose deficits
are closed form (the first intrinsic volume of the body or of its polar):
no Gaussian sample is drawn, so no sample count is passed.  The seeds
only seed the restarts of the alignment search.
"""
import numpy as np

from simplexstab import stability as st

grid = np.geomspace(2e-3, 0.09, 8)
fam = st.make_family("vertex-added", 2, grid)
rep = st.fit_exponent(fam, seed=1)
print("vertex-added family in the plane (volume distance):")
for row in rep.rows:
    print(f"  eps {row.eps_nominal:.4f}  deficit {row.eps_measured:.2e}  "
          f"dH {row.delta_H:.3e}  dvol {row.delta_vol:.3e}  "
          f"bound margin 10^{row.bound_margin_log10:.1f}")
print(f"fitted exponent: {rep.slope:.3f} +- {rep.slope_stderr:.3f} "
      f"(R^2 = {rep.r_squared:.4f}, expected 1)")

for n, target in ((2, "1/2"), (3, "1/3")):
    fam = st.make_family("corner-cut", n, np.geomspace(1e-3, 0.09, 8))
    rep = st.fit_exponent(fam, seed=2)
    print(f"\ncorner-cut family, n = {n} (Hausdorff distance): "
          f"exponent {rep.slope:.3f} +- {rep.slope_stderr:.3f} (expected {target})")

fam = st.make_family("stretched-vertex", 2, np.geomspace(1e-4, 0.095, 8))
rep = st.fit_exponent(fam, seed=3)
print(f"\nstretched-vertex family, n = 2 (width deficit): "
      f"exponent {rep.slope:.3f} +- {rep.slope_stderr:.3f} (expected 1/2)")

from simplexstab import ellipsoids as el

print("\nextremality of the simplex across random isotropic supports:")
for trial in range(5):
    mu = el.random_isotropic_measure(2, 6 + 3 * trial, seed=40 + trial)
    rep = st.extremality_check(mu.points, seed=50 + trial)
    print(f"  k = {mu.k}: deficits {rep['lowner_deficit']:+.4f} / "
          f"{rep['john_deficit']:+.4f}, distance of the support to the best "
          f"simplex {rep['support_distance']:.3f}")

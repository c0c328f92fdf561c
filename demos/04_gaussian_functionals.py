"""Gaussian functionals: measure of dilates, gauge means, mean width.

The circumscribed simplex admits an exact gauge-mean oracle through the
expected maximum of equicorrelated Gaussians; Monte-Carlo estimates are
checked against it, and the gauge-mean/width identity ties the two
functionals together through the polar body.
"""
import math

from simplexstab import functionals as fn
from simplexstab import geometry as g

n = 3
oracle = fn.simplex_ell_oracle(n)
print(f"exact gauge mean of the circumscribed simplex: {oracle:.6f}")
print(f"the inscribed simplex value is n times larger: {n * oracle:.6f}")
print(f"ball value for comparison: {fn.ell_ball(n):.6f}")

est = fn.ell_norm(g.regular_simplex_polar(n), n_samples=400_000, seed=1)
print(f"\nMonte-Carlo estimate: {est.value:.6f} +- {est.stderr:.6f} "
      f"({abs(est.value - oracle) / est.stderr:.2f} standard errors off)")

mass = fn.gaussian_mass(g.regular_simplex(n), 1.5, n_samples=200_000, seed=2)
print(f"\nGaussian measure of 1.5x the inscribed simplex: "
      f"{mass.value:.4f} +- {mass.stderr:.4f}")

width = fn.mean_width(g.regular_simplex(n), n_samples=200_000, seed=3)
exact_width = 2.0 * oracle / fn.ell_ball(n)
print(f"\nmean width of the inscribed simplex: {width.value:.5f} +- {width.stderr:.5f}")
print(f"exact value via the polar identity:  {exact_width:.5f}")

rep = fn.mean_ell_crosscheck(g.regular_simplex(2), n_samples=300_000, seed=4)
print(f"\ngauge-mean vs width identity in the plane: gap {rep['gap']:+.5f} "
      f"(joint standard error {rep['joint_stderr']:.5f})")

print("\nwidth of the inscribed simplex against the logarithmic law:")
for n in (4, 6, 8, 10):
    w = 2.0 * fn.simplex_ell_oracle(n) / fn.ell_ball(n)
    print(f"  n = {n:2d}: W = {w:.4f},  W / sqrt(2 ln n / n) = "
          f"{w / math.sqrt(2 * math.log(n) / n):.4f}")

"""Discrete isotropic measures: validation, support reduction, and the
weighted-determinant inequality with its stability factor.
"""
import numpy as np

from simplexstab import isotropic as iso
from simplexstab.rng import make_rng

mu = iso.simplex_measure(2)
print("the extremal measure: triangle vertices, each of weight n/(n+1)")
print("residuals:", mu.validate())

# pile two rotated copies together and reduce the support again
theta = 0.6
R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
doubled = iso.DiscreteMeasure(np.vstack([mu.points, mu.points @ R.T]),
                              np.concatenate([mu.weights, mu.weights]) / 2)
print(f"\ntwo rotated triangles: k = {doubled.k}, "
      f"residual {doubled.validate().max_residual:.2e}")
reduced = iso.reduce_support(doubled)
print(f"after the support reduction: k = {reduced.k} "
      f"(guaranteed bound {iso.support_bound(2)})")

# the determinant inequality det(sum t_i c_i u_i u_i^T) >= prod t_i^{c_i}
rng = make_rng(1)
t = np.exp(rng.uniform(np.log(0.1), np.log(10.0), reduced.k))
rep = iso.ball_barthe_check(reduced, t)
print(f"\ndeterminant inequality at log-uniform t:")
print(f"  lhs          = {rep.lhs:.6f}")
print(f"  theta* * rhs = {rep.theta_star * rep.rhs:.6f}")
print(f"  rhs          = {rep.rhs:.6f}")
print(f"  stability factor theta* = {rep.theta_star:.6f} (equals 1 iff all t agree)")

idx, value = iso.big_determinant_subset(reduced)
print(f"\na weight-determinant subset meeting the averaging bound {idx}: {value:.6f} "
      f">= 1/C(k, n) = {1.0 / __import__('math').comb(reduced.k, 2):.6f}")

lifted = iso.lift(mu, +1)
print("\nlifting the triangle measure one dimension up gives an orthonormal basis:")
print(np.round(lifted.points @ lifted.points.T, 12))

"""Convex bodies, polarity and distances at desk scale.

Builds the regular simplex inscribed in the unit ball, inspects its polar,
and exercises the metric toolbox: support functions, gauges, Hausdorff and
symmetric-difference distances.
"""
import numpy as np

from simplexstab import geometry as g

n = 3
simplex = g.regular_simplex(n)
V = simplex.vertices
print(f"regular simplex in dimension {n}: {n + 1} unit vertices")
print("pairwise scalar products (should be -1/n off the diagonal):")
print(np.round(V @ V.T, 6))

print(f"\nvolume by closed formula : {g.simplex_volume(n):.12f}")
det_vol = abs(np.linalg.det(V[1:] - V[0])) / 6.0
print(f"volume by determinant    : {det_vol:.12f}")

polar = g.polar(simplex)
print(f"\npolar simplex vertices are -{n} times the originals:")
print(np.round(np.sort(polar.vertices, axis=0) + n * np.sort(V, axis=0), 12))
print(f"volume of the polar = n^n * V: {g.polar_simplex_volume(n):.6f}")

x = -V[0]
print(f"\ngauge of the simplex at the antipode of a vertex: "
      f"{g.gauge_norm(simplex, x):.6f} (the point sits at depth 1/n)")
print(f"support function there: {g.support_function(simplex, x):.6f}")

stretched = g.Polytope(vertices=1.25 * V)
print(f"\nHausdorff distance to the 1.25-dilate: "
      f"{g.hausdorff_distance(simplex, stretched):.6f} (exactly 0.25)")

vol = g.symdiff_volume(simplex, stretched)
expected = (1.25 ** n - 1.0) * g.simplex_volume(n)
print(f"symmetric-difference volume: {vol:.12f}")
print(f"((1.25)^n - 1) * V         : {expected:.12f}")

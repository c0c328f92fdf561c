"""Minimum-volume enclosing ellipsoids and John contact measures.

An interior-point solver, run on an active set of points grown from a core
set, drives the optimality certificate to about machine precision, and the
dual weights become a centered isotropic measure on the sphere.
"""
import numpy as np

from simplexstab import ellipsoids as el
from simplexstab import geometry as g
from simplexstab.rng import make_rng

V = g.regular_simplex(3).vertices
E, weights = el.mvee(V)
print("enclosing ellipsoid of the simplex vertices:")
print("  shape matrix deviation from identity:", np.abs(E.shape - np.eye(3)).max())
print("  dual weights:", np.round(weights, 9), "(uniform 1/(n+1))")
print("  optimality certificate:", el.mvee_support_residual(V, weights))

decomp = el.john_contact_measure(g.regular_simplex(3))
print("\ncontact measure of the normalised simplex:")
print("  points = the vertices, weights =", np.round(decomp.contacts.weights, 9))
print("  residuals:", decomp.residuals)

rng = make_rng(11)
pts = rng.standard_normal((20, 3))
decomp = el.john_contact_measure(g.Polytope(vertices=pts))
print(f"\nrandom 20-vertex body: {decomp.contacts.k} contacts, "
      f"residual {decomp.residuals.max_residual:.2e}, "
      f"largest weight {decomp.contacts.weights.max():.4f} (never above 1)")

E = el.john_ellipsoid_of_polar(g.regular_simplex_polar(3))
print("\ninscribed ellipsoid of the circumscribed simplex via polarity:")
print("  shape deviation from identity:", np.abs(E.shape - np.eye(3)).max())

mu = el.random_isotropic_measure(2, 40, seed=7)
print(f"\nrandom centered isotropic measure from the contact route: "
      f"k = {mu.k}, residual {mu.validate().max_residual:.2e}")

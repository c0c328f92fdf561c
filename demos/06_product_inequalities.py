"""Direct and reverse product inequalities for truncated Gaussians.

Lifting a centered isotropic measure one dimension up turns the product
integrand into a Gaussian restricted to a cone, so both sides become
importance-sampled Gaussian integrals with bounded weights.  At n <= 3
the direct side is computed instead, by a facet quadrature of a
closed-form radial kernel, and draws no sample.  Equality
holds exactly when the lifted atoms are orthonormal (the simplex measure);
the dilate-measure identity expresses the common bound through the
Gaussian measure of simplex dilates, computed by quadrature at n <= 3.
"""
from simplexstab import brascamp_lieb as bl
from simplexstab import ellipsoids as el
from simplexstab import isotropic as iso

s = 0.1
inst = bl.BLInstance(iso.lift(iso.simplex_measure(2), +1), s)
bound = bl.bl_bound(inst)
direct = bl.bl_lhs(inst, n_samples=300_000, seed=1)
reverse = bl.rbl_lhs(inst, n_samples=40_000, seed=2)
print("simplex measure (orthonormal lift): both sides meet the bound")
print(f"  direct  {direct.value:.5f} +- {direct.stderr:.1e}  ({direct.method})")
print(f"  bound   {bound:.5f}")
print(f"  reverse {reverse.value:.5f} +- {reverse.stderr:.5f}")

mu = el.random_isotropic_measure(2, 12, seed=5)
inst = bl.BLInstance(iso.lift(mu, +1), s)
bound = bl.bl_bound(inst)
direct = bl.bl_lhs(inst, n_samples=300_000, seed=3)
reverse = bl.rbl_lhs(inst, n_samples=40_000, seed=4)
print(f"\nrandom {mu.k}-atom measure: strict inequalities on both sides")
print(f"  direct  {direct.value:.5f}  <  bound {bound:.5f}  "
      f"(by {bound - direct.value:.5f}, error bound {direct.stderr:.1e}; {direct.method})")
print(f"  reverse {reverse.value:.5f}  >  bound {bound:.5f}  "
      f"({(reverse.value - bound) / reverse.stderr:.1f} standard errors)")

print("\nexact dilate-measure identities (relative gaps; by quadrature at n <= 3):")
for n in (2, 3):
    for variant in ("inscribed", "polar"):
        rep = bl.simplex_identity_check(n, s, variant=variant)
        print(f"  n = {n}, {variant:9s}: lhs {rep.lhs:.5f}  rhs {rep.rhs:.5f}  "
              f"relative gap {rep.rel_gap:.2e}  ({rep.method})")

rep = bl.smoothing_inequality_check(mu, [0.0, 0.5, 1.0], n_samples=400_000, seed=7)
print("\nsmoothed survival comparison against the simplex:")
for row in rep["rows"]:
    print(f"  tau = {row['tau']:.1f}: direct margin {row['direct_margin']:+.5f} "
          f"(+- {row['direct_stderr']:.5f}), "
          f"polar margin {row['polar_margin']:+.5f}")

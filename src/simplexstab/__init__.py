"""Desk-scale numerics for isotropic measures on the sphere, extremal
ellipsoids, Gaussian functionals of convex bodies, and stability
experiments around the regular simplex."""

__version__ = "0.1.0"

from .geometry import (Ball, Ellipsoid, Polytope, contains, gauge_many,
                       gauge_norm, hausdorff_distance, polar,
                       polar_simplex_volume, regular_simplex,
                       regular_simplex_polar, simplex_volume,
                       support_function, symdiff_volume)
from .isotropic import (DiscreteMeasure, LiftedMeasure, ball_barthe_check,
                        big_determinant_subset, fit_orthonormal_frame,
                        isotropize, lift, orthonormal_measure, reduce_support,
                        simplex_measure)
from .ellipsoids import (JohnDecomposition, john_contact_measure,
                         john_ellipsoid_of_polar, mvee,
                         random_isotropic_measure)
from .functionals import (FunctionalEstimate, ell_ball, ell_norm,
                          gaussian_mass, mean_ell_crosscheck, mean_width,
                          simplex_ell_oracle)
from .transport import (TruncatedGaussian, derivative_box_margins, phi,
                        phi_derivs, psi, psi_derivs, psi_field,
                        psi_shift_monotonicity_check, tail_constants,
                        theta_field)
from .brascamp_lieb import (BLInstance, bl_bound, bl_lhs, rbl_lhs,
                            simplex_identity_check,
                            smoothing_inequality_check)
from .stability import (ExtremalFamily, align_to_simplex,
                        centroid_bound_check, extremality_check,
                        fit_exponent, make_family, measure_deficit,
                        measure_deficits, sandwich_check)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Quaternion H-type group, quaternionic Siegel half-space, Cauchy-Szego
kernel, and fundamental solutions of the associated sub-Laplacians."""

from .quat import (
    Quaternion, ZERO, ONE, I1, I2, I3,
    scalar_product, to_matrix, exp_imag, real_power,
)
from .quad import QuadratureSpec, QuadratureError, integrate_1d, integrate_nested
from .group import GroupElement, gmul, dilate, homogeneous_norm, polar_constant
from .siegel import SiegelPoint, BallPoint, PoleError, BoundaryError, height, cayley_to_siegel, cayley_to_ball, act, boundary_coords, boundary_point, rotate
from .diffops import Lambda, make_x, commutator, h_field, hbar_field, apply_op, delta_lambda_apply, box_b_identity_residual, crf_tangency_residual, dq_eval, cauchy_fueter_sphere
from .szego import r_pair, szego_kernel, k_eps, verify_k, verify_reproducing
from .greens import k_tilde_lambda, hermite_residual, k_lambda, k0_sphere, heis_k_closed, heis_k_quadrature, fourier_consistency, delta_lambda_residual_on_k

__version__ = "0.1.0"

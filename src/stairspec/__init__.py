"""Exact Taylor-spectrum calculator for staircase-diagram isometry pairs.

The package computes the joint spectrum of the commuting isometry pair
attached to an up-right-closed lattice diagram, in exact rational
arithmetic, together with the two loci where the associated complex fails
to be exact, and ships certified numerical probes that cross-check every
closed form from the lattice model directly.
"""

from .diagram import (
    DiagramProfile,
    EmptyRowsTail,
    FullRowsTail,
    GeometricBlocksTail,
    PeriodicTail,
    eval_M,
    eval_N,
    profile_from_json,
    profile_to_json,
    translate,
    transpose,
    validate,
)
from .extnum import ExtReal, Membership, band_member
from .params import SpectralParams, compute_params, estimate_params_bruteforce
from .regions import (
    gamma2_region,
    gamma3_region,
    parts_consistency_check,
    region_member,
    region_states,
    taylor_region,
)
from .shifts import fringe_operator, ridge_bounds, sigma_ap_predict
from .oracle import (
    gamma2_series_test,
    joint_adjoint_kernel_smin,
    joint_forward_kernel_smin,
    window_smin_scan,
)

__version__ = "0.1.0"

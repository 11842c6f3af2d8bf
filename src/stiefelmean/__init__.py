"""Fixed-point empirical averaging on the compact Stiefel manifold.

The package computes quasi-arithmetic (Kolmogoroff-Nagumo style) means of
orthonormal frames: samples are lifted to a tangent space, combined linearly,
and retracted back, with the anchor point iterated to a fixed point. Three
retraction/lifting configurations are supported (polar/polar,
orthographic/orthographic, and the fast mixed polar-retraction with
orthographic-lifting), together with discrepancy diagnostics, seeded
experiment drivers and a small CLI.
"""

from .averaging import AveragingConfig, AveragingReport, fixed_point_mean
from .errors import (
    DomainError,
    FileFormatError,
    RankDeficientError,
    StiefelMeanError,
    ValidationError,
)
from .experiments import (
    ExperimentSpec,
    TimingRecord,
    csv_filename,
    default_spec,
    run_convergence,
    run_discrepancy_stats,
    run_experiment,
    run_runtime_vs_n,
    run_runtime_vs_p,
)
from .fileio import read_matrix_blocks, read_sample_set, write_point, write_sample_set
from .kernels import (
    skew_expm,
    skew_expm_action,
    skew_part,
    solve_lyapunov_sym,
    solve_ortho_retraction_eq,
    spd_inv_sqrt,
    thin_qr_q_factor,
)
from .manifold import (
    TOL_ORTH,
    TOL_TAN,
    Dims,
    SampleSet,
    StiefelPoint,
    TangentVector,
    derive_seed,
    discrepancy,
    generate_center,
    generate_samples,
    orthonormality_defect,
    perturb_initial_guess,
    project_to_tangent,
    tangency_defect,
)
from .maps import (
    ALL_PAIRS,
    DOMAIN_GUARD,
    MapPair,
    composition_discrepancy_closed_form,
    composition_discrepancy_direct,
    lift,
    orthographic_lifting,
    orthographic_retraction,
    polar_lifting,
    polar_retraction,
    retract,
)

__version__ = "0.1.0"

__all__ = [
    "AveragingConfig",
    "AveragingReport",
    "fixed_point_mean",
    "StiefelMeanError",
    "ValidationError",
    "RankDeficientError",
    "DomainError",
    "FileFormatError",
    "ExperimentSpec",
    "TimingRecord",
    "default_spec",
    "csv_filename",
    "run_experiment",
    "run_discrepancy_stats",
    "run_convergence",
    "run_runtime_vs_n",
    "run_runtime_vs_p",
    "read_sample_set",
    "read_matrix_blocks",
    "write_sample_set",
    "write_point",
    "skew_part",
    "thin_qr_q_factor",
    "spd_inv_sqrt",
    "skew_expm",
    "skew_expm_action",
    "solve_lyapunov_sym",
    "solve_ortho_retraction_eq",
    "Dims",
    "StiefelPoint",
    "TangentVector",
    "SampleSet",
    "TOL_ORTH",
    "TOL_TAN",
    "orthonormality_defect",
    "tangency_defect",
    "project_to_tangent",
    "discrepancy",
    "generate_center",
    "generate_samples",
    "perturb_initial_guess",
    "derive_seed",
    "MapPair",
    "ALL_PAIRS",
    "DOMAIN_GUARD",
    "polar_retraction",
    "polar_lifting",
    "orthographic_retraction",
    "orthographic_lifting",
    "retract",
    "lift",
    "composition_discrepancy_direct",
    "composition_discrepancy_closed_form",
]

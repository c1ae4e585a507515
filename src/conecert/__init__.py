"""Linear-conic certificates for LTI systems.

Synthesizes and verifies: L1-gain certificates for positive systems,
non-strict KYP-Lemma certificates, rank-one decompositions of PSD matrix
trajectories, and minimum-energy steering on the PSD cone.
"""

from .certificates import (
    Certificate,
    KernelWitness,
    LmiResult,
    OrthantProblem,
    PsdProblem,
    certify,
    orthant_certificate,
    orthant_kernel_minimum,
    orthant_surjectivity,
    psd_certificate,
    refute,
)
from .kyp import (
    CrossValidation,
    FrequencyGrid,
    KypInstance,
    cross_validate,
    default_grid,
    frequency_condition,
    iqc_integral,
    iqc_trajectory_condition,
    kyp_lmi,
    pointwise_condition,
    psd_lmi,
)
from .numerics import (
    SV_CUTOFF,
    TimeGrid,
    TrajectoryGrid,
    expm,
    matrix_rank,
    ode_solve,
    pinv,
)
from .possys import (
    DissipationReport,
    GainCertificate,
    PositiveSystem,
    SupplyRate,
    empirical_l1_gain,
    exact_l1_gain,
    gain_supply_rate,
    is_hurwitz_metzler,
    is_metzler,
    l1_certificate,
    l1_gain_bisection,
    minimal_certificate_vector,
    simulate,
    simulate_and_check_dissipation,
)
from .rankone import (
    MatrixTrajectory,
    RankOneDecomposition,
    decompose,
    dynamics_residual,
    image_inclusion_check,
    rank_segments,
    synthesize_Q,
)
from .steering import (
    Gramian,
    KControllabilityReport,
    SteeringPlan,
    controllability_rank,
    gramian,
    min_energy_input,
    psd_steer,
    verify_k_controllability,
)

__version__ = "0.1.0"

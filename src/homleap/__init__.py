"""Exact and numerically stable statistics of multiphoton two-mode interference.

A single tunable beam splitter acting on a pair of Fock states reproduces,
in one step, the position statistics of a continuous-time quantum walk on
a line with perfect-state-transfer couplings.  This package computes those
statistics three independent ways (closed form, term-by-term expansion,
and brute-force unitary evolution), models distinguishability, mixed
inputs and detector loss, and exposes the moment laws and second-order
visibility used to certify nonclassicality.
"""

from .errors import (
    DegenerateError,
    DomainError,
    LatticeError,
    LeapError,
    ModeError,
    NoSolution,
    ParityMismatch,
    RangeError,
)
from .states import (
    FLOAT,
    RATIONAL,
    BeamSplitter,
    DeltaDistribution,
    FockPair,
    JointCountDistribution,
    NumericMode,
    delta_lattice,
    delta_marginal,
)
from .closedform import (
    amplitude_expansion,
    distribution,
    prob_delta_out,
)
from .walk import (
    build_hamiltonian,
    evolve,
    evolved_distribution,
    hopping_amplitude,
    rotation_probabilities,
    wigner_d,
    wigner_d_column,
)
from .channels import (
    Detector,
    DistinguishabilityAngle,
    MixedFockSource,
    apply_detector_loss,
    bin_resolution,
    classical_reference,
    decohere_distribution,
    eta_for_joint_purity,
    eta_for_purity,
    mixed_distribution,
    product_2d,
    purity,
)
from .metrics import (
    VisibilityReport,
    mean_delta,
    nonclassical_mask,
    parity_violation,
    predicted_mean,
    predicted_variance,
    transfer_fidelity,
    tv_distance,
    variance_delta,
    visibility_fock,
    visibility_from_moments,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSplitter",
    "DegenerateError",
    "DeltaDistribution",
    "Detector",
    "DistinguishabilityAngle",
    "DomainError",
    "FLOAT",
    "FockPair",
    "JointCountDistribution",
    "LatticeError",
    "LeapError",
    "MixedFockSource",
    "ModeError",
    "NoSolution",
    "NumericMode",
    "ParityMismatch",
    "RATIONAL",
    "RangeError",
    "VisibilityReport",
    "amplitude_expansion",
    "apply_detector_loss",
    "bin_resolution",
    "build_hamiltonian",
    "classical_reference",
    "decohere_distribution",
    "delta_lattice",
    "delta_marginal",
    "distribution",
    "eta_for_joint_purity",
    "eta_for_purity",
    "evolve",
    "evolved_distribution",
    "hopping_amplitude",
    "mean_delta",
    "mixed_distribution",
    "nonclassical_mask",
    "parity_violation",
    "predicted_mean",
    "predicted_variance",
    "prob_delta_out",
    "product_2d",
    "purity",
    "rotation_probabilities",
    "transfer_fidelity",
    "tv_distance",
    "variance_delta",
    "visibility_fock",
    "visibility_from_moments",
    "wigner_d",
    "wigner_d_column",
]

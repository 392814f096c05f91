"""Qubit state estimation toolkit.

Fisher information (SLD and RLD), precision bounds (SLD/RLD Cramer-Rao,
Nagaoka, HGM, Holevo), optimal measurement and locally unbiased estimator
construction, MSE-region membership predicates, and a seeded Monte-Carlo
simulator for single-copy and nuisance-phase estimation strategies.
"""

from .model import ThetaParams, bloch_from_theta, state_from_theta
from .fisher import (
    SingularModelError,
    classical_fisher,
    effective_fisher,
    rld_fisher_inverse,
    sld_fisher,
    sld_fisher_inverse,
    sld_operators,
    sld_operators_oracle,
)
from .bounds import (
    BoundReport,
    InfeasibleMseError,
    WeightSpec,
    bound_report,
    gamma_factor,
    hgm_bound,
    holevo_bound_k2,
    holevo_bound_k3,
    holevo_bound_k3_block,
    nagaoka_bound,
    rld_cr_bound,
    sld_cr_bound,
)
from .povm import (
    OptimalPovmPlan,
    Povm,
    QuantumEstimator,
    RankDeficientMeasurementError,
    build_optimal_estimator,
    build_optimal_povm,
    build_phase_perturbed_povm,
    verify_locally_unbiased,
)
from .region import (
    RegionVerdict,
    in_region_D,
    in_region_D3,
    in_region_D_GM,
    in_region_H,
    in_region_SLD3,
    lemma1_equivalence_check,
)
from .simulate import SimConfig, SimResult, mse_from_trials, run, sample_outcomes

__version__ = "0.1.0"

__all__ = [
    "ThetaParams",
    "bloch_from_theta",
    "state_from_theta",
    "SingularModelError",
    "sld_operators",
    "sld_operators_oracle",
    "sld_fisher",
    "sld_fisher_inverse",
    "rld_fisher_inverse",
    "classical_fisher",
    "effective_fisher",
    "WeightSpec",
    "BoundReport",
    "InfeasibleMseError",
    "bound_report",
    "sld_cr_bound",
    "rld_cr_bound",
    "nagaoka_bound",
    "hgm_bound",
    "gamma_factor",
    "holevo_bound_k2",
    "holevo_bound_k3",
    "holevo_bound_k3_block",
    "Povm",
    "OptimalPovmPlan",
    "QuantumEstimator",
    "RankDeficientMeasurementError",
    "build_optimal_povm",
    "build_optimal_estimator",
    "build_phase_perturbed_povm",
    "verify_locally_unbiased",
    "RegionVerdict",
    "in_region_D",
    "in_region_D_GM",
    "in_region_D3",
    "in_region_SLD3",
    "in_region_H",
    "lemma1_equivalence_check",
    "SimConfig",
    "SimResult",
    "sample_outcomes",
    "mse_from_trials",
    "run",
]

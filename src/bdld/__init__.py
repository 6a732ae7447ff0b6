"""Linear-rate birth-death chains on {1..N}: exact analytics, event-driven
simulation, uniformization oracles, and the large-deviation path calculus
(Hamiltonian, Lagrangian, action functional, closed-form optimal paths)."""

from .chain import (
    EULER_MASCHERONI,
    ModelParams,
    ProbabilityVector,
    embedded_stationary,
    embedded_transition_row,
    harmonic_partial,
    jump_rates,
    prefix_mass,
    stationary_distribution,
)
from .evolve import (
    empirical_rate_curve,
    endpoint_distribution,
    evolve_distribution,
    stationary_dwell_probability,
    window_log_probability,
    window_probability,
)
from .ldp import (
    GridPath,
    hamiltonian,
    lagrangian,
    prelimit_hamiltonian,
    rate_functional,
    rate_functional_report,
)
from .optimal_paths import (
    AdmissibilityError,
    ParabolaParams,
    PathCase,
    dual_tilt,
    hamiltonian_residual,
    optimal_action,
    solve_boundary,
)
from .simulate import (
    SimConfig,
    Trajectory,
    WeightedTrajectory,
    lln_point_experiment,
    lln_stationary_experiment,
    occupation_fractions,
    replication_rng,
    sample_path,
    tilted_sample_path,
    tilted_window_experiment,
)
from .tilting import CallableTilt

__version__ = "0.1.0"

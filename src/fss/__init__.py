"""Discrete fractional p-Laplacian toolkit.

Solves the singular nonlocal problem (operator u = weight / u^alpha) on
bounded 1D/2D box domains through a monotone regularization chain,
computes the sharp constants of the associated weighted Sobolev and
exponential-log inequalities together with their extremals, and ships
randomized checkers for the structural inequalities the theory rests on.
"""

__version__ = "0.1.0"

from .chain import (
    BoundReport,
    ChainOptions,
    ChainResult,
    LevelRecord,
    ResidualReport,
    existence_bound,
    linfty_bound_report,
    power_seminorms,
    run_chain,
    solve_level,
    weak_residual,
)
from .config import RunConfig, build_geometry, build_weight, load_config
from .constants import (
    CertificationReport,
    LimitReport,
    MuEstimate,
    SingularSolution,
    SweepRecord,
    SweepResult,
    check_valfa_limit,
    estimate_mu,
    estimate_mu_direct,
    lambda_alpha,
    mu_from_field,
    solution_from_field,
    sweep_alpha,
    verify_log_sobolev,
    verify_sobolev,
)
from .exceptions import (
    ConfigError,
    FieldMismatchError,
    FssError,
    GridError,
    SolutionFileError,
    SolverError,
    StagnationError,
)
from .grid import FracParams, Grid, Kernel, build_grid, build_kernel, r_alpha
from .lemmas import (
    LemmaReport,
    check_q_identity,
    check_stampacchia,
    check_strong_monotonicity,
    check_vector_inequalities,
    level_set_sizes,
)
from .operators import (
    Field,
    WeightField,
    apply_operator,
    log_functional,
    norm_r,
    pairing,
    phi_p,
    seminorm_p,
)
from .solution_io import (
    SolutionFile,
    load_solution,
    save_solution,
    write_mu_report,
    write_sweep_csv,
)
from .solver import (
    EmbeddingConstant,
    SolveOptions,
    embedding_constant,
    solve_barrier,
    solve_nonsingular,
)

"""Finite complex Grassmann algebras, graded supermatrices, superqubit states,
and a three-outcome CHSH game they play above the ordinary quantum bound.

The package is organized in layers:

- ``grassmann``: supernumbers over N anticommuting generators, the hash and
  star involutions, Berezin integration and the Rogers-style norms.
- ``supermatrix``: block-graded matrices of supernumbers, supertranspose,
  grade adjoint, supertrace, graded Kronecker product, nilpotent exponential.
- ``uosp``: the odd displacement S(p) and qubit rotation U(theta, phi) acting
  on the graded three-state space, plus their algebra generators.
- ``superstate``: superqubit states, graded inner products, transition
  probabilities, measurement, tensor products, compactified displacements.
- ``chsh``: the three-outcome referee game, exact and vectorized evaluators,
  classical/quantum baselines, and the constrained multi-start optimizer.
- ``identities``: the identities the paper's claims rest on, one function
  each returning its worst residual over seeded draws; ``superqubit verify``
  and the acceptance gate both run them.
- ``cli``: the ``superqubit`` command-line tool.
"""

from .grassmann import (
    COMPARE_TOL,
    MAX_ORDER,
    PRUNE_TOL,
    DimensionMismatch,
    DomainError,
    NotInvertible,
    ParityError,
    Supernumber,
    berezin,
    inv_sqrt,
    invert,
    modified_rogers,
    pair_product,
    rogers_r1,
)
from .supermatrix import (
    NotNilpotent,
    Supermatrix,
    exp_nilpotent,
    graded_kron,
    supertrace,
)
from .uosp import (
    algebra_element,
    generators,
    group_element,
    odd_exponent,
    s_matrix,
    u_matrix,
    u_matrix_from_amplitudes,
)
from .superstate import (
    SuperState,
    apply,
    apply_local,
    compactify,
    density_matrix,
    grassmann_outcomes,
    grassmann_transition,
    inner_product,
    is_physical,
    measure_real,
    norm_supernumber,
    physical_pair,
    state_from_text,
    state_to_text,
    superqubit,
    tensor,
    transition_real,
    upsilon,
)
from .chsh import (
    OptimizationResult,
    OptimizeConfig,
    Strategy,
    best_classical_win_prob,
    constraint_violation,
    optimize,
    outcome_probs,
    win_prob,
)

__version__ = "0.1.0"

__all__ = [
    "COMPARE_TOL",
    "MAX_ORDER",
    "PRUNE_TOL",
    "DimensionMismatch",
    "DomainError",
    "NotInvertible",
    "ParityError",
    "Supernumber",
    "berezin",
    "inv_sqrt",
    "invert",
    "modified_rogers",
    "pair_product",
    "rogers_r1",
    "NotNilpotent",
    "Supermatrix",
    "exp_nilpotent",
    "graded_kron",
    "supertrace",
    "algebra_element",
    "generators",
    "group_element",
    "odd_exponent",
    "s_matrix",
    "u_matrix",
    "u_matrix_from_amplitudes",
    "SuperState",
    "apply",
    "apply_local",
    "compactify",
    "density_matrix",
    "grassmann_outcomes",
    "grassmann_transition",
    "inner_product",
    "is_physical",
    "measure_real",
    "norm_supernumber",
    "physical_pair",
    "state_from_text",
    "state_to_text",
    "superqubit",
    "tensor",
    "transition_real",
    "upsilon",
    "OptimizationResult",
    "OptimizeConfig",
    "Strategy",
    "best_classical_win_prob",
    "constraint_violation",
    "optimize",
    "outcome_probs",
    "win_prob",
    "__version__",
]

"""jordanflow: Jordan-decomposition analysis of linear flows.

Decomposes traceless matrices (continuous time) or unimodular matrices
(discrete time) into commuting elliptic / hyperbolic / nilpotent-or-unipotent
parts and turns the decomposition into dynamics: finest Morse decompositions
on projective spaces and flag manifolds, recurrence and chain-recurrence
classification, Bruhat-cell stable sets, structural-stability verdicts, and
Floquet theory for periodic coefficients.  Every combinatorial prediction
can be cross-checked against numerical simulation.
"""

from .errors import (
    BranchObstruction,
    GridTooLarge,
    IllConditioned,
    InputError,
    InvariantViolated,
    JordanFlowError,
    NoRealLog,
    NonConvergence,
    NotNilpotent,
    Overflow,
    RankAmbiguous,
    Singular,
    StiffnessSuspected,
)
from .matrixcore import (
    SpectralCluster,
    SpectralData,
    TolerancePolicy,
    complex_spectrum,
    matrix_exp,
    nilpotency_index,
    principal_log,
    unipotent_log,
)
from .jordan import (
    AdditiveJordan,
    MultiplicativeJordan,
    additive_jordan,
    multiplicative_jordan,
)
from .projective import (
    ChainGraph,
    ProjectivePoint,
    chain_oracle,
    simulate_projective,
)
from .flags import (
    Flag,
    FlagMorseComponent,
    FlagType,
    FlowClassification,
    bruhat_cell,
    chain_recurrent_membership,
    classify_flow,
    enumerate_morse_components,
    flag_recurrent_membership,
    height_lyapunov,
    rate_filtration,
    recurrent_membership,
    simulate_flag,
    stable_set_index,
    unstable_bruhat_cell,
    unstable_set_index,
)
from .floquet import (
    FloquetData,
    FundamentalSolution,
    PeriodicCoefficient,
    floquet_data,
    floquet_generator,
    floquet_morse_components,
    integrate_fundamental,
    periodic_factor,
)

__version__ = "0.1.0"

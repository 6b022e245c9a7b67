"""Oracle-efficient online learning against smoothed and hint-constrained
adversaries, with an executable verification suite for the supporting
lemmas (coupling, Poisson TV/chi-square bounds, Rademacher monotonicity,
admissibility) and a reproducible experiment harness."""

from .core import (
    FiniteDomain,
    HypothesisClass,
    LossKind,
    LossSpec,
    SmoothDistribution,
    compute_vc_dimension,
    loss_eval,
    make_partition_class,
    make_shatter_class,
    make_support_partition_class,
    validate_smooth,
)
from .errors import CapacityError, ContractViolation, FitError, InputError
from .oracle import OracleSession, OracleStats, TiePolicy, erm, mixed_opt
from .adversary import (
    Adversary,
    AdversaryKind,
    AdversarySpec,
    HintSchedule,
    biased_label_rule,
    cyclic_hint_schedule,
    full_domain_schedule,
    known_sequence_schedule,
    next_round,
)
from .learner import (
    Alg1Smoothed,
    Alg2PoissonFTPL,
    Alg3Transductive,
    FTL,
    HedgeLearner,
    default_n,
    hint_count,
)
from .harness import (
    ExperimentConfig,
    FitResult,
    Transcript,
    fit_scaling,
    run_experiment,
    run_game,
)

__version__ = "0.1.0"

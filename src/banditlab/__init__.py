"""Online multiclass learning under bandit feedback, at desk scale.

Exact Littlestone and bandit-Littlestone dimensions over explicit finite
classes, the version-space learners they drive, lower-bound adversaries, the
margin linear-separator embeddings, and a reproducible experiment harness.
"""

from .adversaries import (
    MinimaxBanditAdversary,
    PermutationAdversary,
    SequenceAdversary,
    draw_permutation_tape,
    guessing_game,
    guessing_sequence,
    make_adversary,
    make_guesser,
    permutation_sequence,
    sample_noise_sequence,
    sample_realizable_sequence,
)
from .catalog import constants_class, full_class, parse_spec, permutation_class
from .dimensions import (
    ClassCollection,
    bldim,
    capacity,
    format_witness,
    ldim,
    shatter_oracle,
    shatter_witness,
)
from .harness import GameConfig, Report, play, run_experiment, run_game
from .hypotheses import (
    FiniteClass,
    LabeledSequence,
    MultiLabelExample,
    RealizabilityViolation,
    VersionSpace,
    dumps_class,
    dumps_sequence,
    load_class,
    load_sequence,
    make_sequence,
    read_class,
    read_sequence,
    write_sequence,
)
from .linear import (
    BanditPerceptron,
    check_margin_realization,
    margin_gap,
    multiclass_perceptron,
    roots_of_unity_embedding,
    roots_of_unity_gap,
    standard_basis_embedding,
)
from .learners import (
    BanditFeedback,
    BanditOptimalLearner,
    CapacityLearner,
    Expert,
    Exp4Learner,
    FullInfoFeedback,
    SOABanditLearner,
    SOALearner,
    best_expert_loss,
    exp4_gamma,
    expert_count,
    make_learner,
    soa_prediction,
)

__version__ = "0.1.0"

"""Hard-group mining + entropic optimal transport + margin softmax,
fused into one differentiable training objective, at desk scale."""

from .backbone import BackboneConfig, ForwardOutput, forward, init_params, \
    to_distribution
from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    NumericalRegimeError,
    OTFaceError,
    ShapeMismatchError,
)
from .losses import (
    ClassifierWeights,
    LossBreakdown,
    MarginConfig,
    cross_entropy,
    margin_logits,
    ot_triplet_loss,
    otface_loss,
    per_sample_cross_entropy,
)
from .mining import HardGroup, LabeledBatch, mine_hard_groups
from .ot import (
    SinkhornConfig,
    TransportPlan,
    exact_ot_uniform,
    ot_distance,
    ot_pair_distances,
    sinkhorn_log_domain,
)
from .tensor import (
    EPS_NORM,
    Tensor,
    conv2d,
    normalize_cols,
    normalize_rows,
    stack,
)
from .trainer import TrainConfig, Trainer, TrainState, lr_at, sgd_step

__version__ = "0.1.0"

"""Continuous-time dynamic-graph learning with interaction-level attention.

The package turns a chronologically ordered interaction stream into link
predictions: neighbor windows are sampled per node, enriched with
mixed-granularity time features, bidirectional interaction counts, and a
season/trend split of the neighbor-index signal, then scored by a small
transformer trained with hand-derived gradients.
"""

from .config import RunConfig, TraceSpec, TrainConfig, config_hash, load_config
from .encoders import (
    MteConfig,
    SeasonTrend,
    bie_counts,
    bie_reconstruct,
    encode_coarse_time,
    encode_fine_time,
    mix_temporal,
    ste_decompose,
)
from .events import (
    DatasetManifest,
    EventStore,
    SplitRanges,
    SplitSpec,
    chronological_split,
    inductive_mask,
    ingest_events,
    write_events,
)
from .harness import (
    AttentionTraceRecord,
    TrainResult,
    ablate,
    attention_mass_snapshot,
    evaluate_link_prediction,
    train,
)
from .metrics import auc_roc, average_precision
from .model import (
    ModelConfig,
    ModelParameters,
    PairBatch,
    featurize_pairs,
    forward_batch,
    grad_check,
    load_checkpoint,
    loss_and_grads,
    predict_probs,
    save_checkpoint,
)
from .optim import AdamState, FlatTensors, adam_step
from .sampling import (
    PAD_ID,
    BatchNeighborIndex,
    NegativeSampler,
    NegativeSamplingStrategy,
    NeighborSampler,
    NeighborSequence,
)
from .synth import cycle_oracle_scores, generate_cycle_corpus, generate_hotnode_corpus

__version__ = "0.1.0"

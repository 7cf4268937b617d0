"""scenecheck: semantic consistency verification for segmentation label maps.

The pipeline: parse a label grid, extract scene objects, compute
pairwise relational observations, evaluate them against smoothed
co-occurrence statistics, and let a linear contradiction detector
(global or context-specific) vote on whether the scene is consistent.
"""

from .context import (
    DEFAULT_SCHEMA,
    PLACEHOLDER,
    AttributeTable,
    mutual_information,
    score_attributes,
)
from .corpus import (
    ClassSpec,
    ContextSpec,
    Corpus,
    SyntheticConfig,
    default_synthetic_config,
    generate_contradiction,
    load_model,
    save_model,
    synth_corpus,
)
from .errors import (
    ConsistencyError,
    DegenerateTrainingError,
    DimensionError,
    DuplicateError,
    EmptyCorpusError,
    FormatError,
    NotEnoughObjectsError,
    PlacementError,
    SceneCheckError,
    SchemaError,
    UnknownClassError,
    VersionError,
)
from .labelgrid import (
    DEFAULT_MIN_AREA,
    LabelGrid,
    ObjectTable,
    extract_objects,
    grid_from_array,
    label_maps,
    load_label_grid,
    parse_label_grid,
    trace_boundaries,
)
from .relations import (
    K_DIST,
    OCTANTS,
    PROXIMITY_LABELS,
    PairTable,
    relations_for_objects,
    shape_histogram,
)
from .seeds import derive_seed
from .stats import (
    ALPHA_DEFAULT,
    SIGMA_FLOOR,
    CooccurrenceModel,
    StatsBuilder,
    accumulate,
    finalize,
)
from .verifier import (
    FEATURE_NAMES,
    GLOBAL_LABEL,
    Detector,
    Hyperparams,
    LinearModel,
    Scene,
    Verdict,
    VerifierRegistry,
    aggregate,
    featurize,
    prepare_all,
    score,
    train_linear,
    train_registry,
    verify,
)

__version__ = "0.1.0"

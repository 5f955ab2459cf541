"""Oblique regression trees with hinge splits, and residual boosting over them."""

from .boost import (
    BoostConfig,
    BoostModel,
    StageCheck,
    default_boost_tree_config,
    fit_boost,
    gamma_bound_check,
    predict_boost,
    predict_boost_batch,
    staged_losses,
)
from .datasets import (
    Dataset,
    StandardizeTransform,
    gen_synthetic,
    load_csv,
    load_features,
    parse_dataset_spec,
    split_train_test,
    standardize,
    write_csv,
)
from .errors import (
    AllFeaturesConstant,
    CorruptModel,
    DegenerateSplit,
    DegenerateSystem,
    DimensionMismatch,
    EmptyDataset,
    EmptyInput,
    HingeTreeError,
    LengthMismatch,
    MissingTarget,
    NonFiniteInput,
    NonNumericCell,
    ParseError,
    TooFewSamples,
)
from .linear import affine, augment, fit_or_mean, ridge_solve
from .metrics import (
    EvalReport,
    FlopsReport,
    boost_inference_flops,
    complexity_report,
    evaluate,
    hrt_inference_flops,
)
from .serialize import dumps_model, load_model, loads_model, model_from_dict, model_to_dict, save_model
from .split import (
    HingeKind,
    Split,
    SplitConfig,
    SplitOutcome,
    find_optimal_split,
    initialize_params,
    median_fallback,
    select_split,
)
from .tree import (
    HrtModel,
    Internal,
    Leaf,
    TrainStats,
    TreeConfig,
    build_tree,
    derive_seed,
    predict,
    predict_batch,
)

__version__ = "0.1.0"

"""Fair binary classification on data with missing values.

Adaptive encodings (missing indicators, affine cross terms, missing-pattern
clustering) and a cell-preserving bagging ensemble keep the information in the
missing pattern available to any downstream fairness intervention, instead of
discarding it through impute-then-classify.
"""

from .classify import (
    FairEnsemble,
    Intervention,
    LinearModel,
    PostprocessRates,
    apply_postprocess,
    draw_bags,
    eqodds_program,
    postprocess_eqodds,
    predict_dataset,
    train_fair_bagging,
    train_intervention,
)
from .data import (
    Dataset,
    FeatureScaler,
    balance_cells,
    fair_resample,
    load_csv,
    read_schema,
    split_train_test,
    write_csv,
)
from .encode import (
    AffineEncoder,
    ClusterPartition,
    cluster_missing_patterns,
    encode_indicators,
    encode_plain,
)
from .errors import (
    ConfigError,
    CsvParseError,
    FairmissError,
    NotFittedError,
    SchemaError,
    ValidationError,
)
from .harness import ExperimentConfig, RunResult, load_config, run_experiment
from .impute import (
    Imputer,
    IterativeImputer,
    KNNImputer,
    MeanImputer,
    ZeroImputer,
    make_imputer,
)
from .metrics import (
    JointTable,
    TradeoffPoint,
    accuracy,
    best_fair_accuracy,
    disparity,
    group_rates,
    pareto_frontier,
)
from .simulate import (
    MaskedPositives,
    MissingEntry,
    MissingnessSpec,
    gen_synthetic,
    inject_missing,
    masked_positives_table,
    sample_masked_positives,
)

__version__ = "0.1.0"

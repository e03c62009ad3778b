"""Budgeted online feature selection for sparse high-dimensional streams."""

from .core import (
    DenseVector,
    SparseExample,
    sparse_dot,
    squared_hinge,
    squared_hinge_grad,
)
from .data import (
    DatasetStream,
    LibsvmFormatError,
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm_line,
    read_libsvm,
    write_libsvm,
)
from .learners import (
    ALGOS,
    BUDGETED,
    ArowModel,
    FofsModel,
    OgdModel,
    PetModel,
    SofsModel,
    load_model,
    make_learner,
    save_model,
    truncate,
)
from .pipeline import (
    CSV_HEADER,
    CvGrid,
    RunReport,
    TrainResult,
    benchmark_sweep,
    cross_validate,
    evaluate,
    train_stream,
    write_reports_csv,
)
from .topb import Outcome, TopBTracker

__version__ = "0.1.0"

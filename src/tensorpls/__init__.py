"""Multilinear PLS regression toolkit.

Tensor-to-tensor and tensor-to-matrix latent-variable regression built on
sums of orthogonal Tucker blocks, with two-way PLS and rank-one (N-PLS
style) baselines, cross-validated hyperparameter search, SNR-controlled
synthetic benchmarks, and a CLI plus binary tensor/model file formats.
"""

from .decomp import (
    HooiSettings,
    TuckerFactors,
    hooi,
    hosvd,
    leading_left_singular_vector,
    truncated_svd,
)
from .errors import (
    DegenerateDataError,
    FileFormatError,
    RankError,
    ShapeMismatchError,
    SvdConvergenceError,
    TensorplsError,
)
from .evaluate import (
    BenchmarkResult,
    CvReport,
    Metrics,
    SynthData,
    SynthSpec,
    benchmark_case,
    corr_per_column,
    gen_matrix_response,
    gen_matrix_structured,
    gen_tucker_structured,
    generate,
    grid_candidates,
    kfold_cv,
    metrics,
    q_squared,
    q_squared_per_column,
    rmsep,
)
from .fileio import load_model, model_checksum, read_tensor, save_model, write_tensor
from .regression import (
    ALGORITHMS,
    FitConfig,
    Hopls2Model,
    HoplsModel,
    PlsModel,
    center_mode1,
    fit_hopls,
    fit_hopls2,
    fit_pls_nipals,
    predict_hopls,
    predict_hopls2,
    predict_pls,
)
from .tensor import (
    astensor,
    cross_cov_mode1,
    fold,
    fro_norm,
    kron_all,
    matricize,
    mode_n_product,
    multi_mode_product,
    tucker_assemble,
    tucker_contract,
)

__version__ = "0.1.0"

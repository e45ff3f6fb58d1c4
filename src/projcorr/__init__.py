"""Measurement-consistency correction for linear inverse problems.

The package wraps any reconstruction method with a projection step that
enforces exact or noise-weighted agreement with the linear forward model,
plus the pseudoinverse machinery, baseline reconstructors, quality metrics,
and a reproducible experiment harness.
"""

from .correction import (
    DEFAULT_LAMBDA_GRID,
    CorrectionConfig,
    LambdaGridResult,
    correct,
    exact_correction,
    lambda_grid_search,
    regularized_correction,
)
from .errors import (
    DegenerateOperatorError,
    DivergenceError,
    MissingOutputError,
    ParameterError,
    ProjcorrError,
    ShapeError,
    SolverError,
    UnsupportedConfigError,
)
from .metrics import (
    MetricsRecord,
    evaluate_reconstruction,
    monte_carlo_noise_error,
    mse,
    noise_bias_trace,
    nullspace_consistency,
    psnr,
    range_residual,
    ssim,
)
from .noise import NoiseModel
from .operators import (
    CircularBlurOperator,
    DenseOperator,
    Geometry,
    MaskOperator,
    RandomProjectionOperator,
    SensingOperator,
    make_gaussian_blur,
    make_inpainting_mask,
    make_random_projection,
    operator_norm,
)
from .pinv import (
    CgEngine,
    MaskEngine,
    PinvEngine,
    SpectralEngine,
    SvdEngine,
    conjugate_gradient,
    make_engine,
)
from .reconstructors import (
    AdjointReconstructor,
    Dataset,
    ExternalReconstructor,
    LearnedLinearReconstructor,
    PinvReconstructor,
    Reconstructor,
    TikhonovReconstructor,
    TrainingHistory,
    fit_learned_linear,
    gradient_descent,
    gradient_lipschitz,
    make_dataset,
    train_epochs,
)

__version__ = "0.1.0"

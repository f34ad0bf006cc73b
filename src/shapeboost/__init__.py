"""Additive regression for planar shape and form responses.

Responses are equivalence classes of irregularly sampled planar curves or
landmark configurations under translation, rotation and (for shapes) scale.
Models are fit by component-wise Riemannian L2-boosting of penalized
tensor-product base-learners; fitted effects factorize into orthonormal
tangent directions with variance-ordered scalar effect functions.
"""

from .basis import (
    BSplineBasis,
    PenaltyBlock,
    PoleCoef,
    SplineConfig,
    TangentTransform,
    build_response_basis,
    constraint_matrix,
    nullspace_transform,
)
from .boost import (
    BoostConfig,
    CvResult,
    FitDiverged,
    FittedEffect,
    FittedModel,
    ResidualSet,
    boost_fit,
    cv_early_stop,
    empirical_risk,
    estimate_pole,
    predict_mean,
    predict_means,
    rmse_effect,
    transported_residuals,
)
from .effects import (
    CovariateMap,
    EffectError,
    EffectSpec,
    PlsLearner,
    covariate_design,
    df_to_lambda,
)
from .factorize import (
    DirectionVisual,
    Factorization,
    direction_visual,
    effect_factorization,
    factorize_effect,
    factorize_predictor,
    predictor_factorization,
)
from .geometry import (
    AntipodalTransport,
    CurveSample,
    DegenerateAlignment,
    GeometryError,
    GeometryKind,
    TangentError,
    TangentEvals,
    empirical_inner,
    empirical_norm,
    log_map,
    parallel_transport,
    trapezoid_weights,
    uniform_weights,
)
from .simulate import SimConfig, TruthSpec, default_effects, gen_dataset, gen_truth

__version__ = "0.1.0"

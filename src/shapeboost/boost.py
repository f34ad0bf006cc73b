"""Component-wise Riemannian L2-boosting for shape/form responses.

The additive predictor lives in the tangent space at a pole.  Each boosting
iteration maps every curve to its conditional mean candidate through the
exponential map, takes the logarithm of the observation there (the negative
gradient of the squared-geodesic loss), parallel transports it back to the
pole, refits every base-learner to these transported residuals by penalized
least squares and commits the best-fitting learner scaled by the step length.

The pole itself is estimated by the same machinery: a preliminary pole is the
penalized spline fit to the pointwise mean of the sample aligned to the first
curve, refined by intercept-only boosting (``estimate_pole`` names its
stopping rules), and the final fit rebuilds the tangent transform at the
refined pole.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._blas import serial_blas
from .basis import (
    BSplineBasis,
    PenaltyBlock,
    PoleCoef,
    SplineConfig,
    TangentTransform,
    build_response_basis,
    center_pole,
    constraint_mean,
    normal_projections,
    nullspace_transform,
    packed_constraint_matrix,
    sample_design,
)
from .effects import (
    CovariateMap,
    EffectError,
    EffectSpec,
    PlsLearner,
    assemble_psi_matrix,
    assemble_psi_vector,
    covariate_design,
    unvec,
)
from .geometry import (
    WEIGHT_RULES,
    CurveSample,
    DegenerateAlignment,
    DesignBand,
    GeometryError,
    GeometryKind,
    PackedSample,
    TangentEvals,
    rule_weights,
)

__all__ = [
    "BoostConfig",
    "FittedEffect",
    "FittedModel",
    "ResidualSet",
    "CvResult",
    "FitDiverged",
    "ModelError",
    "estimate_pole",
    "boost_fit",
    "cv_early_stop",
    "predict_mean",
    "predict_means",
    "empirical_risk",
    "model_sample",
    "rmse_effect",
    "transported_residuals",
]

log = logging.getLogger("shapeboost")

POLE_REL_TOL = 1e-8
ORTHONORMAL_TOL = 1e-8
PREDICT_BLOCK_POINTS = 4096


class FitDiverged(RuntimeError):
    """Numerical failure during fitting (NaN risk or cut-locus overshoot)."""


class ModelError(EffectError):
    """Fields of a fitted model that disagree; ``key`` names the offending field."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass
class BoostConfig:
    """Hyper-parameters of one model fit."""

    effects: list[EffectSpec]
    step_length: float = 0.1
    max_iterations: int = 100
    cv_folds: int = 10
    rng_seed: int = 0
    response_basis: SplineConfig = field(default_factory=lambda: SplineConfig(degree=3, n_knots=20, cyclic=True))
    response_penalty: str = "second_diff"  # P_0 for the tangent direction
    weight_rule: str = "trapezoid"  # how the curves' weights were made; see geometry.rule_weights
    pole_max_iterations: int = 100

    def __post_init__(self):
        if self.weight_rule not in WEIGHT_RULES:
            raise EffectError(f"unknown weight rule {self.weight_rule!r}")
        if not (0.0 < self.step_length <= 1.0):
            raise EffectError(f"step length must be in (0, 1], got {self.step_length}")
        if self.cv_folds < 2:
            raise EffectError("cv_folds must be >= 2")
        if self.max_iterations < 0:
            raise EffectError("max_iterations must be nonnegative")
        names = [e.name for e in self.effects]
        if len(set(names)) != len(names):
            raise EffectError("effect names must be unique")
        seen: set[str] = set()
        for e in self.effects:
            for parent in e.parents:
                if parent not in seen:
                    raise EffectError(f"effect {e.name!r}: parent {parent!r} must be listed earlier")
            seen.add(e.name)

    @property
    def coef_mode(self) -> bool:
        """Coefficient-level data: curves are basis coefficients weighted by the basis Gram matrix."""
        return self.weight_rule == "gram"


@dataclass
class FittedEffect:
    cmap: CovariateMap
    theta: np.ndarray  # (m, m_j)
    lam: float = 0.0

    @property
    def spec(self) -> EffectSpec:
        """The effect's spec, held once by its covariate map."""
        return self.cmap.spec


@dataclass
class FittedModel:
    """Result of a boosting fit; self-contained for prediction."""

    kind: GeometryKind
    pole: PoleCoef
    transform: TangentTransform
    effects: list[FittedEffect]
    risk_trace: np.ndarray
    m_stop: int
    selection_trace: np.ndarray
    response_penalty: str = "second_diff"
    weight_rule: str = "trapezoid"
    rng_seed: int = 0

    def __post_init__(self):
        if self.weight_rule not in WEIGHT_RULES:
            raise ModelError("weight_rule", f"unknown weight rule {self.weight_rule!r}")
        Z = self.transform.Z
        off = float(np.abs(Z.T @ Z - np.eye(Z.shape[1])).max(initial=0.0))
        if not off <= ORTHONORMAL_TOL:
            raise ModelError("transform", f"columns are not orthonormal: max |Z^T Z - I| = {off:.3g}")
        sel, iterations = np.asarray(self.selection_trace), len(self.risk_trace) - 1
        if sel.shape != (iterations,):
            raise ModelError("selection_trace", f"shape {sel.shape}, expected ({iterations},) from the risk trace")
        unknown = sel[(sel < 0) | (sel >= len(self.effects))]
        if unknown.size:
            raise ModelError("selection_trace", f"index {unknown[0]} names no effect ({len(self.effects)} effects)")
        if not 0 <= self.m_stop <= iterations:
            raise ModelError("m_stop", f"{self.m_stop} is not an iteration of the risk trace (0 to {iterations})")

    @property
    def basis(self) -> BSplineBasis:
        return self.pole.basis

    @property
    def coef_mode(self) -> bool:
        return self.weight_rule == "gram"

    def predictor_fields(self, covariates: dict, n: int) -> np.ndarray:
        """Complex basis coefficients (n, m0) of the additive predictor for every row of a covariate table."""
        design = _joined([eff.cmap.design(covariates, n) for eff in self.effects], n)
        theta = _joined([eff.theta for eff in self.effects], self.transform.m)
        return _predictor_fields(design, theta[None], self.transform.pair_rows[None], _FoldRows([n]))


def _joined(blocks: list[np.ndarray], rows: int) -> np.ndarray:
    """The effects' column blocks side by side, (rows, sum of widths)."""
    return np.concatenate([np.empty((rows, 0)), *blocks], axis=1)


class _FoldRows:
    """Rows of K folds stacked fold-major: fold f owns ``sizes[f]`` consecutive rows.

    A per-fold product is one stacked matmul per run of consecutive folds of equal size, each item with
    the shapes and strides of the fold's product alone, and a per-fold mean one row-wise mean per run,
    so a fold's bits do not depend on the other folds.  Cross-validation folds differ in size by at most
    one curve, so their rows form at most two runs; one fold (a fit) is one run.
    """

    def __init__(self, sizes):
        sizes = np.asarray(sizes, dtype=int)
        ends = np.cumsum(sizes)
        cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1), sizes.size]
        # (fold slice, row slice, fold count, fold size) of every run
        self.runs = [(slice(a, b), slice(ends[a] - sizes[a], ends[b - 1]), b - a, int(sizes[a]))
                     for a, b in zip(cuts[:-1], cuts[1:])]

    def stacks(self, x: np.ndarray) -> list[tuple[slice, np.ndarray]]:
        """Each run's fold slice and its folds' rows of x (N, ...) as one stack (fold count, fold size, ...)."""
        return [(folds, x[rows].reshape((g, size) + x.shape[1:])) for folds, rows, g, size in self.runs]

    @staticmethod
    def join(parts: list[np.ndarray]) -> np.ndarray:
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def products(self, x: np.ndarray, mats: np.ndarray) -> np.ndarray:
        """x_f M_f on every fold's rows x_f of x (N, a), with M_f of the stack ``mats`` (K, a, b): (N, b)."""
        return self.join([(xs @ mats[folds]).reshape(xs.shape[0] * xs.shape[1], mats.shape[2])
                          for folds, xs in self.stacks(x)])

    def means(self, x: np.ndarray) -> np.ndarray:
        """Each fold's mean of x (N,), as ``np.mean`` of the fold's entries alone: (K,)."""
        return self.join([xs.mean(axis=1) for _, xs in self.stacks(x)])


def _predictor_fields(design: np.ndarray, thetas: np.ndarray, pairs: np.ndarray, rows: _FoldRows) -> np.ndarray:
    """Complex basis coefficients (N, m0) of K folds' additive predictors, X_f Theta_f^T Z_c,f^T on fold f's rows.

    ``design`` stacks the folds' rows of every effect's columns (N, sum m_j), ``thetas`` their coefficients
    (K, m, sum m_j) and ``pairs`` their ``TangentTransform.pair_rows`` (K, 2 m0, m); real arithmetic
    throughout, on the (re, im) pairs of the coefficients.
    """
    return rows.products(design, np.swapaxes(thetas, 1, 2) @ np.swapaxes(pairs, 1, 2)).view(complex)


@dataclass
class ResidualSet:
    """Transported residuals of a sample at the pole, one TangentEvals per curve."""

    residuals: list[TangentEvals]


@dataclass
class CvResult:
    m_stop: int
    cv_risk: np.ndarray  # fold-averaged held-out risk, length iterations + 1
    fold_risks: np.ndarray  # (folds, iterations + 1)
    fold_assignment: np.ndarray  # fold index per curve


# ---------------------------------------------------------------------------
# a packed sample at one pole


class _PoleSample:
    """A packed sample seen from one pole: pole representatives and tangent directions.

    Tangent coefficients c (m,) map to basis coefficients Z_c c and through
    the band of the stacked response design to evaluations, so the per-curve
    tangent designs D_i = B_i Z_c are never formed.  Without a transform, the
    tangent space is the null space of the constraints at the pole, built in
    packed passes on first use.  The pole representative and its norms are
    computed once, on first use.  Exp, Log and transport act on evaluations
    h (``predictor``), so a caller may build h from per-curve basis
    coefficients of its own (``PackedSample.field``).
    """

    def __init__(self, packed: PackedSample, pole: PoleCoef, kind: GeometryKind,
                 transform: TangentTransform | None = None):
        self.packed = packed
        self.pole = pole
        self.kind = kind
        if transform is not None:
            self.transform = transform  # an instance attribute takes the place of the cached property

    @classmethod
    def of(cls, sample: list[CurveSample], pole: PoleCoef, kind: GeometryKind, coef_mode: bool, transform=None):
        return cls(PackedSample.of(sample, sample_design(pole.basis, sample, coef_mode)), pole, kind, transform)

    @cached_property
    def transform(self) -> TangentTransform:
        return nullspace_transform(packed_constraint_matrix(self.packed, self.pole, self.kind))

    @cached_property
    def p_rep(self) -> np.ndarray:
        return self.packed.pole_rep(self.packed.band @ self.pole.coef, self.kind)

    @cached_property
    def p_norm(self) -> np.ndarray:
        return self.packed.norm(self.p_rep)

    def take(self, idx: np.ndarray) -> "_PoleSample":
        """The curves ``idx`` (repeats allowed) at the same pole, gathered with their pole representatives."""
        sub = _PoleSample(self.packed.take(idx), self.pole, self.kind)
        sub.p_rep, sub.p_norm = self.p_rep[self.packed.rows(idx)], self.p_norm[idx]
        return sub

    @cached_property
    def rows(self) -> "_FoldRows":
        """The curves as one fold: tangent and basis coefficients map through Z_c's real form as in a fit."""
        return _FoldRows([self.packed.n])

    def predictor(self, coefs: np.ndarray) -> np.ndarray:
        """Packed evaluations D_i c_i of per-curve tangent coefficients (n, m)."""
        return self.packed.field(self.rows.products(coefs, self.transform.pair_rows.T[None]).view(complex))

    def means(self, h: np.ndarray) -> np.ndarray:
        """Centered representatives of Exp_[p](h_i) (packed)."""
        return self.packed.exp(self.p_rep, h, self.kind, error=FitDiverged)

    def residuals(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transported residuals Transp(Log_[mu_i] [y_i]) at the pole, mu_i = Exp_[p](h_i), and distances d_i."""
        mu = self.means(h)
        mn = self.packed.norm(mu)  # shared by the Log's alignment and the transport
        eps, d = self.packed.log(mu, self.kind, what="alignment to the current mean is degenerate", base_norm=mn)
        eps = self.packed.transport(mu, self.p_rep, eps, self.kind, what="antipodal transport in residual step",
                                    norms=(mn, self.p_norm))
        return eps, d

    def distances(self, h: np.ndarray) -> np.ndarray:
        """Geodesic distances d_i between the observations and Exp_[p](h_i)."""
        return self.packed.log(self.means(h), self.kind, what="degenerate alignment in risk evaluation")[1]

    def project(self, eps: np.ndarray) -> np.ndarray:
        """Projections Re(D_i^H W_i eps_i) onto the tangent directions, (n, m)."""
        return self.rows.products(self.packed.project(eps).view(float), self.transform.pair_rows[None])


# tangent penalties q I: ZᵀZ = I for the orthonormal transform ("ridge") and zero ("none")
SCALAR_TANGENT_PENALTIES = {"ridge": 1.0, "none": 0.0}


def _shared_gram(grams: np.ndarray) -> np.ndarray | None:
    """The Gram that every curve of the stack has, bit for bit, or None."""
    return grams[0] if (grams == grams[0]).all() else None


class _Fold(NamedTuple):
    """The curves of one boosting run as its learners see them.

    ``grams`` is the tangent Gram stack (n, m, m) and ``shared`` the tangent Gram of every curve, when
    they all have one (else None); ``designs`` and ``cmaps`` are the effects' covariate designs and maps.
    """

    transform: TangentTransform
    grams: np.ndarray
    shared: np.ndarray | None
    designs: list[np.ndarray]
    cmaps: list[CovariateMap]

    @classmethod
    def build(cls, transform: TangentTransform, design_grams: np.ndarray, covariates: dict, n: int,
              config: BoostConfig) -> "_Fold":
        """A fold from its curves' design Grams (n, m0, m0) and covariate rows.

        When every curve has the same design Gram (coefficient mode) the tangent Gram is computed once.
        """
        if (K0 := _shared_gram(design_grams)) is not None:
            shared = transform.gram(K0)
            grams = np.broadcast_to(shared, (n,) + shared.shape)
        else:
            grams = transform.gram(design_grams)
            shared = _shared_gram(grams)
        designs, cmaps, parent_designs = [], [], {}
        for spec in config.effects:
            design, cmap = covariate_design(spec, covariates, n, parent_designs)
            parent_designs[spec.name] = design
            designs.append(design)
            cmaps.append(cmap)
        return cls(transform, grams, shared, designs, cmaps)

    def shape(self) -> tuple:
        """What the folds of one ``_FitContext`` share: tangent and covariate dimensions, Gram sharing."""
        return self.transform.m, tuple(d.shape[1] for d in self.designs), self.shared is not None


class _FitContext:
    """Base-learners of K boosting runs (folds) advanced together, each at its own tangent transform.

    The folds share every shape but their curve counts (``_Fold.shape``).  Their curves are stacked
    fold-major (``rows``), every effect's covariate columns side by side in ``design`` (effect j's are
    ``blocks[j]``), each fold's Z_c in its real form ``pairs`` (``TangentTransform.pair_rows``), and each
    learner holds the K folds' systems (``PlsLearner.stack``).  Every per-fold
    operation is a stacked one whose items have the fold's own shapes (``_FoldRows``), so each fold's
    arithmetic is that of a context of the fold alone, bit for bit; a fit is K = 1.

    When every curve of a fold has the same tangent Gram G (coefficient mode, or one grid and weights
    shared by all curves) and a learner's tangent penalty is q I, its Psi is (X^T X) (x) G and it is
    built from eigh(G), computed once per fold, and two m_j-sized decompositions
    (``PlsLearner.calibrated_kron``).  Every other learner decomposes its assembled Psi, with eigh(P_tan)
    computed once per fold and tangent penalty.
    """

    def __init__(self, folds: list[_Fold], basis: BSplineBasis, config: BoostConfig):
        self.transforms = [fold.transform for fold in folds]
        self.cmaps = [fold.cmaps for fold in folds]
        self.m = self.transforms[0].m
        self.rows = _FoldRows([fold.grams.shape[0] for fold in folds])
        self.pairs = np.stack([t.pair_rows for t in self.transforms])
        self.design = np.concatenate([_joined(fold.designs, fold.grams.shape[0]) for fold in folds])
        ends = np.cumsum([0] + [d.shape[1] for d in folds[0].designs])
        self.blocks = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
        learners = [self._learners(fold, basis, config) for fold in folds]
        self.learners = [PlsLearner.stack(list(systems)) for systems in zip(*learners)]

    @staticmethod
    def _learners(fold: _Fold, basis: BSplineBasis, config: BoostConfig) -> list[PlsLearner]:
        """One fold's learner of every effect."""
        gram_eig = None
        p_tan: dict[str, tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]] = {}
        learners = []
        for spec, design, cmap in zip(config.effects, fold.designs, fold.cmaps):
            tan_kind = config.response_penalty if spec.penalty_tangent == "inherit" else spec.penalty_tangent
            label = f"effect {spec.name!r}"
            if fold.shared is not None and tan_kind in SCALAR_TANGENT_PENALTIES:
                if gram_eig is None:
                    gram_eig = np.linalg.eigh(fold.shared)
                learners.append(PlsLearner.calibrated_kron(design.T @ design, gram_eig, cmap.penalty,
                                                           SCALAR_TANGENT_PENALTIES[tan_kind], spec.df_target, label))
            else:
                if tan_kind not in p_tan:
                    P = PenaltyBlock.build(basis, fold.transform, tan_kind).P_perp
                    p_tan[tan_kind] = P, np.linalg.eigh(P)
                P, eig = p_tan[tan_kind]
                learners.append(PlsLearner.calibrated(assemble_psi_matrix(design, fold.grams), cmap.penalty, P,
                                                      spec.df_target, label, eig))
        return learners

    @classmethod
    def of(cls, ps: _PoleSample, covariates: dict, config: BoostConfig) -> "_FitContext":
        """The learners of a pole sample's curves (one fold), at its tangent transform."""
        fold = _Fold.build(ps.transform, ps.packed.design_grams(), covariates, ps.packed.n, config)
        return cls([fold], ps.pole.basis, config)

    def step(self, thetas: np.ndarray, projs: np.ndarray, step_length: float) -> np.ndarray:
        """One boosting update of every fold from its projected residuals (rows of projs (N, m)): refit every
        learner, add step_length times each fold's best fit to its coefficients (in place) and return the
        selected learners (K,)."""
        m = self.m
        psi = self.rows.join([assemble_psi_vector(xs, ps) for (_, xs), (_, ps)
                              in zip(self.rows.stacks(self.design), self.rows.stacks(projs))])
        # an effect's columns are consecutive, so its right-hand sides are a slice of the joined ones
        zs = [lr.coords(psi[:, m * b.start : m * b.stop]) for lr, b in zip(self.learners, self.blocks)]
        # SSE_j = const + objective_j with const shared across learners; argmin takes the first of ties
        best = np.argmin([lr.objective(z) for lr, z in zip(self.learners, zs)], axis=0)
        for j, (lr, z, b) in enumerate(zip(self.learners, zs, self.blocks)):
            won = np.flatnonzero(best == j)
            thetas[won, :, b] += step_length * unvec(lr.coefs(z[won], won), m, b.stop - b.start)
        return best

    def boost(self, ps: _PoleSample, config: BoostConfig):
        """Boosting of the folds' curves, stacked fold-major in ``ps``, from zero coefficients: yields (thetas
        (K, m, sum m_j), training risks (K,), selected learners (K,)) at the bare pole and after every iteration.

        Each iteration is one residual pass over all folds' curves, each fold's field and projection through
        its own Z_c.  The bare pole's selected learners are None; ``thetas`` is updated in place between yields.
        """
        thetas, selected = np.zeros((len(self.transforms), self.m, self.design.shape[1])), None
        for it in range(config.max_iterations + 1):
            if it:
                selected = self.step(thetas, projs, config.step_length)
            eps, d = ps.residuals(ps.packed.field(_predictor_fields(self.design, thetas, self.pairs, self.rows)))
            # tangent coordinates Re(Z_c^H x_i) of the basis projections, on their (re, im) pairs
            projs = self.rows.products(ps.packed.project(eps).view(float), self.pairs)
            risks = self.rows.means(d**2)
            if it and not np.isfinite(risks).all():
                raise FitDiverged(f"risk became non-finite at iteration {it}")
            yield thetas, risks, selected


def _penalized_spline_fit(packed: PackedSample, design_grams: np.ndarray, targets: np.ndarray,
                          selected: np.ndarray, basis: BSplineBasis, lam: float = 1e-6) -> np.ndarray:
    """Weighted penalized LS fit of the packed targets on the selected curves, complex coefficients."""
    A = design_grams[selected].sum(axis=0) + lam * basis.penalty("second_diff")
    return PlsLearner.unpenalized(A, "preliminary pole").solve(packed.project(targets)[selected].sum(axis=0))


@serial_blas
def estimate_pole(
    sample: list[CurveSample],
    kind: GeometryKind,
    basis: SplineConfig | BSplineBasis,
    config: BoostConfig,
) -> PoleCoef:
    """Overall mean (Riemannian center of mass) as basis coefficients.

    A preliminary pole is the penalized spline fit to the pooled sample
    aligned to (a smooth of) the first curve.  Intercept-only boosting of a
    constant tangent effect then refines it: at each pole, intercept steps
    run until the mean transported residual norm stops decreasing (relative
    decrease at most ``POLE_REL_TOL``), and the result Exp_p(h0) is folded
    back into basis coefficients using product-space norms.  The refinement
    returns the current pole when its first-order condition is at most
    1e-10, when the last fold's step was below 1e-14, when the condition
    fell by less than half over the last fold, or when the budget of
    ``config.pole_max_iterations`` intercept steps is spent.  The log line
    counts the pole updates ("restarts") and the residual passes that were
    intercept steps, and reports the returned pole's condition.
    """
    kind = GeometryKind.parse(kind)
    if not sample:
        raise GeometryError("pole estimation needs a nonempty sample")
    if isinstance(basis, BSplineBasis):
        bas = basis
    else:
        pooled_t = np.concatenate([c.grid for c in sample])
        bas = build_response_basis(basis, pooled_t)
    packed = PackedSample.of(sample, sample_design(bas, sample, config.coef_mode))
    K = packed.design_grams()  # the band and the weights are fixed: once for the whole estimate

    ref_coef = _penalized_spline_fit(packed, K, packed.values, np.arange(packed.n) == 0, bas)
    u, skipped = packed.align(packed.y_c, packed.center(packed.band @ ref_coef))
    for i in np.flatnonzero(skipped):
        warnings.warn(f"curve {sample[i].id!r}: skipped in preliminary pole (degenerate alignment)", stacklevel=2)
    if skipped.all():
        raise DegenerateAlignment("no curve could be aligned for the preliminary pole")
    reps = u[packed.seg] * packed.y_c
    if kind is GeometryKind.SHAPE:
        reps = reps / packed.y_norm[packed.seg]
    p0_coef = _penalized_spline_fit(packed, K, reps, ~skipped, bas)
    pole = center_pole(PoleCoef(coef=p0_coef, basis=bas), packed)

    # intercept-only boosting: unpenalized constant tangent effect, step length
    # 1.  Folding Exp_{p0}(h0) back into coefficients uses product-space norms
    # and is only first-order exact for shapes, so the loop restarts at each
    # refined pole.  A pole's first residual pass, at h0 = 0, measures its
    # first-order condition: the projected mean residual against the mean norm.
    budget = config.pole_max_iterations
    K_sum = K.sum(axis=0)
    restarts, cond_prev, stop, exhausted = 0, np.inf, False, budget <= 0
    while True:
        ps = _PoleSample(packed, pole, kind)
        G_sum = ps.transform.gram(K_sum)  # sum_i G_i = Re(Z_c^H (sum_i K_i) Z_c): one Gram, not the stack
        intercept, G0 = PlsLearner.unpenalized(G_sum, "pole intercept"), G_sum / packed.n
        h0, prev, cond = np.zeros(ps.transform.m), np.inf, None
        while cond is None or budget > 0:
            # one residual pass at Exp_p(h0): the mean residual norm and the intercept step
            eps, _ = ps.residuals(ps.predictor(np.broadcast_to(h0, (packed.n, h0.size))))
            cur, step = float(np.mean(packed.norm(eps))), intercept.solve(ps.project(eps).sum(axis=0))
            if cond is None:
                cond = float(np.sqrt(max(step @ G0 @ step, 0.0)) / max(cur, 1e-300))
                stop = stop or cond <= 1e-10 or budget <= 0
                if stop:
                    break
                restarts, exhausted = restarts + 1, False  # no rule fired: the pass is the first intercept step
            budget -= 1
            if np.isfinite(prev) and prev - cur <= POLE_REL_TOL * max(prev, 1e-300):
                break
            prev, h0 = cur, h0 + step
        else:
            exhausted = True  # the budget ran out before the mean residual norm settled
        if stop:
            break
        F = ps.transform.field_coef(h0)
        n0 = float(np.sqrt(max(h0 @ G0 @ h0, 0.0)))
        if kind is GeometryKind.FORM:
            coef = pole.coef + F
        else:
            # product-space normalization of the current pole
            scale = np.sqrt(np.mean(packed.norm(packed.center(packed.band @ pole.coef)) ** 2))
            p_hat = pole.coef / scale
            coef = p_hat if n0 < 1e-14 else np.cos(n0) * p_hat + np.sin(n0) * F / n0
        pole = center_pole(PoleCoef(coef=coef, basis=bas), packed)
        # the coefficient-level fold is only first-order exact for shapes: restart at the
        # refined pole unless the step vanished or the condition fell by less than half
        stop = n0 < 1e-14 or (np.isfinite(cond_prev) and cond >= 0.5 * cond_prev)
        cond_prev = cond
    log.info("pole: %d restarts, %d intercept steps, first-order condition %.3g, budget %s",
             restarts, config.pole_max_iterations - budget, cond, "exhausted" if exhausted else "not exhausted")
    return pole


@serial_blas
def boost_fit(
    sample: list[CurveSample],
    covariates: dict,
    config: BoostConfig,
    pole: PoleCoef,
    kind: GeometryKind,
) -> FittedModel:
    """Run component-wise Riemannian L2-boosting at a fixed pole.

    Per iteration: compute transported residuals, PLS-refit every
    base-learner, select the one with minimal residual sum of squares (ties
    broken towards the smallest index) and add step_length times its fit to
    the coefficients.  The risk trace records the empirical mean squared
    geodesic distance after every update; entry 0 is the risk of the bare
    pole.
    """
    kind = GeometryKind.parse(kind)
    ps = _PoleSample.of(sample, pole, kind, config.coef_mode)
    ctx = _FitContext.of(ps, covariates, config)
    risks, selection = [], []
    for thetas, risk, selected in ctx.boost(ps, config):
        risks.append(risk[0])
        selection.append(selected)
    effects = [
        FittedEffect(cmap=cm, theta=thetas[0, :, b].copy(), lam=float(lr.lam[0]))
        for cm, b, lr in zip(ctx.cmaps[0], ctx.blocks, ctx.learners)
    ]
    return FittedModel(
        kind=kind,
        pole=pole,
        transform=ctx.transforms[0],
        effects=effects,
        risk_trace=np.array(risks),
        m_stop=config.max_iterations,
        selection_trace=np.array([j[0] for j in selection[1:]], dtype=int),
        response_penalty=config.response_penalty,
        weight_rule=config.weight_rule,
        rng_seed=config.rng_seed,
    )


def model_sample(model: FittedModel, sample: list[CurveSample]) -> _PoleSample:
    """A sample packed at a fitted model's pole; a command that evaluates a model several times packs it once."""
    return _PoleSample.of(sample, model.pole, model.kind, model.coef_mode, model.transform)


@serial_blas
def transported_residuals(model: FittedModel, sample: list[CurveSample], covariates: dict) -> ResidualSet:
    """Transported residuals of a sample under a fitted model."""
    ps = model_sample(model, sample)
    eps, _ = ps.residuals(ps.packed.field(model.predictor_fields(covariates, len(sample))))
    cuts = ps.packed.offsets[1:-1]
    return ResidualSet(
        residuals=[
            TangentEvals(grid=c.grid, values=e, pole_evals=p, kind=model.kind, weights=c.weights)
            for c, e, p in zip(sample, np.split(eps, cuts), np.split(ps.p_rep, cuts))
        ]
    )


def _fold_contexts(full: _PoleSample, covariates: dict, config: BoostConfig,
                   trains: list[np.ndarray]) -> list[tuple[list[int], _FitContext]]:
    """The folds' learners, each fold at its own tangent transform, from its training rows of the whole
    sample's normal projections and design Grams (computed once here).

    Folds of one ``_Fold.shape`` share a context; the positions of its folds in ``trains`` come with it.
    All folds have one shape unless a fold's constraints or covariates are degenerate, or only some
    folds' training curves share one tangent Gram.
    """
    normals = normal_projections(full.packed, full.pole, full.kind)
    K = full.packed.design_grams()
    folds = [_Fold.build(nullspace_transform(constraint_mean([p[train] for p in normals])), K[train],
                         {k: v[train] for k, v in covariates.items()}, train.size, config) for train in trains]
    batches: dict[tuple, list[int]] = {}
    for f, fold in enumerate(folds):
        batches.setdefault(fold.shape(), []).append(f)
    return [(idx, _FitContext([folds[f] for f in idx], full.pole.basis, config)) for idx in batches.values()]


@serial_blas
def _cv_lockstep(args) -> np.ndarray:
    """Held-out risks (folds, iterations + 1) of the given folds, advanced together (a pool worker's entry point).

    The sample is packed once, with one design-Gram stack and one set of
    normal projections at the pole; each fold's tangent transform, Gram
    stack and learners are built from its training rows of these.  The
    folds' training sets are stacked fold-major and boosted by one
    ``_FitContext.boost``: per iteration one residual pass over all of them,
    one batched selection step (each learner's right-hand sides, coordinates,
    objectives and winning fits built once for all folds) and one predictor
    update.  The held-out predictors of all folds are then formed in one pass
    and evaluated by one distance pass over the whole sample, which the
    held-out sets partition, and one per-fold mean.  Every per-fold product
    has the fold's own shapes, so each fold's risks are those of
    ``boost_fit`` on its training curves, stopped at each iteration,
    evaluated on its held-out curves, bit for bit.
    """
    sample, covariates, config, kind, pole, assignment, folds = args
    full = _PoleSample.of(sample, pole, kind, config.coef_mode)
    covariates = {k: np.asarray(v) for k, v in covariates.items()}
    trains = [np.flatnonzero(assignment != f) for f in folds]
    risks = np.empty((len(folds), config.max_iterations + 1))
    for idx, ctx in _fold_contexts(full, covariates, config, trains):
        tests = [np.flatnonzero(assignment == folds[f]) for f in idx]
        held_out, test_rows = np.concatenate(tests), _FoldRows([test.size for test in tests])
        test_design = np.concatenate([
            _joined([cm.design({k: v[test] for k, v in covariates.items()}, test.size) for cm in cmaps], test.size)
            for cmaps, test in zip(ctx.cmaps, tests)])
        stacked = full.take(np.concatenate([trains[f] for f in idx]))
        fields = np.zeros((full.packed.n, pole.basis.dim), dtype=complex)  # each curve's predictor in its own fold
        for it, (thetas, _, _) in enumerate(ctx.boost(stacked, config)):
            fields[held_out] = _predictor_fields(test_design, thetas, ctx.pairs, test_rows)
            d = full.distances(full.packed.field(fields))
            risks[idx, it] = test_rows.means(d[held_out] ** 2)
    return risks


@serial_blas
def cv_early_stop(
    sample: list[CurveSample],
    covariates: dict,
    config: BoostConfig,
    kind: GeometryKind,
    pole: PoleCoef | None = None,
    workers: int = 1,
) -> CvResult:
    """Curve-wise cross-validated early stopping.

    Folds partition curves (never single evaluation points) by a seeded
    shuffle; the pole is estimated once on the full sample and shared across
    folds.  Returns the argmin of the fold-averaged held-out risk curve (ties
    towards the smallest iteration).  All folds advance in lockstep
    (``_cv_lockstep``): per iteration one residual pass over their stacked
    training sets, one selection step and one predictor update batched over
    the folds, and one held-out distance pass over the sample.  With
    workers > 1, min(workers, folds) processes each run a contiguous chunk
    of the folds through ``_cv_lockstep``.  Every fold runs OpenBLAS at one
    thread (``_cv_lockstep`` pins it again inside a worker) and every
    per-fold operation has the fold's own shapes, whatever other folds share
    its batch, so the fold risks do not depend on the worker count, bit for
    bit.
    """
    if workers < 1:
        raise EffectError(f"workers must be at least 1, got {workers}")
    kind = GeometryKind.parse(kind)
    n = len(sample)
    folds = config.cv_folds
    if pole is None:
        pole = estimate_pole(sample, kind, config.response_basis, config)
    rng = np.random.default_rng(config.rng_seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % folds
    counts = np.bincount(assignment, minlength=folds)
    if np.any(counts < 2):
        raise EffectError(f"cross-validation fold with fewer than 2 curves (sizes {counts.tolist()})")
    chunks = np.array_split(np.arange(folds), min(workers, folds))
    jobs = [(sample, covariates, config, kind, pole, assignment, chunk) for chunk in chunks]
    if len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool_exec:
            fold_risks = np.vstack(list(pool_exec.map(_cv_lockstep, jobs)))
    else:
        fold_risks = _cv_lockstep(jobs[0])
    log.debug("cv: %d folds in lockstep over %d chunk(s)", folds, len(jobs))
    cv_risk = fold_risks.mean(axis=0)
    m_stop = int(np.argmin(cv_risk))
    return CvResult(m_stop=m_stop, cv_risk=cv_risk, fold_risks=fold_risks, fold_assignment=assignment)


@serial_blas
def predict_means(
    model: FittedModel,
    covariates: dict,
    grids: list[np.ndarray],
    weights: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Conditional mean representatives Exp_[p](h(x_i)) of every covariate row, row i on grids[i].

    One packed exponential per block of about PREDICT_BLOCK_POINTS evaluation points.
    Covariates are checked like the fitting table: bad values raise ``EffectError``.
    A coefficient-mode grid without basis-dimension points raises ``GeometryError``.
    """
    n = len(grids)
    if n == 0:
        return []
    grids = [np.asarray(g, dtype=float) for g in grids]
    if model.coef_mode:
        for i, g in enumerate(grids):
            if g.size != model.basis.dim:
                raise GeometryError(f"prediction row {i}: coefficient mode needs {model.basis.dim} points, got {g.size}")
    fields = model.predictor_fields(covariates, n)
    if weights is None:
        # per-point file weights are not reconstructible on a new grid
        rule = "trapezoid" if model.weight_rule == "column" else model.weight_rule
        gram = model.basis.gram if model.coef_mode else None
        weights = [rule_weights(rule, g, gram) for g in grids]
    step = max(1, PREDICT_BLOCK_POINTS // max(g.size for g in grids))
    means = []
    for lo in range(0, n, step):
        rows = range(lo, min(lo + step, n))
        if model.coef_mode:
            band = DesignBand.identity(model.basis.dim, len(rows))
        else:
            band = model.basis.band(np.concatenate([grids[i] for i in rows]))
        packed = PackedSample([weights[i] for i in rows], [f"prediction row {i}" for i in rows], band=band)
        p_rep = packed.pole_rep(band @ model.pole.coef, model.kind)
        means += np.split(packed.exp(p_rep, packed.field(fields[lo : lo + step]), model.kind), packed.offsets[1:-1])
    return means


def predict_mean(
    model: FittedModel,
    x: dict,
    grid: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Conditional mean representative Exp_[p](h(x)) on a grid: ``predict_means`` for one row."""
    row = {name: np.array([value]) for name, value in x.items()}
    return predict_means(model, row, [grid], None if weights is None else [weights])[0]


@serial_blas
def empirical_risk(model: FittedModel, sample: list[CurveSample], covariates: dict,
                   pole_sample: _PoleSample | None = None) -> float:
    """Empirical mean squared geodesic distance between sample and fitted means (``pole_sample`` as in rmse_effect)."""
    ps = model_sample(model, sample) if pole_sample is None else pole_sample
    d = ps.distances(ps.packed.field(model.predictor_fields(covariates, len(sample))))
    return float(np.mean(d**2))


def _transport_between_poles(
    vals: np.ndarray,
    from_rep: np.ndarray,
    to_rep: np.ndarray,
    packed: PackedSample,
    kind: GeometryKind,
) -> np.ndarray:
    """Align the source pole to the target and transport tangent evaluations of the packed sample."""
    u, _ = packed.align(from_rep, to_rep, what="pole alignment degenerate in effect comparison")
    u = u[packed.seg]
    return packed.transport(u * from_rep, to_rep, u * vals, kind)


@serial_blas
def rmse_effect(
    model: FittedModel,
    sample: list[CurveSample],
    covariates: dict,
    effect_name: str,
    true_effect_evals: list[np.ndarray],
    true_total_evals: list[np.ndarray],
    true_pole_evals: list[np.ndarray] | None = None,
    pole_sample: _PoleSample | None = None,
) -> float:
    """Relative mean squared error of one fitted effect against a known truth.

    rMSE = sum_i ||hhat_j(x_i) - h_j(x_i)||_i^2 / sum_i ||h(x_i)||_i^2 with
    per-curve empirical inner products; the fitted effect is parallel
    transported from the estimated pole to the true pole before comparing.
    ``pole_sample`` is the sample's ``model_sample``, when the caller has it.
    """
    idx = [k for k, eff in enumerate(model.effects) if eff.spec.name == effect_name]
    if not idx:
        raise EffectError(f"unknown effect {effect_name!r}")
    eff = model.effects[idx[0]]
    ps = model_sample(model, sample) if pole_sample is None else pole_sample
    packed = ps.packed
    vals = ps.predictor(eff.cmap.design(covariates, len(sample)) @ eff.theta.T)
    if true_pole_evals is not None:
        target = packed.pole_rep(np.concatenate(true_pole_evals), model.kind)
        vals = _transport_between_poles(vals, ps.p_rep, target, packed, model.kind)
    diff = vals - np.concatenate(true_effect_evals)
    total = np.concatenate(true_total_evals)
    num = float(np.sum(packed.inner(diff, diff).real))
    den = float(np.sum(packed.inner(total, total).real))
    if den <= 0:
        raise EffectError("true predictor has zero variance; rMSE undefined")
    return num / den

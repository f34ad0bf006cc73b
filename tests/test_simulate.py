import numpy as np
import pytest

from shapeboost.boost import BoostConfig, boost_fit, estimate_pole, rmse_effect
from shapeboost.effects import EffectError, EffectSpec
from shapeboost.geometry import GeometryKind, PackedSample
from shapeboost.simulate import (
    BATCH_ANGLES,
    SimConfig,
    builtin_template,
    default_effects,
    gen_dataset,
    gen_truth,
    run_replicate,
    study_configs,
    tilt_curve,
)

TRUTH = gen_truth()


class TestGenTruth:
    def test_zero_tilt_is_identity_view(self):
        grid, values = builtin_template()
        assert np.allclose(tilt_curve(values, 0.0), values, atol=1e-12)

    def test_tilt_family_projects_into_basis(self):
        # spline projection of tilted outlines keeps <= 5% relative residual
        grid, values = builtin_template()
        basis = TRUTH.pole.basis
        from shapeboost.geometry import center, empirical_norm, trapezoid_weights

        w = trapezoid_weights(grid)
        B = basis.design(grid)
        for angle in (-60.0, -30.0, 30.0, 60.0):
            v = tilt_curve(values, angle)
            coef = np.linalg.lstsq(np.sqrt(w)[:, None] * B, np.sqrt(w) * v, rcond=None)[0]
            rel = empirical_norm(v - B @ coef, w) / empirical_norm(center(v, w), w)
            assert rel <= 0.05
        assert TRUTH.tilt_projection_residual <= 0.05

    def test_truth_effects_centered_over_design(self):
        batch = {
            "group": np.array(["0"] * 9 + ["1"] * 9),
            "z1": np.tile(BATCH_ANGLES, 2),
        }
        for name in ("group", "tilt"):
            V = TRUTH.effect_fields[name]
            rows = np.vstack(
                [TRUTH.effect_maps[name].row({k: batch[k][i] for k in batch}) for i in range(18)]
            )
            coef_sum = V @ rows.sum(axis=0)
            assert np.abs(coef_sum).max() <= 1e-10 * max(np.abs(V).max(), 1e-300)

    def test_tilt_orthogonal_to_linear_over_design(self):
        batch = {
            "group": np.array(["0"] * 9 + ["1"] * 9),
            "z1": np.tile(BATCH_ANGLES, 2),
        }
        V = TRUTH.effect_fields["tilt"]
        rows = np.vstack(
            [TRUTH.effect_maps["tilt"].row({k: batch[k][i] for k in batch}) for i in range(18)]
        )
        zc = batch["z1"] - batch["z1"].mean()
        assert np.abs(V @ (rows.T @ zc)).max() <= 1e-8 * np.abs(V).max()


class TestGenDataset:
    def test_grid_subsampling_statistics(self):
        cfg = SimConfig(n=720, k_bar=40, kind="form", seed=5)
        sample, _, _ = gen_dataset(TRUTH, cfg)
        sizes = np.array([c.k for c in sample])
        assert sizes.min() >= 3
        assert abs(sizes.mean() - 40) <= 4.0  # within 10% of k_bar

    def test_noise_to_signal_hits_target(self):
        for kind, target in (("form", 1.05), ("shape", 0.65)):
            cfg = SimConfig(n=54, k_bar=40, kind=kind, target_nsr=target, seed=7)
            _, _, dtruth = gen_dataset(TRUTH, cfg)
            assert target * 0.95 <= dtruth.nsr <= target * 1.05
            if kind == "form":
                assert 1.0 <= dtruth.nsr <= 1.1

    def test_seeded_determinism(self):
        cfg = SimConfig(n=36, k_bar=20, kind="shape", seed=11)
        s1, c1, t1 = gen_dataset(TRUTH, cfg)
        s2, c2, t2 = gen_dataset(TRUTH, cfg)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.grid, b.grid)
            assert np.array_equal(a.values, b.values)
        for key in c1:
            assert np.array_equal(c1[key], c2[key])
        assert t1.nsr == t2.nsr

    def test_frame_randomization_preserves_distances_to_truth(self):
        cfg_pre = SimConfig(n=36, k_bar=25, kind="shape", seed=13, pre_aligned=True)
        cfg_frame = SimConfig(n=36, k_bar=25, kind="shape", seed=13, pre_aligned=False)
        s_pre, _, t_pre = gen_dataset(TRUTH, cfg_pre)
        s_frame, _, t_frame = gen_dataset(TRUTH, cfg_frame)
        # distances of every curve to the pole; the pole's representative suffices
        mu = np.concatenate(t_pre.pole_evals)
        d0, d1 = (
            ps.log(ps.pole_rep(mu, GeometryKind.SHAPE), GeometryKind.SHAPE, what=None)[1]
            for ps in (PackedSample.of(s_pre), PackedSample.of(s_frame))
        )
        assert np.all(np.abs(d0 - d1) <= 1e-8 * np.maximum(1.0, d0))

    def test_empty_pool_rejected(self):
        cfg = SimConfig(n=18, k_bar=10, kind="form", seed=1)
        with pytest.raises(EffectError, match="pool"):
            gen_dataset(TRUTH, cfg, pool=[])

    def test_pool_mode_resamples_grids(self):
        rng = np.random.default_rng(0)
        pool = []
        for _ in range(7):
            g = np.sort(rng.uniform(0, 1, 60))
            pool.append((g, rng.normal(size=60) + 1j * rng.normal(size=60)))
        cfg = SimConfig(n=18, k_bar=12, kind="form", seed=3)
        sample, _, dtruth = gen_dataset(TRUTH, cfg, pool=pool)
        assert len(sample) == 18
        assert min(c.k for c in sample) >= 3

    def test_sample_size_must_be_batch_multiple(self):
        with pytest.raises(EffectError):
            SimConfig(n=20, k_bar=10, kind="form")


class TestNoiselessIdentifiability:
    def test_noiseless_prealigned_recovery(self):
        cfg = SimConfig(n=36, k_bar=60, kind="form", target_nsr=0.0, pre_aligned=True, seed=5)
        sample, cov, dtruth = gen_dataset(TRUTH, cfg)
        # noiseless data reproduce the conditional means exactly
        for i in (0, 7, 20):
            mu = dtruth.pole_evals[i] + dtruth.total_evals[i]
            ps = PackedSample.of([sample[i]])
            _, d = ps.log(ps.pole_rep(mu, GeometryKind.FORM), GeometryKind.FORM, what=None)
            assert d[0] <= 1e-10
        effects = [
            EffectSpec(name=e.name, kind=e.kind, covariates=e.covariates,
                       covariate_basis=e.covariate_basis, df_target=500.0,
                       penalty_covariate=e.penalty_covariate, centering=e.centering)
            for e in default_effects(df=4.0, nuisance=False)
        ]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bc = BoostConfig(effects=effects, step_length=1.0, max_iterations=60,
                             response_basis=TRUTH.pole.basis.cfg, response_penalty="ridge")
            pole = estimate_pole(sample, cfg.kind, TRUTH.pole.basis, bc)
            model = boost_fit(sample, cov, bc, pole, cfg.kind)
        for name in ("tilt", "group"):
            r = rmse_effect(model, sample, cov, name, dtruth.effect_evals[name],
                            dtruth.total_evals, dtruth.pole_evals)
            assert r < 1e-4


class TestStudyDriver:
    def test_study_configs_cells_and_seeds(self):
        cells = [(c.kind.value, c.n, c.k_bar, c.target_nsr, c.seed) for c in study_configs(1)]
        assert cells == [("form", 54, 40, 1.05, 54000), ("form", 162, 40, 1.05, 162000),
                         ("shape", 54, 40, 0.65, 55000), ("shape", 162, 40, 0.65, 163000)]
        assert [c.seed for c in study_configs(3)][:3] == [54000, 54001, 54002]
        assert {c.k_bar for c in study_configs(2, k_bar=10)} == {10}

    @pytest.mark.filterwarnings("ignore")
    def test_run_replicate_reports_every_learner(self):
        out = run_replicate(TRUTH, SimConfig(n=18, k_bar=10, kind="form", seed=3), iterations=5)
        effects = ("tilt", "group", "const0", "lin_z1", "smooth_z2")
        assert set(out) == {"nsr", "nuisance_share", "risk_first", "risk_last"} | {f"rmse_{e}" for e in effects}
        assert all(np.isfinite(v) for v in out.values())
        assert 0.0 <= out["nuisance_share"] <= 1.0
        assert out["risk_last"] < out["risk_first"]

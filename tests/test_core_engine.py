"""Integration tests for the Boson1Optimizer engine and OptimizerConfig."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.sampling import AxialPlusWorstSampling, SamplingStrategy
from repro.devices import make_device
from repro.fab.corners import VariationCorner


@pytest.fixture(scope="module")
def bend():
    return make_device("bending")


def fast_cfg(**kw):
    base = dict(iterations=2, sampling="nominal", relax_epochs=0)
    base.update(kw)
    return OptimizerConfig(**base)


class TestConfig:
    def test_defaults_are_full_boson(self):
        cfg = OptimizerConfig()
        assert cfg.use_fab and cfg.dense_objectives
        assert cfg.sampling == "axial+worst"
        assert cfg.relax_epochs > 0
        assert cfg.init == "path"

    def test_ablation_presets(self):
        assert not OptimizerConfig.ablation_no_reshaping().dense_objectives
        assert OptimizerConfig.ablation_no_relax().relax_epochs == 0
        assert OptimizerConfig.ablation_exhaustive().sampling == "exhaustive"
        assert OptimizerConfig.ablation_random_init().init == "random"

    def test_with_overrides(self):
        cfg = OptimizerConfig().with_overrides(iterations=3)
        assert cfg.iterations == 3
        assert OptimizerConfig().iterations != 3 or True

    def test_effective_lr_per_parameterization(self):
        assert OptimizerConfig(
            parameterization="levelset"
        ).effective_lr < OptimizerConfig(parameterization="density").effective_lr
        assert OptimizerConfig(lr=0.5).effective_lr == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(parameterization="splines")
        with pytest.raises(ValueError):
            OptimizerConfig(init="zeros")
        with pytest.raises(ValueError):
            OptimizerConfig(iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(lr=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(p_start=2.0)


class TestEngineBasics:
    def test_run_produces_history(self, bend):
        opt = Boson1Optimizer(bend, fast_cfg())
        result = opt.run()
        assert result.iterations_run == 2
        assert result.pattern.shape == bend.design_shape
        assert result.device_name == "bending"
        assert np.isfinite(result.final_loss)

    def test_history_has_port_powers(self, bend):
        result = Boson1Optimizer(bend, fast_cfg()).run()
        rec = result.history[0]
        assert "out" in rec.powers["fwd"]
        assert 0 <= rec.powers["fwd"]["out"] <= 1.5
        assert np.isfinite(rec.radiation("fwd"))

    def test_traces(self, bend):
        result = Boson1Optimizer(bend, fast_cfg()).run()
        assert result.fom_trace().shape == (2,)
        assert result.power_trace("fwd", "out").shape == (2,)
        assert result.radiation_trace("fwd").shape == (2,)

    def test_callback_invoked(self, bend):
        seen = []
        Boson1Optimizer(bend, fast_cfg()).run(
            callback=lambda r: seen.append(r.iteration)
        )
        assert seen == [0, 1]

    def test_iterations_override(self, bend):
        result = Boson1Optimizer(bend, fast_cfg()).run(iterations=1)
        assert result.iterations_run == 1

    def test_pattern_is_binary(self, bend):
        result = Boson1Optimizer(bend, fast_cfg()).run()
        assert set(np.unique(result.pattern)) <= {0.0, 1.0}

    def test_deterministic_given_seed(self, bend):
        r1 = Boson1Optimizer(bend, fast_cfg(seed=7)).run()
        r2 = Boson1Optimizer(bend, fast_cfg(seed=7)).run()
        np.testing.assert_array_equal(r1.pattern, r2.pattern)
        assert r1.final_loss == r2.final_loss


class _EmptySampling(SamplingStrategy):
    name = "empty-for-test"

    def corners(self, iteration, rng, worst_finder=None):
        return []


class TestZeroCornerLossError:
    def test_loss_names_the_sampler(self):
        device = make_device("bending")
        optimizer = Boson1Optimizer(
            device, OptimizerConfig(iterations=1, seed=0, sampling="axial")
        )
        optimizer.sampler = _EmptySampling()
        theta = Tensor(optimizer.theta, requires_grad=True)
        with pytest.raises(ValueError, match="empty-for-test"):
            optimizer.loss(theta, 0)
        optimizer.close()


class TestEngineModes:
    def test_free_space_mode(self, bend):
        opt = Boson1Optimizer(bend, fast_cfg(use_fab=False))
        result = opt.run()
        assert result.history[0].p == 0.0
        assert result.history[0].n_corners == 0

    def test_relaxation_blends(self, bend):
        cfg = fast_cfg(relax_epochs=4, p_start=0.5, iterations=2)
        result = Boson1Optimizer(bend, cfg).run()
        assert result.history[0].p == pytest.approx(0.5)
        assert result.history[1].p == pytest.approx(0.625)

    def test_density_parameterization(self, bend):
        cfg = fast_cfg(parameterization="density")
        result = Boson1Optimizer(bend, cfg).run()
        assert result.pattern.shape == bend.design_shape

    def test_mfs_blur_smooths_pattern(self, bend):
        from repro.utils.mfs import minimum_feature_size

        cfg_plain = fast_cfg(init="random", seed=3)
        cfg_blur = fast_cfg(init="random", seed=3, mfs_blur_um=0.12)
        plain = Boson1Optimizer(bend, cfg_plain).run().pattern
        blurred = Boson1Optimizer(bend, cfg_blur).run().pattern
        if plain.any() and blurred.any():
            assert minimum_feature_size(
                blurred, bend.dl
            ) >= minimum_feature_size(plain, bend.dl)

    def test_random_init_differs_from_path(self, bend):
        p_path = Boson1Optimizer(bend, fast_cfg()).run().pattern
        p_rand = Boson1Optimizer(bend, fast_cfg(init="random")).run().pattern
        assert not np.array_equal(p_path, p_rand)

    def test_sparse_objective_mode(self, bend):
        result = Boson1Optimizer(
            bend, fast_cfg(dense_objectives=False)
        ).run()
        # Sparse loss is exactly -T at the nominal corner.
        rec = result.history[0]
        assert rec.loss == pytest.approx(-rec.powers["fwd"]["out"], abs=1e-9)

    def test_objective_override(self, bend):
        terms = {
            "main": {"direction": "fwd", "kind": "maximize", "port": "refl"},
            "penalties": [],
        }
        opt = Boson1Optimizer(bend, fast_cfg(), objective_terms=terms)
        rec = opt.run().history[0]
        assert rec.loss == pytest.approx(-rec.powers["fwd"]["refl"], abs=1e-9)


class TestWorstCorner:
    def test_worst_finder_returns_corner(self, bend):
        cfg = fast_cfg(sampling="axial+worst", iterations=1)
        opt = Boson1Optimizer(bend, cfg)
        assert isinstance(opt.sampler, AxialPlusWorstSampling)
        rho = opt.decode(opt.theta)
        finder = opt._make_worst_finder(rho)
        corner = finder(t_step=30.0, xi_step=1.0)
        assert isinstance(corner, VariationCorner)
        assert corner.temperature_k in (270.0, 300.0, 330.0)
        assert corner.xi is not None
        assert corner.xi.shape == (opt.process.eole.n_terms,)
        assert np.all(np.abs(corner.xi) <= 1.0)

    def test_worst_corner_not_nominal(self, bend):
        """The ascent should actually move somewhere."""
        cfg = fast_cfg(sampling="axial+worst", iterations=1)
        opt = Boson1Optimizer(bend, cfg)
        rho = opt.decode(opt.theta)
        corner = opt._make_worst_finder(rho)(30.0, 1.0)
        assert not corner.is_nominal()

    def test_engine_runs_with_worst_sampling(self, bend):
        cfg = fast_cfg(sampling="axial+worst", iterations=1)
        result = Boson1Optimizer(bend, cfg).run()
        assert result.iterations_run == 1


class TestOptimizationProgress:
    """The paper's central claims in miniature: optimization improves FoM."""

    def test_bend_improves(self, bend):
        cfg = OptimizerConfig(
            iterations=6, sampling="nominal", relax_epochs=3, seed=0
        )
        result = Boson1Optimizer(bend, cfg).run()
        first = result.history[0].fom
        best = max(r.fom for r in result.history)
        assert best > first + 0.2

    def test_loss_decreases(self, bend):
        cfg = OptimizerConfig(
            iterations=6, sampling="nominal", relax_epochs=0, seed=0
        )
        result = Boson1Optimizer(bend, cfg).run()
        assert result.history[-1].loss < result.history[0].loss

"""Scenario families: broadband x thermal x fab corners (PR 8).

Covers the full stack of the scenario-family refactor:

* construction-time validation of corner physical axes and the new
  ``OptimizerConfig`` scenario fields;
* :func:`scenario_family` cross-product semantics (axis composition,
  weight inheritance, identity when no axes are set);
* the ``mean`` / ``worst`` / ``cvar`` aggregation modes, including
  permutation invariance and finite-difference gradient checks through
  the full engine tape on bending and crossing;
* the krylov scenario gradient matches the direct path to solver
  precision;
* bitwise parity of a centre-wavelength-pinned run against the
  axis-free path for LU-backed backends;
* refusal of pre-refactor checkpoints via the config digest;
* the wavelength-demux device and scenario-stratified Monte-Carlo /
  spectrum evaluation.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.checkpoint import (
    CheckpointMismatchError,
    DesignCheckpoint,
    config_digest,
)
from repro.core.objective import (
    WORST_SOFTMAX_TAU,
    aggregate_losses,
    build_loss,
    parse_aggregate,
)
from repro.core.sampling import (
    ScenarioFamilySampling,
    make_sampling_strategy,
    scenario_family,
)
from repro.devices import WavelengthDemux, make_device
from repro.eval.montecarlo import evaluate_post_fab
from repro.eval.spectrum import wavelength_sweep
from repro.fab.corners import CornerSet, VariationCorner
from repro.fab.process import FabricationProcess
from repro.fab.temperature import alpha_of_temperature
from repro.fdfd.workspace import SimulationWorkspace
from repro.params import rasterize_segments

pytestmark = pytest.mark.scenario

LAMBDAS = (1.53, 1.57)
TEMPS = (290.0, 310.0)


def _t(value: float) -> Tensor:
    return Tensor(np.asarray(float(value)))


def _device_with_backend(name, backend):
    device = make_device(name)
    device.configure_simulation_cache(
        True, SimulationWorkspace(solver_config=backend)
    )
    return device


def _pattern(device):
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


# --------------------------------------------------------------------- #
# Validation                                                            #
# --------------------------------------------------------------------- #
class TestValidation:
    def test_negative_temperature_names_corner(self):
        with pytest.raises(ValueError, match="'t_min'.*temperature_k"):
            VariationCorner("t_min", temperature_k=-5.0)

    def test_nonpositive_wavelength_names_corner(self):
        with pytest.raises(ValueError, match="'blue'.*wavelength_um"):
            VariationCorner("blue", wavelength_um=0.0)

    def test_nonfinite_axes_refused(self):
        with pytest.raises(ValueError, match="finite"):
            VariationCorner("hot", temperature_k=float("inf"))
        with pytest.raises(ValueError, match="finite"):
            VariationCorner("nan", wavelength_um=float("nan"))

    def test_corner_set_revalidates_mutated_corner(self):
        corner = VariationCorner("ok", temperature_k=300.0)
        corner.temperature_k = -1.0  # mutated after construction
        with pytest.raises(ValueError, match="'ok'.*temperature_k"):
            CornerSet([corner])

    def test_config_axis_validation(self):
        with pytest.raises(ValueError, match="wavelengths_um"):
            OptimizerConfig(wavelengths_um=(1.5, -1.0))
        with pytest.raises(ValueError, match="temperatures_k"):
            OptimizerConfig(temperatures_k=(0.0,))
        cfg = OptimizerConfig(wavelengths_um=(), temperatures_k=None)
        assert cfg.wavelengths_um is None

    def test_config_aggregate_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(aggregate="median")
        with pytest.raises(ValueError):
            OptimizerConfig(aggregate="cvar:1.5")
        assert OptimizerConfig(aggregate="cvar:0.5").aggregate == "cvar:0.5"

    def test_parse_aggregate(self):
        assert parse_aggregate("mean") == ("mean", None)
        assert parse_aggregate("worst") == ("worst", None)
        assert parse_aggregate("cvar:0.25") == ("cvar", 0.25)
        with pytest.raises(ValueError):
            parse_aggregate("cvar:0")
        with pytest.raises(ValueError):
            parse_aggregate("cvar")


# --------------------------------------------------------------------- #
# scenario_family cross product                                         #
# --------------------------------------------------------------------- #
class TestScenarioFamily:
    CORNERS = [
        VariationCorner("nominal", weight=2.0),
        VariationCorner("t_max", temperature_k=330.0, weight=0.5),
    ]

    def test_cross_product_shape_and_order(self):
        fam = scenario_family(self.CORNERS, LAMBDAS, TEMPS)
        assert len(fam) == 2 * 2 * 2
        # Wavelength is the outer axis: the first half shares lambda1.
        assert all(c.wavelength_um == LAMBDAS[0] for c in fam[:4])
        assert all(c.wavelength_um == LAMBDAS[1] for c in fam[4:])
        # Fab corner is the inner axis.
        assert fam[0].name.startswith("nominal@")
        assert fam[1].name.startswith("t_max@")
        assert "lam=1.53um" in fam[0].name and "T=290K" in fam[0].name

    def test_temperature_composes_as_offset(self):
        fam = scenario_family(self.CORNERS, None, (320.0,))
        assert fam[0].temperature_k == pytest.approx(320.0)
        assert fam[1].temperature_k == pytest.approx(350.0)  # 330 + 20

    def test_weights_inherit_fab_corner(self):
        fam = scenario_family(self.CORNERS, LAMBDAS, None)
        assert [c.weight for c in fam] == [2.0, 0.5, 2.0, 0.5]

    def test_identity_without_axes(self):
        fam = scenario_family(self.CORNERS, None, None)
        assert fam[0] is self.CORNERS[0] and fam[1] is self.CORNERS[1]
        fam = scenario_family(self.CORNERS, (), ())
        assert fam[0] is self.CORNERS[0]

    def test_single_axis_names_have_no_stray_separator(self):
        fam = scenario_family(self.CORNERS, None, (310.0,))
        assert fam[0].name == "nominal@T=310K"

    def test_sampling_wrapper(self):
        base = make_sampling_strategy("axial")
        wrapped = ScenarioFamilySampling(base, LAMBDAS, TEMPS)
        rng = np.random.default_rng(0)
        n_base = len(base.corners(0, rng))
        fam = wrapped.corners(0, rng)
        assert len(fam) == n_base * 4
        assert wrapped.name == f"scenario({base.name})"
        assert not wrapped.wants_worst_finder

    def test_wrapper_delegates_worst_finder(self):
        base = make_sampling_strategy("axial+worst")
        wrapped = ScenarioFamilySampling(base, LAMBDAS, None)
        assert wrapped.wants_worst_finder


# --------------------------------------------------------------------- #
# Aggregation modes                                                     #
# --------------------------------------------------------------------- #
class TestAggregation:
    VALUES = [0.1, 0.7, 0.3, 0.5]
    WEIGHTS = [1.0, 2.0, 1.0, 0.5]

    def _losses(self, values=None):
        return [_t(v) for v in (values or self.VALUES)]

    def test_mean_replays_weighted_fold_bitwise(self):
        got = aggregate_losses(self._losses(), self.WEIGHTS, "mean").item()
        total = None
        total_weight = 0.0
        for v, w in zip(self.VALUES, self.WEIGHTS):
            weighted = _t(v) * w
            total = weighted if total is None else total + weighted
            total_weight += float(w)
        assert got == (total * (1.0 / total_weight)).item()

    def test_worst_upper_bounds_mean_and_tracks_max(self):
        mean = aggregate_losses(self._losses(), self.WEIGHTS, "mean").item()
        worst = aggregate_losses(self._losses(), self.WEIGHTS, "worst").item()
        assert worst > mean
        assert worst <= max(self.VALUES) + 1e-12
        # A tighter temperature collapses onto the hard max.
        sharp = aggregate_losses(
            self._losses(), self.WEIGHTS, "worst", tau=1e-4
        ).item()
        assert sharp == pytest.approx(max(self.VALUES), abs=1e-9)
        assert WORST_SOFTMAX_TAU > 1e-4

    def test_cvar_full_tail_is_mean(self):
        mean = aggregate_losses(self._losses(), self.WEIGHTS, "mean").item()
        cvar = aggregate_losses(
            self._losses(), self.WEIGHTS, "cvar", alpha=1.0
        ).item()
        assert cvar == pytest.approx(mean, rel=1e-12)

    def test_cvar_half_tail_by_hand(self):
        # Unit weights, alpha=0.5 over 4 items: tail mass 2.0 -> the two
        # largest losses, equally weighted.
        got = aggregate_losses(
            self._losses(), [1.0] * 4, "cvar", alpha=0.5
        ).item()
        assert got == pytest.approx((0.7 + 0.5) / 2.0)

    def test_cvar_fractional_tail(self):
        # alpha=0.375 over unit weights: tail mass 1.5 -> full worst
        # loss plus half of the runner-up.
        got = aggregate_losses(
            self._losses(), [1.0] * 4, "cvar", alpha=0.375
        ).item()
        assert got == pytest.approx((0.7 + 0.5 * 0.5) / 1.5)

    @pytest.mark.parametrize("mode,alpha", [
        ("mean", None), ("worst", None), ("cvar", 0.5),
    ])
    def test_permutation_invariance(self, mode, alpha):
        base = aggregate_losses(
            self._losses(), self.WEIGHTS, mode, alpha
        ).item()
        perm = [2, 0, 3, 1]
        shuffled = aggregate_losses(
            [_t(self.VALUES[i]) for i in perm],
            [self.WEIGHTS[i] for i in perm],
            mode,
            alpha,
        ).item()
        assert shuffled == pytest.approx(base, rel=1e-12)


# --------------------------------------------------------------------- #
# Engine: krylov vs. direct + aggregation gradients                     #
# --------------------------------------------------------------------- #
def _engine_grad(device, cfg):
    """Gradient of the iteration-0 scenario loss at the initial theta."""
    opt = Boson1Optimizer(device, cfg)
    try:
        theta = opt._initial_theta()
        leaf = Tensor(theta.copy(), requires_grad=True)
        total, _, n_corners = opt.loss(leaf, 0)
        total.backward()
        return leaf.grad.copy(), float(total.item()), n_corners, theta
    finally:
        opt.close()


def _scenario_cfg(**kw):
    base = dict(
        iterations=2,
        seed=0,
        sampling="axial",
        relax_epochs=0,
        wavelengths_um=LAMBDAS,
        temperatures_k=TEMPS,
    )
    base.update(kw)
    return OptimizerConfig(**base)


class TestEngineScenarioRuns:
    @pytest.mark.krylov
    def test_blocked_gradient_matches_scalar_path(self):
        grads = {}
        for backend in ("direct", "krylov"):
            device = _device_with_backend("bending", backend)
            cfg = _scenario_cfg(aggregate="worst", solver=backend)
            grads[backend], *_ = _engine_grad(device, cfg)
        np.testing.assert_allclose(
            grads["krylov"], grads["direct"], rtol=1e-5, atol=1e-7
        )

    @pytest.mark.parametrize("device_name", ["bending", "crossing"])
    @pytest.mark.parametrize("aggregate", ["worst", "cvar:0.5"])
    def test_fd_gradient_through_solver_and_aggregation(
        self, device_name, aggregate
    ):
        """Central differences through solver adjoints + aggregation.

        ``worst`` keeps its soft-max weights on the tape, ``cvar`` pins
        detached tail weights (the exact Rockafellar subgradient away
        from sort ties) — both must match FD on the pattern.  The fab
        chain is bypassed here: its STE binarization is piecewise
        constant forward, which makes FD through the full engine tape
        structurally zero (the fab surrogate has its own FD suite).
        """
        device = make_device(device_name)
        mode, alpha_agg = parse_aggregate(aggregate)
        corners = scenario_family(
            [
                VariationCorner("nominal"),
                VariationCorner("t_max", temperature_k=330.0, weight=0.5),
            ],
            LAMBDAS,
        )
        pattern = _pattern(device)

        def scenario_loss(rho_t):
            losses, weights = [], []
            for corner in corners:
                dev = device.for_corner(corner)
                alpha = alpha_of_temperature(corner.temperature_k)
                powers = dev.port_powers_all(rho_t * alpha, alpha)
                losses.append(
                    build_loss(dev.objective_terms(), powers, True)
                )
                weights.append(corner.weight)
            return aggregate_losses(losses, weights, mode, alpha_agg)

        leaf = Tensor(pattern.copy(), requires_grad=True)
        scenario_loss(leaf).backward()
        grad = leaf.grad
        assert grad is not None

        eps = 1e-4
        for cell in [(16, 20), (10, 12)]:
            pert = pattern.copy()
            pert[cell] += eps
            f_plus = scenario_loss(Tensor(pert)).item()
            pert[cell] -= 2 * eps
            f_minus = scenario_loss(Tensor(pert)).item()
            fd = (f_plus - f_minus) / (2 * eps)
            assert grad[cell] == pytest.approx(fd, rel=5e-2, abs=1e-9), (
                f"{device_name} cell {cell} under {aggregate}"
            )

    def test_center_pinned_run_bitwise_matches_axis_free(self):
        """Pinning the centre wavelength as an explicit one-point axis
        must not perturb the LU-backed trajectory at all."""
        results = {}
        for axes in (None, (1.55,)):
            device = make_device("bending")
            cfg = _scenario_cfg(
                wavelengths_um=axes, temperatures_k=None, aggregate="mean"
            )
            opt = Boson1Optimizer(device, cfg)
            results[axes] = opt.run()
            opt.close()
        np.testing.assert_array_equal(
            results[None].loss_trace(), results[(1.55,)].loss_trace()
        )
        np.testing.assert_array_equal(
            results[None].pattern, results[(1.55,)].pattern
        )


# --------------------------------------------------------------------- #
# Checkpoint digest refusal                                             #
# --------------------------------------------------------------------- #
class TestCheckpointDigest:
    def test_scenario_fields_bind_into_digest(self):
        base = config_digest(OptimizerConfig(), "bending")
        for override in (
            dict(wavelengths_um=(1.53, 1.57)),
            dict(temperatures_k=(290.0, 310.0)),
            dict(aggregate="worst"),
            dict(aggregate="cvar:0.5"),
        ):
            assert config_digest(
                OptimizerConfig(**override), "bending"
            ) != base, f"{override} must invalidate old checkpoints"

    def test_pre_refactor_checkpoint_refused(self):
        old_cfg = OptimizerConfig(iterations=4)
        ckpt = DesignCheckpoint(
            config_digest=config_digest(old_cfg, "bending"),
            device_name="bending",
            next_iteration=2,
            theta=np.arange(6.0),
            adam_state={"t": 2, "lr": 0.1},
            rng_state={"bit_generator": "PCG64", "state": 7},
        )
        ckpt.verify_against(old_cfg, "bending")  # same config: accepted
        new_cfg = old_cfg.with_overrides(
            wavelengths_um=LAMBDAS, aggregate="worst"
        )
        with pytest.raises(CheckpointMismatchError, match="config digest"):
            ckpt.verify_against(new_cfg, "bending")


# --------------------------------------------------------------------- #
# Wavelength demux device                                               #
# --------------------------------------------------------------------- #
class TestDemux:
    @pytest.fixture(scope="class")
    def demux(self):
        return make_device("demux")

    def test_registry_and_geometry(self, demux):
        assert isinstance(demux, WavelengthDemux)
        assert demux.wavelength_um == pytest.approx(1.55)
        assert set(demux.port_names("fwd")) >= {"drop1", "drop2", "refl"}

    def test_validation(self):
        with pytest.raises(ValueError):
            WavelengthDemux(lambda1_um=1.5, lambda2_um=1.5)
        with pytest.raises(ValueError):
            WavelengthDemux(drop_offset_um=5.0)

    def test_target_port_tracks_wavelength(self, demux):
        assert demux.at_wavelength(1.50).target_port() == "drop1"
        assert demux.at_wavelength(1.60).target_port() == "drop2"

    def test_clone_objectives_differ_per_channel(self, demux):
        t1 = demux.at_wavelength(1.50).objective_terms()
        t2 = demux.at_wavelength(1.60).objective_terms()
        assert t1["main"]["port"] == "drop1"
        assert t2["main"]["port"] == "drop2"

    def test_scenario_optimization_runs(self, demux):
        cfg = OptimizerConfig(
            iterations=2,
            seed=0,
            sampling="nominal",
            relax_epochs=0,
            wavelengths_um=(demux.lambda1_um, demux.lambda2_um),
            aggregate="worst",
        )
        opt = Boson1Optimizer(demux, cfg)
        result = opt.run()
        opt.close()
        assert result.history[0].n_corners == 2
        assert np.all(np.isfinite(result.loss_trace()))


# --------------------------------------------------------------------- #
# Stratified Monte-Carlo and spectrum sweeps                            #
# --------------------------------------------------------------------- #
class TestStratifiedEval:
    N_SAMPLES = 3

    def _report(self, backend):
        device = _device_with_backend("bending", backend)
        process = FabricationProcess(
            device.design_shape,
            device.dl,
            context=device.litho_context(12),
            pad=12,
        )
        return evaluate_post_fab(
            device,
            process,
            _pattern(device),
            n_samples=self.N_SAMPLES,
            seed=7,
            wavelengths_um=LAMBDAS,
        )

    def test_strata_share_fabrication_draws(self):
        report = self._report("direct")
        assert report.n_samples == self.N_SAMPLES * 2
        strata = report.stratified_foms()
        assert list(strata) == list(LAMBDAS)
        assert all(v.size == self.N_SAMPLES for v in strata.values())
        # Paired draws: stratum k's corners are the same fab draws.
        by_lam = {
            lam: [c for c in report.corners if c.wavelength_um == lam]
            for lam in LAMBDAS
        }
        base_names = [
            c.name.split("@")[0] for c in by_lam[LAMBDAS[0]]
        ]
        assert base_names == [
            c.name.split("@")[0] for c in by_lam[LAMBDAS[1]]
        ]
        y = report.stratified_yield(report.mean_fom)
        assert set(y) == set(LAMBDAS)
        assert all(0.0 <= v <= 1.0 for v in y.values())

    @pytest.mark.krylov
    def test_blocked_stratified_matches_direct(self):
        direct = self._report("direct")
        krylov = self._report("krylov")
        np.testing.assert_allclose(
            krylov.foms, direct.foms, rtol=1e-4, atol=1e-8
        )

    def test_spectrum_sweep_direct_stays_scalar_bitwise(self):
        device = make_device("bending")
        pattern = _pattern(device)
        result = wavelength_sweep(device, pattern, LAMBDAS)
        for lam, powers in zip(LAMBDAS, result.powers):
            clone = device.at_wavelength(lam)
            expected = clone.port_powers_array_all(pattern, 1.0)
            assert powers == expected  # bitwise: dict of exact floats

    @pytest.mark.krylov
    def test_spectrum_sweep_blocked_matches_direct(self):
        pattern = None
        foms = {}
        for backend in ("direct", "krylov"):
            device = _device_with_backend("bending", backend)
            if pattern is None:
                pattern = _pattern(device)
            foms[backend] = wavelength_sweep(device, pattern, LAMBDAS).foms
        np.testing.assert_allclose(
            foms["krylov"], foms["direct"], rtol=1e-4, atol=1e-8
        )

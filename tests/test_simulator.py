import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tweezer_forge import configs, kernels
from tweezer_forge import geometry as geo
from tweezer_forge import physics as phy
from tweezer_forge import simulator as sim


def small_config(seed=0, loss=None, **kwargs):
    layout = geo.generate_preset(
        "bilayer_square_offset", n=(4, 4), spacing=4.0, dz=5.0, reservoir=True
    )
    return sim.make_config(
        layout,
        epsilon_z=1.0,
        loss=loss if loss is not None else phy.default_loss_model(),
        safety=sim.SafetyParams(z_safe_um=17.0, r_safe_um=2.0),
        seed=seed,
        **kwargs,
    )


class TestInitialLoad:
    def test_p_one(self):
        lay = geo.generate_preset("cubic", n=(3, 3, 1), spacing=(10, 10, 17))
        occ = sim.simulate_initial_load(lay, 1.0, sim.shot_rng(0, 0))
        assert occ.all()

    def test_p_zero(self):
        lay = geo.generate_preset("cubic", n=(3, 3, 1), spacing=(10, 10, 17))
        occ = sim.simulate_initial_load(lay, 0.0, sim.shot_rng(0, 0))
        assert not occ.any()

    def test_binomial_statistics(self):
        lay = geo.generate_preset("cubic", n=(5, 5, 5), spacing=(10, 10, 17))
        rng = sim.shot_rng(123, 0)
        counts = [sim.simulate_initial_load(lay, 0.5, rng).sum() for _ in range(10_000)]
        # binomial mean 62.5, 3 sigma of the mean estimate over 1e4 draws
        se = math.sqrt(125 * 0.25 / 10_000)
        assert abs(np.mean(counts) - 62.5) < max(3 * se, 0.2)

    def test_invalid_p(self):
        lay = geo.generate_preset("cubic", n=(3, 3, 1), spacing=(10, 10, 17))
        with pytest.raises(ValueError):
            sim.simulate_initial_load(lay, 1.5, sim.shot_rng(0, 0))


    def test_stochastic_average_reveals_geometry(self):
        # mean amplitude at each site approaches p_load * peak over many frames
        lay = geo.generate_preset("cubic", n=(3, 3, 1), spacing=(10, 10, 17))
        camera = sim.CameraModel()
        rng = np.random.default_rng(6)
        frames = [
            sim.synthesize_fluorescence_stack(
                sim.simulate_initial_load(lay, 0.5, rng), lay, camera, [0.0]
            )[0].pixels
            for _ in range(300)
        ]
        mean_img = np.mean(frames, axis=0)
        x0, y0, w, h = sim.camera_grid(lay, camera)
        for trap in lay.traps:
            px = int(round((trap.position.x - x0) / camera.pixel_scale_um))
            py = int(round((trap.position.y - y0) / camera.pixel_scale_um))
            amp = mean_img[py, px] - camera.background_counts
            assert amp == pytest.approx(0.5 * camera.peak_counts, rel=0.25)


class TestRunShot:
    def test_lossless_fill_is_one(self):
        cfg = small_config(seed=1, loss=phy.lossless_model())
        for k in range(20):
            shot = sim.run_shot(cfg, k)
            assert shot.triggered
            assert shot.fill_fraction == 1.0 and shot.success

    def test_durations_sum(self):
        cfg = small_config(seed=2)
        shot = sim.run_shot(cfg, 0)
        assert shot.duration_ms == pytest.approx(
            shot.loading_ms + shot.imaging_ms + shot.sorting_ms
        )
        n_p = cfg.decomposition.n_planes
        assert shot.imaging_ms == pytest.approx(2 * n_p * cfg.timing.image_per_plane_ms)
        expected_sort = sum(
            cfg.timing.sort_per_plane_ms + cfg.timing.per_move_ms * m
            for m in shot.per_plane_moves
        )
        assert shot.sorting_ms == pytest.approx(expected_sort)

    def test_reproducible(self):
        cfg = small_config(seed=3)
        a = sim.run_shot(cfg, 7)
        b = sim.run_shot(cfg, 7)
        np.testing.assert_array_equal(a.final_occupancy, b.final_occupancy)
        assert a.fill_fraction == b.fill_fraction
        assert a.duration_ms == b.duration_ms

    def test_trigger_timeout(self):
        lay = geo.generate_preset("cubic", n=(3, 3, 1), spacing=(10, 10, 17), reservoir=True)
        cfg = sim.make_config(lay, p_load=0.01, trigger_timeout_s=0.5, seed=4)
        shot = sim.run_shot(cfg, 0)
        assert not shot.triggered and not shot.success
        assert shot.loading_ms == pytest.approx(500.0)
        assert shot.sorting_ms == 0.0

    def test_safety_gate(self):
        lay = geo.TrapLayout(
            (geo.TrapSite(geo.Vec3(0, 0, 0)), geo.TrapSite(geo.Vec3(0, 0, 10)))
        )
        with pytest.raises(ValueError, match="safety"):
            sim.make_config(lay) and sim.run_shot(sim.make_config(lay), 0)


class TestRunExperiment:
    def test_single_shot_statistics(self):
        cfg = small_config(seed=5)
        shot = sim.run_shot(cfg, 0)
        stats = sim.run_experiment(cfg, 1)
        assert stats.shots == 1
        assert stats.mean_fill == pytest.approx(shot.fill_fraction)
        assert stats.std_fill == 0.0
        assert stats.mean_cycle_ms == pytest.approx(shot.duration_ms)
        assert stats.rep_rate_hz == pytest.approx(1000.0 / shot.duration_ms)

    def test_lossless_defect_free(self):
        cfg = small_config(seed=6, loss=phy.lossless_model())
        stats = sim.run_experiment(cfg, 50)
        assert stats.defect_free_prob == 1.0

    def test_deterministic(self):
        a = sim.run_experiment(small_config(seed=7), 40)
        b = sim.run_experiment(small_config(seed=7), 40)
        assert a == b

    def test_fill_monotone_in_lifetime(self):
        fills = []
        for tau in (0.5, 2.0, 10.0):
            cfg = small_config(
                seed=8, loss=phy.LossModel(lifetime_tau_s=tau, crosstalk=None)
            )
            fills.append(sim.run_experiment(cfg, 400).mean_fill)
        assert fills[0] < fills[1] < fills[2]

    def test_fill_monotone_in_eta(self):
        fills = []
        for eta in (0.8, 0.95, 1.0):
            cfg = small_config(
                seed=9, loss=phy.LossModel(move_fidelity_eta=eta, crosstalk=None)
            )
            fills.append(sim.run_experiment(cfg, 400).mean_fill)
        assert fills[0] < fills[1] < fills[2]

    def test_more_planes_lower_fill(self):
        four = sim.run_experiment(configs.four_plane_config(seed=10), 300)
        one = sim.run_experiment(configs.one_plane_config(seed=10), 300)
        assert four.mean_fill < one.mean_fill


class TestAnalyticEstimate:
    def test_formula_example(self):
        # eta^m * exp(-t/tau) with m = 0.5, t = 0.5 s, tau = 10 s
        assert 0.993**0.5 * math.exp(-0.05) == pytest.approx(0.948, abs=5e-4)

    def test_lossless_is_one(self):
        cfg = small_config(seed=11, loss=phy.lossless_model())
        assert sim.analytic_fill_estimate(cfg) == pytest.approx(1.0)

    def test_requires_crosstalk_disabled(self):
        cfg = small_config(seed=12)
        with pytest.raises(ValueError):
            sim.analytic_fill_estimate(cfg)

    def test_matches_monte_carlo(self):
        cfg = small_config(seed=13, loss=phy.LossModel(crosstalk=None))
        estimate = sim.analytic_fill_estimate(cfg)
        stats = sim.run_experiment(cfg, 2000)
        n_targets = cfg.layout.n_targets
        se = stats.std_fill / math.sqrt(stats.triggered)
        assert abs(stats.mean_fill - estimate) < max(3 * se, 3e-3)

    @staticmethod
    def scipy_fill_estimate(cfg):
        """The estimate with the trigger-conditioned prefill taken from
        ``scipy.stats.binom``."""
        from scipy.stats import binom

        timing, n_p = cfg.timing, cfg.decomposition.n_planes
        planes = []  # (plane number, targets, prefill, expected moves)
        for p, plane in enumerate(cfg.decomposition.planes):
            n = len(plane.indices)
            t = sum(cfg.layout.traps[i].is_target for i in plane.indices)
            if t == 0:
                continue
            ks = np.arange(t, n + 1)
            tail = binom.pmf(ks, n, cfg.p_load)
            mean_k = float((ks * tail).sum() / tail.sum())
            planes.append((p, t, mean_k / n, t * (1.0 - mean_k / n) + mean_k - t))
        sort_ms = sum(timing.sort_per_plane_ms + timing.per_move_ms * m for *_, m in planes)
        total = 0.0
        for p, t, prefill, _ in planes:
            held_ms = (n_p + p + 1) * timing.image_per_plane_ms + sort_ms
            total += t * cfg.loss.move_fidelity_eta ** (1.0 - prefill) * math.exp(
                -held_ms / (cfg.loss.lifetime_tau_s * 1000.0))
        return total / sum(t for _, t, *_ in planes)

    @pytest.mark.parametrize("p_load", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("make", [configs.bilayer72_config, configs.four_plane_config,
                                      configs.one_plane_config])
    def test_matches_scipy_binomial_reference(self, make, p_load):
        cfg = dataclasses.replace(make(loss=phy.LossModel(crosstalk=None)), p_load=p_load)
        assert sim.analytic_fill_estimate(cfg) == pytest.approx(
            self.scipy_fill_estimate(cfg), rel=0, abs=1e-12)

    def test_package_import_leaves_out_scipy_stats(self):
        src = Path(sim.__file__).resolve().parents[1]
        code = "import sys, tweezer_forge; sys.exit('scipy.stats' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=120)
        assert done.returncode == 0

    def test_package_import_leaves_out_scipy_optimize(self):
        src = Path(sim.__file__).resolve().parents[1]
        code = "import sys, tweezer_forge; sys.exit('scipy.optimize' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=120)
        assert done.returncode == 0

    def test_package_import_leaves_out_scipy_linalg(self):
        src = Path(sim.__file__).resolve().parents[1]
        code = "import sys, tweezer_forge; sys.exit('scipy.linalg' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=120)
        assert done.returncode == 0


class TestImaging:
    @pytest.fixture
    def camera(self):
        return sim.CameraModel()

    def test_empty_occupancy_background_only(self, camera):
        lay = geo.generate_preset("cubic", n=(3, 3, 1), spacing=(10, 10, 17))
        stack = sim.synthesize_fluorescence_stack(
            np.zeros(9, dtype=bool), lay, camera, [0.0]
        )
        assert len(stack) == 1
        np.testing.assert_allclose(stack[0].pixels, camera.background_counts)

    def test_in_focus_spot(self, camera):
        lay = geo.TrapLayout((geo.TrapSite(geo.Vec3(0, 0, 0)),))
        img = sim.synthesize_fluorescence_stack([True], lay, camera, [0.0])[0]
        peak = img.pixels.max()
        assert peak == pytest.approx(camera.background_counts + camera.peak_counts, rel=1e-6)

    def test_defocused_spot_wider_and_dimmer(self, camera):
        lay = geo.TrapLayout((geo.TrapSite(geo.Vec3(0, 0, 0)),))
        focus = sim.synthesize_fluorescence_stack([True], lay, camera, [0.0])[0]
        blur = sim.synthesize_fluorescence_stack([True], lay, camera, [10.0])[0]
        assert blur.pixels.max() < focus.pixels.max()
        # same total signal spreads over more pixels
        sig_f = (focus.pixels - camera.background_counts)
        sig_b = (blur.pixels - camera.background_counts)
        assert (sig_b > 1.0).sum() > (sig_f > 1.0).sum()

    def test_detect_round_trip_noise_free(self, camera):
        rng = np.random.default_rng(3)
        lay = geo.generate_preset("cubic", n=(3, 3, 2), spacing=(10, 10, 17))
        dec = geo.decompose_planes(lay, 1.0)
        for _ in range(25):
            occ = rng.random(len(lay)) < 0.5
            stack = sim.synthesize_fluorescence_stack(
                occ, lay, camera, sim.plane_stack_z(dec)
            )
            got = sim.detect_occupancy(stack, lay, dec, camera)
            np.testing.assert_array_equal(got, occ)

    def test_detect_round_trip_on_a_bright_background(self):
        # the background is subtracted, not fitted: 150 counts a pixel would
        # otherwise read as several atoms per trap
        camera = sim.CameraModel(background_counts=150.0)
        lay = geo.generate_preset("cubic", n=(3, 3, 2), spacing=(10, 10, 17))
        dec = geo.decompose_planes(lay, 1.0)
        occ = np.random.default_rng(4).random(len(lay)) < 0.5
        stack = sim.synthesize_fluorescence_stack(occ, lay, camera, sim.plane_stack_z(dec))
        np.testing.assert_array_equal(sim.detect_occupancy(stack, lay, dec, camera), occ)

    def test_detect_all_empty(self, camera):
        lay = geo.generate_preset("cubic", n=(3, 3, 1), spacing=(10, 10, 17))
        dec = geo.decompose_planes(lay, 1.0)
        stack = sim.synthesize_fluorescence_stack(
            np.zeros(9, dtype=bool), lay, camera, sim.plane_stack_z(dec)
        )
        assert not sim.detect_occupancy(stack, lay, dec, camera).any()

    def test_detect_with_poisson_noise(self, camera):
        noisy = sim.CameraModel(noise="poisson")
        lay = geo.generate_preset("cubic", n=(4, 4, 1), spacing=(8, 8, 17))
        dec = geo.decompose_planes(lay, 1.0)
        rng = np.random.default_rng(17)
        errors = trials = 0
        for _ in range(40):
            occ = rng.random(len(lay)) < 0.5
            stack = sim.synthesize_fluorescence_stack(
                occ, lay, noisy, sim.plane_stack_z(dec), rng=rng
            )
            got = sim.detect_occupancy(stack, lay, dec, noisy)
            errors += int((got != occ).sum())
            trials += len(lay)
        assert errors / trials < 1e-3

    def test_ambiguous_calibration(self):
        lay = geo.generate_preset("cubic", n=(3, 3, 1), spacing=(10, 10, 17))
        dec = geo.decompose_planes(lay, 1.0)
        camera = sim.CameraModel(peak_counts=5.0, background_counts=10.0)
        stack = sim.synthesize_fluorescence_stack(
            np.zeros(9, dtype=bool), lay, camera, sim.plane_stack_z(dec)
        )
        with pytest.raises(ValueError, match="ambiguous"):
            sim.detect_occupancy(stack, lay, dec, camera)

    def test_poisson_requires_rng(self):
        lay = geo.TrapLayout((geo.TrapSite(geo.Vec3(0, 0, 0)),))
        with pytest.raises(ValueError, match="rng"):
            sim.synthesize_fluorescence_stack(
                [True], lay, sim.CameraModel(noise="poisson"), [0.0]
            )

    def test_detect_rejects_image_off_the_camera_grid(self, camera):
        lay = geo.generate_preset("cubic", n=(3, 3, 2), spacing=(10, 10, 17))
        dec = geo.decompose_planes(lay, 1.0)
        _, _, width, height = sim.camera_grid(lay, camera)
        stack = sim.synthesize_fluorescence_stack(
            np.ones(len(lay), dtype=bool), lay, camera, sim.plane_stack_z(dec)
        )
        stack[1] = sim.Image2D(stack[1].pixels[:, :-1])
        with pytest.raises(ValueError, match=rf"\(height, width\) = \({height}, {width}\)"):
            sim.detect_occupancy(stack, lay, dec, camera)

    def test_fit_model_built_once_per_layout_camera_and_z_list(self, camera):
        lay = geo.generate_preset("cubic", n=(3, 3, 2), spacing=(10, 10, 17))
        dec = geo.decompose_planes(lay, 1.0)
        stack = sim.synthesize_fluorescence_stack(
            np.ones(len(lay), dtype=bool), lay, camera, sim.plane_stack_z(dec)
        )
        sim._fit_model.cache_clear()
        for _ in range(50):
            sim.detect_occupancy(stack, lay, dec, camera)
        info = sim._fit_model.cache_info()
        assert (info.misses, info.hits) == (1, 49)

    @pytest.mark.parametrize("make", [configs.bilayer72_config, configs.four_plane_config,
                                      configs.one_plane_config])
    def test_stack_equals_render_spots_reference(self, make):
        cfg = make()
        n = len(cfg.layout)
        z = sim.plane_stack_z(cfg.decomposition)
        grid = sim.camera_grid(cfg.layout, cfg.camera)
        rng = np.random.default_rng(22)
        occs = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        occs += [rng.random(n) < 0.5 for _ in range(5)]
        for occ in occs:
            got = sim.synthesize_fluorescence_stack(occ, cfg.layout, cfg.camera, z)
            want = _render_on_grid(occ, cfg.layout.positions(), cfg.camera, grid, z)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_render_and_detect_build_the_spot_model_once(self, camera):
        lay = geo.generate_preset("cubic", n=(3, 3, 2), spacing=(10, 10, 17))
        dec = geo.decompose_planes(lay, 1.0)
        z = sim.plane_stack_z(dec)
        occ = np.random.default_rng(6).random(len(lay)) < 0.5
        sim._spot_model.cache_clear()
        sim._fit_model.cache_clear()
        for _ in range(50):
            stack = sim.synthesize_fluorescence_stack(occ, lay, camera, z)
            np.testing.assert_array_equal(sim.detect_occupancy(stack, lay, dec, camera), occ)
        assert sim._spot_model.cache_info().misses == 1
        assert sim._fit_model.cache_info().misses == 1

    def test_layout_with_a_singular_fit_still_renders(self, camera):
        # the traps at z = +5 and -5 have the same spot in the one image at
        # z = 0, so the fit has no inverse but the stack is well defined
        lay = geo.TrapLayout(tuple(geo.TrapSite(geo.Vec3(*p))
                                   for p in [(0, 0, 5), (0, 0, -5), (6, 0, 0)]))
        stack = sim.synthesize_fluorescence_stack([True, True, True], lay, camera, [0.0])
        x0, y0, _, _ = sim.camera_grid(lay, camera)
        pair = 2 * camera.peak_counts / (1 + (5 / camera.defocus_rayleigh_um) ** 2)
        assert stack[0].pixels[round(-y0), round(-x0)] == pytest.approx(
            camera.background_counts + pair, rel=1e-6)
        with pytest.raises(np.linalg.LinAlgError):
            sim._fit_model(lay, camera, (0.0,))


def _triggered_occupancies(cfg, n, rng):
    ctx = sim._SimContext(cfg)
    for _ in range(n):
        occ = sim.simulate_initial_load(cfg.layout, cfg.p_load, rng)
        while not ctx.triggered(occ):
            occ = sim.simulate_initial_load(cfg.layout, cfg.p_load, rng)
        yield occ


def _render_on_grid(occ, positions, camera, grid, z_list, rng=None):
    """A z-stack of the atoms at ``positions[occ]``, rendered with
    ``camera``'s spot model onto the pixel grid ``grid`` (x0, y0, w, h) by
    ``kernels.render_spots``; Poisson when an ``rng`` is given."""
    x0, y0, width, height = grid
    scale = camera.pixel_scale_um
    pos = positions[occ]
    stack = []
    for z in z_list:
        defocus = 1.0 + ((pos[:, 2] - z) / camera.defocus_rayleigh_um) ** 2
        img = np.full((height, width), float(camera.background_counts))
        kernels.render_spots(
            img, (pos[:, 0] - x0) / scale, (pos[:, 1] - y0) / scale,
            camera.peak_counts / defocus,
            camera.psf_sigma0_um * np.sqrt(defocus) / scale,
        )
        stack.append(sim.Image2D(img if rng is None else rng.poisson(img).astype(float)))
    return stack


# Misreads allowed per trap read on Poisson stacks; none are seen.
MISREAD_RATE_BOUND = 1e-4


class TestDensePlaneDetection:
    """The fit reads dense planes: the bilayer's 4 um lattices with a second
    plane 5 um away, where a local-background detector misread 54 of the
    144 traps of a noise-free, fully loaded stack."""

    def test_bilayer72_noise_free_round_trip(self):
        cfg = configs.bilayer72_config()
        z = sim.plane_stack_z(cfg.decomposition)
        rng = np.random.default_rng(72)
        n = len(cfg.layout)
        for occ in [np.ones(n, dtype=bool)] + [rng.random(n) < 0.5 for _ in range(25)]:
            stack = sim.synthesize_fluorescence_stack(occ, cfg.layout, cfg.camera, z)
            got = sim.detect_occupancy(stack, cfg.layout, cfg.decomposition, cfg.camera)
            np.testing.assert_array_equal(got, occ)

    @pytest.mark.parametrize("make", [configs.bilayer72_config, configs.four_plane_config])
    def test_poisson_misread_bound(self, make):
        cfg = make()
        camera = dataclasses.replace(cfg.camera, noise="poisson")
        z = sim.plane_stack_z(cfg.decomposition)
        rng = np.random.default_rng(12345)
        misread = reads = 0
        for occ in _triggered_occupancies(cfg, 200, rng):
            stack = sim.synthesize_fluorescence_stack(occ, cfg.layout, camera, z, rng=rng)
            got = sim.detect_occupancy(stack, cfg.layout, cfg.decomposition, camera)
            misread += int((got != occ).sum())
            reads += occ.size
        assert misread <= MISREAD_RATE_BOUND * reads

    @pytest.mark.parametrize("field, value", [
        ("psf_sigma0_um", 0.9), ("psf_sigma0_um", 1.1),
        ("background_counts", 0.8), ("background_counts", 1.2),
        ("jitter_um", 0.2),
    ], ids=["sigma-10%", "sigma+10%", "background-20%", "background+20%", "jitter-0.2um"])
    def test_read_survives_a_model_mismatch(self, field, value):
        # stacks rendered off the nominal model (a camera field scaled by
        # ``value``, or traps moved by ``value`` um), read with the nominal one
        cfg = configs.bilayer72_config()
        nominal = actual = cfg.camera
        jitter = 0.0
        if field == "jitter_um":
            jitter = value
        else:
            actual = dataclasses.replace(nominal, **{field: value * getattr(nominal, field)})
        grid = sim.camera_grid(cfg.layout, nominal)
        z = sim.plane_stack_z(cfg.decomposition)
        rng = np.random.default_rng(12345)
        misread = reads = 0
        for occ in _triggered_occupancies(cfg, 100, rng):
            positions = cfg.layout.positions()
            angle = rng.uniform(0.0, 2.0 * np.pi, occ.size)
            positions[:, 0] += jitter * np.cos(angle)
            positions[:, 1] += jitter * np.sin(angle)
            stack = _render_on_grid(occ, positions, actual, grid, z, rng)
            got = sim.detect_occupancy(stack, cfg.layout, cfg.decomposition, nominal)
            misread += int((got != occ).sum())
            reads += occ.size
        assert misread <= MISREAD_RATE_BOUND * reads

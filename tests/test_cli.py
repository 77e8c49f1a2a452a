import json
import math

import numpy as np
import pytest

from tweezer_forge import cli, formats
from tweezer_forge import geometry as geo
from tweezer_forge import simulator as sim


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_invalid_input(code, stderr):
    """Exit 2 with one JSON line ``{"error": 2, "detail": ...}`` on stderr."""
    assert code == 2
    assert stderr.endswith("\n") and "\n" not in stderr[:-1]
    err = json.loads(stderr)
    assert err["error"] == 2 and err["detail"]


def write_bilayer_config(tmp_path, layout_name="bilayer.json", **extra):
    code = cli.main([
        "gen-geometry", "--preset", "bilayer_square_offset",
        "--n", "6", "6", "--spacing", "4", "--dz", "5", "--reservoir",
        "-o", str(tmp_path / layout_name),
    ])
    assert code == 0
    doc = {
        "layout_file": layout_name,
        "epsilon_z_um": 1.0,
        "seed": 5,
        "safety": {"z_safe_um": 17.0, "r_safe_um": 2.0},
    }
    doc.update(extra)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    return cfg


class TestGenGeometry:
    def test_cubic_file(self, tmp_path, capsys):
        out = tmp_path / "cubic.json"
        code, stdout, _ = run(
            capsys, "gen-geometry", "--preset", "cubic",
            "--n", "5", "5", "5", "--spacing", "10", "10", "17", "-o", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["traps"] == 125
        assert len(geo.load_layout(out)) == 125

    def test_import_echo(self, tmp_path, capsys):
        src = tmp_path / "src.json"
        cli.main(["gen-geometry", "--preset", "trefoil_knot", "--sites", "20",
                  "--scale", "15", "-o", str(src)])
        capsys.readouterr()
        dst = tmp_path / "dst.json"
        code, _, _ = run(capsys, "gen-geometry", "--import", str(src), "-o", str(dst))
        assert code == 0
        assert src.read_text() == dst.read_text()

    def test_invalid_exits_2_with_json_stderr(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "gen-geometry", "--preset", "cubic",
            "--n", "3", "3", "1", "--spacing", "2", "2", "17",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2
        err = json.loads(stderr.strip())
        assert err["error"] == 2 and "detail" in err
        assert "\n" not in stderr.strip()

    @pytest.mark.parametrize("traps", [
        5, [{"x_um": None, "y_um": 0.0, "z_um": 0.0, "is_target": True}],
    ], ids=["traps_number", "coordinate_null"])
    def test_malformed_layout_exits_2(self, tmp_path, capsys, traps):
        # every subcommand reads its layout through the same loader
        lay_path = tmp_path / "lay.json"
        lay_path.write_text(json.dumps({"name": "bad", "traps": traps}))
        code, _, stderr = run(capsys, "gen-geometry", "--import", str(lay_path),
                              "-o", str(tmp_path / "out.json"))
        assert_invalid_input(code, stderr)
        assert "trap" in json.loads(stderr)["detail"]

    def test_rotate_fix(self, tmp_path, capsys):
        # axially aligned bilayer needs a rotation at dz = 5
        src = tmp_path / "aligned.json"
        geo.save_layout(
            geo.TrapLayout((
                geo.TrapSite(geo.Vec3(0, 0, 0)), geo.TrapSite(geo.Vec3(0, 0, 10)),
            ), name="aligned"),
            src,
        )
        out = tmp_path / "fixed.json"
        code, stdout, _ = run(
            capsys, "gen-geometry", "--import", str(src), "--rotate-fix", "-o", str(out),
        )
        assert code == 0
        info = json.loads(stdout)
        assert info["rotation_deg"] == pytest.approx(17.5)
        fixed = geo.load_layout(out)
        dec = geo.decompose_planes(fixed, 1.0)
        assert geo.validate_mt_safety(fixed, dec, 17.0, 3.0).passed


class TestHologram:
    def test_grid_converges(self, tmp_path, capsys):
        lay = tmp_path / "grid.json"
        cli.main(["gen-geometry", "--preset", "cubic", "--n", "3", "3", "1",
                  "--spacing", "8", "8", "17", "-o", str(lay)])
        mask = tmp_path / "m.pgm"
        report = tmp_path / "r.json"
        code, stdout, _ = run(
            capsys, "hologram", str(lay), "--pixels", "256",
            "--mask", str(mask), "--report", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["converged"] and doc["rms"] < 0.05
        assert len(doc["per_trap"]) == 9
        data, maxval = formats.read_pgm(mask)
        assert maxval == 255 and data.shape == (256, 256)

    def test_forced_non_convergence_exits_1(self, tmp_path, capsys):
        lay = tmp_path / "grid.json"
        cli.main(["gen-geometry", "--preset", "cubic", "--n", "2", "2", "1",
                  "--spacing", "8", "8", "17", "-o", str(lay)])
        capsys.readouterr()
        code, stdout, _ = run(
            capsys, "hologram", str(lay), "--pixels", "128",
            "--iters", "1", "--target-rms", "1e-9",
        )
        assert code == 1
        assert json.loads(stdout)["converged"] is False


class TestRenderMip:
    def test_stack_reversal_identical_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        paths = []
        for k in range(4):
            img = (rng.random((10, 12)) * 60000).astype(np.uint16)
            p = tmp_path / f"s{k}.pgm"
            formats.write_pgm16(p, img)
            paths.append(str(p))
        out_a = tmp_path / "a.pgm"
        out_b = tmp_path / "b.pgm"
        assert cli.main(["render-mip", *paths, "-o", str(out_a)]) == 0
        assert cli.main(["render-mip", *paths[::-1], "-o", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_single_slice_volume_identity(self, tmp_path):
        from tweezer_forge.hologram import IntensityVolume

        rng = np.random.default_rng(1)
        data = rng.random((1, 8, 9))
        data /= data.max()
        vol = IntensityVolume(geo.Vec3(0, 0, 0), (0.5, 0.5, 0.5), data)
        vol_path = tmp_path / "vol.f32"
        formats.write_volume(vol_path, vol)
        out = tmp_path / "mip.pgm"
        assert cli.main(["render-mip", "--volume", str(vol_path), "-o", str(out)]) == 0
        img, maxval = formats.read_pgm(out)
        expected = np.floor(data[0] / data[0].max() * 65535 + 0.5)
        np.testing.assert_array_equal(img, expected.astype(np.uint16))


class TestSimulateLoading:
    def test_deterministic(self, tmp_path):
        lay = tmp_path / "lay.json"
        cli.main(["gen-geometry", "--preset", "cubic", "--n", "4", "4", "1",
                  "--spacing", "8", "8", "17", "-o", str(lay)])
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(["simulate-loading", "--layout", str(lay), "--seed", "9", "-o", str(a)]) == 0
        assert cli.main(["simulate-loading", "--layout", str(lay), "--seed", "9", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert len(doc["occupied"]) == 16


class TestPlanAssembly:
    def test_plan_schema(self, tmp_path, capsys):
        lay_path = tmp_path / "lay.json"
        cli.main(["gen-geometry", "--preset", "bilayer_square_offset", "--n", "4", "4",
                  "--spacing", "4", "--dz", "5", "--reservoir", "-o", str(lay_path)])
        capsys.readouterr()
        layout = geo.load_layout(lay_path)
        dec = geo.decompose_planes(layout, 1.0)
        # choose a seed whose draw satisfies every plane
        occ = None
        for s in range(50):
            rng = sim.shot_rng(s, 0)
            cand = sim.simulate_initial_load(layout, 0.5, rng)
            if all(
                sum(cand[i] for i in pl.indices)
                >= sum(layout.traps[i].is_target for i in pl.indices)
                for pl in dec.planes
            ):
                occ = cand
                break
        occ_path = tmp_path / "occ.json"
        occ_path.write_text(json.dumps({"layout": layout.name,
                                        "occupied": [bool(v) for v in occ]}))
        plan_path = tmp_path / "plan.json"
        code, _, _ = run(capsys, "plan-assembly", "--layout", str(lay_path),
                         "--occupancy", str(occ_path), "-o", str(plan_path))
        assert code == 0
        plan = json.loads(plan_path.read_text())
        assert set(plan) == {"planes"}
        for p in plan["planes"]:
            assert set(p) == {"plane", "mt_z_um", "moves"}
            for m in p["moves"]:
                assert set(m) == {"kind", "from", "to", "exit_um", "path_um"}
                if m["kind"] == "transfer":
                    assert m["to"] is not None and m["exit_um"] is None
                else:
                    assert m["to"] is None and len(m["exit_um"]) == 2
                assert len(m["path_um"]) >= 2

    def test_insufficient_exits_3(self, tmp_path, capsys):
        lay_path = tmp_path / "lay.json"
        cli.main(["gen-geometry", "--preset", "cubic", "--n", "3", "3", "1",
                  "--spacing", "8", "8", "17", "-o", str(lay_path)])
        capsys.readouterr()
        occ_path = tmp_path / "occ.json"
        occ_path.write_text(json.dumps({"layout": "cubic", "occupied": [False] * 9}))
        code, _, stderr = run(capsys, "plan-assembly", "--layout", str(lay_path),
                              "--occupancy", str(occ_path), "-o", str(tmp_path / "p.json"))
        assert code == 3
        assert json.loads(stderr.strip())["error"] == 3

    @pytest.mark.parametrize("occ_doc", [{"layout": "cubic"}, [True] * 9],
                             ids=["no_occupied_key", "json_list"])
    def test_malformed_occupancy_exits_2(self, tmp_path, capsys, occ_doc):
        lay_path = tmp_path / "lay.json"
        cli.main(["gen-geometry", "--preset", "cubic", "--n", "3", "3", "1",
                  "--spacing", "8", "8", "17", "-o", str(lay_path)])
        capsys.readouterr()
        occ_path = tmp_path / "occ.json"
        occ_path.write_text(json.dumps(occ_doc))
        code, _, stderr = run(capsys, "plan-assembly", "--layout", str(lay_path),
                              "--occupancy", str(occ_path), "-o", str(tmp_path / "p.json"))
        assert_invalid_input(code, stderr)
        assert "occupied" in json.loads(stderr)["detail"]


class TestRunExperiment:
    def test_lossless_defect_free(self, tmp_path, capsys):
        cfg = write_bilayer_config(
            tmp_path,
            loss={"move_fidelity_eta": 1.0, "lifetime_tau_s": 1e9,
                  "crosstalk_enabled": False},
        )
        csv = tmp_path / "stats.csv"
        summary = tmp_path / "sum.json"
        code, _, _ = run(capsys, "run-experiment", str(cfg), "--shots", "40",
                         "-o", str(csv), "--summary", str(summary))
        assert code == 0
        doc = json.loads(summary.read_text())
        assert doc["defect_free_prob"] == 1.0
        header = csv.read_text().splitlines()[0]
        assert header == "shot,triggered,n_loaded,n_targets_filled,fill_fraction,duration_ms,moves"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_bilayer_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["run-experiment", str(cfg), "--shots", "25", "-o", str(a)]) == 0
        assert cli.main(["run-experiment", str(cfg), "--shots", "25", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = write_bilayer_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["run-experiment", str(cfg), "--shots", "25", "-o", str(a)])
        cli.main(["run-experiment", str(cfg), "--shots", "25", "--seed", "99", "-o", str(b)])
        assert a.read_bytes() != b.read_bytes()
        capsys.readouterr()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_bilayer_config(tmp_path)
        clean = json.loads(cfg.read_text())
        # the last two name fields the models no longer have
        for section, key in [(None, "surprise"), ("planner", "cost_metric"),
                             ("timing", "exposure_ms")]:
            doc = json.loads(json.dumps(clean))
            (doc if section is None else doc.setdefault(section, {}))[key] = 1
            cfg.write_text(json.dumps(doc))
            code, _, stderr = run(capsys, "run-experiment", str(cfg),
                                  "-o", str(tmp_path / "s.csv"))
            assert code == 2
            assert key in json.loads(stderr.strip())["detail"]

    @pytest.mark.parametrize("section, value", [("timing", 5), ("loss", [1.0])],
                             ids=["timing_number", "loss_list"])
    def test_section_not_an_object_exits_2(self, tmp_path, capsys, section, value):
        cfg = write_bilayer_config(tmp_path, **{section: value})
        code, _, stderr = run(capsys, "run-experiment", str(cfg), "-o", str(tmp_path / "s.csv"))
        assert_invalid_input(code, stderr)
        assert f"config.{section}" in json.loads(stderr)["detail"]

    @pytest.mark.parametrize("extra", [{"layout_file": 5}, {"timing": {"per_move_ms": "fast"}}],
                             ids=["layout_file_number", "timing_value_string"])
    def test_value_of_wrong_type_exits_2(self, tmp_path, capsys, extra):
        cfg = write_bilayer_config(tmp_path, **extra)
        code, _, stderr = run(capsys, "run-experiment", str(cfg), "-o", str(tmp_path / "s.csv"))
        assert_invalid_input(code, stderr)

    @pytest.mark.parametrize("seed", [1.5, True, "x", -1],
                             ids=["float", "bool", "string", "negative"])
    def test_seed_not_a_nonnegative_int_exits_2(self, tmp_path, capsys, seed):
        cfg = write_bilayer_config(tmp_path, seed=seed)
        code, _, stderr = run(capsys, "run-experiment", str(cfg), "--shots", "1",
                              "-o", str(tmp_path / "s.csv"))
        assert_invalid_input(code, stderr)
        assert "seed" in json.loads(stderr)["detail"]


class TestRecaptureCurve:
    def test_thresholds_and_monotonicity(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "recapture-curve", "--dz", "0:30:0.5",
                         "--power", "full", "-o", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert table[0.0] <= 0.01 + 1e-9
        assert table[17.0] >= 0.99 - 1e-9
        values = [table[k] for k in sorted(table)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_reduced_power(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "recapture-curve", "--dz", "14:14:1",
                         "--power", "reduced", "-o", str(out))
        assert code == 0
        row = out.read_text().splitlines()[1]
        assert float(row.split(",")[1]) >= 0.99 - 1e-4


class TestDetect:
    def test_defaults_are_the_camera_model(self):
        args = cli.build_parser().parse_args(["detect", "--layout", "l.json", "p.pgm",
                                              "-o", "o.json"])
        camera = sim.CameraModel()
        assert (args.pixel_scale, args.psf_sigma, args.defocus_rayleigh,
                args.peak, args.background) == (
            camera.pixel_scale_um, camera.psf_sigma0_um, camera.defocus_rayleigh_um,
            camera.peak_counts, camera.background_counts)

    def test_round_trip_via_files(self, tmp_path, capsys):
        lay_path = tmp_path / "lay.json"
        cli.main(["gen-geometry", "--preset", "cubic", "--n", "3", "3", "2",
                  "--spacing", "10", "10", "17", "-o", str(lay_path)])
        capsys.readouterr()
        layout = geo.load_layout(lay_path)
        dec = geo.decompose_planes(layout, 1.0)
        camera = sim.CameraModel(peak_counts=500.0)
        rng = np.random.default_rng(2)
        occ = rng.random(len(layout)) < 0.5
        stack = sim.synthesize_fluorescence_stack(
            occ, layout, camera, sim.plane_stack_z(dec)
        )
        paths = []
        for k, img in enumerate(stack):
            p = tmp_path / f"plane{k}.pgm"
            formats.write_pgm16(p, np.floor(img.pixels + 0.5))
            paths.append(str(p))
        out = tmp_path / "occ.json"
        code, _, _ = run(capsys, "detect", "--layout", str(lay_path),
                         "--peak", "500", *paths, "-o", str(out))
        assert code == 0
        got = json.loads(out.read_text())["occupied"]
        assert got == [bool(v) for v in occ]

    def test_images_off_the_camera_grid_rejected(self, tmp_path, capsys):
        lay_path = tmp_path / "lay.json"
        cli.main(["gen-geometry", "--preset", "cubic", "--n", "3", "3", "1",
                  "--spacing", "10", "10", "17", "-o", str(lay_path)])
        capsys.readouterr()
        layout = geo.load_layout(lay_path)
        _, _, width, height = sim.camera_grid(layout, sim.CameraModel())
        p = tmp_path / "plane0.pgm"
        formats.write_pgm16(p, np.full((height + 1, width), 10.0))
        code, _, err = run(capsys, "detect", "--layout", str(lay_path), str(p),
                           "-o", str(tmp_path / "occ.json"))
        assert code == 2
        assert f"(height, width) = ({height}, {width})" in json.loads(err)["detail"]

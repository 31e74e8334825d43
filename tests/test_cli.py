"""End-to-end command-line coverage, run in process through main()."""

import numpy as np
import pytest

import hsicaps.training
from hsicaps.cli import (
    DEFAULT_PALETTE,
    RunConfig,
    classification_map,
    load_palette,
    main,
    parse_config,
    serialize_config,
    write_ppm,
)
from hsicaps.data import HsiCube, load_cube, save_cube
from hsicaps.layers import load_checkpoint


class TestConfigFile:
    def test_round_trip(self):
        config = RunConfig(
            cube="scene.hsic",
            epochs=3,
            learning_rate=0.005,
            whiten=False,
            margin_weight=0.25,
        )
        assert parse_config(serialize_config(config)) == config

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blank_lines(self):
        config = parse_config(
            "# a run\n\nepochs = 7  # short\n   \nseed = 3\n"
        )
        assert (config.epochs, config.seed) == (7, 3)

    def test_boolean_words(self):
        assert parse_config("whiten = off").whiten is False
        assert parse_config("whiten = YES").whiten is True
        with pytest.raises(ValueError):
            parse_config("whiten = maybe")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("bogus = 1", "unknown key"),
            ("epochs = 1\nepochs = 2", "duplicate"),
            ("epochs = abc", "line 1"),
            ("just words", "expected 'key = value'"),
        ],
    )
    def test_errors_carry_line_info(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_config(text)


class TestPaletteAndPpm:
    def test_ppm_bytes(self, tmp_path):
        path = tmp_path / "map.ppm"
        ids = np.array([[0, 1], [2, 1]])
        write_ppm(str(path), ids, {1: (255, 0, 0), 2: (0, 255, 0)})
        want = b"P6\n2 2\n255\n" + bytes(
            [0, 0, 0, 255, 0, 0, 0, 255, 0, 255, 0, 0]
        )
        assert path.read_bytes() == want

    def test_ppm_missing_palette_entry(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[3\]"):
            write_ppm(str(tmp_path / "m.ppm"), np.array([[3]]), {1: (0, 0, 0)})

    def test_ppm_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(str(tmp_path / "m.ppm"), np.zeros(4, dtype=int), {})

    def test_load_palette(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# colors\n1 255 0 0\n2 0 128 0  # green\n\n")
        assert load_palette(str(path)) == {1: (255, 0, 0), 2: (0, 128, 0)}

    @pytest.mark.parametrize(
        "line", ["1 2 3", "0 1 2 3", "1 2 3 300", "1 a b c"]
    )
    def test_load_palette_errors(self, tmp_path, line):
        path = tmp_path / "p.txt"
        path.write_text(line + "\n")
        with pytest.raises(ValueError):
            load_palette(str(path))

    def test_default_palette(self):
        assert sorted(DEFAULT_PALETTE) == list(range(1, 17))
        for rgb in DEFAULT_PALETTE.values():
            assert all(0 <= v <= 255 for v in rgb)


class TestBasicCommands:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        assert "hsicaps" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["info", "does-not-exist.hsic"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_cube(self, tmp_path, capsys):
        bad = tmp_path / "bad.hsic"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["info", str(bad)]) == 1
        assert "magic" in capsys.readouterr().err

    def test_info(self, toy_cube_path, capsys):
        assert main(["info", toy_cube_path]) == 0
        out = capsys.readouterr().out
        assert "24 × 48 × 26, 3 classes" in out
        assert "class 1:" in out

    def test_param_count(self, capsys):
        assert main(["param-count", "--channels", "220", "--classes", "16"]) == 0
        assert capsys.readouterr().out.strip() == "409,168"
        assert main(["param-count", "--channels", "103", "--classes", "9"]) == 0
        assert capsys.readouterr().out.strip() == "99,920"

    def test_split_table_and_tsv(self, toy_cube_path, tmp_path, capsys):
        out = tmp_path / "split.tsv"
        assert main(["split", toy_cube_path, "-o", str(out)]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].split() == ["class", "train", "val", "test"]
        assert "total" in table
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "subset\tclass\trow\tcol"
        assert len(lines) == 1 + 24 * 48  # every pixel of the scene is labeled

    def test_whiten_command(self, toy_cube_path, tmp_path, capsys):
        out = tmp_path / "white.hsic"
        assert (
            main(["whiten", toy_cube_path, "-o", str(out), "--epsilon", "1e-9"]) == 0
        )
        cube = load_cube(str(out))
        pixels = cube.values.reshape(-1, cube.channels)
        cov = pixels.T @ pixels / len(pixels)
        assert np.abs(cov - np.eye(cube.channels)).max() < 1e-5


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") == 5
        for group in ("spatial_filters", "biases", "class_matrices"):
            assert group in out

    def test_detects_a_corrupted_backward_pass(self, capsys, monkeypatch):
        true_backward = hsicaps.training.backward_batch

        def skewed(params, cache, upstream):
            return {k: 1.01 * v for k, v in true_backward(params, cache, upstream).items()}

        monkeypatch.setattr(hsicaps.training, "backward_batch", skewed)
        assert main(["gradcheck"]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "tolerance" in captured.err

    def test_tight_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--tolerance", "1e-12"]) == 2


@pytest.fixture(scope="module")
def pipeline(toy_cube_path, tmp_path_factory):
    """One full CLI training run on the toy scene."""
    base = tmp_path_factory.mktemp("cli-train")
    run_dir = base / "run"
    config = RunConfig(
        cube=toy_cube_path,
        output_dir=str(run_dir),
        epochs=3,
        batch_size=32,
        seed=0,
    )
    config_path = base / "run.cfg"
    config_path.write_text(serialize_config(config))
    code = main(["train", str(config_path)])
    return {
        "base": base,
        "run_dir": run_dir,
        "config": config,
        "config_path": config_path,
        "exit_code": code,
    }


class TestTrainCommand:
    def test_artifacts_written(self, pipeline):
        assert pipeline["exit_code"] == 0
        for name in ("checkpoint.cckp", "train_log.tsv", "metrics.txt", "metrics.kv"):
            assert (pipeline["run_dir"] / name).exists(), name

    def test_toy_scene_learned(self, pipeline):
        pairs = dict(
            line.split(" = ", 1)
            for line in (pipeline["run_dir"] / "metrics.kv").read_text().strip().splitlines()
        )
        assert float(pairs["oa"]) >= 0.95
        assert float(pairs["kappa_x100"]) >= 90.0

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        rerun_dir = tmp_path / "rerun"
        config = RunConfig(
            **{
                **pipeline["config"].__dict__,
                "output_dir": str(rerun_dir),
            }
        )
        config_path = tmp_path / "rerun.cfg"
        config_path.write_text(serialize_config(config))
        assert main(["train", str(config_path)]) == 0
        for name in ("checkpoint.cckp", "train_log.tsv", "metrics.kv"):
            assert (rerun_dir / name).read_bytes() == (
                pipeline["run_dir"] / name
            ).read_bytes(), name

    def test_output_dir_env_override(self, toy_cube_path, tmp_path, monkeypatch):
        env_dir = tmp_path / "from-env"
        config = RunConfig(
            cube=toy_cube_path,
            output_dir=str(tmp_path / "from-config"),
            epochs=1,
            batch_size=64,
        )
        config_path = tmp_path / "env.cfg"
        config_path.write_text(serialize_config(config))
        monkeypatch.setenv("HSICAPS_OUTPUT_DIR", str(env_dir))
        assert main(["train", str(config_path)]) == 0
        assert (env_dir / "checkpoint.cckp").exists()
        assert not (tmp_path / "from-config").exists()

    def test_config_without_cube(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("epochs = 1\n")
        assert main(["train", str(config_path)]) == 1
        assert "cube" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("no_such_key = 5\n")
        assert main(["train", str(config_path)]) == 1
        assert "unknown key" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_prints_metrics(self, pipeline, toy_cube_path, capsys):
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        assert main(["eval", ckpt, toy_cube_path]) == 0
        out = capsys.readouterr().out
        assert "overall_accuracy" in out
        assert "kappa_x100" in out

    def test_eval_writes_reports(self, pipeline, toy_cube_path, tmp_path, capsys):
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        out_dir = tmp_path / "metrics"
        assert (
            main(
                ["eval", ckpt, toy_cube_path, "--subset", "val", "-o", str(out_dir)]
            )
            == 0
        )
        assert (out_dir / "metrics.txt").exists()
        assert (out_dir / "metrics.kv").exists()

    def test_eval_matches_training_report(self, pipeline, toy_cube_path, capsys):
        # same cube, same split settings: the eval command must reproduce the
        # numbers cmd_train wrote
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        assert main(["eval", ckpt, toy_cube_path]) == 0
        printed = capsys.readouterr().out
        stored = (pipeline["run_dir"] / "metrics.txt").read_text()
        assert printed == stored

    def test_eval_channel_mismatch(self, pipeline, tmp_path, capsys):
        rng = np.random.default_rng(0)
        other = HsiCube(
            rng.normal(size=(8, 8, 10)),
            np.ones((8, 8), dtype=np.int32),
        )
        path = tmp_path / "other.hsic"
        save_cube(other, str(path))
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        assert main(["eval", ckpt, str(path)]) == 1
        assert "channels" in capsys.readouterr().err


class TestRenderMap:
    def test_render_and_cross_check(self, pipeline, toy_cube_path, tmp_path, capsys):
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        out = tmp_path / "map.ppm"
        assert main(["render-map", ckpt, toy_cube_path, "-o", str(out)]) == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P6\n48 24\n255\n")
        payload = blob.split(b"\n", 3)[3]
        assert len(payload) == 24 * 48 * 3

        # recompute the map through the library and compare every pixel
        from hsicaps.cli import _prepared_cube

        params, _, _ = load_checkpoint(ckpt)
        prepared = _prepared_cube(load_cube(toy_cube_path), True, 1e-5)
        ids = classification_map(params, prepared)
        lut = np.zeros((17, 3), dtype=np.uint8)
        for cid, rgb in DEFAULT_PALETTE.items():
            lut[cid] = rgb
        np.testing.assert_array_equal(
            np.frombuffer(payload, dtype=np.uint8).reshape(24, 48, 3), lut[ids]
        )

    def test_incomplete_palette_rejected(
        self, pipeline, toy_cube_path, tmp_path, capsys
    ):
        palette_path = tmp_path / "two.txt"
        palette_path.write_text("1 10 10 10\n2 20 20 20\n")
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        code = main(
            [
                "render-map",
                ckpt,
                toy_cube_path,
                "-o",
                str(tmp_path / "m.ppm"),
                "--palette",
                str(palette_path),
            ]
        )
        assert code == 1
        assert "missing entries" in capsys.readouterr().err

    def test_labeled_only_masks_unlabeled(self, pipeline, toy_cube_path):
        params, _, _ = load_checkpoint(
            str(pipeline["run_dir"] / "checkpoint.cckp")
        )
        cube = load_cube(toy_cube_path)
        sparse_labels = np.zeros_like(cube.labels)
        sparse_labels[:2, :3] = cube.labels[:2, :3]
        sparse = HsiCube(cube.values, sparse_labels)
        ids = classification_map(params, sparse, labeled_only=True)
        assert not ids[2:].any()
        assert (ids[:2, :3] > 0).all()

    def test_channel_mismatch(self, pipeline):
        params, _, _ = load_checkpoint(
            str(pipeline["run_dir"] / "checkpoint.cckp")
        )
        with pytest.raises(ValueError):
            classification_map(
                params, HsiCube(np.zeros((4, 4, 5)), np.zeros((4, 4)))
            )

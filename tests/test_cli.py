"""End-to-end command-line coverage, run in process through main(), plus
the ``python -m`` entry points in a subprocess."""

import builtins
import dataclasses
import errno
import os
import re
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import hsicaps.cli
import hsicaps.data
import hsicaps.training
from hsicaps.cli import (
    DEFAULT_PALETTE,
    RunConfig,
    _CODECS,
    _prepared_cube,
    classification_map,
    load_palette,
    main,
    parse_config,
    serialize_config,
    write_ppm,
)
from hsicaps.data import HsiCube, load_cube, save_cube
from hsicaps.layers import PARAM_FIELDS, load_checkpoint, read_checkpoint, save_checkpoint
from hsicaps.training import TrainingDiverged

from conftest import NON_FINITE_FLOAT32


STORED_DEFAULTS = """\
train_fraction = 0.2
val_fraction = 0.1
whiten = true
whiten_epsilon = 1e-05
patch_size = 7
spatial_filters = 16
primary_kernel_size = 9
primary_stride = 2
capsule_arrays = 2
capsule_dim = 8
window_size = 9
window_stride = 2
window_count = 4
window_capsule_dim = 8
class_capsule_dim = 16
epochs = 50
learning_rate = 0.01
batch_size = 64
routing_iters = 3
adam_beta1 = 0.9
adam_beta2 = 0.999
adam_eps = 1e-08
seed = 0
margin_upper = 0.9
margin_lower = 0.1
margin_weight = 0.5
"""


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

    @pytest.mark.parametrize(
        "values",
        [
            {"learning_rate": 0.02, "epochs": 3, "seed": 2**64 - 1, "whiten": False},
            {"learning_rate": np.float64(0.01)},
            {"whiten_epsilon": np.float32(1e-3)},
            {"epochs": np.int64(3)},
            {"seed": np.uint64(2**64 - 1)},
            {"whiten": np.bool_(False)},
        ],
        ids=["python", "float64", "float32", "int64", "uint64-seed", "bool_"],
    )
    def test_scalars_round_trip(self, values):
        config = RunConfig(**values)
        assert parse_config(serialize_config(config)) == config

    def test_stored_settings_text_is_fixed(self):
        # what every checkpoint stores: keys, order and default values
        assert serialize_config(RunConfig(), omit=("cube", "output_dir")) == STORED_DEFAULTS

    def test_fractional_int_setting_not_written(self):
        with pytest.raises(TypeError):
            serialize_config(RunConfig(epochs=2.5))

    @pytest.mark.parametrize(
        "key,value",
        [("cube", "runs/a#1.hsic"), ("output_dir", " runs/out"), ("cube", "a\nb.hsic")],
        ids=["hash", "leading-space", "line-break"],
    )
    def test_value_that_would_read_back_differently_refused(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}: "):
            serialize_config(RunConfig(**{key: value}))

    def test_every_field_has_a_codec(self):
        fields = dataclasses.fields(RunConfig)
        assert [(f.name, f.type) for f in fields if f.type not in _CODECS] == []

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blank_lines(self):
        config = parse_config(
            "# a run\n\nepochs = 7  # short\n   \nseed = 3\n"
        )
        assert (config.epochs, config.seed) == (7, 3)

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None, np.int64(1)], ids=repr)
    def test_non_boolean_whiten_refused(self, value):
        message = f"whiten must be a boolean, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(whiten=value)

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
        with pytest.raises(ValueError, match="palette line 1"):
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

    def test_info_and_split_on_a_partly_labeled_cube(self, tmp_path, capsys):
        labels = np.zeros((4, 10), dtype=np.int32)
        labels[0] = 1
        labels[1] = 3  # class 2 has no pixels
        path = str(tmp_path / "partial.hsic")
        save_cube(HsiCube(np.random.default_rng(0).normal(size=(4, 10, 2)), labels), path)
        assert main(["info", path]) == 0
        assert "unlabeled: 20\n" in capsys.readouterr().out
        with pytest.warns(UserWarning, match="class 2") as caught:
            assert main(["split", path]) == 0
        assert len(caught) == 1
        assert capsys.readouterr().err == ""

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


class TestSeedFlags:
    """``split --seed`` and ``gradcheck --seed`` take the seeds training takes."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["split", "gradcheck"])
    def test_seed_outside_u64_is_a_flag_error(
        self, command, seed, toy_cube_path, tmp_path, capsys
    ):
        out = tmp_path / "split.tsv"
        args = [toy_cube_path, "-o", str(out)] if command == "split" else []
        assert main([command, *args, "--seed", str(seed)]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "[0, 2**64)" in err
        assert list(tmp_path.iterdir()) == []


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

    def test_raw_cube_freed_before_training(self, toy_cube_path, tmp_path, monkeypatch):
        loaded, alive_at_train = [], []

        def watched_load(path):
            cube = load_cube(path)
            loaded.append(weakref.ref(cube))
            return cube

        def watched_train(*args):
            alive_at_train.append(loaded[0]() is not None)
            return hsicaps.training.train(*args)

        monkeypatch.setattr(hsicaps.cli, "load_cube", watched_load)
        monkeypatch.setattr(hsicaps.cli, "train", watched_train)
        config = RunConfig(
            cube=toy_cube_path, output_dir=str(tmp_path / "out"), epochs=1, whiten=True
        )
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(config))
        assert main(["train", str(config_path)]) == 0
        assert alive_at_train == [False]

    def test_divergence_exits_2_without_artifacts(
        self, toy_cube_path, tmp_path, capsys, monkeypatch
    ):
        def diverging_train(*args):
            raise TrainingDiverged(1, 0)

        monkeypatch.setattr(hsicaps.cli, "train", diverging_train)
        out = tmp_path / "out"
        config = RunConfig(cube=toy_cube_path, output_dir=str(out), epochs=1)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(serialize_config(config))
        assert main(["train", str(config_path)]) == 2
        assert "numerical failure: training diverged" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_outside_u64_rejected_before_training(
        self, seed, toy_cube_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(hsicaps.cli, "load_cube", lambda path: pytest.fail("cube read"))
        config_path = tmp_path / "seed.cfg"
        config_path.write_text(
            f"cube = {toy_cube_path}\noutput_dir = {tmp_path / 'out'}\nseed = {seed}\n"
        )
        assert main(["train", str(config_path)]) == 1
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("margin_upper = 1.5", "margin_upper must lie in (0, 1), got 1.5"),
            ("margin_lower = 0.95", "margin_lower 0.95 must lie below margin_upper 0.9"),
            (
                "train_fraction = 0.95",
                "train_fraction 0.95 and val_fraction 0.1 must sum below 1",
            ),
            ("val_fraction = 0", "val_fraction must lie in (0, 1), got 0.0"),
            ("whiten_epsilon = 0", "whiten_epsilon must lie in (0, inf), got 0.0"),
        ],
        ids=["margin_upper", "margin_lower", "train_fraction", "val_fraction", "whiten_epsilon"],
    )
    def test_bad_setting_named_before_any_file_is_touched(
        self, line, message, toy_cube_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(hsicaps.cli, "load_cube", lambda path: pytest.fail("cube read"))
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            f"cube = {toy_cube_path}\noutput_dir = {tmp_path / 'out'}\n{line}\n"
        )
        assert main(["train", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    # each asks for more memory than the child's address-space cap allows:
    # 3M spatial filters at init, and the cache of 1e12 routing iterations
    @pytest.mark.parametrize(
        "line", ["spatial_filters = 3000000", "routing_iters = 1000000000000"]
    )
    def test_setting_too_large_for_memory_exits_1(self, line, toy_cube_path, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            f"cube = {toy_cube_path}\noutput_dir = {tmp_path / 'out'}\nepochs = 1\n{line}\n"
        )
        result = run_capped(["train", str(config_path)], cap_bytes=512 * 2**20, cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error: out of memory: ")
        assert result.stderr.count("\n") == 1


def flag_case(*argv, message=None):
    """A ``test_flag`` case: the argv, the error it must print, and an id
    naming the subcommand and the flag."""
    message = message or f"invalid finite_float value: '{argv[-1]}'"
    return pytest.param(list(argv), message, id=" ".join(argv[:1] + argv[-2:]))


class TestNonFiniteSettings:
    """NaN and the infinities are refused wherever a float setting enters."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", "nan"),
            ("whiten_epsilon", "nan"),
            ("train_fraction", "nan"),
            ("adam_eps", "inf"),
            ("whiten_epsilon", "inf"),
            ("margin_upper", "-inf"),
        ],
    )
    def test_config_value(self, key, value, toy_cube_path, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            f"cube = {toy_cube_path}\noutput_dir = {tmp_path / 'out'}\n"
            f"epochs = 1\n{key} = {value}\n"
        )
        assert main(["train", str(config_path)]) == 1
        assert "config line 4: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            flag_case("whiten", "CUBE", "-o", "OUT", "--epsilon", "inf"),
            flag_case("split", "CUBE", "--train-fraction", "nan"),
            flag_case("split", "CUBE", "--val-fraction", "inf"),
            flag_case("gradcheck", "--epsilon", "inf"),
            flag_case("gradcheck", "--tolerance", "nan"),
            # finite but not positive: a bad flag, not a failed check (exit 2)
            flag_case(
                "gradcheck", "--tolerance", "0", message="tolerance must lie in (0, inf), got 0.0"
            ),
            flag_case(
                "gradcheck", "--tolerance", "-1", message="tolerance must lie in (0, inf), got -1.0"
            ),
        ],
    )
    def test_flag(self, argv, message, toy_cube_path, tmp_path, capsys):
        out = tmp_path / "out.hsic"
        argv = [{"CUBE": toy_cube_path, "OUT": str(out)}.get(a, a) for a in argv]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_batch_size_flag_removed(self, pipeline, toy_cube_path, tmp_path, capsys):
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        out = tmp_path / "m.ppm"
        code = main(
            ["render-map", ckpt, toy_cube_path, "-o", str(out), "--batch-size", "64"]
        )
        assert code == 1
        assert "--batch-size" in capsys.readouterr().err
        assert not out.exists()

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


@pytest.fixture(scope="module")
def custom_run(toy_cube_path, tmp_path_factory):
    """A CLI training run whose split, whitening and routing depth all differ
    from the defaults; returns its config and output directory.  One epoch
    leaves the model unsure enough that either setting moves predictions."""
    base = tmp_path_factory.mktemp("cli-custom")
    config = RunConfig(
        cube=toy_cube_path,
        output_dir=str(base / "run"),
        epochs=1,
        batch_size=32,
        train_fraction=0.3,
        routing_iters=5,
        whiten_epsilon=1e-3,
    )
    (base / "run.cfg").write_text(serialize_config(config))
    assert main(["train", str(base / "run.cfg")]) == 0
    return config, base / "run"


class TestSettingsFromCheckpoint:
    """``eval`` and ``render-map`` take the split, seed, whitening and
    routing depth from the settings ``train`` stores in the checkpoint."""

    def test_checkpoint_stores_settings_without_paths(self, custom_run):
        config, run_dir = custom_run
        settings = read_checkpoint(str(run_dir / "checkpoint.cckp"))[3]
        assert settings == serialize_config(config, omit=("cube", "output_dir"))
        paths = {"cube": RunConfig.cube, "output_dir": RunConfig.output_dir}
        assert parse_config(settings) == dataclasses.replace(config, **paths)

    def test_eval_reproduces_training_report(self, custom_run, toy_cube_path, capsys):
        _, run_dir = custom_run
        capsys.readouterr()
        assert main(["eval", str(run_dir / "checkpoint.cckp"), toy_cube_path]) == 0
        assert capsys.readouterr().out == (run_dir / "metrics.txt").read_text()

    def test_eval_reproduces_unwhitened_run(self, toy_cube_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hsicaps.cli, "fit_whitening", lambda *args: pytest.fail("whitened"))
        run_dir = tmp_path / "run"
        config = RunConfig(
            cube=toy_cube_path, output_dir=str(run_dir), epochs=1, batch_size=32, whiten=False
        )
        (tmp_path / "run.cfg").write_text(serialize_config(config))
        assert main(["train", str(tmp_path / "run.cfg")]) == 0
        capsys.readouterr()
        assert main(["eval", str(run_dir / "checkpoint.cckp"), toy_cube_path]) == 0
        assert capsys.readouterr().out == (run_dir / "metrics.txt").read_text()

    def test_render_map_uses_stored_depth_and_whitening(
        self, custom_run, toy_cube_path, tmp_path
    ):
        _, run_dir = custom_run
        ckpt = str(run_dir / "checkpoint.cckp")
        out = tmp_path / "map.ppm"
        assert main(["render-map", ckpt, toy_cube_path, "-o", str(out)]) == 0
        params, _, _ = load_checkpoint(ckpt)
        cube = load_cube(toy_cube_path)
        prepared = _prepared_cube(cube, True, 1e-3)
        ids = classification_map(params, prepared, routing_iters=5)
        reference = tmp_path / "reference.ppm"
        write_ppm(str(reference), ids, DEFAULT_PALETTE)
        assert out.read_bytes() == reference.read_bytes()
        # the default depth or whitening would have rendered another map
        assert (ids != classification_map(params, prepared, routing_iters=3)).any()
        default_white = _prepared_cube(cube, True, RunConfig.whiten_epsilon)
        assert (ids != classification_map(params, default_white, routing_iters=5)).any()

    def assert_refused(self, checkpoint, cube_path, tmp_path, capsys, message):
        out = tmp_path / "map.ppm"
        for argv in (
            ["eval", checkpoint, cube_path],
            ["render-map", checkpoint, cube_path, "-o", str(out)],
        ):
            capsys.readouterr()
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""
        assert not out.exists()

    def test_version_1_file_is_refused(self, custom_run, toy_cube_path, tmp_path, capsys):
        _, run_dir = custom_run
        blob = (run_dir / "checkpoint.cckp").read_bytes()
        (length,) = struct.unpack_from("<I", blob, 57)
        v1 = tmp_path / "v1.cckp"
        v1.write_bytes(blob[:4] + b"\x01" + blob[5:57] + blob[61 + length :])
        self.assert_refused(str(v1), toy_cube_path, tmp_path, capsys, "unsupported version 1")

    def test_file_without_settings_is_refused(self, custom_run, toy_cube_path, tmp_path, capsys):
        # the library reads such a file, but the commands would have to make
        # up the split, whitening and routing depth of its run
        _, run_dir = custom_run
        params, step, seed = load_checkpoint(str(run_dir / "checkpoint.cckp"))
        bare = str(tmp_path / "bare.cckp")
        save_checkpoint(bare, params, step, seed)
        self.assert_refused(bare, toy_cube_path, tmp_path, capsys, "carries no run settings")

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("eval", ["--routing-iters", "5"]),
            ("eval", ["--no-whiten"]),
            ("eval", ["--whiten-epsilon", "1e-3"]),
            ("eval", ["--train-fraction", "0.3"]),
            ("eval", ["--val-fraction", "0.1"]),
            ("eval", ["--seed", "0"]),
            ("render-map", ["--routing-iters", "5"]),
            ("render-map", ["--no-whiten"]),
            ("render-map", ["--whiten-epsilon", "1e-3"]),
        ],
    )
    def test_setting_flags_rejected(
        self, custom_run, toy_cube_path, tmp_path, capsys, command, flag
    ):
        _, run_dir = custom_run
        argv = [command, str(run_dir / "checkpoint.cckp"), toy_cube_path, *flag]
        if command == "render-map":
            argv += ["-o", str(tmp_path / "map.ppm")]
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unparsable_settings_exit_1(self, custom_run, toy_cube_path, tmp_path, capsys):
        _, run_dir = custom_run
        params, step, seed = load_checkpoint(str(run_dir / "checkpoint.cckp"))
        bad = str(tmp_path / "bad.cckp")
        save_checkpoint(bad, params, step, seed, "routing_iters = deep\n")
        out = tmp_path / "map.ppm"
        assert main(["eval", bad, toy_cube_path]) == 1
        assert main(["render-map", bad, toy_cube_path, "-o", str(out)]) == 1
        assert capsys.readouterr().err.count("checkpoint settings: config line 1") == 2
        assert not out.exists()


def _with_value(source, offset, bits, destination):
    """Copy ``source`` to ``destination`` with the float32 at ``offset`` set
    to ``bits``; returns the destination as a string."""
    blob = bytearray(Path(source).read_bytes())
    blob[offset : offset + 4] = struct.pack("<I", bits)
    destination.write_bytes(bytes(blob))
    return str(destination)


class TestNonFiniteContainers:
    @pytest.mark.parametrize("bits", NON_FINITE_FLOAT32.values(), ids=NON_FINITE_FLOAT32)
    def test_cube(self, pipeline, toy_cube_path, tmp_path, capsys, bits):
        cube = _with_value(toy_cube_path, 18, bits, tmp_path / "bad.hsic")
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["info", cube]) == 1
            assert main(["eval", ckpt, cube]) == 1
        assert capsys.readouterr().err.count("non-finite value") == 2

    @pytest.mark.parametrize("bits", NON_FINITE_FLOAT32.values(), ids=NON_FINITE_FLOAT32)
    def test_checkpoint(self, pipeline, toy_cube_path, tmp_path, capsys, bits):
        source = pipeline["run_dir"] / "checkpoint.cckp"
        ckpt = _with_value(source, source.stat().st_size - 20, bits, tmp_path / "bad.cckp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", ckpt, toy_cube_path]) == 1
        assert f"non-finite values in {PARAM_FIELDS[-1]}" in capsys.readouterr().err


class _HalfWriter:
    """A file whose first write stores half its bytes and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, chunk):
        self.fh.write(chunk[: len(chunk) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicArtifacts:
    """Every artifact writer goes through one temp-file-then-rename helper: a
    write that fails midway leaves the earlier files and no temp file.  A
    command that writes several files replaces none of them then: ``train``
    stages ``checkpoint.cckp`` before ``train_log.tsv``, and ``eval``
    stages ``metrics.txt`` before ``metrics.kv``."""

    def writers(self, pipeline, toy_cube_path, out_dir):
        """Each artifact's writer, keyed by the file name it is pointed at."""
        ckpt = str(pipeline["run_dir"] / "checkpoint.cckp")
        params, _, _ = load_checkpoint(ckpt)
        config = RunConfig(
            cube=toy_cube_path, output_dir=str(out_dir), epochs=1, batch_size=64
        )
        config_path = out_dir.parent / "run.cfg"
        config_path.write_text(serialize_config(config))
        return {
            "cube.hsic": lambda p: save_cube(load_cube(toy_cube_path), p),
            "model.cckp": lambda p: save_checkpoint(p, params, 1, 0),
            "map.ppm": lambda p: write_ppm(p, np.ones((2, 3), dtype=int), DEFAULT_PALETTE),
            "split.tsv": lambda p: main(["split", toy_cube_path, "-o", p]),
            "metrics.kv": lambda p: main(["eval", ckpt, toy_cube_path, "-o", str(out_dir)]),
            "train_log.tsv": lambda p: main(["train", str(config_path)]),
        }

    @pytest.mark.parametrize(
        "name",
        ["cube.hsic", "model.cckp", "map.ppm", "split.tsv", "metrics.kv", "train_log.tsv"],
    )
    def test_failed_write_keeps_earlier_file(
        self, pipeline, toy_cube_path, tmp_path, monkeypatch, capsys, name
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        target = out_dir / name
        earlier = [out_dir / n for n in {name, "checkpoint.cckp", "metrics.txt"}]
        for path in earlier:
            path.write_bytes(b"earlier artifact")
        write = self.writers(pipeline, toy_cube_path, out_dir)[name]

        def failing_open(path, mode="r", *args, **kwargs):
            fh = builtins.open(path, mode, *args, **kwargs)
            if Path(path).name.startswith(f".{name}."):
                return _HalfWriter(fh)
            return fh

        monkeypatch.setattr(hsicaps.data, "open", failing_open, raising=False)
        try:
            assert write(str(target)) == 1  # the CLI maps OSError to exit 1
        except OSError as exc:
            assert exc.errno == errno.ENOSPC
        for path in earlier:
            assert path.read_bytes() == b"earlier artifact", path.name
        assert not [p for p in out_dir.iterdir() if p.name.endswith(".tmp")]


def subprocess_env():
    """This environment, with this checkout's sources first on the path and
    BLAS on one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_capped(argv, cap_bytes, cwd):
    """``hsicaps ARGV`` in a fresh interpreter whose address space is capped
    at ``cap_bytes``; the cap applies to that process alone.  A crash in the
    child prints its Python stack to the captured stderr."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap_bytes}, {cap_bytes}))\n"
        "from hsicaps.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    return subprocess.run(
        [sys.executable, "-X", "faulthandler", "-c", script],
        cwd=cwd,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_param_count_module(module, cwd):
    """``python -m MODULE param-count`` on the reference shape, in a fresh
    interpreter that imports this checkout's sources."""
    return subprocess.run(
        [sys.executable, "-m", module, "param-count", "--channels", "200", "--classes", "16"],
        cwd=cwd,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("module", ["hsicaps"])
def test_python_dash_m_runs_a_command(module, tmp_path):
    result = run_param_count_module(module, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "368,208\n"


def test_python_dash_m_cli_module_refuses_to_run(tmp_path):
    result = run_param_count_module("hsicaps.cli", tmp_path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "`python -m hsicaps`" in result.stderr

"""Adam updates, the training loop, evaluation, and gradient checking."""

import math
import threading

import numpy as np
import pytest

import hsicaps.layers
import hsicaps.training
from hsicaps.data import (
    ClassSplit,
    HsiCube,
    SplitAssignment,
    extract_patches,
    make_synthetic_cube,
    stratified_split,
)
from hsicaps.layers import (
    MINIATURE_ARCHITECTURE,
    Architecture,
    forward_batch,
    init_params,
    predict_classes,
)
from hsicaps.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    TrainRecord,
    _inference_block,
    adam_step,
    evaluate,
    predict_coords,
    run_gradient_check,
    train,
)

from conftest import DISTINCT_ARCHITECTURE, shrink_prediction_budget


def miniature_params(seed=0):
    return init_params(MINIATURE_ARCHITECTURE, seed)


def constant_grads(params, value):
    return {name: np.full_like(arr, value) for name, arr in params.arrays()}


TOY_CONFIG = TrainConfig(epochs=3, batch_size=32, seed=0)


@pytest.fixture(scope="module")
def toy_run(toy_cube, toy_split):
    return train(toy_cube, toy_split, TOY_CONFIG)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.epochs == 50
        assert config.learning_rate == 0.01
        assert config.batch_size == 64
        assert config.routing_iters == 3
        assert config.margin.positive_margin == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"routing_iters": 0},
            {"learning_rate": -0.1},
            {"adam_beta1": 1.0},
            {"adam_beta2": -0.1},
            {"adam_eps": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestAdam:
    def test_first_step_closed_form(self):
        # with fresh moments the bias corrections cancel the (1 - beta)
        # factors exactly, so step one moves by lr * g / (|g| + eps)
        params = miniature_params(0)
        before = {name: arr.copy() for name, arr in params.arrays()}
        state = AdamState.for_params(params)
        adam_step(params, constant_grads(params, 2.0), state, 0.01)
        expected_delta = 0.01 * 2.0 / (2.0 + 1e-8)
        for name, arr in params.arrays():
            np.testing.assert_allclose(
                before[name] - arr, expected_delta, rtol=1e-12
            )
        assert state.step == 1

    def test_zero_gradient_is_identity(self):
        params = miniature_params(1)
        before = {name: arr.copy() for name, arr in params.arrays()}
        adam_step(params, constant_grads(params, 0.0), AdamState.for_params(params), 0.5)
        for name, arr in params.arrays():
            np.testing.assert_array_equal(before[name], arr)

    def test_two_steps_match_manual_recurrence(self):
        params = miniature_params(2)
        coord = params.spatial_bias[0]
        state = AdamState.for_params(params)
        g1, g2 = 0.7, -1.3
        adam_step(params, constant_grads(params, g1), state, 0.01)
        adam_step(params, constant_grads(params, g2), state, 0.01)

        m = v = 0.0
        theta = coord
        for t, g in ((1, g1), (2, g2)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert params.spatial_bias[0] == pytest.approx(theta, rel=1e-12)
        assert state.step == 2

    def test_step_size_monotone_in_learning_rate(self):
        deltas = []
        for lr in (0.001, 0.01):
            params = miniature_params(3)
            before = params.spatial_kernels.copy()
            grads = {
                name: np.linspace(-1, 1, arr.size).reshape(arr.shape)
                for name, arr in params.arrays()
            }
            adam_step(params, grads, AdamState.for_params(params), lr)
            deltas.append(np.abs(before - params.spatial_kernels))
        assert (deltas[0] <= deltas[1] + 1e-15).all()

    def test_updates_in_place(self):
        params = miniature_params(4)
        arr_before = params.spatial_kernels
        returned, _ = adam_step(
            params, constant_grads(params, 1.0), AdamState.for_params(params), 0.1
        )
        assert returned is params
        assert returned.spatial_kernels is arr_before

    def test_non_finite_update_raises(self):
        params = miniature_params(5)
        grads = constant_grads(params, 1.0)
        grads["window_tensors"][0, 0, 0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            adam_step(params, grads, AdamState.for_params(params), 0.1)


class TestTrainRecord:
    def test_tsv_round_trips(self):
        record = TrainRecord([0.5, 0.25], [0.7, 0.9], 2, 0.9, 14)
        text = record.to_tsv()
        lines = text.strip().splitlines()
        assert lines[0] == "epoch\tmean_loss\tval_oa"
        assert len(lines) == 3
        epoch, loss, oa = lines[2].split("\t")
        assert (int(epoch), float(loss), float(oa)) == (2, 0.25, 0.9)


class TestPredictEvaluate:
    def test_prediction_range_and_batching(self, toy_cube, toy_split):
        params = miniature_params()
        # miniature arch wants 24 channels; build a view-compatible cube
        cube = HsiCube(toy_cube.values[:, :, :24], toy_cube.labels)
        coords, _ = toy_split.subset("val")
        coords = coords[:10]
        small = predict_coords(params, cube, coords, batch_size=3)
        large = predict_coords(params, cube, coords, batch_size=256)
        np.testing.assert_array_equal(small, large)
        assert ((small >= 1) & (small <= 3)).all()

    def test_evaluate_totals_and_truth_rows(self, toy_cube, toy_split):
        params = miniature_params()
        cube = HsiCube(toy_cube.values[:, :, :24], toy_cube.labels)
        coords, labels = toy_split.subset("val")
        cm = evaluate(params, cube, coords)
        assert cm.total == len(coords)
        for cid in (1, 2, 3):
            assert cm.counts[cid - 1].sum() == (labels == cid).sum()

    def test_evaluate_rejects_bad_coords(self, toy_cube):
        params = miniature_params()
        cube = HsiCube(toy_cube.values[:, :, :24], toy_cube.labels)
        with pytest.raises(ValueError):
            evaluate(params, cube, np.zeros((0, 2), dtype=int))
        unlabeled = HsiCube(cube.values, np.zeros_like(cube.labels))
        with pytest.raises(ValueError):
            evaluate(params, unlabeled, np.array([[0, 0]]))
        for batch_size in (0, -1):
            with pytest.raises(ValueError, match="batch_size"):
                evaluate(
                    params, cube, np.argwhere(cube.labels > 0)[:1], batch_size=batch_size
                )


class TestBlockedInference:
    @pytest.mark.parametrize(
        "channels, classes, count",
        [(200, 16, 100), (103, 9, 100), (200, 16, 256), (103, 9, 512)],
    )
    def test_blocks_match_one_call(self, channels, classes, count, monkeypatch):
        arch = Architecture(channels=channels, num_classes=classes)
        params = init_params(arch, 0)
        rng = np.random.default_rng(1)
        cube = HsiCube(rng.normal(size=(23, 23, channels)), np.zeros((23, 23)))
        coords = np.argwhere(np.ones((23, 23), dtype=bool))[:count]
        block = _inference_block(arch, count)
        assert block < count

        blocks = []

        def recording_forward(*args, **kwargs):
            activations, cache = forward_batch(*args, **kwargs)
            blocks.append(activations)
            return activations, cache

        monkeypatch.setattr(hsicaps.training, "forward_batch", recording_forward)
        ids = predict_coords(params, cube, coords, batch_size=count)
        whole, _ = forward_batch(params, extract_patches(cube, coords, arch.patch_size))

        tail = [count % block] if count % block else []
        assert [len(b) for b in blocks] == [block] * (count // block) + tail
        np.testing.assert_array_equal(ids, predict_classes(whole))
        if count % 8 == 0:
            # blocks of 8k samples split a batch of 8m samples only where
            # BLAS tiles end: bit for bit
            assert np.array_equal(np.concatenate(blocks), whole)
        else:
            # the call ends in a partial tile, which BLAS may round
            # differently at another call size
            np.testing.assert_allclose(
                np.concatenate(blocks), whole, rtol=0, atol=8 * np.finfo(np.float64).eps
            )

    def test_block_size_bounds(self):
        # the toy shape's 3 KiB samples fit a whole batch in one block
        toy = Architecture(channels=32, num_classes=3)
        for batch_size in (64, 256, 512):
            assert _inference_block(toy, batch_size) == batch_size
        # a block holds two halves of the 4 MiB budget: 2 * 11 samples of
        # 352 KiB at 200/16 and 2 * 45 of 90 KiB at 103/9, rounded down to
        # multiples of 8
        reference = Architecture(channels=200, num_classes=16)
        assert _inference_block(reference, 256) == 16
        assert _inference_block(Architecture(channels=103, num_classes=9), 512) == 88
        # batch_size stays the cap, and a block never drops below 8 samples
        assert _inference_block(reference, 5) == 5
        huge = Architecture(channels=200, num_classes=16, class_capsule_dim=4096)
        assert _inference_block(huge, 256) == 8


class TestTrain:
    def test_same_seed_bitwise_identical(self, toy_cube, toy_split, toy_run):
        params_a, record_a = toy_run
        params_b, record_b = train(toy_cube, toy_split, TOY_CONFIG)
        for (name, arr_a), (_, arr_b) in zip(params_a.arrays(), params_b.arrays()):
            np.testing.assert_array_equal(arr_a, arr_b, err_msg=name)
        assert record_a == record_b

    def test_record_shape_and_best_selection(self, toy_split, toy_run):
        _, record = toy_run
        assert len(record.epoch_losses) == 3
        assert len(record.val_accuracy) == 3
        assert record.best_val_accuracy == max(record.val_accuracy)
        # ties keep the earliest epoch, which is exactly argmax behaviour
        assert record.best_epoch == int(np.argmax(record.val_accuracy)) + 1
        batches = -(-len(toy_split.subset("train")[0]) // TOY_CONFIG.batch_size)
        assert record.best_step == record.best_epoch * batches

    def test_learns_the_separable_toy_scene(self, toy_cube, toy_split, toy_run):
        params, record = toy_run
        assert record.best_val_accuracy >= 0.95
        test_coords, _ = toy_split.subset("test")
        result = evaluate(params, toy_cube, test_coords).metrics()
        assert result.overall_accuracy >= 0.9
        assert result.kappa >= 0.85

    def test_zero_learning_rate_keeps_initial_params(self, toy_cube, toy_split):
        from hsicaps.layers import Architecture

        arch = Architecture(channels=26, num_classes=3)
        initial = init_params(arch, 9)
        config = TrainConfig(epochs=1, batch_size=64, learning_rate=0.0, seed=0)
        best, _ = train(toy_cube, toy_split, config, arch=arch, initial_params=initial)
        for (name, arr), (_, arr0) in zip(best.arrays(), initial.arrays()):
            np.testing.assert_array_equal(arr, arr0, err_msg=name)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_location(self, toy_cube, toy_split):
        from hsicaps.layers import Architecture

        arch = Architecture(channels=26, num_classes=3)
        broken = init_params(arch, 0)
        for _, arr in broken.arrays():
            arr *= 1e200
        config = TrainConfig(epochs=2, batch_size=32, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train(toy_cube, toy_split, config, arch=arch, initial_params=broken)
        assert err.value.epoch == 1
        assert err.value.batch_index == 0

    def test_arch_mismatch_rejected(self, toy_cube, toy_split):
        with pytest.raises(ValueError):
            train(
                toy_cube,
                toy_split,
                TOY_CONFIG,
                initial_params=miniature_params(),  # 24-channel arch, cube has 26
            )

    def test_empty_subset_rejected(self, toy_cube):
        coords = np.array([[0, 0], [1, 1]])
        split = SplitAssignment(
            {1: ClassSplit(coords, np.zeros((0, 2), dtype=int), coords)},
            (0.2, 0.1),
            0,
        )
        with pytest.raises(ValueError):
            train(toy_cube, split, TOY_CONFIG)

    def test_memorizes_random_labels(self):
        # pure-noise cube with arbitrary labels: the model has enough
        # capacity to drive the training loss to ~zero, which exercises the
        # whole backward pass end to end
        rng = np.random.default_rng(5)
        values = rng.normal(size=(12, 12, 24))
        labels = np.zeros((12, 12), dtype=np.int32)
        flat = rng.choice(144, 32, replace=False)
        coords = np.stack([flat // 12, flat % 12], axis=1)
        assigned = rng.integers(1, 4, 32)
        assigned[:3] = [1, 2, 3]  # every class present
        labels[coords[:, 0], coords[:, 1]] = assigned
        cube = HsiCube(values, labels)

        classes = {}
        for cid in (1, 2, 3):
            mine = coords[assigned == cid]
            classes[cid] = ClassSplit(mine, mine[:1], mine[:1])
        split = SplitAssignment(classes, (0.2, 0.1), 0)

        config = TrainConfig(epochs=60, batch_size=8, seed=0)
        _, record = train(
            cube, split, config, arch=MINIATURE_ARCHITECTURE
        )
        assert record.epoch_losses[-1] < 1e-3
        assert record.epoch_losses[-1] < record.epoch_losses[0] / 100.0


class TestTrainInHalves:
    """Training on the miniature setup with the prediction budget shrunk to
    8 samples, so every 16-sample batch runs as two halves."""

    CONFIG = TrainConfig(epochs=3, learning_rate=0.01, batch_size=16, seed=2)

    @pytest.fixture
    def scene(self, monkeypatch):
        shrink_prediction_budget(8, monkeypatch)
        cube = make_synthetic_cube(12, 12, 24, 3, noise_sigma=0.2, seed=3)
        return cube, stratified_split(cube, (0.3, 0.2), seed=0)

    def test_reruns_bitwise_identical(self, scene):
        cube, split = scene
        params_a, record_a = train(cube, split, self.CONFIG, MINIATURE_ARCHITECTURE)
        params_b, record_b = train(cube, split, self.CONFIG, MINIATURE_ARCHITECTURE)
        for (name, arr_a), (_, arr_b) in zip(params_a.arrays(), params_b.arrays()):
            assert arr_a.tobytes() == arr_b.tobytes(), name
        assert record_a == record_b

    def test_error_in_worker_half_names_its_batch(self, scene, monkeypatch):
        cube, split = scene
        batches = math.ceil(len(split.subset("train")[0]) / self.CONFIG.batch_size)
        calls = []
        backward = hsicaps.training.backward_batch
        monkeypatch.setattr(
            hsicaps.training,
            "backward_batch",
            lambda *args: calls.append(None) or backward(*args),
        )
        worker_halves = []
        body = hsicaps.layers._backward_body

        def failing_body(*args):
            if threading.current_thread() is not threading.main_thread():
                worker_halves.append(None)
                if len(worker_halves) == batches + 2:
                    raise FloatingPointError("injected")
            return body(*args)

        monkeypatch.setattr(hsicaps.layers, "_backward_body", failing_body)
        with pytest.raises(TrainingDiverged) as info:
            train(cube, split, self.CONFIG, MINIATURE_ARCHITECTURE)
        # the worker's half of the last backward call raised
        failed = len(calls) - 1
        assert (info.value.epoch, info.value.batch_index) == (
            failed // batches + 1,
            failed % batches,
        )
        assert info.value.epoch == 2
        assert str(info.value.__cause__) == "injected"


class TestRunGradientCheck:
    def test_groups_and_tolerance(self):
        # depth 1 has no agreement term; depth 4 chains several logit gradients
        for arch in (None, DISTINCT_ARCHITECTURE):
            for routing_iters in (3, 1, 4):
                reports = run_gradient_check(
                    arch=arch, seed=0, routing_iters=routing_iters
                )
                assert set(reports) == {
                    "spatial_filters",
                    "primary_kernels",
                    "window_tensors",
                    "class_matrices",
                    "biases",
                }
                for group, report in reports.items():
                    assert report.max_relative_error < 1e-4, (arch, routing_iters, group)
                    assert report.max_relative_error >= 0.0
                    assert np.isfinite(report.analytic)
                    assert np.isfinite(report.numeric)

    def test_deterministic_per_seed(self):
        first = run_gradient_check(seed=1)
        second = run_gradient_check(seed=1)
        for group in first:
            assert (
                first[group].max_relative_error
                == second[group].max_relative_error
            )
            assert first[group].worst_index == second[group].worst_index

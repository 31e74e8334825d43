"""Acceptance suite: one test per shipping criterion, run with ``pytest -v``
to get one pass/fail line per criterion.

Criterion 8 (full-scene accuracy) is an optional extended check: it needs a
converted real scene, takes a long while, and is documented as a soft target,
so it only runs when ``HSICAPS_IP_CUBE`` points at a cube file.
"""

import os
import time

import numpy as np
import pytest

from hsicaps.cli import RunConfig, main, serialize_config
from hsicaps.data import (
    HsiCube,
    apply_whitening,
    fit_whitening,
    load_cube,
    make_synthetic_cube,
    stratified_split,
)
from hsicaps.layers import (
    Architecture,
    _agree,
    _by_class,
    _class_forward,
    _conv_forward,
    _window_kernels,
    param_count,
    squash,
)
from hsicaps.numerics import relu
from hsicaps.training import TrainConfig, evaluate, run_gradient_check, train

from conftest import (
    child_major,
    nearest_centroid_accuracy,
    oracle_conv_caps,
    oracle_primary_caps,
    oracle_routing,
    oracle_spatial_conv,
    shrink_child_blocks,
)


def test_criterion_01_parameter_count_reproduction():
    """Exact trainable-parameter totals for the three reference scenes."""
    start = time.perf_counter()
    expected = {
        (220, 16): 409_168,
        (103, 9): 99_920,
        (224, 16): 417_360,
    }
    for (channels, classes), total in expected.items():
        arch = Architecture(channels=channels, num_classes=classes)
        assert param_count(arch) == total, (channels, classes)
    assert time.perf_counter() - start < 1.0


# per-scene class totals with the (train, val, test) rows the floor-rule
# splitter must land on at fractions (0.2, 0.1)
SPLIT_TABLES = {
    "indian_pines": (
        [46, 1428, 830, 237, 483, 730, 28, 478, 20, 972, 2455, 593, 205, 1265, 386, 93],
        [9, 285, 166, 47, 96, 146, 5, 95, 4, 194, 491, 118, 41, 253, 77, 18],
        [4, 142, 83, 23, 48, 73, 2, 47, 2, 97, 245, 59, 20, 126, 38, 9],
        [33, 1001, 581, 167, 339, 511, 21, 336, 14, 681, 1719, 416, 144, 886, 271, 66],
    ),
    "pavia_university": (
        [6631, 18649, 2099, 3064, 1345, 5029, 1330, 3682, 947],
        [1326, 3729, 419, 612, 269, 1005, 266, 736, 189],
        [663, 1864, 209, 306, 134, 502, 133, 368, 94],
        [4642, 13056, 1471, 2146, 942, 3522, 931, 2578, 664],
    ),
    "salinas": (
        [2009, 3726, 1976, 1394, 2678, 3959, 3579, 11271, 6203, 3278, 1068, 1927, 916, 1070, 7268, 1807],
        [401, 745, 395, 278, 535, 791, 715, 2254, 1240, 655, 213, 385, 183, 214, 1453, 361],
        [200, 372, 197, 139, 267, 395, 357, 1127, 620, 327, 106, 192, 91, 107, 726, 180],
        [1408, 2609, 1384, 977, 1876, 2773, 2507, 7890, 4343, 2296, 749, 1350, 642, 749, 5089, 1266],
    ),
}


def test_criterion_02_split_table_reproduction():
    """The stratified splitter reproduces every reference split row exactly."""
    for scene, (totals, train_row, val_row, test_row) in SPLIT_TABLES.items():
        width = 200
        count = sum(totals)
        height = -(-count // width)
        flat = np.zeros(height * width, dtype=np.int32)
        pos = 0
        for cid, total in enumerate(totals, 1):
            flat[pos : pos + total] = cid
            pos += total
        cube = HsiCube(
            np.zeros((height, width, 1)), flat.reshape(height, width)
        )
        split = stratified_split(cube, (0.2, 0.1), seed=0)
        counts = split.counts()
        for cid, total in enumerate(totals, 1):
            got = counts[cid]
            want = (train_row[cid - 1], val_row[cid - 1], test_row[cid - 1])
            assert got == want, f"{scene} class {cid}: {got} != {want}"
            assert sum(got) == total


def test_criterion_03_gradient_correctness():
    """Finite differences vs the analytic backward pass, five seeds, all
    parameter groups, relative error < 1e-4, within a minute."""
    start = time.perf_counter()
    groups = {
        "spatial_filters",
        "primary_kernels",
        "window_tensors",
        "class_matrices",
        "biases",
    }
    for seed in range(5):
        reports = run_gradient_check(seed=seed, epsilon=1e-5)
        assert set(reports) == groups
        for group, report in reports.items():
            assert report.max_relative_error < 1e-4, (seed, group)
    assert time.perf_counter() - start < 60.0


def test_criterion_04_routing_invariants():
    """Coupling normalization, bounded outputs, uniform start, and the exact
    agreement increment, on the class layer the model runs."""
    rng = np.random.default_rng(0)
    for classes in (2, 9, 16):
        children = rng.normal(size=(3, 2, 4))
        matrices = rng.normal(size=(2, 3, classes, 3, 4))
        # the first pass sees zero logits: coupling must be exactly uniform
        _, (_, coupling, _, _) = _class_forward(child_major(children), matrices, 1, False)
        np.testing.assert_array_equal(coupling, np.full((1, classes, 6), 1.0 / classes))
        for iterations in (1, 2, 3):
            _, (acts, coupling, _, _) = _class_forward(
                child_major(children), matrices, iterations, False
            )
            sums = coupling.sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-10
            assert (np.linalg.norm(acts, axis=-1) < 1.0).all()

    # a parent equal to the child's prediction makes the logit increment the
    # squared norm of the prediction, exactly, for exactly representable values
    for vector, norm_sq in (([3.0, 4.0], 25.0), ([0.75, 1.0], 1.5625)):
        view = np.array(vector)[None, None, None, :]
        parents = np.array(vector)[None, None, :]
        increment = _agree(view, parents)
        assert increment.shape == (1, 1, 1)
        assert increment[0, 0, 0] == norm_sq
        # and routing adds exactly that increment to the zero start: the
        # child (1, 0) picks the matrix column that holds the vector
        matrices = np.zeros((1, 1, 1, 2, 2))
        matrices[..., 0] = vector
        children = np.array([1.0, 0.0]).reshape(1, 1, 2)
        predictions, (_, _, logits, cache) = _class_forward(children, matrices, 2, True)
        np.testing.assert_array_equal(predictions[0, 0, 0], vector)
        np.testing.assert_array_equal(
            logits, _agree(_by_class(predictions), cache[0][2])
        )


def test_criterion_05_brute_force_layer_equivalence(monkeypatch):
    """All four layers against straight-loop oracles: 100 random small
    instances each (every instance under 200 parameters), within 1e-10.

    The layers run as the model runs them: the three convolutions through
    the sample-minor (in_maps, length, B) convolution, the class layer through
    the routing engine, whose child n is array * positions + position, both
    as one block of children and in blocks of two.
    """
    rng = np.random.default_rng(42)

    for _ in range(100):
        size = int(rng.choice([1, 3, 5]))
        filters = int(rng.integers(1, 5))
        channels = int(rng.integers(1, 7))
        patch = rng.normal(size=(size, size, channels))
        kernels = rng.normal(size=(filters, size, size))
        bias = rng.normal(size=filters)
        assert filters * (size * size + 1) <= 200
        pixels = patch.reshape(-1, channels, 1)
        _, pre = _conv_forward(pixels, kernels.reshape(filters, -1, 1), bias, 1)
        np.testing.assert_allclose(
            relu(pre[:, :, 0]).T,
            oracle_spatial_conv(patch, kernels, bias),
            atol=1e-10,
        )

    for _ in range(100):
        arrays = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 4))
        in_maps = int(rng.integers(1, 4))
        f = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 3))
        channels = int(rng.integers(f, f + 6))
        features = rng.normal(size=(channels, in_maps))
        kernels = rng.normal(size=(arrays * dim, in_maps, f))
        bias = rng.normal(size=arrays * dim)
        assert arrays * dim * (in_maps * f + 1) <= 200
        _, pre = _conv_forward(features.T[:, :, None], kernels, bias, stride)
        # map a * dim + j is component j of array a's capsule
        np.testing.assert_allclose(
            relu(pre[:, :, 0]).T.reshape(-1, arrays, dim),
            oracle_primary_caps(features, kernels, bias, stride, arrays, dim),
            atol=1e-10,
        )

    for _ in range(100):
        arrays = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 3))
        window = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        positions = int(rng.integers(window, window + 5))
        out_arrays = int(rng.integers(1, 3))
        out_dim = int(rng.integers(1, 4))
        children = rng.normal(size=(positions, arrays, dim))
        tensors = rng.normal(size=(out_arrays, out_dim, window, arrays, dim))
        bias = rng.normal(size=(out_arrays, out_dim))
        assert out_arrays * out_dim * (window * arrays * dim + 1) <= 200
        maps = children.reshape(positions, -1).T[:, :, None]
        _, pre = _conv_forward(maps, _window_kernels(tensors), bias.ravel(), stride)
        np.testing.assert_allclose(
            squash(pre[:, :, 0].T.reshape(-1, out_arrays, out_dim)),
            oracle_conv_caps(children, tensors, bias, stride),
            atol=1e-10,
        )

    for _ in range(100):
        arrays = int(rng.integers(1, 3))
        positions = int(rng.integers(1, 4))
        classes = int(rng.integers(2, 4))
        dim = int(rng.integers(2, 4))
        out_dim = int(rng.integers(2, 4))
        iterations = int(rng.integers(1, 4))
        children = rng.normal(size=(positions, arrays, dim))
        matrices = rng.normal(size=(arrays, positions, classes, out_dim, dim))
        assert matrices.size <= 200
        routed = [_class_forward(child_major(children), matrices, iterations, False)[1]]
        with monkeypatch.context() as patch:
            shrink_child_blocks(2, patch, classes, out_dim)
            routed.append(_class_forward(child_major(children), matrices, iterations, False)[1])
        want_acts, want_coupling, want_logits = oracle_routing(
            children, matrices, iterations
        )
        for acts, coupling, logits, _ in routed:
            np.testing.assert_allclose(acts[0], want_acts, atol=1e-10)
            # the oracle's (arrays, positions, classes) as (classes, children)
            np.testing.assert_allclose(
                coupling[0], want_coupling.reshape(-1, classes).T, atol=1e-10
            )
            np.testing.assert_allclose(
                logits[0], want_logits.reshape(-1, classes).T, atol=1e-10
            )


def test_criterion_06_whitening_contract():
    """Whitened populations: mean within 1e-9 of zero, covariance within 1e-6
    of identity, when epsilon sits far below the smallest eigenvalue."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        channels = int(rng.integers(4, 16))
        mixing = rng.normal(size=(channels, channels))
        values = (
            rng.normal(size=(40 * 50, channels)) @ mixing.T
            + rng.normal(size=channels)
        ).reshape(40, 50, channels)
        cube = HsiCube(values, np.zeros((40, 50), dtype=np.int32))
        transform = fit_whitening(cube, epsilon=1e-12)
        pixels = apply_whitening(cube, transform).values.reshape(-1, channels)
        assert np.abs(pixels.mean(axis=0)).max() < 1e-9
        cov = pixels.T @ pixels / len(pixels)
        assert np.abs(cov - np.eye(channels)).max() < 1e-6


def test_criterion_07_toy_end_to_end_learning():
    """The documented synthetic 3-class scene: the reference recipe reaches
    test OA >= 0.99 within 20 epochs, far inside the five-minute budget."""
    start = time.perf_counter()
    cube = make_synthetic_cube(64, 64, 32, 3, noise_sigma=0.25, seed=0)
    split = stratified_split(cube, (0.2, 0.1), seed=0)
    # the scene is easy enough for a spectral nearest-centroid baseline,
    # which is the documented difficulty gate for this criterion
    assert nearest_centroid_accuracy(cube, split) >= 0.99

    whitened = apply_whitening(cube, fit_whitening(cube, 1e-5))
    split = stratified_split(whitened, (0.2, 0.1), seed=0)
    arch = Architecture(channels=32, num_classes=3)
    params, record = train(
        whitened, split, TrainConfig(epochs=20, seed=0), arch
    )
    test_coords, _ = split.subset("test")
    result = evaluate(params, whitened, test_coords).metrics()
    assert result.overall_accuracy >= 0.99, result.overall_accuracy
    assert time.perf_counter() - start < 300.0


@pytest.mark.skipif(
    not os.environ.get("HSICAPS_IP_CUBE"),
    reason="optional extended check; set HSICAPS_IP_CUBE to a converted "
    "Indian Pines cube to run it (soft target, not a hard criterion)",
)
def test_criterion_08_full_scene_soft_target():
    """50-epoch run on the converted 16-class scene; OA >= 0.97 is a soft
    target, so a miss here is a report, not a shipping blocker."""
    cube = load_cube(os.environ["HSICAPS_IP_CUBE"])
    whitened = apply_whitening(cube, fit_whitening(cube, 1e-5))
    split = stratified_split(whitened, (0.2, 0.1), seed=0)
    arch = Architecture(channels=cube.channels, num_classes=cube.num_classes())
    params, _ = train(whitened, split, TrainConfig(epochs=50, seed=0), arch)
    test_coords, _ = split.subset("test")
    result = evaluate(params, whitened, test_coords).metrics()
    assert result.overall_accuracy >= 0.97, result.overall_accuracy


def test_criterion_09_determinism(toy_cube_path, tmp_path):
    """Two identically seeded CLI training runs write byte-identical
    checkpoints and metric reports."""
    outputs = []
    for run in ("first", "second"):
        run_dir = tmp_path / run
        config = RunConfig(
            cube=toy_cube_path,
            output_dir=str(run_dir),
            epochs=3,
            batch_size=32,
            seed=0,
        )
        config_path = tmp_path / f"{run}.cfg"
        config_path.write_text(serialize_config(config))
        assert main(["train", str(config_path)]) == 0
        outputs.append(run_dir)
    for name in ("checkpoint.cckp", "metrics.txt", "metrics.kv", "train_log.tsv"):
        assert (outputs[0] / name).read_bytes() == (
            outputs[1] / name
        ).read_bytes(), name

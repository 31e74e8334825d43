"""Malformed input to the public library callables raises ``ValueError``
naming the input.

One row per (callable, malformed input): a float or ``True`` where an
integer or a seed goes, a coordinate array that is not integer (m, 2)
pixels inside the cube, an empty batch, labels that are not whole numbers,
or a string, ``True``, NaN or an infinity where a float setting goes.  Every
input is fixed, so the table runs the same way each time.  Passing some
other object where one of the package's own dataclasses goes is out of
scope, and so are the callables that take nothing else.
"""

from functools import partial

import numpy as np
import pytest

import hsicaps
from hsicaps import data, layers, metrics, training
from hsicaps.layers import MINIATURE_ARCHITECTURE as ARCH

CUBE = data.make_synthetic_cube(8, 8, ARCH.channels, ARCH.num_classes, seed=0)
PARAMS = layers.init_params(ARCH, 0)
PATCHES = np.zeros((2, ARCH.patch_size, ARCH.patch_size, ARCH.channels))
CACHE = layers.forward_batch(PARAMS, PATCHES, keep_cache=True)[1]
EMPTY_SPLIT = data.SplitAssignment({}, (0.3, 0.3), 0)
NAN = float("nan")


def row(function, label, *args, match, **kwargs):
    """A table row: ``function(*args, **kwargs)`` must raise ValueError
    matching ``match``; the id starts with the function's name."""
    call = partial(function, *args, **kwargs)
    return pytest.param(call, match, id=f"{function.__name__}-{label}")


synthetic = data.make_synthetic_cube
split = data.stratified_split
patches = data.extract_patches
forward = layers.forward_batch
loss = metrics.margin_loss_batch
predict = training.predict_coords
evaluate = training.evaluate
FLAT = np.zeros(2, int)


def Architecture(**fields):
    return layers.Architecture(**{"channels": 24, "num_classes": 3, **fields})


ROWS = [
    row(synthetic, "height-float", 8.5, 8, 8, 3, match="height"),
    row(synthetic, "height-True", True, 8, 8, 3, match="height"),
    row(synthetic, "width-float", 8, 8.0, 8, 3, match="width"),
    row(synthetic, "channels-float", 8, 8, channels=8.0, match="channels"),
    row(synthetic, "num_classes-float", 8, 8, 8, 3.0, match="num_classes"),
    row(synthetic, "seed-float", 8, 8, 8, 3, seed=2.5, match="seed"),
    row(synthetic, "seed-True", 8, 8, 8, 3, seed=True, match="seed"),
    row(synthetic, "noise_sigma-nan", 8, 8, 8, 3, noise_sigma=NAN, match="noise_sigma"),
    row(synthetic, "noise_sigma-str", 8, 8, 8, 3, noise_sigma="x", match="noise_sigma"),
    row(split, "seed-float", CUBE, (0.3, 0.3), 2.5, match="seed"),
    row(split, "seed-True", CUBE, (0.3, 0.3), True, match="seed"),
    row(split, "fractions-nan", CUBE, (NAN, 0.3), 0, match="fractions"),
    row(split, "fractions-str", CUBE, ("a", "b"), 0, match="fractions"),
    row(split, "fractions-scalar", CUBE, 0.3, 0, match="fractions"),
    row(split, "fractions-triple", CUBE, (0.3, 0.3, 0.3), 0, match="fractions"),
    row(data.fit_whitening, "epsilon-nan", CUBE, NAN, match="epsilon"),
    row(data.fit_whitening, "epsilon-str", CUBE, "x", match="epsilon"),
    row(data.fit_whitening, "epsilon-True", CUBE, True, match="epsilon"),
    row(data.reflect_index, "size-float", 1, 2.5, match="size"),
    row(data.reflect_index, "size-True", 1, True, match="size"),
    row(data.reflect_index, "index-float", [1.5], 5, match="index"),
    row(data.reflect_index, "index-True", True, 5, match="index"),
    row(patches, "size-float", CUBE, [[1, 1]], 3.0, match="size"),
    row(patches, "size-True", CUBE, [[1, 1]], True, match="size"),
    row(patches, "coords-float", CUBE, [[1.5, 2.0]], 3, match="coords"),
    row(patches, "coords-bool", CUBE, [[True, False]], 3, match="coords"),
    row(patches, "coords-flat", CUBE, FLAT, 3, match="coords"),
    row(patches, "coords-outside", CUBE, [[8, 0]], 3, match="coords"),
    row(patches, "coords-negative", CUBE, [[0, -1]], 3, match="coords"),
    row(data.HsiCube, "values-flat", np.zeros((4, 4)), np.zeros((4, 4)), match="values"),
    row(data.HsiCube, "labels-shape", np.zeros((4, 4, 2)), np.zeros((4, 3)), match="labels"),
    row(data.HsiCube, "labels-fraction", np.zeros((1, 1, 1)), [[1.5]], match="labels"),
    row(data.HsiCube, "labels-nan", np.zeros((1, 1, 1)), [[NAN]], match="labels"),
    row(Architecture, "channels-float", channels=10.5, match="channels"),
    row(Architecture, "num_classes-float", num_classes=2.5, match="num_classes"),
    row(Architecture, "patch_size-True", patch_size=True, match="patch_size"),
    row(Architecture, "stride-0", primary_stride=0, match="primary_stride must be >= 1, got 0"),
    row(Architecture, "stride-True", primary_stride=True, match="primary_stride .*, got True"),
    row(Architecture, "kernel-0", primary_kernel_size=0, match="primary_kernel_size must be >= 1"),
    row(Architecture, "window_stride-float", window_stride=2.0, match="window_stride"),
    row(layers.ModelParams, "shape", ARCH, *[np.zeros(1)] * 7, match="spatial_kernels"),
    row(layers.init_params, "seed-float", ARCH, 2.5, match="seed"),
    row(layers.init_params, "seed-True", ARCH, True, match="seed"),
    row(layers.init_params, "seed-negative", ARCH, -1, match="seed"),
    # into a missing directory, so a write before the check would raise OSError
    row(layers.save_checkpoint, "step-float", "no-such-dir/m.cckp", PARAMS, 2.5, 0, match="step"),
    row(forward, "routing_iters-float", PARAMS, PATCHES, 2.5, match="routing_iters"),
    row(forward, "routing_iters-True", PARAMS, PATCHES, True, match="routing_iters"),
    row(forward, "empty", PARAMS, PATCHES[:0], match="patches"),
    row(forward, "shape", PARAMS, PATCHES[..., :3], match="patches"),
    row(layers.backward_batch, "upstream-shape", PARAMS, CACHE, np.ones(2), match="upstream"),
    row(loss, "empty", np.zeros((0, 3, 4)), np.zeros(0, int), match="activations"),
    row(loss, "ids-float", np.ones((1, 3, 4)), [1.5], match="class ids"),
    row(metrics.ConfusionMatrix, "num_classes-float", 2.5, match="num_classes"),
    row(metrics.ConfusionMatrix, "num_classes-True", True, match="num_classes"),
    row(metrics.ConfusionMatrix(3).accumulate_many, "ids-float", [1.9], [1], match="class ids"),
    row(metrics.MarginConfig, "positive_margin-nan", positive_margin=NAN, match="positive_margin"),
    row(metrics.MarginConfig, "positive_margin-str", positive_margin="x", match="positive_margin"),
    row(metrics.MarginConfig, "negative_margin-nan", negative_margin=NAN, match="negative_margin"),
    row(metrics.MarginConfig, "negative_weight-nan", negative_weight=NAN, match="negative_weight"),
    row(training.TrainConfig, "epochs-float", epochs=2.5, match="epochs"),
    row(training.TrainConfig, "batch_size-True", batch_size=True, match="batch_size"),
    row(training.TrainConfig, "routing_iters-float", routing_iters=2.5, match="routing_iters"),
    row(training.TrainConfig, "seed-float", seed=2.5, match="seed"),
    row(training.TrainConfig, "learning_rate-nan", learning_rate=NAN, match="learning_rate"),
    row(training.TrainConfig, "learning_rate-str", learning_rate="x", match="learning_rate"),
    row(training.TrainConfig, "learning_rate-True", learning_rate=True, match="learning_rate"),
    row(training.TrainConfig, "adam_beta1-nan", adam_beta1=NAN, match="beta"),
    row(training.TrainConfig, "adam_beta2-nan", adam_beta2=NAN, match="beta"),
    row(training.TrainConfig, "adam_eps-nan", adam_eps=NAN, match="adam_eps"),
    row(predict, "coords-float", PARAMS, CUBE, [[1.5, 2.0]], match="coords"),
    row(predict, "coords-flat", PARAMS, CUBE, FLAT, match="coords"),
    row(predict, "coords-outside", PARAMS, CUBE, [[0, 8]], match="coords"),
    row(predict, "batch_size-float", PARAMS, CUBE, [[1, 1]], batch_size=2.5, match="batch_size"),
    row(predict, "routing_iters-True", PARAMS, CUBE, [[1, 1]], True, match="routing_iters"),
    row(evaluate, "coords-flat", PARAMS, CUBE, np.zeros(2), match="coords"),
    row(evaluate, "coords-float", PARAMS, CUBE, [[1.5, 2.0]], match="coords"),
    row(evaluate, "coords-outside", PARAMS, CUBE, [[-1, 0]], match="coords"),
    row(evaluate, "coords-empty", PARAMS, CUBE, np.zeros((0, 2), int), match="coordinate"),
    row(evaluate, "routing_iters-float", PARAMS, CUBE, [[1, 1]], 2.5, match="routing_iters"),
    row(training.train, "split-empty", CUBE, EMPTY_SPLIT, training.TrainConfig(), match="split"),
    row(training.run_gradient_check, "seed-float", seed=2.5, match="seed"),
    row(training.run_gradient_check, "epsilon-nan", epsilon=NAN, match="epsilon"),
]

# exported names that take nothing the table varies: files, arrays of any
# value, or only the package's own objects
TAKES_NO_SUCH_INPUT = {
    "CheckpointFormatError",
    "CubeFormatError",
    "MetricsResult",
    "SplitAssignment",
    "TrainRecord",
    "TrainingDiverged",
    "WhiteningTransform",
    "apply_whitening",
    "format_metrics_table",
    "invert_whitening",
    "load_checkpoint",
    "load_cube",
    "param_count",
    "save_cube",
    "squash",
}


@pytest.mark.parametrize("call, pattern", ROWS)
def test_malformed_input_is_refused(call, pattern):
    with pytest.raises(ValueError, match=pattern):
        call()


def test_every_exported_callable_has_a_row():
    covered = {param.id.split("-")[0] for param in ROWS}
    exported = {name for name in hsicaps.__all__ if callable(getattr(hsicaps, name))}
    assert sorted(exported - covered - TAKES_NO_SUCH_INPUT) == []
    assert TAKES_NO_SUCH_INPUT <= exported

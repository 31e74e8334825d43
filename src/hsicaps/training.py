"""Mini-batch training, evaluation, and backward-pass validation.

The optimizer is Adam with bias correction.  Training shuffles per epoch from
one seeded generator, validates after every epoch, and returns the parameter
snapshot with the best validation overall accuracy (ties keep the earliest
epoch).  All reductions run in a fixed order, so a given seed reproduces a
run bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import HsiCube, SplitAssignment, check_coords, extract_patches
from .layers import (
    Architecture,
    MINIATURE_ARCHITECTURE,
    ModelParams,
    PARAM_GROUPS,
    backward_batch,
    forward_batch,
    inference_block,
    init_params,
    predict_classes,
)
from .metrics import ConfusionMatrix, margin_loss_batch
from .numerics import GradCheckReport, check_float, check_int, check_seed, row_chunks
from .numerics import finite_difference_check

__all__ = [
    "TrainConfig",
    "TrainRecord",
    "TrainingDiverged",
    "evaluate",
    "predict_coords",
    "train",
]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings, the margin loss's (``metrics.margin_loss_batch``)
    last; the defaults are the reference recipe.  Frozen, so no value skips its check."""

    epochs: int = 50
    learning_rate: float = 0.01
    batch_size: int = 64
    routing_iters: int = 3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    margin_upper: float = 0.9
    margin_lower: float = 0.1
    margin_weight: float = 0.5

    def __post_init__(self) -> None:
        checked = {
            "epochs": check_int(self.epochs, "epochs"),
            "batch_size": check_int(self.batch_size, "batch_size"),
            "routing_iters": check_int(self.routing_iters, "routing_iters"),
            "learning_rate": check_float(self.learning_rate, "learning_rate"),
            "adam_beta1": check_float(self.adam_beta1, "adam_beta1", high=1),
            "adam_beta2": check_float(self.adam_beta2, "adam_beta2", high=1),
            "adam_eps": check_float(self.adam_eps, "adam_eps", positive=True),
            "seed": check_seed(self.seed),
            "margin_upper": check_float(self.margin_upper, "margin_upper", high=1, positive=True),
            "margin_lower": check_float(self.margin_lower, "margin_lower", high=1, positive=True),
            "margin_weight": check_float(self.margin_weight, "margin_weight"),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.margin_lower >= self.margin_upper:
            raise ValueError(
                f"margin_lower {self.margin_lower} must lie below margin_upper {self.margin_upper}"
            )


@dataclass
class AdamState:
    """First/second moment estimates per parameter array plus the step count."""

    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(
            {name: np.zeros(arr.shape) for name, arr in params.arrays()},
            {name: np.zeros(arr.shape) for name, arr in params.arrays()},
        )


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, config: TrainConfig
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update with ``config``'s settings, applied in place.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).

    A zero gradient with fresh state leaves the parameters untouched.  A
    second moment or an update that is not finite raises FloatingPointError
    naming its array.  Each array is updated in ``row_chunks`` of its (-1, last
    axis) view, no copy as ``ModelParams`` holds C-contiguous arrays; the update
    is elementwise, so the cut changes no bit.
    """
    beta1, beta2 = config.adam_beta1, config.adam_beta2
    state.step += 1
    bias1, bias2 = 1.0 - beta1**state.step, 1.0 - beta2**state.step

    def update_rows(name: str, arr, grad, m, v) -> None:
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        # a gradient past about 1e154 overflows v and zeroes its update: refused below
        with np.errstate(over="ignore"):
            v += (1.0 - beta2) * grad * grad
        update = config.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + config.adam_eps)
        if not (np.isfinite(update).all() and np.isfinite(v).all()):
            raise FloatingPointError(f"non-finite Adam update for {name}")
        arr -= update

    for name, arr in params.arrays():
        arrays = (arr, grads[name], state.first_moment[name], state.second_moment[name])
        row_chunks(partial(update_rows, name), *(a.reshape(-1, arr.shape[-1]) for a in arrays))
    return params, state


@dataclass
class TrainRecord:
    """Per-epoch history plus which snapshot was kept."""

    epoch_losses: list[float]
    val_accuracy: list[float]
    best_epoch: int
    best_val_accuracy: float
    best_step: int

    def to_tsv(self) -> str:
        lines = ["epoch\tmean_loss\tval_oa"]
        for i, (loss, oa) in enumerate(zip(self.epoch_losses, self.val_accuracy), 1):
            lines.append(f"{i}\t{loss!r}\t{oa!r}")
        return "\n".join(lines) + "\n"


class TrainingDiverged(RuntimeError):
    """Loss or a gradient went non-finite; carries where it happened."""

    def __init__(self, epoch: int, batch_index: int):
        super().__init__(
            f"training diverged to non-finite values at epoch {epoch}, "
            f"batch {batch_index}"
        )
        self.epoch = epoch
        self.batch_index = batch_index


def _refuse_non_finite_patches(patches: np.ndarray, coords: np.ndarray) -> None:
    """Raise ValueError naming the first pixel whose patch holds a cube value
    that is not finite; called only once a forward pass has failed."""
    bad = ~np.isfinite(patches).all(axis=(1, 2, 3))
    if bad.any():
        row, col = coords[np.argmax(bad)]
        raise ValueError(
            f"the cube holds a non-finite value in the patch of pixel ({row}, {col})"
        )


def predict_coords(
    params: ModelParams,
    cube: HsiCube,
    coords: np.ndarray,
    routing_iters: int = TrainConfig.routing_iters,
    batch_size: int = 256,
) -> np.ndarray:
    """Predicted 1-based class ids for the pixels at ``coords``.

    ``batch_size`` caps the pixels per ``forward_batch`` call; the model runs
    in blocks of ``inference_block`` pixels.  Samples do not interact, so a
    block computes what a whole-batch call computes.  Where a call's sample
    count is not a multiple of 8, BLAS may round a product differently, so
    activations can differ from an unblocked run by rounding error; class
    ids did not differ in any check.  A cube value that is not finite in a
    patch raises ``ValueError``.
    """
    batch_size = check_int(batch_size, "batch_size")
    if params.arch.channels != cube.channels:
        raise ValueError(
            f"model expects {params.arch.channels} channels, cube has {cube.channels}"
        )
    block = inference_block(params.arch, batch_size)
    coords = check_coords(coords, cube)
    out = np.zeros(len(coords), dtype=np.int64)
    for start in range(0, len(coords), block):
        chunk = coords[start : start + block]
        patches = extract_patches(cube, chunk, params.arch.patch_size)
        try:
            activations, _ = forward_batch(params, patches, routing_iters)
        except FloatingPointError:
            _refuse_non_finite_patches(patches, chunk)
            raise
        out[start : start + block] = predict_classes(activations)
    return out


def evaluate(
    params: ModelParams,
    cube: HsiCube,
    coords: np.ndarray,
    routing_iters: int = TrainConfig.routing_iters,
) -> ConfusionMatrix:
    """Confusion matrix of the model over the labeled pixels at ``coords``.

    Predictions come from :func:`predict_coords` with its default cap, so
    the model runs in prediction-budget blocks.
    """
    coords = check_coords(coords, cube)
    if len(coords) == 0:
        raise ValueError("cannot evaluate on an empty coordinate set")
    truth = cube.labels[coords[:, 0], coords[:, 1]]
    if (truth < 1).any():
        raise ValueError("evaluation coords include unlabeled pixels")
    cm = ConfusionMatrix(params.arch.num_classes)
    predictions = predict_coords(params, cube, coords, routing_iters)
    cm.accumulate_many(truth, predictions)
    return cm


def train(
    cube: HsiCube,
    split: SplitAssignment,
    config: TrainConfig,
    arch: Architecture | None = None,
) -> tuple[ModelParams, TrainRecord]:
    """Train on the split's train subset, select on its val subset.

    Initialization, shuffling, and batching all draw from one generator
    seeded with ``config.seed``.  Returns the best-validation snapshot and
    the full history.

    Raises:
        TrainingDiverged: if an activation, the loss, a gradient, or an
            update goes non-finite.
        ValueError: instead, if a batch's patches hold a cube value that is
            not finite.
    """
    train_coords, train_labels = split.subset("train")
    val_coords, _ = split.subset("val")
    if len(train_coords) == 0 or len(val_coords) == 0:
        raise ValueError("split must provide non-empty train and val subsets")

    if arch is None:
        arch = Architecture(channels=cube.channels, num_classes=cube.num_classes())
    rng = np.random.default_rng(config.seed)
    params = init_params(arch, rng)
    state = AdamState.for_params(params)

    num_train = len(train_coords)
    epoch_losses: list[float] = []
    val_history: list[float] = []
    best_accuracy = -1.0
    best_epoch = 0
    best_step = 0
    best_params = params.copy()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(num_train)
        loss_sum = 0.0
        for batch_index, start in enumerate(range(0, num_train, config.batch_size)):
            chosen = order[start : start + config.batch_size]
            patches = extract_patches(cube, train_coords[chosen], arch.patch_size)
            try:
                activations, cache = forward_batch(
                    params, patches, config.routing_iters, keep_cache=True
                )
                loss, grad = margin_loss_batch(activations, train_labels[chosen], config)
                grads = backward_batch(params, cache, grad)
                adam_step(params, grads, state, config)
            except FloatingPointError as exc:
                _refuse_non_finite_patches(patches, train_coords[chosen])
                raise TrainingDiverged(epoch, batch_index) from exc
            loss_sum += loss * len(chosen)
            # the cache holds the batch's prediction tensor; without this it
            # stays alive through the next forward pass and validation
            del patches, activations, cache, grads
        epoch_losses.append(loss_sum / num_train)

        val_cm = evaluate(params, cube, val_coords, config.routing_iters)
        val_oa = val_cm.metrics().overall_accuracy
        val_history.append(val_oa)
        if val_oa > best_accuracy:
            best_accuracy = val_oa
            best_epoch = epoch
            best_step = state.step
            best_params = params.copy()

    record = TrainRecord(
        epoch_losses, val_history, best_epoch, best_accuracy, best_step
    )
    return best_params, record


def run_gradient_check(
    arch: Architecture | None = None,
    seed: int = 0,
    epsilon: float = 1e-5,
    routing_iters: int = TrainConfig.routing_iters,
) -> dict[str, GradCheckReport]:
    """Finite-difference the whole backward pass, one report per parameter
    family (the four weight tensors, plus all biases as one family).

    Builds a freshly initialized model on ``arch`` (the miniature setup by
    default), draws two random patches and random labels, computes the
    analytic gradients once, and then checks every coordinate of every array
    against central differences of the mean margin loss.
    """
    if arch is None:
        arch = MINIATURE_ARCHITECTURE
    rng = np.random.default_rng(check_seed(seed))
    params = init_params(arch, rng)
    patches = rng.normal(0.0, 1.0, (2, arch.patch_size, arch.patch_size, arch.channels))
    labels = rng.integers(1, arch.num_classes + 1, 2)
    margins = TrainConfig()

    activations, cache = forward_batch(params, patches, routing_iters, keep_cache=True)
    _, loss_grad = margin_loss_batch(activations, labels, margins)
    grads = backward_batch(params, cache, loss_grad)

    def loss_at_current_params(_: np.ndarray) -> float:
        acts, _ = forward_batch(params, patches, routing_iters)
        value, _ = margin_loss_batch(acts, labels, margins)
        return value

    reports: dict[str, GradCheckReport] = {}
    for name, arr in params.arrays():
        # finite_difference_check perturbs the live parameter array in place,
        # so re-running the forward pass sees each perturbation
        report = finite_difference_check(
            loss_at_current_params, arr, grads[name], epsilon
        )
        group = PARAM_GROUPS[name]
        if group not in reports or report.max_relative_error > reports[
            group
        ].max_relative_error:
            reports[group] = report
    return reports

"""Four-layer capsule classifier over spectral patches.

The forward pass runs, in order: per-channel spatial filtering with shared 2D
kernels, a strided 1D spectral convolution whose feature maps are regrouped
into capsule arrays, a locally connected capsule convolution whose
transformation tensors slide along the spectral-capsule axis with shared
parameters, and a dense capsule layer whose couplings are assigned by
iterative routing-by-agreement.

The backward pass is hand-derived and exact: routing iterations are unrolled
and differentiated through, with the initial uniform logits treated as
constants.  Capsule tensors passed between the public functions follow the
(positions, arrays, dim) axis convention; class ids are 1-based.

The spatial, primary and window layers are one private strided 1D
convolution along the spectral axis, held maps-first (maps, B, length).  The
routed class layer is one class-major engine: its prediction vectors are
stored once as (B, children, classes, out_dim), and routing and its unrolled
backward read them through a (B, classes, children, out_dim) view as stacked
matrix products.
``forward_batch`` and ``backward_batch`` compose them, and the single-sample
layer functions are thin adapters over the same code.  A batch whose
prediction tensor exceeds ``_PREDICTION_BUDGET`` runs as two halves, the
second on one worker thread.  Each parameter array is declared once, in
``_PARAM_TABLE``, with its layer, shape and init.
"""

from __future__ import annotations

import contextvars
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import float32_payload, write_atomic
from .numerics import conv1d_output_length, relu, relu_grad

__all__ = [
    "Architecture",
    "CheckpointFormatError",
    "ForwardCache",
    "MINIATURE_ARCHITECTURE",
    "ModelParams",
    "RoutingState",
    "backward_batch",
    "capsule_lengths",
    "conv_caps_forward",
    "dynamic_routing",
    "encode_checkpoint",
    "forward_batch",
    "init_params",
    "load_checkpoint",
    "param_count",
    "predict_classes",
    "primary_caps_forward",
    "read_checkpoint",
    "save_checkpoint",
    "spatial_conv_forward",
    "squash",
    "squash_backward",
]


@dataclass(frozen=True)
class Architecture:
    """Shape parameters of the four-layer classifier.

    The defaults (everything except ``channels`` and ``num_classes``) are the
    reference setup this package ships with: 7x7 spatial filtering into 16
    maps, a size-9 stride-2 spectral convolution into 2 arrays of 8D capsules,
    a size-9 stride-2 capsule convolution into 4 arrays of 8D capsules, and
    16D class capsules.
    """

    channels: int
    num_classes: int
    patch_size: int = 7
    spatial_filters: int = 16
    primary_kernel_size: int = 9
    primary_stride: int = 2
    capsule_arrays: int = 2
    capsule_dim: int = 8
    window_size: int = 9
    window_stride: int = 2
    window_count: int = 4
    window_capsule_dim: int = 8
    class_capsule_dim: int = 16

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{f.name} must be a positive integer, got {value!r}")
        if self.patch_size % 2 != 1:
            raise ValueError(f"patch_size must be odd, got {self.patch_size}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        # both derived lengths must be valid; raises if a kernel overruns
        conv1d_output_length(self.channels, self.primary_kernel_size, self.primary_stride)
        conv1d_output_length(self.primary_positions, self.window_size, self.window_stride)

    @property
    def primary_filters(self) -> int:
        """Spectral feature maps produced before the capsule regrouping."""
        return self.capsule_arrays * self.capsule_dim

    @property
    def primary_positions(self) -> int:
        """Spectral positions after the strided 1D convolution."""
        return (self.channels - self.primary_kernel_size) // self.primary_stride + 1

    @property
    def window_positions(self) -> int:
        """Spectral positions after the strided capsule convolution."""
        return (self.primary_positions - self.window_size) // self.window_stride + 1

    def layer_param_counts(self) -> dict[str, int]:
        """Trainable parameter count per layer, biases included."""
        counts: dict[str, int] = {}
        for name, shape in ModelParams.expected_shapes(self).items():
            layer = _PARAM_TABLE[name].layer
            counts[layer] = counts.get(layer, 0) + math.prod(shape)
        return counts


def param_count(arch: Architecture) -> int:
    """Total trainable parameters of the model, biases included."""
    return sum(arch.layer_param_counts().values())


# Small setup used by the gradient-check command and the heavier numerical
# tests: every layer present, but cheap enough to finite-difference every
# coordinate.  The reference kernel sizes do not fit 24 channels, so the
# spectral kernels shrink while the layer structure stays intact.
MINIATURE_ARCHITECTURE = Architecture(
    channels=24,
    num_classes=3,
    patch_size=3,
    spatial_filters=4,
    primary_kernel_size=5,
    primary_stride=2,
    capsule_arrays=2,
    capsule_dim=4,
    window_size=3,
    window_stride=2,
    window_count=2,
    window_capsule_dim=4,
    class_capsule_dim=4,
)


class _ParamSpec(NamedTuple):
    layer: str
    sizes: tuple[str, ...]
    fan_in_axis: int | None


# Every trainable array once, in wire order: its layer, its shape as
# Architecture sizes, and its init.  The axes of a weight array from
# ``fan_in_axis`` on feed one output unit and the axis before them indexes
# that unit's outputs, so it draws uniformly on [-b, b] with
# b = sqrt(6 / (fan_in + fan_out)), fan_in = prod(shape[fan_in_axis:]) and
# fan_out = shape[fan_in_axis - 1]; a bias (``None``) starts at zero.
_PARAM_TABLE = {
    "spatial_kernels": _ParamSpec(
        "spatial", ("spatial_filters", "patch_size", "patch_size"), 1
    ),
    "spatial_bias": _ParamSpec("spatial", ("spatial_filters",), None),
    "primary_kernels": _ParamSpec(
        "primary", ("primary_filters", "spatial_filters", "primary_kernel_size"), 1
    ),
    "primary_bias": _ParamSpec("primary", ("primary_filters",), None),
    "window_tensors": _ParamSpec(
        "window",
        (
            "window_count",
            "window_capsule_dim",
            "window_size",
            "capsule_arrays",
            "capsule_dim",
        ),
        2,
    ),
    "window_bias": _ParamSpec("window", ("window_count", "window_capsule_dim"), None),
    "class_matrices": _ParamSpec(
        "classes",
        (
            "window_count",
            "window_positions",
            "num_classes",
            "class_capsule_dim",
            "window_capsule_dim",
        ),
        4,
    ),
}

PARAM_FIELDS = tuple(_PARAM_TABLE)

# The five families reported by gradient checking: the four weight tensors
# plus all biases together.
PARAM_GROUPS = {
    "spatial_kernels": "spatial_filters",
    "primary_kernels": "primary_kernels",
    "window_tensors": "window_tensors",
    "class_matrices": "class_matrices",
    "spatial_bias": "biases",
    "primary_bias": "biases",
    "window_bias": "biases",
}


@dataclass
class ModelParams:
    """All trainable arrays, float64, shaped by an :class:`Architecture`.

    ``window_tensors`` is indexed (array, out_dim, window_offset, child_array,
    child_dim) and is shared across window positions; ``class_matrices`` is
    indexed (child_array, child_position, class, out_dim, child_dim) with no
    sharing.
    """

    arch: Architecture
    spatial_kernels: np.ndarray
    spatial_bias: np.ndarray
    primary_kernels: np.ndarray
    primary_bias: np.ndarray
    window_tensors: np.ndarray
    window_bias: np.ndarray
    class_matrices: np.ndarray

    def __post_init__(self) -> None:
        for name, expected in self.expected_shapes(self.arch).items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != expected:
                raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")
            setattr(self, name, arr)

    @staticmethod
    def expected_shapes(arch: Architecture) -> dict[str, tuple[int, ...]]:
        return {
            name: tuple(getattr(arch, size) for size in spec.sizes)
            for name, spec in _PARAM_TABLE.items()
        }

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in declaration order."""
        return [(name, getattr(self, name)) for name in PARAM_FIELDS]

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, *(getattr(self, n).copy() for n in PARAM_FIELDS))

    def size(self) -> int:
        return sum(arr.size for _, arr in self.arrays())


def init_params(
    arch: Architecture, rng: np.random.Generator | int = 0
) -> ModelParams:
    """Draw every weight array uniformly and zero every bias, as
    ``_PARAM_TABLE`` declares."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    arrays = {}
    for name, shape in ModelParams.expected_shapes(arch).items():
        axis = _PARAM_TABLE[name].fan_in_axis
        if axis is None:
            arrays[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / (math.prod(shape[axis:]) + shape[axis - 1]))
            arrays[name] = rng.uniform(-bound, bound, shape)
    return ModelParams(arch, **arrays)


def squash(vectors: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shrink each vector onto the open unit ball, keeping its direction.

    A vector of norm h maps to norm h^2 / (1 + h^2): near-zero vectors stay
    near zero, long vectors approach (but never reach) length 1.  The
    implementation multiplies by h / (1 + h^2) so the zero vector needs no
    special case.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    norm = np.linalg.norm(vectors, axis=axis, keepdims=True)
    return vectors * (norm / (1.0 + norm * norm))


def squash_backward(
    upstream: np.ndarray, vectors: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Exact vector-Jacobian product of :func:`squash` at ``vectors``.

    With a(h) = h / (1 + h^2), the Jacobian is a(h) I + (a'(h)/h) v v^T; the
    rank-one term vanishes at v = 0 where the gradient is a(0) I = 0.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    norm = np.linalg.norm(vectors, axis=axis, keepdims=True)
    norm_sq = norm * norm
    scale = norm / (1.0 + norm_sq)
    scale_deriv = (1.0 - norm_sq) / (1.0 + norm_sq) ** 2
    inv_norm = np.divide(
        1.0, norm, out=np.zeros_like(norm), where=norm > 0
    )
    dot = np.sum(vectors * upstream, axis=axis, keepdims=True)
    return scale * upstream + scale_deriv * inv_norm * dot * vectors


def capsule_lengths(activations: np.ndarray) -> np.ndarray:
    """Norm of each capsule vector along the last axis."""
    return np.linalg.norm(activations, axis=-1)


def predict_classes(activations: np.ndarray) -> np.ndarray:
    """1-based class ids of the longest class capsules, batched (..., n, d)."""
    return np.argmax(capsule_lengths(activations), axis=-1) + 1


# ---------------------------------------------------------------------------
# the spectral convolution
#
# The spatial, primary and window layers are one strided, valid 1D
# convolution along the spectral axis, held maps-first: inputs are (in_maps,
# B, length), kernels (out_maps, in_maps, kernel), pre-activations (out_maps,
# B, positions).  The spatial layer is its kernel-1 case over the size*size
# patch pixels; the window layer convolves the primary layer's arrays*dim
# maps.  The class layer reads its input as sample-first capsules (B,
# positions, arrays, dim).


def _conv_forward(maps: np.ndarray, kernels: np.ndarray, bias: np.ndarray, stride: int):
    """(in_maps, B, length) -> (windows (in_maps, B, positions, kernel),
    pre-activations (out_maps, B, positions))."""
    windows = sliding_window_view(maps, kernels.shape[-1], axis=-1)[:, :, ::stride]
    pre = np.tensordot(kernels, windows, axes=([1, 2], [0, 3]))
    return windows, pre + bias[:, None, None]


def _conv_param_grads(grad_pre: np.ndarray, windows: np.ndarray):
    """Gradients wrt (kernels, bias)."""
    grad_kernels = np.tensordot(grad_pre, windows, axes=([1, 2], [1, 2]))
    return grad_kernels, grad_pre.sum(axis=(1, 2))


def _conv_input_grad(
    grad_pre: np.ndarray, kernels: np.ndarray, stride: int, length: int
) -> np.ndarray:
    """Gradient wrt the (in_maps, B, length) input."""
    grad_windows = np.tensordot(kernels, grad_pre, axes=(0, 0))
    return _fold_windows(grad_windows, length, stride)


def _fold_windows(grad_windows: np.ndarray, length: int, stride: int) -> np.ndarray:
    """Adjoint of the window view in :func:`_conv_forward`: scatter-add
    (in_maps, kernel, B, positions) window gradients onto (in_maps, B, length)."""
    maps, kernel, batch, count = grad_windows.shape
    out = np.zeros((maps, batch, length))
    span = (count - 1) * stride + 1
    for j in range(kernel):
        out[..., j : j + span : stride] += grad_windows[:, j]
    return out


def _window_kernels(tensors: np.ndarray) -> np.ndarray:
    """(out_arrays, out_dim, window, arrays, dim) transformation tensors viewed
    as (out_arrays*out_dim, arrays*dim, window) convolution kernels."""
    out_arrays, out_dim, window = tensors.shape[:3]
    return tensors.reshape(out_arrays * out_dim, window, -1).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# the routed class layer
#
# One class-major engine.  Child n = array * positions + position, the order
# of ``class_matrices.reshape(children, classes * out_dim, dim)``.  The
# prediction vectors are written once, contiguous as (B, children, classes,
# out_dim), by one batched matmul over children; routing reads them through
# the view (B, classes, children, out_dim), whose (children, out_dim) slices
# BLAS takes as they are, so every routing product is a stacked matmul and the
# prediction tensor is never copied.  Couplings, logits and agreements are
# (B, classes, children); weighted sums and parents are (B, classes, out_dim).


def _by_class(predictions: np.ndarray) -> np.ndarray:
    """The (B, classes, children, out_dim) view of stored predictions."""
    return predictions.transpose(0, 2, 1, 3)


def _child_major(children: np.ndarray) -> np.ndarray:
    """(B, positions, arrays, dim) child capsules as (children, B, dim)."""
    return children.transpose(2, 1, 0, 3).reshape(-1, len(children), children.shape[-1])


def _routing_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis of (B, classes, children) logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _weighted_sum(weights: np.ndarray, view: np.ndarray) -> np.ndarray:
    """Sum over children of (B, classes, children) weights times the
    class-major prediction view: (B, classes, out_dim)."""
    return (weights[:, :, None, :] @ view)[:, :, 0]


def _agree(view: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Scalar product of every child's prediction with the (B, classes,
    out_dim) ``vectors``: (B, classes, children)."""
    return (view @ vectors[..., None])[..., 0]


def _agreement(predictions: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Logit increment of :func:`_routing_forward` on the per-child layout:
    (B, arrays, positions, classes, dim) predictions and (B, classes, dim)
    parents give (B, arrays, positions, classes)."""
    batch, arrays, positions, classes, dim = predictions.shape
    stored = predictions.reshape(batch, arrays * positions, classes, dim)
    increment = _agree(_by_class(stored), parents)
    return increment.transpose(0, 2, 1).reshape(batch, arrays, positions, classes)


def _routing_forward(
    view: np.ndarray, iterations: int, keep_iterations: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Iterate coupling refinement over fixed prediction vectors.

    ``view`` is the (B, classes, children, out_dim) prediction view.  Logits
    start at zero (uniform coupling); each iteration softmaxes the logits over
    classes, forms the coupling-weighted sums, squashes them, and, on every
    iteration but the last, adds the prediction/parent agreement to the
    logits.

    Returns (parents, final coupling, final logits, per-iteration cache of
    (coupling, weighted sums, parents)), all class-major.
    """
    if iterations < 1:
        raise ValueError(f"need at least one routing iteration, got {iterations}")
    batch, classes, children, _ = view.shape
    logits = np.zeros((batch, classes, children))
    cache: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for it in range(iterations):
        coupling = _routing_softmax(logits)
        weighted = _weighted_sum(coupling, view)
        parents = squash(weighted)
        if keep_iterations:
            cache.append((coupling, weighted, parents))
        if it + 1 < iterations:
            logits = logits + _agree(view, parents)
    return parents, coupling, logits, cache


def _routing_backward(view: np.ndarray, cache: list, upstream: np.ndarray) -> np.ndarray:
    """Gradient of the routed output wrt the stored predictions, (B, children,
    classes, out_dim).

    Walks the unrolled iterations in reverse.  The predictions enter every
    iteration's weighted sum and every agreement term, so their gradient is a
    sum of 2 * iterations - 1 rank-one terms per (sample, class): coupling_t
    times the weighted-sum gradient of iteration t, and the total logit
    gradient of iteration t times the parents of iteration t - 1.  The terms
    are collected and summed by one stacked matmul.  The initial zero logits
    are constants.
    """
    batch, classes, children, dim = view.shape
    left, right = [], []
    grad_parents = upstream
    grad_logits = 0.0
    for it in reversed(range(len(cache))):
        coupling, weighted, _ = cache[it]
        grad_weighted = squash_backward(grad_parents, weighted)
        left.append(coupling)
        right.append(grad_weighted)
        if it == 0:
            break
        # softmax backward over the class axis; logits accumulate, so the
        # gradient of the earlier logits adds on
        grad_coupling = _agree(view, grad_weighted)
        inner = (coupling * grad_coupling).sum(axis=1, keepdims=True)
        grad_logits = coupling * (grad_coupling - inner) + grad_logits
        left.append(grad_logits)
        right.append(cache[it - 1][2])
        grad_parents = _weighted_sum(grad_logits, view)
    grad_predictions = np.empty((batch, children, classes, dim))
    np.matmul(
        np.stack(left, axis=-1),
        np.stack(right, axis=-2),
        out=_by_class(grad_predictions),
    )
    return grad_predictions


def _class_forward(
    children: np.ndarray, matrices: np.ndarray, iterations: int, keep: bool
):
    """(B, positions, arrays, dim) -> (stored predictions (B, children,
    classes, out_dim), the :func:`_routing_forward` result); child (array i,
    position j) is ``children[:, j, i]``."""
    arrays, positions, classes, out_dim, dim = matrices.shape
    batch = len(children)
    predictions = np.empty((batch, arrays * positions, classes, out_dim))
    np.matmul(
        _child_major(children),
        matrices.reshape(arrays * positions, classes * out_dim, dim).transpose(0, 2, 1),
        out=predictions.reshape(batch, -1, classes * out_dim).transpose(1, 0, 2),
    )
    return predictions, _routing_forward(_by_class(predictions), iterations, keep)


def _class_backward(
    grad_parents: np.ndarray,
    children: np.ndarray,
    predictions: np.ndarray,
    routing: list,
    matrices: np.ndarray,
):
    """Gradients wrt (children, matrices) through the unrolled routing."""
    arrays, positions, classes, out_dim, dim = matrices.shape
    batch = len(children)
    grad_pred = _routing_backward(_by_class(predictions), routing, grad_parents)
    grad_rows = grad_pred.reshape(batch, -1, classes * out_dim).transpose(1, 0, 2)
    grad_matrices = grad_rows.transpose(0, 2, 1) @ _child_major(children)
    grad_children = grad_rows @ matrices.reshape(arrays * positions, -1, dim)
    return (
        grad_children.reshape(arrays, positions, batch, dim).transpose(2, 1, 0, 3),
        grad_matrices.reshape(matrices.shape),
    )


# ---------------------------------------------------------------------------
# single-sample layer operations


def spatial_conv_forward(
    patch: np.ndarray, kernels: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Apply each shared spatial filter to every channel of one patch.

    ``patch`` is (size, size, channels), ``kernels`` is (filters, size, size),
    ``bias`` is (filters,).  Returns (channels, filters) ReLU activations
    where out[c, k] is the filter-k response on channel c's spatial plane.
    """
    patch = np.asarray(patch, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if patch.ndim != 3:
        raise ValueError(f"patch must be (size, size, channels), got {patch.shape}")
    if kernels.ndim != 3 or kernels.shape[1:] != patch.shape[:2]:
        raise ValueError(
            f"kernels {kernels.shape} must match the patch plane {patch.shape[:2]}"
        )
    if bias.shape != (kernels.shape[0],):
        raise ValueError(f"bias must have shape ({kernels.shape[0]},), got {bias.shape}")
    pixels = patch.reshape(-1, 1, patch.shape[2])
    _, pre = _conv_forward(pixels, kernels.reshape(len(kernels), -1, 1), bias, 1)
    return relu(pre[:, 0].T)


def primary_caps_forward(
    features: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray,
    stride: int,
    capsule_arrays: int,
    capsule_dim: int,
) -> np.ndarray:
    """Strided 1D convolution along the spectral axis, regrouped into capsules.

    ``features`` is (channels, in_maps) and ``kernels`` is (maps, in_maps,
    kernel_size); the valid-padding convolution yields (positions, maps) ReLU
    feature maps, positions = floor((channels - kernel_size) / stride) + 1,
    which are regrouped so capsule (position, array) takes maps
    array*dim .. array*dim + dim - 1.  Returns (positions, arrays, dim).
    """
    features = np.asarray(features, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be (channels, in_maps), got {features.shape}")
    if kernels.ndim != 3:
        raise ValueError(
            f"kernels must be (maps, in_maps, kernel_size), got {kernels.shape}"
        )
    out_maps, in_maps, kernel_size = kernels.shape
    if in_maps != features.shape[1]:
        raise ValueError(
            f"kernels expect {in_maps} input maps, features have {features.shape[1]}"
        )
    if bias.shape != (out_maps,):
        raise ValueError(f"bias must have shape ({out_maps},), got {bias.shape}")
    if out_maps != capsule_arrays * capsule_dim:
        raise ValueError(
            f"{out_maps} feature maps cannot regroup into {capsule_arrays} arrays x "
            f"{capsule_dim} dims"
        )
    conv1d_output_length(features.shape[0], kernel_size, stride)
    _, pre = _conv_forward(features.T[:, None], kernels, bias, stride)
    return relu(pre[:, 0].T).reshape(-1, capsule_arrays, capsule_dim)


def conv_caps_forward(
    children: np.ndarray,
    tensors: np.ndarray,
    bias: np.ndarray,
    stride: int,
) -> np.ndarray:
    """Capsule convolution: slide a window of transformation tensors along the
    position axis.

    ``children`` is (positions, arrays, dim); ``tensors`` is (out_arrays,
    out_dim, window, arrays, dim) and is shared across output positions;
    ``bias`` is (out_arrays, out_dim).  Output position t contracts the
    children at positions t*stride .. t*stride + window - 1 and squashes the
    result: returns (out_positions, out_arrays, out_dim).
    """
    children = np.asarray(children, dtype=np.float64)
    tensors = np.asarray(tensors, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if children.ndim != 3:
        raise ValueError(f"children must be (positions, arrays, dim), got {children.shape}")
    out_arrays, out_dim, window, arrays, dim = tensors.shape
    if children.shape[1:] != (arrays, dim):
        raise ValueError(
            f"tensors expect children of (arrays, dim) = {(arrays, dim)}, "
            f"got {children.shape[1:]}"
        )
    if bias.shape != (out_arrays, out_dim):
        raise ValueError(f"bias must have shape {(out_arrays, out_dim)}, got {bias.shape}")
    conv1d_output_length(children.shape[0], window, stride)
    maps = children.reshape(len(children), -1).T[:, None]
    _, pre = _conv_forward(maps, _window_kernels(tensors), bias.ravel(), stride)
    return squash(pre[:, 0].T.reshape(-1, out_arrays, out_dim))


@dataclass
class RoutingState:
    """Final routing coefficients: ``logits`` and ``coupling`` are
    (child_arrays, child_positions, classes); ``coupling`` is the softmax that
    produced the returned activations."""

    logits: np.ndarray
    coupling: np.ndarray
    iterations: int


def dynamic_routing(
    children: np.ndarray, matrices: np.ndarray, iterations: int
) -> tuple[np.ndarray, RoutingState]:
    """Route one sample's child capsules to the class capsules.

    ``children`` is (positions, arrays, dim); ``matrices`` is (arrays,
    positions, classes, out_dim, dim), one matrix per child/class pair.  The
    prediction vectors are computed once; only the couplings iterate.

    Returns ((classes, out_dim) activations, RoutingState).
    """
    children = np.asarray(children, dtype=np.float64)
    matrices = np.asarray(matrices, dtype=np.float64)
    if children.ndim != 3:
        raise ValueError(f"children must be (positions, arrays, dim), got {children.shape}")
    arrays, positions, classes, out_dim, dim = matrices.shape
    if children.shape != (positions, arrays, dim):
        raise ValueError(
            f"matrices expect children of shape {(positions, arrays, dim)}, "
            f"got {children.shape}"
        )
    _, (parents, coupling, logits, _) = _class_forward(
        children[None], matrices, iterations, False
    )
    return parents[0], RoutingState(
        logits[0].T.reshape(arrays, positions, classes),
        coupling[0].T.reshape(arrays, positions, classes),
        iterations,
    )


# ---------------------------------------------------------------------------
# batched model engine


# Bytes of float64 predictions one forward or backward body may hold.
# Routing reads the prediction tensor 2·iters − 1 times; a body this size
# keeps it in cache between those passes instead of streaming it from
# memory on each one.
_PREDICTION_BUDGET = 4 * 2**20
# Batches are cut at a multiple of this many samples.  OpenBLAS may round the
# output columns of a partial tile at the end of a call differently; pieces
# of 8k samples cut a batch of 8m samples only at tile boundaries, so their
# activations match one whole-batch call bit for bit.  Odd pieces at 200/16,
# and most other sizes at 103/9, changed the last bit of some activations.
_BLOCK_MULTIPLE = 8

# A call over the budget runs its first half on the calling thread and its
# second on this one worker, whose thread starts on the first split call.
# The halves are numpy calls that release the GIL, so they run on two cores.
# One worker, not a pool: each extra thread gets its own malloc arena.
def _reset_worker() -> None:
    """Make an unstarted worker; a forked child inherits none of its thread."""
    global _HALF_WORKER
    _HALF_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hsicaps-half")


_reset_worker()
os.register_at_fork(after_in_child=_reset_worker)


def _budget_samples(arch: Architecture) -> int:
    """Samples whose float64 prediction tensor fits ``_PREDICTION_BUDGET``."""
    sample_bytes = 8 * (
        arch.window_count
        * arch.window_positions
        * arch.num_classes
        * arch.class_capsule_dim
    )
    return _PREDICTION_BUDGET // sample_bytes


def _split_point(arch: Architecture, batch: int) -> int:
    """Samples of a ``batch``-sample call that the calling thread runs: all
    of them while their predictions fit ``_PREDICTION_BUDGET``, otherwise
    the multiple of ``_BLOCK_MULTIPLE`` nearest half the batch."""
    if batch <= _budget_samples(arch):
        return batch
    half = (batch + _BLOCK_MULTIPLE) // (2 * _BLOCK_MULTIPLE) * _BLOCK_MULTIPLE
    return min(batch, max(_BLOCK_MULTIPLE, half))


def _in_halves(body, head_args: tuple, tail_args: tuple):
    """(``body(*head_args)`` on this thread, ``body(*tail_args)`` on the
    worker, under this thread's context, so ``np.errstate`` holds there
    too).  The worker's half has ended when this returns or raises; an
    exception in the first half wins over one in the second."""
    tail = _HALF_WORKER.submit(contextvars.copy_context().run, body, *tail_args)
    try:
        head = body(*head_args)
    finally:
        wait([tail])
    return head, tail.result()


@dataclass
class ForwardCache:
    """Intermediates of one batched forward pass, kept for backprop.

    The three convolutions keep their input windows (in_maps, B, positions,
    kernel) and pre-activations (out_maps, B, positions), maps-first;
    ``pre_window`` is viewed sample-first as (B, positions, out_arrays,
    out_dim), the layout of ``window_caps``, the class layer's input.
    ``predictions`` is the class layer's one prediction tensor, (B, children,
    classes, out_dim) with child n = array * positions + position, and
    ``routing`` holds each iteration's class-major (coupling, weighted sums,
    parents).  A batch that ran as two halves keeps the whole ``patches``
    and each half's own cache in ``halves``; its other fields stay None.
    """

    patches: np.ndarray
    patch_windows: np.ndarray | None = None
    pre_spatial: np.ndarray | None = None
    spatial_windows: np.ndarray | None = None
    pre_primary: np.ndarray | None = None
    caps_windows: np.ndarray | None = None
    pre_window: np.ndarray | None = None
    window_caps: np.ndarray | None = None
    predictions: np.ndarray | None = None
    routing: list | None = None
    halves: tuple[ForwardCache, ForwardCache] | None = None


def forward_batch(
    params: ModelParams,
    patches: np.ndarray,
    routing_iters: int = 3,
    keep_cache: bool = False,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the full model on a (B, size, size, channels) patch batch.

    Returns ((B, classes, out_dim) class-capsule activations, cache), the
    cache only when ``keep_cache``.  A batch whose prediction tensor exceeds
    ``_PREDICTION_BUDGET`` runs as two halves on two threads, cut at a
    multiple of 8 samples; samples do not interact, so the activations are
    those of one whole call.  Raises FloatingPointError if the output goes
    non-finite.
    """
    arch = params.arch
    patches = np.ascontiguousarray(patches, dtype=np.float64)
    expected = (arch.patch_size, arch.patch_size, arch.channels)
    if patches.ndim != 4 or patches.shape[1:] != expected:
        raise ValueError(
            f"patches must be (B, {expected[0]}, {expected[1]}, {expected[2]}), "
            f"got {patches.shape}"
        )

    first = _split_point(arch, len(patches))
    if first == len(patches):
        parents, cache = _forward_body(params, patches, routing_iters, keep_cache)
    else:
        (head, head_cache), (tail, tail_cache) = _in_halves(
            _forward_body,
            (params, patches[:first], routing_iters, keep_cache),
            (params, patches[first:], routing_iters, keep_cache),
        )
        parents = np.concatenate([head, tail])
        cache = None
        if keep_cache:
            cache = ForwardCache(patches, halves=(head_cache, tail_cache))
    if not np.isfinite(parents).all():
        raise FloatingPointError("non-finite activations in forward pass")
    return parents, cache


def _forward_body(
    params: ModelParams, patches: np.ndarray, routing_iters: int, keep_cache: bool
) -> tuple[np.ndarray, ForwardCache | None]:
    """:func:`forward_batch` in one piece, on validated patches."""
    arch = params.arch
    batch = len(patches)
    pixels = patches.reshape(batch, -1, arch.channels).transpose(1, 0, 2)
    spatial_kernels = params.spatial_kernels.reshape(arch.spatial_filters, -1, 1)
    patch_windows, pre_spatial = _conv_forward(
        pixels, spatial_kernels, params.spatial_bias, 1
    )
    spatial_windows, pre_primary = _conv_forward(
        relu(pre_spatial),
        params.primary_kernels,
        params.primary_bias,
        arch.primary_stride,
    )
    caps_windows, pre_window = _conv_forward(
        relu(pre_primary),
        _window_kernels(params.window_tensors),
        params.window_bias.ravel(),
        arch.window_stride,
    )
    pre_window = pre_window.transpose(1, 2, 0).reshape(
        batch, arch.window_positions, arch.window_count, arch.window_capsule_dim
    )
    window_caps = squash(pre_window)
    predictions, (parents, _, _, routing_cache) = _class_forward(
        window_caps, params.class_matrices, routing_iters, keep_cache
    )

    cache = None
    if keep_cache:
        cache = ForwardCache(
            patches=patches,
            patch_windows=patch_windows,
            pre_spatial=pre_spatial,
            spatial_windows=spatial_windows,
            pre_primary=pre_primary,
            caps_windows=caps_windows,
            pre_window=pre_window,
            window_caps=window_caps,
            predictions=predictions,
            routing=routing_cache,
        )
    return parents, cache


def backward_batch(
    params: ModelParams, cache: ForwardCache, upstream: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of sum(loss per sample) wrt every parameter array.

    ``upstream`` is dL/d(activations), shaped (B, classes, out_dim); any
    per-batch averaging belongs in the loss gradient.  Returns a dict keyed
    like :attr:`ModelParams` fields.  A batch whose forward pass ran as two
    halves runs backward as the same two halves on two threads, and each
    gradient is the first half's plus the second's.  Raises
    FloatingPointError if any gradient goes non-finite.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if cache.halves is None:
        grads = _backward_body(params, cache, upstream)
    else:
        head_cache, tail_cache = cache.halves
        first = len(head_cache.patches)
        head, tail = _in_halves(
            _backward_body,
            (params, head_cache, upstream[:first]),
            (params, tail_cache, upstream[first:]),
        )
        grads = {name: head[name] + tail[name] for name in head}
    for name, grad in grads.items():
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite gradient for {name}")
    return grads


def _backward_body(
    params: ModelParams, cache: ForwardCache, upstream: np.ndarray
) -> dict[str, np.ndarray]:
    """:func:`backward_batch` over the cache of one forward body."""
    arch = params.arch
    grad_window_caps, grad_class_matrices = _class_backward(
        upstream,
        cache.window_caps,
        cache.predictions,
        cache.routing,
        params.class_matrices,
    )
    grad_pre_window = squash_backward(grad_window_caps, cache.pre_window)
    grad_pre_window = grad_pre_window.reshape(
        len(upstream), arch.window_positions, -1
    ).transpose(2, 0, 1)
    grad_window_kernels, grad_window_bias = _conv_param_grads(
        grad_pre_window, cache.caps_windows
    )
    grad_pre_primary = relu_grad(
        cache.pre_primary,
        _conv_input_grad(
            grad_pre_window,
            _window_kernels(params.window_tensors),
            arch.window_stride,
            arch.primary_positions,
        ),
    )
    grad_primary_kernels, grad_primary_bias = _conv_param_grads(
        grad_pre_primary, cache.spatial_windows
    )
    grad_pre_spatial = relu_grad(
        cache.pre_spatial,
        _conv_input_grad(
            grad_pre_primary, params.primary_kernels, arch.primary_stride, arch.channels
        ),
    )
    grad_spatial_kernels, grad_spatial_bias = _conv_param_grads(
        grad_pre_spatial, cache.patch_windows
    )

    return {
        "spatial_kernels": grad_spatial_kernels.reshape(params.spatial_kernels.shape),
        "spatial_bias": grad_spatial_bias,
        "primary_kernels": grad_primary_kernels,
        "primary_bias": grad_primary_bias,
        "window_tensors": grad_window_kernels.transpose(0, 2, 1).reshape(
            params.window_tensors.shape
        ),
        "window_bias": grad_window_bias.reshape(params.window_bias.shape),
        "class_matrices": grad_class_matrices,
    }


# ---------------------------------------------------------------------------
# checkpoint container

CHECKPOINT_MAGIC = b"CCKP"
CHECKPOINT_VERSION = 2
# wire order of the architecture block
ARCH_WIRE_FIELDS = (
    "patch_size",
    "channels",
    "spatial_filters",
    "primary_kernel_size",
    "primary_stride",
    "capsule_arrays",
    "capsule_dim",
    "window_size",
    "window_stride",
    "window_count",
    "window_capsule_dim",
    "num_classes",
    "class_capsule_dim",
)
_ARCH_STRUCT = struct.Struct("<13I")
_SETTINGS_LENGTH = struct.Struct("<I")
_TRAILER_STRUCT = struct.Struct("<QQ")


class CheckpointFormatError(ValueError):
    """A checkpoint file violated the binary container contract."""


def encode_checkpoint(
    params: ModelParams, step: int, seed: int, settings: str = ""
) -> list[bytes]:
    """The bytes of a checkpoint file: the run's settings text, params as
    float32, and the training-step counter and RNG seed.  A parameter that
    is not finite in float32 raises ``ValueError``."""
    if step < 0 or seed < 0:
        raise ValueError("step and seed must be non-negative")
    text = settings.encode("utf-8")
    header = (
        CHECKPOINT_MAGIC
        + struct.pack("<B", CHECKPOINT_VERSION)
        + _ARCH_STRUCT.pack(*(getattr(params.arch, name) for name in ARCH_WIRE_FIELDS))
        + _SETTINGS_LENGTH.pack(len(text))
    )
    payload = [float32_payload(arr, name) for name, arr in params.arrays()]
    return [header, text, *payload, _TRAILER_STRUCT.pack(step, seed)]


def save_checkpoint(
    path: str, params: ModelParams, step: int, seed: int, settings: str = ""
) -> None:
    """Write :func:`encode_checkpoint`'s bytes to ``path``; a ``ValueError``
    leaves nothing written."""
    write_atomic(path, encode_checkpoint(params, step, seed, settings))


def read_checkpoint(path: str) -> tuple[ModelParams, int, int, str]:
    """Read a checkpoint; returns (params, step, seed, settings text), the
    text empty when the file carries none, as a version 1 file does.

    Raises:
        CheckpointFormatError: on bad magic/version, an architecture block
            that does not describe a valid model, a size that disagrees with
            the architecture and the settings length, settings that are not
            UTF-8, or a non-finite parameter.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"bad magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    version = data[4] if len(data) > 4 else None
    settings_at = 5 + _ARCH_STRUCT.size + (_SETTINGS_LENGTH.size if version == 2 else 0)
    if len(data) < settings_at:
        raise CheckpointFormatError("truncated header")
    if version not in (1, 2):
        raise CheckpointFormatError(f"unsupported version {version}")
    wire = _ARCH_STRUCT.unpack(data[5 : 5 + _ARCH_STRUCT.size])
    try:
        arch = Architecture(**dict(zip(ARCH_WIRE_FIELDS, wire)))
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid architecture block: {exc}") from exc

    offset = settings_at
    if version == 2:
        offset += _SETTINGS_LENGTH.unpack_from(data, settings_at - _SETTINGS_LENGTH.size)[0]
    shapes = ModelParams.expected_shapes(arch)
    payload = sum(math.prod(s) * 4 for s in shapes.values())
    expected = offset + payload + _TRAILER_STRUCT.size
    if len(data) != expected:
        raise CheckpointFormatError(
            f"payload size mismatch: expected {expected} bytes, file has {len(data)}"
        )
    try:
        settings = data[settings_at:offset].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"settings text is not UTF-8: {exc}") from exc
    arrays = {}
    for name in PARAM_FIELDS:
        shape = shapes[name]
        count = math.prod(shape)
        stored = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        # checked on the float32 view: casting a signalling NaN would warn
        if not np.isfinite(stored).all():
            raise CheckpointFormatError(f"non-finite values in {name}")
        arrays[name] = stored.reshape(shape).astype(np.float64)
        offset += count * 4
    step, seed = _TRAILER_STRUCT.unpack(data[offset:])
    return ModelParams(arch, **arrays), step, seed, settings


def load_checkpoint(path: str) -> tuple[ModelParams, int, int]:
    """:func:`read_checkpoint` without the settings: (params, step, seed)."""
    return read_checkpoint(path)[:3]

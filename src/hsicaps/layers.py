"""Four-layer capsule classifier over spectral patches.

The forward pass runs, in order: per-channel spatial filtering with shared 2D
kernels, a strided 1D spectral convolution whose feature maps are regrouped
into capsule arrays, a locally connected capsule convolution whose
transformation tensors slide along the spectral-capsule axis with shared
parameters, and a dense capsule layer whose couplings are assigned by
iterative routing-by-agreement.

The backward pass is hand-derived and exact: routing iterations are unrolled
and differentiated through, with the initial uniform logits treated as
constants.  Class ids are 1-based.

The spatial, primary and window layers are one private strided 1D
convolution along the spectral axis, held maps-first (maps, B, length).  The
routed class layer writes its prediction vectors once, as (B, children,
classes, out_dim), and routes over blocks of children that its shape fixes:
each routing iteration, forward and backward, is one pass over the blocks,
doing all of that iteration's work on a block while it is in cache.
``forward_batch`` and ``backward_batch`` compose them and are the one public
way into the layers.  Both run a call as the one or two sample pieces that
one cut rule gives, the second on one worker thread; the inference block
size follows the same budget.  Each parameter array is
declared once, in ``_PARAM_TABLE``, with its layer, shape, init and
gradient-check family.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import float32_payload, write_atomic
from .numerics import check_int, check_seed, conv1d_output_length, relu, relu_grad, run_pieces

__all__ = [
    "Architecture",
    "CheckpointFormatError",
    "ModelParams",
    "backward_batch",
    "forward_batch",
    "load_checkpoint",
    "param_count",
    "save_checkpoint",
    "squash",
]


@dataclass(frozen=True, kw_only=True)
class Architecture:
    """Shape parameters of the four-layer classifier, given by keyword.

    The defaults (everything except ``channels`` and ``num_classes``) are the
    reference setup this package ships with: 7x7 spatial filtering into 16
    maps, a size-9 stride-2 spectral convolution into 2 arrays of 8D capsules,
    a size-9 stride-2 capsule convolution into 4 arrays of 8D capsules, and
    16D class capsules.  The fields are declared in the order a checkpoint
    stores them.
    """

    patch_size: int = 7
    channels: int
    spatial_filters: int = 16
    primary_kernel_size: int = 9
    primary_stride: int = 2
    capsule_arrays: int = 2
    capsule_dim: int = 8
    window_size: int = 9
    window_stride: int = 2
    window_count: int = 4
    window_capsule_dim: int = 8
    num_classes: int
    class_capsule_dim: int = 16

    def __post_init__(self) -> None:
        for f in fields(self):
            low = 2 if f.name == "num_classes" else 1
            object.__setattr__(self, f.name, check_int(getattr(self, f.name), f.name, low))
        if self.patch_size % 2 != 1:
            raise ValueError(f"patch_size must be odd, got {self.patch_size}")
        # raises if either spectral kernel overruns its input
        self.window_positions

    @property
    def primary_filters(self) -> int:
        """Spectral feature maps produced before the capsule regrouping."""
        return self.capsule_arrays * self.capsule_dim

    @property
    def primary_positions(self) -> int:
        """Spectral positions after the strided 1D convolution."""
        return conv1d_output_length(self.channels, self.primary_kernel_size, self.primary_stride)

    @property
    def window_positions(self) -> int:
        """Spectral positions after the strided capsule convolution."""
        return conv1d_output_length(self.primary_positions, self.window_size, self.window_stride)

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
    group: str


# Every trainable array once, in wire order: its layer, its shape as
# Architecture sizes, its init, and the family gradient checking reports it
# in (the four weight tensors, plus all biases together).  The axes of a
# weight array from ``fan_in_axis`` on feed one output unit and the axis
# before them indexes that unit's outputs, so it draws uniformly on [-b, b]
# with b = sqrt(6 / (fan_in + fan_out)), fan_in = prod(shape[fan_in_axis:])
# and fan_out = shape[fan_in_axis - 1]; a bias (``None``) starts at zero.
_PARAM_TABLE = {
    "spatial_kernels": _ParamSpec(
        "spatial", ("spatial_filters", "patch_size", "patch_size"), 1, "spatial_filters"
    ),
    "spatial_bias": _ParamSpec("spatial", ("spatial_filters",), None, "biases"),
    "primary_kernels": _ParamSpec(
        "primary",
        ("primary_filters", "spatial_filters", "primary_kernel_size"),
        1,
        "primary_kernels",
    ),
    "primary_bias": _ParamSpec("primary", ("primary_filters",), None, "biases"),
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
        "window_tensors",
    ),
    "window_bias": _ParamSpec(
        "window", ("window_count", "window_capsule_dim"), None, "biases"
    ),
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
        "class_matrices",
    ),
}

PARAM_FIELDS = tuple(_PARAM_TABLE)
PARAM_GROUPS = {name: spec.group for name, spec in _PARAM_TABLE.items()}


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
    ``_PARAM_TABLE`` declares; an integer ``rng`` is a seed."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(check_seed(rng))
    arrays = {}
    for name, shape in ModelParams.expected_shapes(arch).items():
        axis = _PARAM_TABLE[name].fan_in_axis
        if axis is None:
            arrays[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / (math.prod(shape[axis:]) + shape[axis - 1]))
            arrays[name] = rng.uniform(-bound, bound, shape)
    return ModelParams(arch, **arrays)


def squash(vectors: np.ndarray) -> np.ndarray:
    """Shrink each last-axis vector onto the open unit ball, keeping its direction.

    A vector of norm h maps to norm h^2 / (1 + h^2): near-zero vectors stay
    near zero, long vectors approach (but never reach) length 1.  The
    implementation multiplies by h / (1 + h^2) so the zero vector needs no
    special case.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    norm = np.linalg.norm(vectors, axis=-1, keepdims=True)
    return vectors * (norm / (1.0 + norm * norm))


def squash_backward(upstream: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Exact vector-Jacobian product of :func:`squash` at ``vectors``.

    With a(h) = h / (1 + h^2), the Jacobian is a(h) I + (a'(h)/h) v v^T; the
    rank-one term vanishes at v = 0 where the gradient is a(0) I = 0.  Both
    arrays are float64, as the backward pass holds them.
    """
    norm = np.linalg.norm(vectors, axis=-1, keepdims=True)
    norm_sq = norm * norm
    scale = norm / (1.0 + norm_sq)
    scale_deriv = (1.0 - norm_sq) / (1.0 + norm_sq) ** 2
    inv_norm = np.divide(
        1.0, norm, out=np.zeros_like(norm), where=norm > 0
    )
    dot = np.sum(vectors * upstream, axis=-1, keepdims=True)
    return scale * upstream + scale_deriv * inv_norm * dot * vectors


def predict_classes(activations: np.ndarray) -> np.ndarray:
    """1-based class ids of the longest class capsules, batched (..., n, d)."""
    return np.argmax(np.linalg.norm(activations, axis=-1), axis=-1) + 1


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


def _conv_backward(
    grad_pre: np.ndarray, windows: np.ndarray, kernels=None, stride: int = 1, length: int = 0
):
    """Adjoint of :func:`_conv_forward`: gradients wrt (kernels, bias, the
    (in_maps, B, length) input), the last None unless ``kernels`` is given.
    The input gradient scatter-adds each kernel offset's window gradients."""
    grad_kernels = np.tensordot(grad_pre, windows, axes=([1, 2], [1, 2]))
    grad_bias = grad_pre.sum(axis=(1, 2))
    if kernels is None:
        return grad_kernels, grad_bias, None
    grad_windows = np.tensordot(kernels, grad_pre, axes=(0, 0))
    maps, kernel, batch, count = grad_windows.shape
    grad_input = np.zeros((maps, batch, length))
    span = (count - 1) * stride + 1
    for j in range(kernel):
        grad_input[..., j : j + span : stride] += grad_windows[:, j]
    return grad_kernels, grad_bias, grad_input


def _window_kernels(tensors: np.ndarray) -> np.ndarray:
    """(out_arrays, out_dim, window, arrays, dim) transformation tensors viewed
    as (out_arrays*out_dim, arrays*dim, window) convolution kernels."""
    out_arrays, out_dim, window = tensors.shape[:3]
    return tensors.reshape(out_arrays * out_dim, window, -1).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# the routed class layer
#
# Child n = array * positions + position, the order of
# ``class_matrices.reshape(children, classes * out_dim, dim)``.  The
# prediction vectors are written once, contiguous as (B, children, classes,
# out_dim), and each routing iteration is one pass over blocks of children,
# read through the view (B, classes, block children, out_dim) whose
# (children, out_dim) slices BLAS takes as they are.  Couplings, logits and
# agreements are (B, classes, children); weighted sums and parents are (B,
# classes, out_dim).

# Most bytes of one sample's predictions in a block.  At 200/16 this cuts the
# 176 children of 2 KiB into two blocks of 88, which in batch-64 training
# steps beat one block and three, four or eight blocks; 103/9 (80 children,
# 90 KiB) and smaller run as one block.  The blocks follow from the class
# layer's shape alone, so sums over children run in one order whatever the
# pieces.
_CHILD_BLOCK_BYTES = 192 * 2**10


def _child_blocks(matrices_shape: tuple[int, ...]) -> list[slice]:
    """Near-equal runs of children for ``class_matrices`` of this shape, each
    holding at most ``_CHILD_BLOCK_BYTES`` of one sample's predictions (or
    one child), the first the longest."""
    arrays, positions, classes, out_dim, _ = matrices_shape
    children = arrays * positions
    count = min(children, -(-children * classes * out_dim * 8 // _CHILD_BLOCK_BYTES))
    bounds = [-(-children * i // count) for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _by_class(predictions: np.ndarray) -> np.ndarray:
    """The (B, classes, children, out_dim) view of stored predictions."""
    return predictions.transpose(0, 2, 1, 3)


def _child_major(children: np.ndarray) -> np.ndarray:
    """(B, positions, arrays, dim) child capsules as (children, B, dim)."""
    return children.transpose(2, 1, 0, 3).reshape(-1, len(children), children.shape[-1])


def _routing_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis of (B, classes, children) logits, written
    over them."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _weighted_sum(weights: np.ndarray, view: np.ndarray) -> np.ndarray:
    """Sum over children of (B, classes, children) weights times the
    class-major prediction view: (B, classes, out_dim)."""
    return (weights[:, :, None, :] @ view)[:, :, 0]


def _agree(view: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Scalar product of every child's prediction with the (B, classes,
    out_dim) ``vectors``: (B, classes, children)."""
    return (view @ vectors[..., None])[..., 0]


def _class_forward(
    children: np.ndarray, matrices: np.ndarray, iterations: int, keep: bool
):
    """(B, positions, arrays, dim) -> (predictions (B, children, classes,
    out_dim), (parents, final coupling, final logits, each iteration's
    (coupling, weighted sums, parents) when ``keep``)); child (array i,
    position j) is ``children[:, j, i]``.

    Logits start at zero, so the first iteration's coupling is uniform and
    its sums are taken as each block of predictions is written.  Each later
    iteration adds the agreement of the predictions with the last parents to
    the logits, softmaxes them over classes and forms the weighted sums,
    block by block.
    """
    iterations = check_int(iterations, "routing_iters")
    arrays, positions, classes, out_dim, dim = matrices.shape
    batch = len(children)
    columns = np.ascontiguousarray(_child_major(children).transpose(0, 2, 1))
    flat = matrices.reshape(arrays * positions, -1, dim)
    predictions = np.empty((batch, arrays * positions, classes, out_dim))
    blocks = _child_blocks(matrices.shape)
    total = np.zeros((batch, classes, out_dim))
    for block in blocks:
        # each child's matrix as stored times its (dim, B) columns: this read
        # 1.5x faster than (B, dim) rows times transposed matrices at B = 8
        written = predictions[:, block].reshape(batch, len(flat[block]), -1)
        np.matmul(flat[block], columns[block], out=written.transpose(1, 2, 0))
        total += (np.ones(len(flat[block])) @ written).reshape(total.shape)
    coupling = np.full((batch, classes, arrays * positions), 1.0 / classes)
    logits = np.zeros_like(coupling)
    weighted = total / classes
    parents = squash(weighted)
    cache = [(coupling, weighted, parents)] if keep else []
    if keep:
        # claimed at once, so too deep a routing raises MemoryError here: numpy
        # 2.4.6 crashes when a broadcasting loop without the GIL cannot allocate
        couplings = np.empty((iterations - 1, *coupling.shape))
        sums = np.zeros((iterations - 1, *weighted.shape))
    for i in range(1, iterations):
        coupling = couplings[i - 1] if keep else np.empty_like(logits)
        weighted = sums[i - 1] if keep else np.zeros_like(weighted)
        for block in blocks:
            view = _by_class(predictions[:, block])
            updated = logits[:, :, block] + _agree(view, parents)
            logits[:, :, block] = updated
            coupling[:, :, block] = part = _routing_softmax(updated)
            weighted += _weighted_sum(part, view)
        parents = squash(weighted)
        if keep:
            cache.append((coupling, weighted, parents))
    return predictions, (parents, coupling, logits, cache)


def _class_backward(
    grad_parents: np.ndarray,
    children: np.ndarray,
    predictions: np.ndarray,
    routing: list,
    matrices: np.ndarray,
):
    """Gradients wrt (children, matrices) through the unrolled routing.

    Walks the iterations in reverse, one pass over the blocks each: coupling
    gradient, softmax backward, the logit gradient carried from later
    iterations, and the earlier parents' gradient.  A prediction's gradient
    is a sum of 2 * iterations - 1 rank-one terms per (sample, class):
    coupling_t times the weighted-sum gradient of iteration t, and the logit
    gradient of iteration t times the parents of iteration t - 1.  A last
    pass forms each block's by one stacked matmul and takes its matrix and
    child gradients at once.  The initial zero logits are constants.
    """
    arrays, positions, classes, out_dim, dim = matrices.shape
    batch = len(children)
    iterations = len(routing)
    blocks = _child_blocks(matrices.shape)
    # left holds coupling_t at t and the logit gradient of iteration t at
    # iterations + t - 1 (the last slot: iteration ``iterations``'s, zero)
    left = np.empty((batch, classes, 2 * iterations, arrays * positions))
    left[:, :, -1] = 0.0
    right = np.empty((batch, classes, 2 * iterations - 1, out_dim))
    for it in reversed(range(iterations)):
        coupling, weighted, _ = routing[it]
        left[:, :, it] = coupling
        right[:, :, it] = grad_weighted = squash_backward(grad_parents, weighted)
        if it == 0:
            break
        right[:, :, iterations + it - 1] = routing[it - 1][2]
        grad_parents = np.zeros_like(grad_weighted)
        for block in blocks:
            view = _by_class(predictions[:, block])
            part = coupling[:, :, block]
            # softmax backward over the class axis, plus the carried gradient
            grad = _agree(view, grad_weighted)
            grad -= (part * grad).sum(axis=1, keepdims=True)
            grad *= part
            grad += left[:, :, iterations + it, block]
            left[:, :, iterations + it - 1, block] = grad
            grad_parents += _weighted_sum(grad, view)
    rows = _child_major(children)
    flat = matrices.reshape(arrays * positions, -1, dim)
    grad_matrices = np.empty_like(flat)
    grad_rows = np.empty_like(rows)
    buffer = np.empty((batch, blocks[0].stop, classes, out_dim))
    for block in blocks:
        grad_pred = buffer[:, : block.stop - block.start]
        np.matmul(
            left[:, :, :-1, block].transpose(0, 1, 3, 2), right, out=_by_class(grad_pred)
        )
        grad_pred = grad_pred.reshape(batch, len(rows[block]), -1).transpose(1, 0, 2)
        np.matmul(grad_pred.transpose(0, 2, 1), rows[block], out=grad_matrices[block])
        np.matmul(grad_pred, flat[block], out=grad_rows[block])
    return (
        grad_rows.reshape(arrays, positions, batch, dim).transpose(2, 1, 0, 3),
        grad_matrices.reshape(matrices.shape),
    )


# ---------------------------------------------------------------------------
# batched model engine


# Bytes of float64 predictions above which a call is split in two, the second
# piece on the worker thread; an inference block is two budgets of samples.
# It is not a cache size: a piece can hold more (a batch of 64 at 200/16 runs
# two 11 MiB pieces).  Nor is it the fastest block: on one BLAS thread, 200/16
# inference read 2.7-3.5k px/s in blocks of 16 and 3.0-3.8k in 32 or 64.
_PREDICTION_BUDGET = 4 * 2**20
# Batches are cut at a multiple of this many samples.  OpenBLAS may round the
# output columns of a partial tile at the end of a call differently; pieces
# of 8k samples cut a batch of 8m samples only at tile boundaries, so their
# activations match one whole-batch call bit for bit.  Odd pieces at 200/16,
# and most other sizes at 103/9, changed the last bit of some activations.
_BLOCK_MULTIPLE = 8

def _prediction_bytes(arch: Architecture) -> int:
    """Bytes of one sample's float64 predictions, one per class matrix row."""
    return 8 * math.prod(ModelParams.expected_shapes(arch)["class_matrices"][:-1])


def _pieces(arch: Architecture, batch: int) -> list[slice]:
    """Sample slices a ``batch``-sample call runs as: the whole batch while
    its predictions fit ``_PREDICTION_BUDGET``, otherwise two, cut at the
    multiple of ``_BLOCK_MULTIPLE`` nearest half the batch."""
    cut = batch
    if batch * _prediction_bytes(arch) > _PREDICTION_BUDGET:
        half = (batch + _BLOCK_MULTIPLE) // (2 * _BLOCK_MULTIPLE) * _BLOCK_MULTIPLE
        cut = min(batch, max(_BLOCK_MULTIPLE, half))
    return [slice(0, cut), slice(cut, batch)] if cut < batch else [slice(0, batch)]


def inference_block(arch: Architecture, batch_size: int) -> int:
    """Pixels per ``forward_batch`` call at inference: twice the samples
    whose predictions fit ``_PREDICTION_BUDGET``, rounded down to a multiple
    of ``_BLOCK_MULTIPLE`` (at least one multiple) and capped at
    ``batch_size``, so a block runs as two pieces of about the budget each."""
    fit = 2 * (_PREDICTION_BUDGET // _prediction_bytes(arch))
    return min(batch_size, max(_BLOCK_MULTIPLE, fit - fit % _BLOCK_MULTIPLE))


class _PieceCache(NamedTuple):
    """Intermediates of one piece's forward pass.

    The three convolutions keep their input windows (in_maps, B, positions,
    kernel) and pre-activations (out_maps, B, positions), maps-first;
    ``pre_window`` is viewed sample-first as (B, positions, out_arrays,
    out_dim), the layout of ``window_caps``, the class layer's input.
    ``predictions`` is the class layer's one prediction tensor, (B, children,
    classes, out_dim) with child n = array * positions + position, and
    ``routing`` holds each iteration's class-major (coupling, weighted sums,
    parents).
    """

    patch_windows: np.ndarray
    pre_spatial: np.ndarray
    spatial_windows: np.ndarray
    pre_primary: np.ndarray
    caps_windows: np.ndarray
    pre_window: np.ndarray
    window_caps: np.ndarray
    predictions: np.ndarray
    routing: list


@dataclass
class ForwardCache:
    """Intermediates of one batched forward pass, kept for backprop: the
    whole ``patches`` and, in sample order, those of each piece the call
    ran as."""

    patches: np.ndarray
    pieces: list[_PieceCache]


def forward_batch(
    params: ModelParams,
    patches: np.ndarray,
    routing_iters: int = 3,
    keep_cache: bool = False,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the full model on a (B, size, size, channels) patch batch.

    Returns ((B, classes, out_dim) class-capsule activations, cache), the
    cache only when ``keep_cache``.  A batch whose prediction tensor exceeds
    ``_PREDICTION_BUDGET`` runs as two pieces on two threads, cut at a
    multiple of 8 samples; samples do not interact, so when the batch size is
    a multiple of 8 the activations are those of one whole call bit for bit,
    and otherwise up to rounding.  Raises FloatingPointError if the output
    goes non-finite.
    """
    arch = params.arch
    patches = np.ascontiguousarray(patches, dtype=np.float64)
    expected = (arch.patch_size, arch.patch_size, arch.channels)
    if patches.ndim != 4 or not len(patches) or patches.shape[1:] != expected:
        raise ValueError(
            f"patches must be (B, {expected[0]}, {expected[1]}, {expected[2]}) "
            f"with B >= 1, got {patches.shape}"
        )
    outputs = run_pieces(
        _forward_body,
        [
            (params, patches[samples], routing_iters, keep_cache)
            for samples in _pieces(arch, len(patches))
        ],
    )
    parents = np.concatenate([piece_parents for piece_parents, _ in outputs])
    if not np.isfinite(parents).all():
        raise FloatingPointError("non-finite activations in forward pass")
    cache = ForwardCache(patches, [piece for _, piece in outputs]) if keep_cache else None
    return parents, cache


def _forward_body(
    params: ModelParams, patches: np.ndarray, routing_iters: int, keep_cache: bool
) -> tuple[np.ndarray, _PieceCache | None]:
    """One piece of :func:`forward_batch`, on validated patches."""
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
    if not keep_cache:
        return parents, None
    return parents, _PieceCache(
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


def backward_batch(
    params: ModelParams, cache: ForwardCache, upstream: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of sum(loss per sample) wrt every parameter array.

    ``upstream`` is dL/d(activations), shaped (B, classes, out_dim) or a
    ValueError is raised; any per-batch averaging belongs in the loss
    gradient.  Returns a dict keyed like :attr:`ModelParams` fields.  Backward
    runs as the pieces the forward pass ran as, on as many threads, and each
    gradient is the sum of the pieces' in sample order.  Raises
    FloatingPointError if any gradient goes non-finite.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    arch = params.arch
    expected = (len(cache.patches), arch.num_classes, arch.class_capsule_dim)
    if upstream.shape != expected:
        raise ValueError(
            f"upstream must be (B, classes, class_capsule_dim) = {expected}, "
            f"got {upstream.shape}"
        )
    slices = _pieces(arch, len(cache.patches))
    first, *rest = run_pieces(
        _backward_body,
        [
            (params, piece, upstream[samples])
            for piece, samples in zip(cache.pieces, slices, strict=True)
        ],
    )
    grads = {name: sum((part[name] for part in rest), grad) for name, grad in first.items()}
    for name, grad in grads.items():
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite gradient for {name}")
    return grads


def _backward_body(
    params: ModelParams, cache: _PieceCache, upstream: np.ndarray
) -> dict[str, np.ndarray]:
    """:func:`backward_batch` over one piece's cache."""
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
    grad_window_kernels, grad_window_bias, grad_primary_maps = _conv_backward(
        grad_pre_window,
        cache.caps_windows,
        _window_kernels(params.window_tensors),
        arch.window_stride,
        arch.primary_positions,
    )
    grad_pre_primary = relu_grad(cache.pre_primary, grad_primary_maps)
    grad_primary_kernels, grad_primary_bias, grad_spatial_maps = _conv_backward(
        grad_pre_primary,
        cache.spatial_windows,
        params.primary_kernels,
        arch.primary_stride,
        arch.channels,
    )
    grad_pre_spatial = relu_grad(cache.pre_spatial, grad_spatial_maps)
    grad_spatial_kernels, grad_spatial_bias, _ = _conv_backward(
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
# magic, version, the Architecture fields, settings length
_CHECKPOINT_HEADER = struct.Struct(f"<4sB{len(fields(Architecture))}II")
_TRAILER_STRUCT = struct.Struct("<QQ")


class CheckpointFormatError(ValueError):
    """A checkpoint file violated the binary container contract."""


def encode_checkpoint(
    params: ModelParams, step: int, seed: int, settings: str = ""
) -> list[bytes]:
    """The bytes of a checkpoint file: the run's settings text, params as
    float32, and the training-step counter and RNG seed.  A parameter that
    is not finite in float32 raises ``ValueError``."""
    step, seed = (check_seed(value, "step and seed") for value in (step, seed))
    text = settings.encode("utf-8")
    header = _CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *astuple(params.arch), len(text)
    )
    payload = [float32_payload(arr, name) for name, arr in params.arrays()]
    return [header, text, *payload, _TRAILER_STRUCT.pack(step, seed)]


def save_checkpoint(
    path: str, params: ModelParams, step: int, seed: int, settings: str = ""
) -> None:
    """Write ``params`` as float32, with the step, seed and settings text, to
    ``path`` (see README); a ``ValueError`` leaves nothing written."""
    write_atomic(path, encode_checkpoint(params, step, seed, settings))


def read_checkpoint(path: str) -> tuple[ModelParams, int, int, str]:
    """Read a checkpoint; returns (params, step, seed, settings text), the
    text empty when the file was saved without settings.

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
    settings_at = _CHECKPOINT_HEADER.size
    if len(data) < settings_at:
        raise CheckpointFormatError("truncated header")
    _, version, *wire, length = _CHECKPOINT_HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported version {version}")
    try:
        arch = Architecture(**{f.name: value for f, value in zip(fields(Architecture), wire)})
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid architecture block: {exc}") from exc

    offset = settings_at + length
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

"""Four-layer capsule classifier over spectral patches.

The forward pass runs, in order: per-channel spatial filtering with shared 2D
kernels, a strided 1D spectral convolution whose feature maps are regrouped
into capsule arrays, a locally connected capsule convolution whose
transformation tensors slide along the spectral-capsule axis with shared
parameters, and a dense capsule layer whose couplings are assigned by
iterative routing-by-agreement.

The backward pass is hand-derived and exact: routing iterations are unrolled
and differentiated through, with the initial uniform logits treated as
constants.  Capsule tensors follow the (positions, arrays, dim) axis
convention throughout; class ids are 1-based.

Each layer is written once, as a private batched (forward, backward) pair
that ``forward_batch`` and ``backward_batch`` compose; the single-sample
layer functions are thin adapters over the batched forwards.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    "forward_batch",
    "init_params",
    "load_checkpoint",
    "param_count",
    "predict_classes",
    "primary_caps_forward",
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
        spatial = self.spatial_filters * (self.patch_size**2 + 1)
        primary = self.primary_filters * (
            self.spatial_filters * self.primary_kernel_size + 1
        )
        window = self.window_count * self.window_capsule_dim * (
            self.window_size * self.capsule_arrays * self.capsule_dim + 1
        )
        classes = (
            self.window_count
            * self.window_positions
            * self.num_classes
            * self.class_capsule_dim
            * self.window_capsule_dim
        )
        return {
            "spatial": spatial,
            "primary": primary,
            "window": window,
            "classes": classes,
        }


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


PARAM_FIELDS = (
    "spatial_kernels",
    "spatial_bias",
    "primary_kernels",
    "primary_bias",
    "window_tensors",
    "window_bias",
    "class_matrices",
)

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
            "spatial_kernels": (arch.spatial_filters, arch.patch_size, arch.patch_size),
            "spatial_bias": (arch.spatial_filters,),
            "primary_kernels": (
                arch.primary_filters,
                arch.spatial_filters,
                arch.primary_kernel_size,
            ),
            "primary_bias": (arch.primary_filters,),
            "window_tensors": (
                arch.window_count,
                arch.window_capsule_dim,
                arch.window_size,
                arch.capsule_arrays,
                arch.capsule_dim,
            ),
            "window_bias": (arch.window_count, arch.window_capsule_dim),
            "class_matrices": (
                arch.window_count,
                arch.window_positions,
                arch.num_classes,
                arch.class_capsule_dim,
                arch.window_capsule_dim,
            ),
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
    """Draw weights uniformly on [-b, b] with b = sqrt(6 / (fan_in + fan_out))
    per tensor; biases start at zero."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    def uniform(shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    shapes = ModelParams.expected_shapes(arch)
    return ModelParams(
        arch,
        spatial_kernels=uniform(
            shapes["spatial_kernels"], arch.patch_size**2, arch.spatial_filters
        ),
        spatial_bias=np.zeros(shapes["spatial_bias"]),
        primary_kernels=uniform(
            shapes["primary_kernels"],
            arch.spatial_filters * arch.primary_kernel_size,
            arch.primary_filters,
        ),
        primary_bias=np.zeros(shapes["primary_bias"]),
        window_tensors=uniform(
            shapes["window_tensors"],
            arch.window_size * arch.capsule_arrays * arch.capsule_dim,
            arch.window_capsule_dim,
        ),
        window_bias=np.zeros(shapes["window_bias"]),
        class_matrices=uniform(
            shapes["class_matrices"], arch.window_capsule_dim, arch.class_capsule_dim
        ),
    )


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
# batched layer pairs
#
# Every array carries a leading sample axis.  A forward also returns what its
# backward needs; a backward returns the gradients wrt the layer input (the
# first layer excepted) and its parameters.


def _fold_windows(grad_windows: np.ndarray, length: int, stride: int) -> np.ndarray:
    """Adjoint of ``sliding_window_view(x, k, axis=1)[:, ::stride]``: scatter-add
    (B, windows, ..., k) window gradients back onto (B, length, ...)."""
    batch, count, *inner, kernel = grad_windows.shape
    out = np.zeros((batch, length, *inner))
    span = (count - 1) * stride + 1
    for j in range(kernel):
        out[:, j : j + span : stride] += grad_windows[..., j]
    return out


def _spatial_forward(patches: np.ndarray, kernels: np.ndarray, bias: np.ndarray):
    """(B, size, size, channels) -> (pre-activations, ReLU outputs), each
    (B, channels, filters)."""
    pre = np.einsum("bijc,kij->bck", patches, kernels, optimize=True) + bias
    return pre, relu(pre)


def _spatial_backward(grad_out: np.ndarray, pre: np.ndarray, patches: np.ndarray):
    """Gradients wrt (kernels, bias); the patches are data, not parameters."""
    grad_pre = relu_grad(pre, grad_out)
    grad_kernels = np.einsum("bck,bijc->kij", grad_pre, patches, optimize=True)
    return grad_kernels, grad_pre.sum(axis=(0, 1))


def _primary_forward(
    features: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray,
    stride: int,
    capsule_arrays: int,
    capsule_dim: int,
):
    """(B, channels, in_maps) -> (windows (B, positions, in_maps, kernel),
    pre-activations (B, positions, maps), capsules (B, positions, arrays, dim))."""
    windows = sliding_window_view(features, kernels.shape[-1], axis=1)[:, ::stride]
    pre = np.einsum("btkf,okf->bto", windows, kernels, optimize=True) + bias
    capsules = relu(pre).reshape(*pre.shape[:2], capsule_arrays, capsule_dim)
    return windows, pre, capsules


def _primary_backward(
    grad_caps: np.ndarray,
    windows: np.ndarray,
    pre: np.ndarray,
    kernels: np.ndarray,
    stride: int,
    length: int,
):
    """Gradients wrt (features of spectral ``length``, kernels, bias)."""
    grad_pre = relu_grad(pre, grad_caps.reshape(pre.shape))
    grad_kernels = np.einsum("bto,btkf->okf", grad_pre, windows, optimize=True)
    grad_windows = np.einsum("bto,okf->btkf", grad_pre, kernels, optimize=True)
    grad_features = _fold_windows(grad_windows, length, stride)
    return grad_features, grad_kernels, grad_pre.sum(axis=(0, 1))


def _window_forward(
    children: np.ndarray, tensors: np.ndarray, bias: np.ndarray, stride: int
):
    """(B, positions, arrays, dim) -> (windows (B, out_positions, arrays, dim,
    window), pre-activations and squashed capsules (B, out_positions,
    out_arrays, out_dim))."""
    windows = sliding_window_view(children, tensors.shape[2], axis=1)[:, ::stride]
    pre = np.einsum("btidj,qmjid->btqm", windows, tensors, optimize=True) + bias
    return windows, pre, squash(pre, axis=-1)


def _window_backward(
    grad_out: np.ndarray,
    windows: np.ndarray,
    pre: np.ndarray,
    tensors: np.ndarray,
    stride: int,
    length: int,
):
    """Gradients wrt (children at ``length`` positions, tensors, bias)."""
    grad_pre = squash_backward(grad_out, pre)
    grad_tensors = np.einsum("btqm,btidj->qmjid", grad_pre, windows, optimize=True)
    grad_windows = np.einsum("btqm,qmjid->btidj", grad_pre, tensors, optimize=True)
    grad_children = _fold_windows(grad_windows, length, stride)
    return grad_children, grad_tensors, grad_pre.sum(axis=(0, 1))


def _routing_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _agreement(predictions: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Logit increment: scalar product of each child's prediction with the
    parent capsule, (B, arrays, positions, classes)."""
    return np.einsum("bijkm,bkm->bijk", predictions, parents, optimize=True)


def _routing_forward(
    predictions: np.ndarray, iterations: int, keep_iterations: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Iterate coupling refinement over fixed prediction vectors.

    ``predictions`` is (B, arrays, positions, classes, dim).  Logits start at
    zero (uniform coupling); each iteration softmaxes the logits over classes,
    forms the coupling-weighted sums, squashes them, and, on every iteration
    but the last, adds the prediction/parent agreement to the logits.

    Returns (parents, final coupling, final logits, per-iteration cache).
    """
    if iterations < 1:
        raise ValueError(f"need at least one routing iteration, got {iterations}")
    batch, arrays, positions, classes, _ = predictions.shape
    logits = np.zeros((batch, arrays, positions, classes))
    cache: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for it in range(iterations):
        coupling = _routing_softmax(logits)
        weighted = np.einsum("bijk,bijkm->bkm", coupling, predictions, optimize=True)
        parents = squash(weighted, axis=-1)
        if keep_iterations:
            cache.append((coupling, weighted, parents))
        if it + 1 < iterations:
            logits = logits + _agreement(predictions, parents)
    return parents, coupling, logits, cache


def _routing_backward(
    predictions: np.ndarray, cache: list, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of the routed output wrt the prediction vectors.

    Walks the unrolled iterations in reverse.  At each iteration the coupling
    depends on the logits, the logits on all earlier parents, and the parents
    on both coupling and predictions, so prediction gradients accumulate along
    three paths: directly through the weighted sum, through the agreement
    term, and through earlier parents.  The initial zero logits are constants.
    """
    grad_predictions = np.zeros_like(predictions)
    grad_parent = upstream
    grad_logits: np.ndarray | None = None
    for it in reversed(range(len(cache))):
        coupling, weighted, _ = cache[it]
        grad_weighted = squash_backward(grad_parent, weighted)
        grad_coupling = np.einsum(
            "bkm,bijkm->bijk", grad_weighted, predictions, optimize=True
        )
        grad_predictions += coupling[..., None] * grad_weighted[:, None, None, :, :]
        # softmax backward over the class axis
        inner = (coupling * grad_coupling).sum(axis=-1, keepdims=True)
        grad_l = coupling * (grad_coupling - inner)
        grad_total = grad_l if grad_logits is None else grad_l + grad_logits
        if it > 0:
            prev_parents = cache[it - 1][2]
            grad_predictions += grad_total[..., None] * prev_parents[:, None, None, :, :]
            grad_parent = np.einsum(
                "bijk,bijkm->bkm", grad_total, predictions, optimize=True
            )
            grad_logits = grad_total
    return grad_predictions


def _class_forward(
    children: np.ndarray, matrices: np.ndarray, iterations: int, keep: bool
):
    """(B, positions, arrays, dim) -> (prediction vectors, the
    :func:`_routing_forward` result); child (array i, position j) is
    ``children[:, j, i]``."""
    predictions = np.einsum("bjid,ijkmd->bijkm", children, matrices, optimize=True)
    return predictions, _routing_forward(predictions, iterations, keep)


def _class_backward(
    grad_parents: np.ndarray,
    children: np.ndarray,
    predictions: np.ndarray,
    routing: list,
    matrices: np.ndarray,
):
    """Gradients wrt (children, matrices) through the unrolled routing."""
    grad_pred = _routing_backward(predictions, routing, grad_parents)
    grad_matrices = np.einsum("bijkm,bjid->ijkmd", grad_pred, children, optimize=True)
    grad_children = np.einsum("bijkm,ijkmd->bjid", grad_pred, matrices, optimize=True)
    return grad_children, grad_matrices


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
    return _spatial_forward(patch[None], kernels, bias)[1][0]


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
    return _primary_forward(
        features[None], kernels, bias, stride, capsule_arrays, capsule_dim
    )[2][0]


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
    return _window_forward(children[None], tensors, bias, stride)[2][0]


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
    return parents[0], RoutingState(logits[0], coupling[0], iterations)


# ---------------------------------------------------------------------------
# batched model engine


@dataclass
class ForwardCache:
    """Intermediates of one batched forward pass, kept for backprop."""

    patches: np.ndarray
    pre_spatial: np.ndarray
    spatial_windows: np.ndarray
    pre_primary: np.ndarray
    caps_windows: np.ndarray
    pre_window: np.ndarray
    window_caps: np.ndarray
    predictions: np.ndarray
    routing: list


def forward_batch(
    params: ModelParams,
    patches: np.ndarray,
    routing_iters: int = 3,
    keep_cache: bool = False,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the full model on a (B, size, size, channels) patch batch.

    Returns ((B, classes, out_dim) class-capsule activations, cache), the
    cache only when ``keep_cache``.  Raises FloatingPointError if the output
    goes non-finite.
    """
    arch = params.arch
    patches = np.ascontiguousarray(patches, dtype=np.float64)
    expected = (arch.patch_size, arch.patch_size, arch.channels)
    if patches.ndim != 4 or patches.shape[1:] != expected:
        raise ValueError(
            f"patches must be (B, {expected[0]}, {expected[1]}, {expected[2]}), "
            f"got {patches.shape}"
        )

    pre_spatial, spatial_out = _spatial_forward(
        patches, params.spatial_kernels, params.spatial_bias
    )
    spatial_windows, pre_primary, primary_caps = _primary_forward(
        spatial_out,
        params.primary_kernels,
        params.primary_bias,
        arch.primary_stride,
        arch.capsule_arrays,
        arch.capsule_dim,
    )
    caps_windows, pre_window, window_caps = _window_forward(
        primary_caps, params.window_tensors, params.window_bias, arch.window_stride
    )
    predictions, (parents, _, _, routing_cache) = _class_forward(
        window_caps, params.class_matrices, routing_iters, keep_cache
    )
    if not np.isfinite(parents).all():
        raise FloatingPointError("non-finite activations in forward pass")

    cache = None
    if keep_cache:
        cache = ForwardCache(
            patches=patches,
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
    like :attr:`ModelParams` fields.  Raises FloatingPointError if any
    gradient goes non-finite.
    """
    arch = params.arch
    upstream = np.asarray(upstream, dtype=np.float64)

    grad_window_caps, grad_class_matrices = _class_backward(
        upstream,
        cache.window_caps,
        cache.predictions,
        cache.routing,
        params.class_matrices,
    )
    grad_primary_caps, grad_window_tensors, grad_window_bias = _window_backward(
        grad_window_caps,
        cache.caps_windows,
        cache.pre_window,
        params.window_tensors,
        arch.window_stride,
        arch.primary_positions,
    )
    grad_spatial_out, grad_primary_kernels, grad_primary_bias = _primary_backward(
        grad_primary_caps,
        cache.spatial_windows,
        cache.pre_primary,
        params.primary_kernels,
        arch.primary_stride,
        arch.channels,
    )
    grad_spatial_kernels, grad_spatial_bias = _spatial_backward(
        grad_spatial_out, cache.pre_spatial, cache.patches
    )

    grads = {
        "spatial_kernels": grad_spatial_kernels,
        "spatial_bias": grad_spatial_bias,
        "primary_kernels": grad_primary_kernels,
        "primary_bias": grad_primary_bias,
        "window_tensors": grad_window_tensors,
        "window_bias": grad_window_bias,
        "class_matrices": grad_class_matrices,
    }
    for name, grad in grads.items():
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite gradient for {name}")
    return grads


# ---------------------------------------------------------------------------
# checkpoint container

CHECKPOINT_MAGIC = b"CCKP"
CHECKPOINT_VERSION = 1
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
_TRAILER_STRUCT = struct.Struct("<QQ")


class CheckpointFormatError(ValueError):
    """A checkpoint file violated the binary container contract."""


def save_checkpoint(path: str, params: ModelParams, step: int, seed: int) -> None:
    """Write params as float32 plus the training-step counter and RNG seed."""
    if step < 0 or seed < 0:
        raise ValueError("step and seed must be non-negative")
    arch_block = _ARCH_STRUCT.pack(
        *(getattr(params.arch, name) for name in ARCH_WIRE_FIELDS)
    )
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(arch_block)
        for _, arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        fh.write(_TRAILER_STRUCT.pack(step, seed))


def load_checkpoint(path: str) -> tuple[ModelParams, int, int]:
    """Read a checkpoint; returns (params, step, seed).

    Raises:
        CheckpointFormatError: on bad magic/version, an architecture block
            that does not describe a valid model, or a payload whose size
            disagrees with the architecture.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"bad magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    if len(data) < 5 + _ARCH_STRUCT.size:
        raise CheckpointFormatError("truncated header")
    version = data[4]
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported version {version}")
    wire = _ARCH_STRUCT.unpack(data[5 : 5 + _ARCH_STRUCT.size])
    try:
        arch = Architecture(**dict(zip(ARCH_WIRE_FIELDS, wire)))
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid architecture block: {exc}") from exc

    shapes = ModelParams.expected_shapes(arch)
    offset = 5 + _ARCH_STRUCT.size
    payload = sum(int(np.prod(s)) * 4 for s in shapes.values())
    expected = offset + payload + _TRAILER_STRUCT.size
    if len(data) != expected:
        raise CheckpointFormatError(
            f"payload size mismatch: expected {expected} bytes, file has {len(data)}"
        )
    arrays = {}
    for name in PARAM_FIELDS:
        shape = shapes[name]
        count = int(np.prod(shape))
        arrays[name] = (
            np.frombuffer(data, dtype="<f4", count=count, offset=offset)
            .reshape(shape)
            .astype(np.float64)
        )
        offset += count * 4
    step, seed = _TRAILER_STRUCT.unpack(data[offset:])
    return ModelParams(arch, **arrays), step, seed

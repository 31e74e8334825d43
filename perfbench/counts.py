"""Computed operation and byte counts of one forward and backward pass.

Everything here is derived from an ``Architecture`` and the routing depth;
nothing is measured.  Multiply-adds of the contractions count as two flops;
elementwise work (ReLU, squash, softmax) is not counted.  Bytes are float64
intermediates, each counted once as written, so they are a lower bound on
memory traffic that ignores cache misses and einsum temporaries.
"""

from __future__ import annotations

from hsicaps.layers import Architecture, init_params, param_count

FLOAT_BYTES = 8


def _dims(arch: Architecture) -> dict[str, int]:
    return {
        "P": arch.patch_size,
        "C": arch.channels,
        "F": arch.spatial_filters,
        "Kp": arch.primary_kernel_size,
        "Np": arch.primary_positions,
        "O": arch.primary_filters,
        "W": arch.window_size,
        "Nw": arch.window_positions,
        "Q": arch.window_count,
        "Dw": arch.window_capsule_dim,
        "Din": arch.capsule_arrays * arch.capsule_dim,
        "K": arch.num_classes,
        "M": arch.class_capsule_dim,
    }


def weight_elements(arch: Architecture) -> dict[str, int]:
    """Weight elements per layer as the FLOP formulas below use them."""
    d = _dims(arch)
    return {
        "spatial": d["F"] * d["P"] ** 2,
        "primary": d["O"] * d["F"] * d["Kp"],
        "window": d["Q"] * d["Dw"] * d["W"] * d["Din"],
        "classes": d["Q"] * d["Nw"] * d["K"] * d["M"] * d["Dw"],
    }


def bias_elements(arch: Architecture) -> dict[str, int]:
    d = _dims(arch)
    return {"spatial": d["F"], "primary": d["O"], "window": d["Q"] * d["Dw"], "classes": 0}


def _layer_macs(arch: Architecture) -> dict[str, int]:
    """Multiply-adds per sample of each layer's forward contraction: every
    weight is applied once per output position it is shared across."""
    d = _dims(arch)
    w = weight_elements(arch)
    return {
        "spatial": d["C"] * w["spatial"],
        "primary": d["Np"] * w["primary"],
        "window": d["Nw"] * w["window"],
        "classes": w["classes"],
    }


def prediction_elements(arch: Architecture) -> int:
    """Elements of one sample's prediction tensor (children x classes x dim)."""
    d = _dims(arch)
    return d["Q"] * d["Nw"] * d["K"] * d["M"]


def forward_flops(arch: Architecture, routing_iters: int) -> int:
    """Per sample: the four layer contractions plus ``routing_iters``
    coupling-weighted sums and ``routing_iters - 1`` agreement products."""
    routing = (2 * routing_iters - 1) * prediction_elements(arch)
    return 2 * (sum(_layer_macs(arch).values()) + routing)


def backward_flops(arch: Architecture, routing_iters: int) -> int:
    """Per sample: two contractions (input and weight gradient) per layer,
    except the spatial layer, whose input gradient is not needed; routing
    unrolls to four prediction-sized products per iteration but the first,
    which has two."""
    macs = _layer_macs(arch)
    layers = 2 * (macs["primary"] + macs["window"] + macs["classes"]) + macs["spatial"]
    routing = (4 * routing_iters - 2) * prediction_elements(arch)
    return 2 * (layers + routing)


def _activation_elements(arch: Architecture, routing_iters: int) -> int:
    d = _dims(arch)
    per_iteration = 2 * d["Q"] * d["Nw"] * d["K"] + 2 * d["K"] * d["M"]
    return (
        d["P"] ** 2 * d["C"]  # input patch
        + 2 * d["C"] * d["F"]  # spatial pre-activation and output
        + 2 * d["Np"] * d["O"]  # primary pre-activation and capsules
        + 2 * d["Nw"] * d["Q"] * d["Dw"]  # window pre-activation and capsules
        + prediction_elements(arch)
        + routing_iters * per_iteration  # coupling, logits, sums, parents
    )


def forward_bytes(arch: Architecture, routing_iters: int) -> int:
    """Per sample: every forward intermediate written once."""
    return FLOAT_BYTES * _activation_elements(arch, routing_iters)


def backward_bytes(arch: Architecture, routing_iters: int) -> int:
    """Per sample: the gradient of every forward intermediate written once,
    plus one prediction-sized accumulation per routing iteration."""
    extra = routing_iters * prediction_elements(arch)
    return FLOAT_BYTES * (_activation_elements(arch, routing_iters) + extra)


def prediction_mb_per_batch(arch: Architecture, batch: int) -> float:
    return FLOAT_BYTES * batch * prediction_elements(arch) / 2**20


def check_against_param_count(arch: Architecture) -> None:
    """Raise if the weight terms the formulas use disagree with the package's
    own parameter accounting or with the shapes ``init_params`` allocates."""
    weights = weight_elements(arch)
    biases = bias_elements(arch)
    per_layer = arch.layer_param_counts()
    for layer, count in per_layer.items():
        if weights[layer] + biases[layer] != count:
            raise AssertionError(
                f"{layer}: formula counts {weights[layer]} weights + "
                f"{biases[layer]} biases, layer_param_counts says {count}"
            )
    allocated = init_params(arch, 0).size()
    if allocated != param_count(arch):
        raise AssertionError(
            f"init_params allocates {allocated} elements, "
            f"param_count says {param_count(arch)}"
        )


# The two reference shapes: Indian Pines-like and Pavia-like.
REFERENCE_SHAPES = ((200, 16), (103, 9))


def check_reference_shapes() -> None:
    for channels, classes in REFERENCE_SHAPES:
        check_against_param_count(Architecture(channels=channels, num_classes=classes))


# the computed per-layer metrics and their units; fewer is better for each
COUNT_UNITS = {
    "layers.forward_batch.gflop_per_sample": "GFLOP",
    "layers.forward_batch.mb_per_sample": "MiB",
    "layers.forward_batch.prediction_mb_per_batch": "MiB",
    "layers.backward_batch.gflop_per_sample": "GFLOP",
    "layers.backward_batch.mb_per_sample": "MiB",
}


def layer_counts(arch: Architecture, routing_iters: int, batch: int) -> dict[str, float]:
    """The computed per-layer metrics for one workload's shape and batch."""
    return {
        "layers.forward_batch.gflop_per_sample": forward_flops(arch, routing_iters) / 1e9,
        "layers.forward_batch.mb_per_sample": forward_bytes(arch, routing_iters) / 2**20,
        "layers.forward_batch.prediction_mb_per_batch": prediction_mb_per_batch(arch, batch),
        "layers.backward_batch.gflop_per_sample": backward_flops(arch, routing_iters) / 1e9,
        "layers.backward_batch.mb_per_sample": backward_bytes(arch, routing_iters) / 2**20,
    }

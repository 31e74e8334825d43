"""Shared fixtures and independent reference implementations.

The oracle_* functions are deliberately written as straight loops over
scalars, with no vectorization and no imports from the package internals, so
they can serve as an independent cross-check of the layer mathematics.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsicaps.layers
import hsicaps.numerics
from hsicaps.data import HsiCube, make_synthetic_cube, save_cube, stratified_split
from hsicaps.layers import MINIATURE_ARCHITECTURE, Architecture

# Second small setup for the gradient checks (838 parameters).  In the
# miniature setup arrays*dim = out_arrays*out_dim = 8 and four widths equal 4,
# so a swapped axis in a layout view could pass there by coincidence; here the
# maps of the three convolutions (9 pixels -> 3 -> 6 -> 10) and their kernel
# sizes (1, 4, 2) all differ.
DISTINCT_ARCHITECTURE = Architecture(
    channels=19,
    num_classes=3,
    patch_size=3,
    spatial_filters=3,
    primary_kernel_size=4,
    primary_stride=3,
    capsule_arrays=3,
    capsule_dim=2,
    window_size=2,
    window_stride=1,
    window_count=2,
    window_capsule_dim=5,
    class_capsule_dim=4,
)



def run_fresh(script, **environ):
    """Lines ``script`` prints in a fresh interpreter that imports this
    checkout's hsicaps, with BLAS on one thread and ``environ`` added to its
    environment only; a non-zero exit fails with its stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", **environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def shrink_prediction_budget(samples, monkeypatch, arch=MINIATURE_ARCHITECTURE):
    """Shrink the model's prediction budget so that ``samples`` samples of
    ``arch`` fit it and larger calls run as two pieces."""
    budget = samples * hsicaps.layers._prediction_bytes(arch)
    monkeypatch.setattr(hsicaps.layers, "_PREDICTION_BUDGET", budget)


def shrink_child_blocks(
    children,
    monkeypatch,
    classes=MINIATURE_ARCHITECTURE.num_classes,
    out_dim=MINIATURE_ARCHITECTURE.class_capsule_dim,
):
    """Shrink the routing's child blocks to ``children`` children of a class
    layer with ``classes`` classes of ``out_dim`` dimensions; the miniature
    setup's 8 children then run as blocks of 3, 3 and 2."""
    budget = children * 8 * classes * out_dim
    monkeypatch.setattr(hsicaps.layers, "_CHILD_BLOCK_BYTES", budget)


def shrink_row_chunks(rows, channels, monkeypatch):
    """Shrink the row chunk so that it holds ``rows`` pixel rows of a
    ``channels``-channel cube; a cube of more than two chunks then runs on
    the calling thread and the worker."""
    monkeypatch.setattr(hsicaps.numerics, "_CHUNK_BYTES", rows * 8 * channels)


def child_major(children):
    """One sample's (positions, arrays, dim) capsules, as the oracles take
    them, in the class layer's layout (children, 1, dim), child n = array *
    positions + position."""
    return children.transpose(1, 0, 2).reshape(-1, 1, children.shape[-1])


# float32 bit patterns a corrupt container payload may hold; casting the
# signalling NaN to float64 raises numpy's "invalid value" warning
NON_FINITE_FLOAT32 = {
    "inf": 0x7F800000,
    "quiet_nan": 0x7FC00000,
    "signalling_nan": 0x7F800001,
}

# float64 values a float32 container cannot hold as a finite number
UNSTORABLE_FLOAT64 = {"nan": np.nan, "inf": np.inf, "beyond_float32": 1e39}


# ---------------------------------------------------------------------------
# reference implementations


def oracle_relu(x: float) -> float:
    return x if x > 0 else 0.0


def oracle_conv1d(signal, kernels, bias, stride):
    """Straight-loop valid 1D convolution: (L, Cin) x (Cout, Cin, f) -> (Lout, Cout)."""
    length, in_channels = signal.shape
    out_channels, _, kernel_size = kernels.shape
    out_length = (length - kernel_size) // stride + 1
    out = np.zeros((out_length, out_channels))
    for t in range(out_length):
        for o in range(out_channels):
            acc = bias[o]
            for c in range(in_channels):
                for j in range(kernel_size):
                    acc += signal[t * stride + j, c] * kernels[o, c, j]
            out[t, o] = acc
    return out


def oracle_squash_vector(v):
    """Squash one vector: norm h maps to h^2 / (1 + h^2)."""
    v = np.asarray(v, dtype=np.float64)
    h = math.sqrt(float(np.sum(v * v)))
    if h == 0.0:
        return np.zeros_like(v)
    return (h * h / (1.0 + h * h)) * (v / h)


def oracle_spatial_conv(patch, kernels, bias):
    """(D, D, C) x (K, D, D) -> (C, K) with ReLU, every filter on every channel."""
    size = patch.shape[0]
    channels = patch.shape[2]
    filters = kernels.shape[0]
    out = np.zeros((channels, filters))
    for c in range(channels):
        for k in range(filters):
            acc = bias[k]
            for i in range(size):
                for j in range(size):
                    acc += patch[i, j, c] * kernels[k, i, j]
            out[c, k] = oracle_relu(acc)
    return out


def oracle_primary_caps(features, kernels, bias, stride, arrays, dim):
    """Strided spectral convolution, ReLU, regrouped (positions, arrays, dim);
    capsule (t, i) takes feature maps i*dim .. i*dim + dim - 1."""
    conv = oracle_conv1d(features, kernels, bias, stride)
    positions = conv.shape[0]
    out = np.zeros((positions, arrays, dim))
    for t in range(positions):
        for i in range(arrays):
            for j in range(dim):
                out[t, i, j] = oracle_relu(conv[t, i * dim + j])
    return out


def oracle_conv_caps(children, tensors, bias, stride):
    """Windowed capsule transform with shared tensors, then squash.

    children (positions, arrays, dim); tensors (out_arrays, out_dim, window,
    arrays, dim); bias (out_arrays, out_dim) -> (out_positions, out_arrays,
    out_dim)."""
    positions, arrays, dim = children.shape
    out_arrays, out_dim, window, _, _ = tensors.shape
    out_positions = (positions - window) // stride + 1
    out = np.zeros((out_positions, out_arrays, out_dim))
    for t in range(out_positions):
        for q in range(out_arrays):
            pre = np.zeros(out_dim)
            for m in range(out_dim):
                acc = bias[q, m]
                for j in range(window):
                    for i in range(arrays):
                        for d in range(dim):
                            acc += (
                                tensors[q, m, j, i, d]
                                * children[t * stride + j, i, d]
                            )
                pre[m] = acc
            out[t, q] = oracle_squash_vector(pre)
    return out


def oracle_routing(children, matrices, iterations):
    """Coupling iteration written out longhand.

    children (positions, arrays, dim); matrices (arrays, positions, classes,
    out_dim, dim).  Returns (parents (classes, out_dim), final coupling,
    final logits)."""
    arrays, positions, classes, out_dim, dim = matrices.shape
    predictions = np.zeros((arrays, positions, classes, out_dim))
    for i in range(arrays):
        for j in range(positions):
            for k in range(classes):
                for m in range(out_dim):
                    acc = 0.0
                    for d in range(dim):
                        acc += matrices[i, j, k, m, d] * children[j, i, d]
                    predictions[i, j, k, m] = acc

    logits = np.zeros((arrays, positions, classes))
    coupling = np.zeros((arrays, positions, classes))
    parents = np.zeros((classes, out_dim))
    for it in range(iterations):
        for i in range(arrays):
            for j in range(positions):
                exps = [math.exp(logits[i, j, k]) for k in range(classes)]
                norm = sum(exps)
                for k in range(classes):
                    coupling[i, j, k] = exps[k] / norm
        for k in range(classes):
            weighted = np.zeros(out_dim)
            for i in range(arrays):
                for j in range(positions):
                    weighted += coupling[i, j, k] * predictions[i, j, k]
            parents[k] = oracle_squash_vector(weighted)
        if it + 1 < iterations:
            for i in range(arrays):
                for j in range(positions):
                    for k in range(classes):
                        logits[i, j, k] += float(
                            np.dot(predictions[i, j, k], parents[k])
                        )
    return parents, coupling, logits


def nearest_centroid_accuracy(cube: HsiCube, split) -> float:
    """Classify test pixels by the nearest train-set class centroid of the
    raw center-pixel spectrum."""
    train_coords, train_labels = split.subset("train")
    test_coords, test_labels = split.subset("test")
    train_pixels = cube.values[train_coords[:, 0], train_coords[:, 1]]
    test_pixels = cube.values[test_coords[:, 0], test_coords[:, 1]]
    class_ids = np.unique(train_labels)
    centroids = np.stack(
        [train_pixels[train_labels == cid].mean(axis=0) for cid in class_ids]
    )
    distances = ((test_pixels[:, None, :] - centroids[None]) ** 2).sum(axis=-1)
    predicted = class_ids[np.argmin(distances, axis=1)]
    return float((predicted == test_labels).mean())


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def toy_cube() -> HsiCube:
    """Small labeled scene that trains to high accuracy in a few epochs."""
    return make_synthetic_cube(24, 48, 26, 3, noise_sigma=0.2, seed=1)


@pytest.fixture(scope="session")
def toy_cube_path(toy_cube, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cubes") / "toy.hsic"
    save_cube(toy_cube, str(path))
    return str(path)


@pytest.fixture(scope="session")
def toy_split(toy_cube):
    return stratified_split(toy_cube, (0.2, 0.1), seed=0)

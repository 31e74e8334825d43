"""Randomized differential checks of the batched model engine.

Each example draws a small architecture whose widths mostly differ (so a
swapped axis in a layout view cannot pass by coincidence), a routing depth,
a batch, a prediction budget small enough that the call runs as one or two
sample pieces, and a child block small enough that routing runs over one or
more blocks of children.  The engine is then compared with the straight-loop
oracles in ``conftest.py``, with directional central differences, and with
itself run as one whole call, with pieces cut on the multiples of 8 samples
(bit for bit) and off them (within rounding).  Hypothesis runs derandomized,
so the examples are the same on every run; ``pytest
--hypothesis-show-statistics`` prints the worst relative gradient error seen
for each parameter family.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import hsicaps.layers
from hsicaps.layers import (
    PARAM_GROUPS,
    Architecture,
    backward_batch,
    forward_batch,
    init_params,
)

from conftest import (
    oracle_conv_caps,
    oracle_primary_caps,
    oracle_routing,
    oracle_spatial_conv,
    shrink_child_blocks,
    shrink_prediction_budget,
)

ENGINE_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)
# the gradient-check gate of the coordinate-wise checks
GRADIENT_GATE = 1e-4
STEP = 1e-6
# directional derivatives smaller than this are compared in absolute terms:
# a family whose units are all dead has a zero gradient, and its difference
# quotient is rounding noise of about 1e-9
DERIVATIVE_FLOOR = 1e-6


@st.composite
def architectures(draw):
    """Valid architectures of 1-4 window positions and small widths; the
    channel count is built up from the kernels and strides, so every draw
    fits."""
    window_size = draw(st.integers(1, 3))
    window_stride = draw(st.integers(1, 3))
    primary_kernel_size = draw(st.integers(1, 5))
    primary_stride = draw(st.integers(1, 3))
    primary_positions = (
        window_size
        + (draw(st.integers(1, 4)) - 1) * window_stride
        + draw(st.integers(0, window_stride - 1))
    )
    channels = (
        primary_kernel_size
        + (primary_positions - 1) * primary_stride
        + draw(st.integers(0, primary_stride - 1))
    )
    return Architecture(
        channels=channels,
        num_classes=draw(st.integers(2, 5)),
        patch_size=draw(st.sampled_from([1, 3])),
        spatial_filters=draw(st.integers(1, 4)),
        primary_kernel_size=primary_kernel_size,
        primary_stride=primary_stride,
        capsule_arrays=draw(st.integers(1, 3)),
        capsule_dim=draw(st.integers(1, 4)),
        window_size=window_size,
        window_stride=window_stride,
        window_count=draw(st.integers(1, 3)),
        window_capsule_dim=draw(st.integers(1, 5)),
        class_capsule_dim=draw(st.integers(1, 5)),
    )


@st.composite
def engine_cases(draw):
    """(params, patches, routing depth, samples per prediction budget,
    children per routing block)."""
    arch = draw(architectures())
    batch = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    params = init_params(arch, rng)
    # nonzero biases keep pre-activations off the ReLU kink at exactly 0
    for name, group in PARAM_GROUPS.items():
        if group == "biases":
            getattr(params, name)[...] = rng.normal(0.0, 0.1, getattr(params, name).shape)
    patches = rng.normal(
        0.0, 1.0, (batch, arch.patch_size, arch.patch_size, arch.channels)
    )
    return (
        params,
        patches,
        draw(st.integers(1, 5)),
        draw(st.integers(1, 40)),
        draw(st.integers(1, 12)),
    )


@contextmanager
def shrunk(arch, samples, children, multiple=8):
    """A prediction budget that ``samples`` samples of ``arch`` fit, routing
    blocks of ``children`` children, and piece cuts at multiples of
    ``multiple`` samples, undone on exit (a function-scoped fixture would
    outlive one example)."""
    with pytest.MonkeyPatch.context() as patch:
        shrink_prediction_budget(samples, patch, arch)
        shrink_child_blocks(children, patch, arch.num_classes, arch.class_capsule_dim)
        patch.setattr(hsicaps.layers, "_BLOCK_MULTIPLE", multiple)
        yield


def oracle_forward(params, patch, iterations):
    """The four conftest oracles chained on one (size, size, channels) patch."""
    arch = params.arch
    spatial = oracle_spatial_conv(patch, params.spatial_kernels, params.spatial_bias)
    primary = oracle_primary_caps(
        spatial,
        params.primary_kernels,
        params.primary_bias,
        arch.primary_stride,
        arch.capsule_arrays,
        arch.capsule_dim,
    )
    window = oracle_conv_caps(
        primary, params.window_tensors, params.window_bias, arch.window_stride
    )
    return oracle_routing(window, params.class_matrices, iterations)[0]


@ENGINE_SETTINGS
@given(case=engine_cases())
def test_forward_matches_chained_oracles(case):
    params, patches, iterations, budget, children = case
    with shrunk(params.arch, budget, children):
        acts, _ = forward_batch(params, patches, iterations)
        pieces = hsicaps.layers._pieces(params.arch, len(patches))
    # the first and last sample of every piece
    samples = set()
    for piece in pieces:
        samples |= {piece.start, piece.stop - 1}
    for b in sorted(samples):
        want = oracle_forward(params, patches[b], iterations)
        np.testing.assert_allclose(acts[b], want, rtol=0, atol=1e-10, err_msg=str(b))


@ENGINE_SETTINGS
@given(case=engine_cases())
def test_backward_matches_directional_differences(case):
    params, patches, iterations, budget, children = case
    with shrunk(params.arch, budget, children):
        check_directional_differences(params, patches, iterations)


def check_directional_differences(params, patches, iterations):
    arch = params.arch
    rng = np.random.default_rng(len(patches))
    weights = rng.normal(size=(len(patches), arch.num_classes, arch.class_capsule_dim))

    def loss():
        acts, _ = forward_batch(params, patches, iterations)
        return float(np.sum(weights * acts))

    _, cache = forward_batch(params, patches, iterations, keep_cache=True)
    grads = backward_batch(params, cache, weights)
    for family in sorted(set(PARAM_GROUPS.values())):
        names = [name for name, group in PARAM_GROUPS.items() if group == family]
        directions = {name: rng.normal(size=grads[name].shape) for name in names}
        analytic = sum(float(np.sum(grads[n] * directions[n])) for n in names)
        originals = {name: getattr(params, name).copy() for name in names}
        sides = []
        for sign in (1.0, -1.0):
            for name in names:
                getattr(params, name)[...] = originals[name] + sign * STEP * directions[name]
            sides.append(loss())
        for name in names:
            getattr(params, name)[...] = originals[name]
        numeric = (sides[0] - sides[1]) / (2.0 * STEP)
        error = abs(analytic - numeric) / max(abs(analytic), abs(numeric), DERIVATIVE_FLOOR)
        target(error, label=f"relative error, {family}")
        assert error < GRADIENT_GATE, (family, analytic, numeric)


def run_in_pieces(params, patches, iterations, budget, children, multiple=8):
    """Activations and gradients of ``patches`` run as one whole call and as
    the pieces ``budget`` and ``multiple`` give: (whole, pieced) pairs."""
    upstream = np.random.default_rng(1).normal(
        size=(len(patches), params.arch.num_classes, params.arch.class_capsule_dim)
    )
    with shrunk(params.arch, 40, children):
        whole_acts, whole_cache = forward_batch(
            params, patches, iterations, keep_cache=True
        )
        assert len(whole_cache.pieces) == 1
        whole_grads = backward_batch(params, whole_cache, upstream)
    with shrunk(params.arch, budget, children, multiple):
        acts, cache = forward_batch(params, patches, iterations, keep_cache=True)
        grads = backward_batch(params, cache, upstream)
    return (whole_acts, acts), (whole_grads, grads)


def assert_close(want, got, name):
    """Within 1e-14 of ``want``'s largest magnitude."""
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


@ENGINE_SETTINGS
@given(case=engine_cases())
def test_piece_cuts_match_one_whole_call(case):
    (whole_acts, acts), (whole_grads, grads) = run_in_pieces(*case)
    # pieces are cut at multiples of 8 samples, so activations match bit for bit
    assert np.array_equal(acts, whole_acts)
    for name, grad in grads.items():
        assert_close(whole_grads[name], grad, name)


@ENGINE_SETTINGS
@given(case=engine_cases())
def test_unaligned_piece_cuts_match_one_whole_call_within_rounding(case):
    params, patches, iterations, _, children = case
    # every batch of two or more samples runs as two pieces, cut at
    # ceil(batch / 2) samples: off the multiples of 8 unless that is 8 or 16
    (whole_acts, acts), (whole_grads, grads) = run_in_pieces(
        params, patches, iterations, len(patches) - 1, children, multiple=1
    )
    assert_close(whole_acts, acts, "activations")
    for name, grad in grads.items():
        assert_close(whole_grads[name], grad, name)

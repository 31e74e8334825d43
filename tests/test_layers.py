"""Architecture bookkeeping, layer forwards, routing, backprop, checkpoints."""

import dataclasses
import multiprocessing
import re
import struct
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hsicaps.layers
from hsicaps.cli import RunConfig
from hsicaps.layers import (
    _child_blocks,
    _class_forward,
    _conv_forward,
    _pieces,
    _window_kernels,
    MINIATURE_ARCHITECTURE,
    PARAM_FIELDS,
    Architecture,
    CheckpointFormatError,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
    load_checkpoint,
    param_count,
    predict_classes,
    read_checkpoint,
    save_checkpoint,
    squash,
    squash_backward,
)
from hsicaps.metrics import margin_loss_batch
from hsicaps.numerics import finite_difference_check, relu
from hsicaps.training import TrainConfig

from conftest import (
    DISTINCT_ARCHITECTURE,
    NON_FINITE_FLOAT32,
    UNSTORABLE_FLOAT64,
    oracle_conv_caps,
    oracle_primary_caps,
    oracle_routing,
    oracle_spatial_conv,
    oracle_squash_vector,
    shrink_child_blocks,
    shrink_prediction_budget,
)


# The checkpoint's architecture block, in the order README's table lists it
README_WIRE_ORDER = [
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
]


def miniature_params(seed=0):
    return init_params(MINIATURE_ARCHITECTURE, seed)


class TestArchitecture:
    # (channels, classes) -> (primary positions, window positions, total params)
    REFERENCE = {
        (220, 16): (106, 49, 409_168),
        (103, 9): (48, 20, 99_920),
        (224, 16): (108, 50, 417_360),
    }

    @pytest.mark.parametrize("key", sorted(REFERENCE))
    def test_reference_configurations(self, key):
        channels, classes = key
        positions1, positions2, total = self.REFERENCE[key]
        arch = Architecture(channels=channels, num_classes=classes)
        assert arch.primary_positions == positions1
        assert arch.window_positions == positions2
        assert param_count(arch) == total

    def test_per_layer_counts(self):
        arch = Architecture(channels=220, num_classes=16)
        assert arch.layer_param_counts() == {
            "spatial": 800,
            "primary": 2320,
            "window": 4640,
            "classes": 401_408,
        }

    def test_miniature(self):
        arch = MINIATURE_ARCHITECTURE
        assert arch.primary_positions == 10
        assert arch.window_positions == 4
        assert arch.layer_param_counts() == {
            "spatial": 40,
            "primary": 168,
            "window": 200,
            "classes": 384,
        }
        assert param_count(arch) == 792

    def test_primary_filters(self):
        assert Architecture(channels=64, num_classes=4).primary_filters == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            Architecture(channels=64, num_classes=1)
        with pytest.raises(ValueError):
            Architecture(channels=64, num_classes=4, patch_size=4)
        with pytest.raises(ValueError):
            Architecture(channels=0, num_classes=4)
        with pytest.raises(ValueError):
            Architecture(channels=8, num_classes=4)  # kernel 9 overruns 8 channels
        with pytest.raises(ValueError):
            # 6 primary positions cannot host a size-9 window
            Architecture(channels=19, num_classes=4)
        with pytest.raises(ValueError, match="capsule_dim must be an integer, got True"):
            Architecture(channels=64, num_classes=4, capsule_dim=True)
        with pytest.raises(ValueError, match="num_classes must be >= 2, got 1"):
            Architecture(channels=64, num_classes=1)

    def test_numpy_integers_kept_as_int(self):
        arch = Architecture(channels=np.int64(200), num_classes=np.int64(16))
        assert arch == Architecture(channels=200, num_classes=16)
        assert type(arch.channels) is int and type(arch.num_classes) is int

    def test_frozen(self):
        arch = Architecture(channels=64, num_classes=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            arch.channels = 100

    def test_wire_order_covers_every_field(self):
        names = [f.name for f in dataclasses.fields(Architecture)]
        assert names == README_WIRE_ORDER

    def test_positional_fields_refused(self):
        with pytest.raises(TypeError):
            Architecture(200, 16)

    def test_config_defaults_match(self):
        config_defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        for f in dataclasses.fields(Architecture):
            if f.name not in ("channels", "num_classes"):
                assert config_defaults[f.name] == f.default, f.name


class TestParamsAndInit:
    def test_shapes(self):
        shapes = ModelParams.expected_shapes(MINIATURE_ARCHITECTURE)
        assert shapes["spatial_kernels"] == (4, 3, 3)
        assert shapes["primary_kernels"] == (8, 4, 5)
        assert shapes["window_tensors"] == (2, 4, 3, 2, 4)
        assert shapes["class_matrices"] == (2, 4, 3, 4, 4)

    def test_size_matches_param_count(self):
        assert miniature_params().size() == 792

    def test_same_seed_identical(self):
        a, b = miniature_params(3), miniature_params(3)
        for (_, arr_a), (_, arr_b) in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(arr_a, arr_b)

    def test_different_seeds_differ(self):
        a, b = miniature_params(0), miniature_params(1)
        assert not np.array_equal(a.spatial_kernels, b.spatial_kernels)

    def test_biases_zero_weights_bounded(self):
        params = miniature_params(7)
        assert not params.spatial_bias.any()
        assert not params.primary_bias.any()
        assert not params.window_bias.any()
        bounds = {
            "spatial_kernels": np.sqrt(6.0 / (9 + 4)),
            "primary_kernels": np.sqrt(6.0 / (4 * 5 + 8)),
            "window_tensors": np.sqrt(6.0 / (3 * 2 * 4 + 4)),
            "class_matrices": np.sqrt(6.0 / (4 + 4)),
        }
        for name, bound in bounds.items():
            arr = getattr(params, name)
            assert np.abs(arr).max() <= bound
            # the draw actually uses the room it has
            assert np.abs(arr).max() > 0.5 * bound

    def test_shape_validation(self):
        params = miniature_params()
        with pytest.raises(ValueError):
            ModelParams(
                MINIATURE_ARCHITECTURE,
                params.spatial_kernels[:-1],
                params.spatial_bias,
                params.primary_kernels,
                params.primary_bias,
                params.window_tensors,
                params.window_bias,
                params.class_matrices,
            )

    def test_copy_is_independent(self):
        params = miniature_params()
        clone = params.copy()
        clone.spatial_kernels[0, 0, 0] += 1.0
        assert params.spatial_kernels[0, 0, 0] != clone.spatial_kernels[0, 0, 0]


class TestSquash:
    def test_unit_norm_maps_to_half(self):
        np.testing.assert_array_equal(squash(np.array([1.0, 0.0])), [0.5, 0.0])

    def test_three_four_five(self):
        out = squash(np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [15.0 / 26.0, 20.0 / 26.0], rtol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(out), 25.0 / 26.0, rtol=1e-15)

    def test_long_vector_saturates(self):
        out = squash(np.array([1000.0, 0.0]))
        np.testing.assert_allclose(out[0], 1e6 / (1e6 + 1.0), rtol=1e-15)

    def test_zero_is_fixed_point(self):
        np.testing.assert_array_equal(squash(np.zeros(4)), np.zeros(4))

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vec = rng.normal(0, 3, rng.integers(1, 6))
            np.testing.assert_allclose(
                squash(vec), oracle_squash_vector(vec), atol=1e-14
            )

    @given(
        st.lists(
            st.floats(-50, 50, allow_nan=False), min_size=1, max_size=5
        )
    )
    def test_norm_below_one_direction_kept(self, values):
        vec = np.array(values)
        out = squash(vec)
        assert np.linalg.norm(out) < 1.0
        norm = np.linalg.norm(vec)
        if norm > 1e-6:
            cos = np.dot(out, vec) / (np.linalg.norm(out) * norm)
            assert cos == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(0.01, 100), st.floats(0.01, 100))
    def test_output_norm_monotone_in_input_norm(self, h1, h2):
        direction = np.array([0.6, 0.8])
        n1 = np.linalg.norm(squash(h1 * direction))
        n2 = np.linalg.norm(squash(h2 * direction))
        assert (n1 <= n2) == (h1 * np.float64(1.0) <= h2) or np.isclose(n1, n2)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(0, 2, (5, 3))
        upstream = rng.normal(size=(5, 3))
        analytic = squash_backward(upstream, vectors)
        report = finite_difference_check(
            lambda v: float(np.sum(upstream * squash(v))), vectors, analytic
        )
        assert report.max_relative_error < 1e-7

    def test_backward_zero_vector(self):
        grad = squash_backward(np.array([1.0, 2.0]), np.zeros(2))
        np.testing.assert_array_equal(grad, np.zeros(2))


class TestCapsuleReadout:
    def test_lengths_and_argmax(self):
        # the second sample's longest capsule (class 3) has the smallest sum
        acts = np.array(
            [[[3.0, 4.0], [0.0, 1.0], [0.5, 0.0]], [[2.0, 2.0], [0.0, 3.0], [-4.0, 0.0]]]
        )
        np.testing.assert_array_equal(predict_classes(acts), [1, 3])
        assert predict_classes(acts[0]) == 1


class TestSpatialConv:
    """The spatial layer as the model runs it: the maps-first convolution
    with one input map per patch pixel and the channels as its length."""

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            channels = int(rng.integers(1, 5))
            size = int(rng.choice([3, 5]))
            filters = int(rng.integers(1, 4))
            patch = rng.normal(size=(size, size, channels))
            kernels = rng.normal(size=(filters, size, size))
            bias = rng.normal(size=filters)
            pixels = patch.reshape(-1, 1, channels)
            _, pre = _conv_forward(pixels, kernels.reshape(filters, -1, 1), bias, 1)
            np.testing.assert_allclose(
                relu(pre[:, 0]).T,
                oracle_spatial_conv(patch, kernels, bias),
                atol=1e-12,
            )

    def test_known_case(self):
        # two all-ones filters over the plane [[1, 2], [3, 4]]
        pixels = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        bias = np.array([-100.0, 0.5])
        _, pre = _conv_forward(pixels, np.ones((2, 4, 1)), bias, 1)
        # relu clips 10 - 100
        np.testing.assert_array_equal(relu(pre).ravel(), [0.0, 10.5])


class TestPrimaryCaps:
    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            arrays = int(rng.integers(1, 3))
            dim = int(rng.integers(1, 4))
            in_maps = int(rng.integers(1, 4))
            f = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            channels = int(rng.integers(f, f + 6))
            features = rng.normal(size=(channels, in_maps))
            kernels = rng.normal(size=(arrays * dim, in_maps, f))
            bias = rng.normal(size=arrays * dim)
            _, pre = _conv_forward(features.T[:, None], kernels, bias, stride)
            np.testing.assert_allclose(
                relu(pre[:, 0]).T.reshape(-1, arrays, dim),
                oracle_primary_caps(features, kernels, bias, stride, arrays, dim),
                atol=1e-12,
            )

    def test_regroup_convention(self):
        # size-1 kernels make each output map a known linear readout, so the
        # capsule layout is directly visible: the window layer reads map
        # a*dim + j as (position, array a, component j)
        channels = 5
        features = np.stack([np.arange(channels, dtype=float),
                             np.full(channels, 100.0)], axis=1)
        kernels = np.zeros((4, 2, 1))
        kernels[:, 0, 0] = 1.0
        for o in range(4):
            kernels[o, 1, 0] = o
        _, maps = _conv_forward(features.T[:, None], kernels, np.zeros(4), 1)
        for a in range(2):
            for j in range(2):
                # a size-1 window tensor that passes capsule component (a, j)
                picker = np.zeros((1, 1, 1, 2, 2))
                picker[0, 0, 0, a, j] = 1.0
                _, caps = _conv_forward(maps, _window_kernels(picker), np.zeros(1), 1)
                assert caps.shape == (1, 1, channels)
                for t in range(channels):
                    assert caps[0, 0, t] == t + 100.0 * (a * 2 + j)


class TestConvCaps:
    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
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
            maps = children.reshape(positions, -1).T[:, None]
            _, pre = _conv_forward(maps, _window_kernels(tensors), bias.ravel(), stride)
            np.testing.assert_allclose(
                squash(pre[:, 0].T.reshape(-1, out_arrays, out_dim)),
                oracle_conv_caps(children, tensors, bias, stride),
                atol=1e-12,
            )

    def test_outputs_are_squashed(self):
        rng = np.random.default_rng(3)
        params = miniature_params(3)
        params.window_tensors = rng.normal(size=params.window_tensors.shape)
        params.window_bias = rng.normal(size=params.window_bias.shape)
        arch = MINIATURE_ARCHITECTURE
        patches = rng.normal(0, 5, (4, arch.patch_size, arch.patch_size, arch.channels))
        _, cache = forward_batch(params, patches, keep_cache=True)
        (piece,) = cache.pieces
        assert np.abs(piece.pre_window).max() > 1.0  # squashing has work to do
        assert (np.linalg.norm(piece.window_caps, axis=-1) < 1.0).all()

    def test_bias_applied_before_squash(self):
        # zero tensors leave each window capsule its bias, squashed
        params = miniature_params()
        params.window_tensors[:] = 0.0
        params.window_bias[:] = [[3.0, 4.0, 0.0, 0.0], [0.0, -1.0, 2.0, 0.5]]
        _, cache = forward_batch(params, TestModelEngine.random_patches(2), keep_cache=True)
        window_caps = cache.pieces[0].window_caps
        assert window_caps.shape == (2, MINIATURE_ARCHITECTURE.window_positions, 2, 4)
        np.testing.assert_allclose(
            window_caps,
            np.broadcast_to(squash(params.window_bias), window_caps.shape),
            atol=1e-15,
        )


def random_routing_setup(seed, positions=3, arrays=2, dim=3, classes=3, out_dim=2):
    rng = np.random.default_rng(seed)
    children = rng.normal(size=(positions, arrays, dim))
    matrices = rng.normal(size=(arrays, positions, classes, out_dim, dim))
    return children, matrices


class TestDynamicRouting:
    """The class layer's routing on one sample: coupling and logits are
    class-major (1, classes, children), child n = array * positions +
    position."""

    def test_one_iteration_coupling_is_uniform(self):
        children, matrices = random_routing_setup(0)
        _, (_, coupling, logits, cache) = _class_forward(children[None], matrices, 1, True)
        np.testing.assert_array_equal(coupling, np.full((1, 3, 6), 1.0 / 3.0))
        np.testing.assert_array_equal(logits, np.zeros((1, 3, 6)))
        assert len(cache) == 1

    @pytest.mark.parametrize("iterations", [1, 2, 3, 4])
    def test_coupling_normalized_each_setting(self, iterations):
        children, matrices = random_routing_setup(1)
        _, (_, coupling, _, _) = _class_forward(children[None], matrices, iterations, False)
        np.testing.assert_allclose(coupling.sum(axis=1), 1.0, atol=1e-12)
        assert (coupling > 0).all()

    def test_matches_oracle(self):
        for seed in range(5):
            children, matrices = random_routing_setup(seed + 10)
            for iterations in (1, 2, 3):
                _, (acts, coupling, logits, _) = _class_forward(
                    children[None], matrices, iterations, False
                )
                want_acts, want_coupling, want_logits = oracle_routing(
                    children, matrices, iterations
                )
                # the oracle's (arrays, positions, classes) as (classes, children)
                np.testing.assert_allclose(acts[0], want_acts, atol=1e-12)
                np.testing.assert_allclose(
                    coupling[0], want_coupling.reshape(-1, 3).T, atol=1e-12
                )
                np.testing.assert_allclose(
                    logits[0], want_logits.reshape(-1, 3).T, atol=1e-12
                )

    def test_two_iteration_logits_are_the_agreement(self):
        # single child, single class: coupling is pinned at 1, so the logit
        # after two iterations is exactly <prediction, squash(prediction)>
        children = np.ones((1, 1, 2))
        matrices = np.zeros((1, 1, 1, 2, 2))
        matrices[0, 0, 0] = [[3.0, 0.0], [0.0, 4.0]]  # prediction = (3, 4)
        _, (_, coupling, logits, _) = _class_forward(children[None], matrices, 2, False)
        prediction = np.array([3.0, 4.0])
        parent = prediction * (5.0 / 26.0)
        want = float(prediction @ parent)  # 125 / 26
        np.testing.assert_allclose(logits[0, 0, 0], want, rtol=1e-15)
        np.testing.assert_array_equal(coupling, np.ones((1, 1, 1)))

    def test_agreement_shifts_coupling_toward_aligned_class(self):
        # class 1's matrices produce long consistent predictions, class 2's
        # produce noise, so routing should concentrate coupling on class 1
        rng = np.random.default_rng(4)
        children = rng.normal(size=(3, 2, 3))
        matrices = np.zeros((2, 3, 2, 2, 3))
        matrices[:, :, 0, 0, 0] = 4.0  # aligned on the first component
        matrices[:, :, 1] = rng.normal(0, 0.1, (2, 3, 2, 3))
        _, (_, coupling, _, _) = _class_forward(np.abs(children)[None], matrices, 3, False)
        assert (coupling[:, 0] > 0.5).all()

    def test_validation(self):
        children, matrices = random_routing_setup(0)
        with pytest.raises(ValueError, match="routing_iters must be >= 1"):
            _class_forward(children[None], matrices, 0, False)
        with pytest.raises(ValueError, match="routing_iters must be >= 1"):
            forward_batch(miniature_params(), TestModelEngine.random_patches(2), 0)
        with pytest.raises(ValueError, match="routing_iters must be an integer"):
            forward_batch(miniature_params(), TestModelEngine.random_patches(2), True)


class TestModelEngine:
    @staticmethod
    def random_patches(count, seed=0, scale=1.0, arch=MINIATURE_ARCHITECTURE):
        rng = np.random.default_rng(seed)
        return rng.normal(
            0, scale, (count, arch.patch_size, arch.patch_size, arch.channels)
        )

    def test_output_shape_and_cache_flag(self):
        params = miniature_params()
        patches = self.random_patches(4)
        acts, cache = forward_batch(params, patches)
        assert acts.shape == (4, 3, 4)
        assert cache is None
        acts2, cache = forward_batch(params, patches, keep_cache=True)
        np.testing.assert_array_equal(acts, acts2)
        assert cache is not None
        assert len(cache.pieces[0].routing) == 3

    def test_batch_matches_single_sample_pipeline(self):
        # the straight-loop oracles chained one sample at a time share no code
        # with the engine; DISTINCT_ARCHITECTURE's unequal widths pin every
        # layout view, the map-to-capsule regrouping included
        for arch in (MINIATURE_ARCHITECTURE, DISTINCT_ARCHITECTURE):
            params = init_params(arch, 5)
            patches = self.random_patches(3, seed=6, arch=arch)
            batch_acts, cache = forward_batch(
                params, patches, routing_iters=3, keep_cache=True
            )
            (piece,) = cache.pieces
            for b in range(3):
                spatial = oracle_spatial_conv(
                    patches[b], params.spatial_kernels, params.spatial_bias
                )
                primary = oracle_primary_caps(
                    spatial,
                    params.primary_kernels,
                    params.primary_bias,
                    arch.primary_stride,
                    arch.capsule_arrays,
                    arch.capsule_dim,
                )
                window = oracle_conv_caps(
                    primary,
                    params.window_tensors,
                    params.window_bias,
                    arch.window_stride,
                )
                acts, _, _ = oracle_routing(window, params.class_matrices, 3)
                np.testing.assert_allclose(
                    piece.window_caps[b], window, atol=1e-12, err_msg=str(arch)
                )
                np.testing.assert_allclose(
                    batch_acts[b], acts, atol=1e-12, err_msg=str(arch)
                )

    def test_shape_validation(self):
        params = miniature_params()
        with pytest.raises(ValueError):
            forward_batch(params, self.random_patches(2)[:, :2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_raises(self):
        params = miniature_params()
        patches = self.random_patches(1)
        patches[0, 0, 0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            forward_batch(params, patches)

    def test_zero_upstream_gives_zero_grads(self):
        params = miniature_params()
        patches = self.random_patches(2)
        _, cache = forward_batch(params, patches, keep_cache=True)
        grads = backward_batch(params, cache, np.zeros((2, 3, 4)))
        for name, grad in grads.items():
            assert not grad.any(), name

    @pytest.mark.parametrize("shape", [(5, 3, 1), (1, 3, 4), (3, 4)], ids=str)
    def test_upstream_shape_checked_before_any_piece(self, shape, monkeypatch):
        params = miniature_params()
        _, cache = forward_batch(params, self.random_patches(5), keep_cache=True)
        monkeypatch.setattr(
            hsicaps.layers, "_backward_body", lambda *args: pytest.fail("piece ran")
        )
        with pytest.raises(ValueError, match=re.escape(f"(5, 3, 4), got {shape}")):
            backward_batch(params, cache, np.ones(shape))

    def test_non_finite_gradient_names_its_family(self, monkeypatch):
        params = miniature_params()
        _, cache = forward_batch(params, self.random_patches(2), keep_cache=True)
        body = hsicaps.layers._backward_body

        def nan_window_tensors(*args):
            grads = body(*args)
            grads["window_tensors"].flat[0] = np.nan
            return grads

        monkeypatch.setattr(hsicaps.layers, "_backward_body", nan_window_tensors)
        with pytest.raises(FloatingPointError, match="non-finite gradient for window_tensors"):
            backward_batch(params, cache, np.ones((2, 3, 4)))

    def test_non_finite_gradient_at_a_closed_relu_raises(self, monkeypatch):
        # map 5's ReLU gate is closed everywhere, yet an infinite gradient
        # reaching it is not masked: it turns into NaN and is refused
        params = miniature_params(1)
        params.primary_bias[5] = -1e3
        _, cache = forward_batch(params, self.random_patches(3, seed=2), keep_cache=True)
        gate = hsicaps.layers.relu_grad

        def infinite_map_5(pre, upstream):
            if pre is cache.pieces[0].pre_primary:
                upstream = upstream.copy()
                upstream[5] = np.inf
            return gate(pre, upstream)

        monkeypatch.setattr(hsicaps.layers, "relu_grad", infinite_map_5)
        with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite gradient"
        ):
            backward_batch(params, cache, np.ones((3, 3, 4)))

    def test_dead_feature_map_gets_no_gradient(self):
        params = miniature_params(1)
        params.primary_bias[5] = -1e3  # relu output of map 5 is always zero
        patches = self.random_patches(3, seed=2)
        _, cache = forward_batch(params, patches, keep_cache=True)
        rng = np.random.default_rng(3)
        grads = backward_batch(params, cache, rng.normal(size=(3, 3, 4)))
        assert not grads["primary_kernels"][5].any()
        assert grads["primary_bias"][5] == 0.0
        assert grads["primary_kernels"][0].any()

    def test_gradients_match_finite_differences(self):
        self.check_gradients_by_finite_differences()

    def test_gradients_match_finite_differences_in_child_blocks(self, monkeypatch):
        # 3 children a block: 3, 3, 2 of the miniature setup's 8 and 3, 3, 2,
        # 2 of the distinct setup's 10
        shrink_child_blocks(3, monkeypatch)
        for arch in (MINIATURE_ARCHITECTURE, DISTINCT_ARCHITECTURE):
            shape = init_params(arch).class_matrices.shape
            assert len(_child_blocks(shape)) > 2, arch
        self.check_gradients_by_finite_differences()

    def check_gradients_by_finite_differences(self):
        # linear readout loss so the upstream gradient is a constant tensor;
        # every parameter family is checked coordinate by coordinate
        for arch in (MINIATURE_ARCHITECTURE, DISTINCT_ARCHITECTURE):
            params = init_params(arch, 4)
            patches = self.random_patches(2, seed=7, scale=0.8, arch=arch)
            rng = np.random.default_rng(8)
            weights = rng.normal(size=(2, arch.num_classes, arch.class_capsule_dim))

            def loss(_arr):
                acts, _ = forward_batch(params, patches, routing_iters=3)
                return float(np.sum(weights * acts))

            _, cache = forward_batch(params, patches, routing_iters=3, keep_cache=True)
            grads = backward_batch(params, cache, weights)
            for name, arr in params.arrays():
                report = finite_difference_check(loss, arr, grads[name], epsilon=1e-6)
                assert report.max_relative_error < 1e-5, (arch, name)


class TestChildBlocks:
    """Routing runs over near-equal blocks of children that the class
    layer's shape alone fixes."""

    @staticmethod
    def sizes(arch):
        shape = ModelParams.expected_shapes(arch)["class_matrices"]
        return [block.stop - block.start for block in _child_blocks(shape)]

    def test_reference_shapes(self):
        assert self.sizes(Architecture(channels=200, num_classes=16)) == [88, 88]
        assert self.sizes(Architecture(channels=220, num_classes=16)) == [66, 65, 65]
        assert self.sizes(Architecture(channels=103, num_classes=9)) == [80]
        assert self.sizes(Architecture(channels=32, num_classes=3)) == [8]
        assert self.sizes(MINIATURE_ARCHITECTURE) == [8]

    def test_shrunk_blocks(self, monkeypatch):
        shrink_child_blocks(3, monkeypatch)
        assert self.sizes(MINIATURE_ARCHITECTURE) == [3, 3, 2]
        shrink_child_blocks(1, monkeypatch)
        assert self.sizes(MINIATURE_ARCHITECTURE) == [1] * 8
        # a child larger than the cap still gets a block of its own
        monkeypatch.setattr(hsicaps.layers, "_CHILD_BLOCK_BYTES", 1)
        assert self.sizes(MINIATURE_ARCHITECTURE) == [1] * 8

    def test_blocks_ignore_the_prediction_budget(self, monkeypatch):
        reference = Architecture(channels=200, num_classes=16)
        shrink_prediction_budget(1, monkeypatch, reference)
        assert self.sizes(reference) == [88, 88]


class TestHalves:
    """A call over the prediction budget runs as two pieces, the second on
    the worker thread."""

    def test_split_point(self, monkeypatch):
        def cut(arch, batch):
            """Samples in the first piece; a second piece takes the rest."""
            first, *rest = _pieces(arch, batch)
            assert first.start == 0
            assert rest == ([slice(first.stop, batch)] if first.stop < batch else [])
            return first.stop

        reference = Architecture(channels=200, num_classes=16)
        # the train-ip batch splits in two; 11 samples of 352 KiB fit 4 MiB
        assert cut(reference, 64) == 32
        assert cut(reference, 11) == 11
        assert cut(reference, 12) == 8
        # train-toy batches and map blocks, and the gradient check, never split
        assert cut(Architecture(channels=32, num_classes=3), 512) == 512
        assert cut(MINIATURE_ARCHITECTURE, 2) == 2
        # cut at the multiple of 8 nearest half the batch, never at 0
        shrink_prediction_budget(8, monkeypatch)
        cuts = {b: cut(MINIATURE_ARCHITECTURE, b) for b in (8, 9, 23, 24, 37, 64, 88)}
        assert cuts == {8: 8, 9: 8, 23: 8, 24: 16, 37: 16, 64: 32, 88: 48}

    @pytest.mark.parametrize("count", [24, 37])
    def test_split_call_matches_whole_call(self, count, monkeypatch):
        self.check_split_call_matches_whole_call(count, monkeypatch)

    @pytest.mark.parametrize("count", [24, 37])
    def test_split_call_matches_whole_call_in_child_blocks(self, count, monkeypatch):
        # both calls route in blocks of 3, 3 and 2 children; shrinking the
        # prediction budget for the split call must not move the blocks
        shrink_child_blocks(3, monkeypatch)
        self.check_split_call_matches_whole_call(count, monkeypatch)

    @staticmethod
    def check_split_call_matches_whole_call(count, monkeypatch):
        params = miniature_params(3)
        rng = np.random.default_rng(4)
        patches = rng.normal(size=(count, 3, 3, 24))
        labels = rng.integers(1, 4, count)

        def step():
            acts, cache = forward_batch(params, patches, keep_cache=True)
            loss, grad = margin_loss_batch(acts, labels, TrainConfig())
            return acts, loss, cache, backward_batch(params, cache, grad)

        whole_acts, whole_loss, whole_cache, whole_grads = step()
        assert len(whole_cache.pieces) == 1

        bodies = []
        forward_body = hsicaps.layers._forward_body

        def recording_body(params, patches, *args):
            bodies.append((threading.current_thread().name, len(patches)))
            return forward_body(params, patches, *args)

        monkeypatch.setattr(hsicaps.layers, "_forward_body", recording_body)
        shrink_prediction_budget(8, monkeypatch)
        acts, loss, cache, grads = step()

        first = 16
        assert sorted(bodies) == sorted(
            [(threading.current_thread().name, first), ("hsicaps-half_0", count - first)]
        )
        assert len(cache.patches) == count
        assert [len(piece.window_caps) for piece in cache.pieces] == [first, count - first]
        assert np.array_equal(acts, whole_acts)
        assert loss == whole_loss
        for name, grad in grads.items():
            scale = np.abs(whole_grads[name]).max()
            assert np.abs(grad - whole_grads[name]).max() <= 1e-14 * scale, name

    def test_forked_child_gets_its_own_worker(self, monkeypatch):
        shrink_prediction_budget(8, monkeypatch)
        params = miniature_params()
        patches = np.random.default_rng(6).normal(size=(16, 3, 3, 24))
        forward_batch(params, patches)  # the parent's worker thread is running
        child = multiprocessing.get_context("fork").Process(
            target=forward_batch, args=(params, patches)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    def test_first_piece_error_wins_after_the_worker_piece_ends(self, monkeypatch):
        ended = []

        def failing_body(params, patches, *args):
            if threading.current_thread().name.startswith("hsicaps-half"):
                time.sleep(0.2)
                ended.append(len(patches))
                raise FloatingPointError("second piece")
            raise FloatingPointError("first piece")

        monkeypatch.setattr(hsicaps.layers, "_forward_body", failing_body)
        shrink_prediction_budget(8, monkeypatch)
        patches = np.random.default_rng(5).normal(size=(16, 3, 3, 24))
        with pytest.raises(FloatingPointError, match="first piece"):
            forward_batch(miniature_params(), patches)
        assert ended == [8]

    def test_worker_half_keeps_the_callers_errstate(self, monkeypatch):
        shrink_prediction_budget(8, monkeypatch)
        patches = np.random.default_rng(5).normal(size=(16, 3, 3, 24))
        patches[8:] *= 1e300  # only the worker's piece overflows
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                forward_batch(miniature_params(), patches)


class TestCheckpoint:
    def float32_params(self, seed=0):
        params = miniature_params(seed)
        arrays = [
            getattr(params, name).astype(np.float32).astype(np.float64)
            for name, _ in params.arrays()
        ]
        return ModelParams(MINIATURE_ARCHITECTURE, *arrays)

    def test_round_trip_exact(self, tmp_path):
        params = self.float32_params(2)
        path = str(tmp_path / "m.cckp")
        save_checkpoint(path, params, step=1234, seed=42)
        loaded, step, seed = load_checkpoint(path)
        assert (step, seed) == (1234, 42)
        assert read_checkpoint(path)[3] == ""  # saved without settings
        assert loaded.arch == MINIATURE_ARCHITECTURE
        for (name, arr), (_, arr2) in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(arr, arr2, err_msg=name)

    def test_header_bytes(self, tmp_path):
        params = self.float32_params()
        path = tmp_path / "m.cckp"
        save_checkpoint(str(path), params, step=0, seed=0, settings="seed = 4\n")
        blob = path.read_bytes()
        arch = MINIATURE_ARCHITECTURE
        wire = struct.pack(
            "<13I", *(getattr(arch, name) for name in README_WIRE_ORDER)
        )
        assert blob[:4] == b"CCKP"
        assert blob[4] == 2
        assert blob[5 : 5 + 52] == wire
        assert blob[57:61] == struct.pack("<I", 9)
        assert blob[61:70] == b"seed = 4\n"
        assert len(blob) == 4 + 1 + 52 + 4 + 9 + 792 * 4 + 16

    def test_format_errors(self, tmp_path):
        params = self.float32_params()
        path = tmp_path / "m.cckp"
        save_checkpoint(str(path), params, step=0, seed=0)
        blob = path.read_bytes()

        bad = tmp_path / "bad.cckp"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(str(bad))

        bad.write_bytes(blob[:4] + b"\x03" + blob[5:])
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(str(bad))

        bad.write_bytes(blob[:-8])
        with pytest.raises(CheckpointFormatError, match="size"):
            load_checkpoint(str(bad))

        # zero out the architecture block
        bad.write_bytes(blob[:5] + bytes(52) + blob[57:])
        with pytest.raises(CheckpointFormatError, match="architecture"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("bits", NON_FINITE_FLOAT32.values(), ids=NON_FINITE_FLOAT32)
    def test_non_finite_parameter_rejected(self, tmp_path, bits):
        path = tmp_path / "m.cckp"
        save_checkpoint(str(path), self.float32_params(), step=0, seed=0)
        blob = bytearray(path.read_bytes())
        # the last payload value, just before the 16-byte trailer
        blob[-20:-16] = struct.pack("<I", bits)
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointFormatError, match="non-finite") as err:
                load_checkpoint(str(path))
        assert PARAM_FIELDS[-1] in str(err.value)

    @pytest.mark.parametrize("value", UNSTORABLE_FLOAT64.values(), ids=UNSTORABLE_FLOAT64)
    def test_unstorable_parameter_not_written(self, tmp_path, value):
        params = self.float32_params()
        params.class_matrices[0, 1, 2, 3, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="class_matrices: .* at value index 92 "):
                save_checkpoint(str(tmp_path / "m.cckp"), params, step=0, seed=0)
        assert not list(tmp_path.iterdir())

    def test_settings_round_trip(self, tmp_path):
        path = str(tmp_path / "m.cckp")
        text = "routing_iters = 5  # depth ≥ 5\nwhiten_epsilon = 0.001\n"
        save_checkpoint(path, self.float32_params(), 3, 1, text)
        params, step, seed, settings = read_checkpoint(path)
        assert (step, seed, settings) == (3, 1, text)
        assert load_checkpoint(path)[1:] == (3, 1)

    def test_version_1_file_is_refused(self, tmp_path):
        # version 1 had no settings length field and no settings
        path = tmp_path / "m.cckp"
        save_checkpoint(str(path), self.float32_params(), 3, 1, "seed = 1\n")
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + b"\x01" + blob[5:57] + blob[61 + 9 :])
        with pytest.raises(CheckpointFormatError, match="unsupported version 1"):
            read_checkpoint(str(path))

    def test_broken_settings_rejected(self, tmp_path):
        path = tmp_path / "m.cckp"
        save_checkpoint(str(path), self.float32_params(), 0, 0, "seed = 1\n")
        blob = path.read_bytes()
        bad = tmp_path / "bad.cckp"
        bad.write_bytes(blob[:61] + b"seed = \xff\n" + blob[70:])
        with pytest.raises(CheckpointFormatError, match="UTF-8"):
            read_checkpoint(str(bad))
        for length in (8, 10, 2**32 - 1):
            bad.write_bytes(blob[:57] + struct.pack("<I", length) + blob[61:])
            with pytest.raises(CheckpointFormatError, match="size"):
                read_checkpoint(str(bad))
        bad.write_bytes(blob[:59])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            read_checkpoint(str(bad))

    @pytest.mark.parametrize("counter", ["step", "seed"])
    @pytest.mark.parametrize("value", [0.5, True], ids=repr)
    def test_rejects_non_integer_counters(self, counter, value, tmp_path):
        path = tmp_path / "m.cckp"
        counters = {"step": 0, "seed": 0, counter: value}
        with pytest.raises(ValueError, match="step and seed must be an integer"):
            save_checkpoint(str(path), self.float32_params(), **counters)
        assert not path.exists()

    def test_numpy_integer_counters_round_trip(self, tmp_path):
        path = str(tmp_path / "m.cckp")
        save_checkpoint(path, self.float32_params(), step=np.uint64(7), seed=np.int64(9))
        assert load_checkpoint(path)[1:] == (7, 9)

    def test_rejects_negative_counters(self, tmp_path):
        # and counters past the u64 trailer fields
        params = self.float32_params()
        path = tmp_path / "m.cckp"
        for step, seed in [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)]:
            with pytest.raises(ValueError, match="step and seed"):
                save_checkpoint(str(path), params, step=step, seed=seed)
        assert not path.exists()

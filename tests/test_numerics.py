"""Primitive operations against brute-force references and known values."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsicaps.layers import _conv_forward
from hsicaps.metrics import margin_loss_batch
from hsicaps.numerics import (
    check_float,
    check_int,
    check_seed,
    conv1d_output_length,
    finite_difference_check,
    relu,
    relu_grad,
)
from hsicaps.training import TrainConfig

from conftest import oracle_conv1d


# The spatial and primary layers' valid-padding convolution is the model's
# sample-minor ``_conv_forward`` on (maps, length, B) maps, which returns the
# pre-activations before any ReLU.  These helpers run it on one sample and
# read it in the plain (length, maps) layout.


def spectral_conv(signal, kernels, bias, stride):
    """The primary layer's spectral convolution: (length, in_maps) ->
    (out_length, maps)."""
    _, pre = _conv_forward(signal.T[:, :, None], kernels, bias, stride)
    return pre[:, :, 0].T


def filter_response(patch, kernel, bias):
    """One shared spatial filter on a one-channel (size, size) patch:
    ``sum(patch * kernel) + bias``."""
    pixels = patch.reshape(-1, 1, 1)
    _, pre = _conv_forward(pixels, kernel.reshape(1, -1, 1), np.array([bias]), 1)
    return float(pre[0, 0, 0])


class TestRelu:
    def test_known_values(self):
        np.testing.assert_array_equal(
            relu(np.array([-1.5, 0.0, 2.25])), np.array([0.0, 0.0, 2.25])
        )

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    def test_nonnegative_and_idempotent(self, values):
        x = np.array(values)
        out = relu(x)
        assert (out >= 0).all()
        np.testing.assert_array_equal(relu(out), out)

    def test_grad_gates_upstream(self):
        pre = np.array([-2.0, 0.0, 3.0])
        upstream = np.array([5.0, 5.0, 5.0])
        np.testing.assert_array_equal(
            relu_grad(pre, upstream), np.array([0.0, 0.0, 5.0])
        )

    def test_grad_does_not_mask_a_non_finite_upstream(self):
        pre = np.array([-2.0, 0.0, 3.0, -1.0])
        upstream = np.array([np.inf, np.nan, 5.0, -4.0])
        with np.errstate(invalid="ignore"):
            gated = relu_grad(pre, upstream)
        np.testing.assert_array_equal(gated, [np.nan, np.nan, 5.0, 0.0])


class TestConv1dValid:
    """The output-length law and the primary layer's spectral convolution."""

    def test_output_length_law(self):
        assert conv1d_output_length(220, 9, 2) == 106
        assert conv1d_output_length(106, 9, 2) == 49
        assert conv1d_output_length(5, 5, 3) == 1

    @given(
        length=st.integers(1, 40),
        kernel=st.integers(1, 9),
        stride=st.integers(1, 4),
    )
    def test_output_length_counts_valid_placements(self, length, kernel, stride):
        if length < kernel:
            with pytest.raises(ValueError):
                conv1d_output_length(length, kernel, stride)
            return
        out = conv1d_output_length(length, kernel, stride)
        placements = len(range(0, length - kernel + 1, stride))
        assert out == placements >= 1

    def test_identity_kernel_reproduces_signal(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=(11, 1))
        kernels = np.ones((1, 1, 1))
        out = spectral_conv(signal, kernels, np.zeros(1), stride=1)
        np.testing.assert_allclose(out, signal)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(3, 20))
        in_channels = int(rng.integers(1, 5))
        kernel = int(rng.integers(1, min(6, length) + 1))
        stride = int(rng.integers(1, 4))
        out_channels = int(rng.integers(1, 5))
        signal = rng.normal(size=(length, in_channels))
        kernels = rng.normal(size=(out_channels, in_channels, kernel))
        bias = rng.normal(size=out_channels)
        got = spectral_conv(signal, kernels, bias, stride)
        want = oracle_conv1d(signal, kernels, bias, stride)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_linear_in_signal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=(15, 2))
        kernels = rng.normal(size=(3, 2, 4))
        zero_bias = np.zeros(3)
        left = spectral_conv(2.5 * x - y, kernels, zero_bias, 2)
        right = 2.5 * spectral_conv(x, kernels, zero_bias, 2) - spectral_conv(
            y, kernels, zero_bias, 2
        )
        np.testing.assert_allclose(left, right, atol=1e-10)


class TestConv2dSingleChannel:
    """The spatial layer's per-channel filter response."""

    def test_known_value(self):
        assert filter_response(np.ones((3, 3)), np.ones((3, 3)), 0.5) == 9.5

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 6))
        patch = rng.normal(size=(size, size))
        kernel = rng.normal(size=(size, size))
        bias = float(rng.normal())
        want = bias
        for i in range(size):
            for j in range(size):
                want += patch[i, j] * kernel[i, j]
        assert filter_response(patch, kernel, bias) == pytest.approx(
            want, abs=1e-12
        )


class TestFiniteDifferenceCheck:
    def test_quadratic_scalar(self):
        params = np.array([3.0])

        def f(p):
            return float(p[0] ** 2)

        report = finite_difference_check(f, params, np.array([6.0]), epsilon=1e-4)
        assert report.max_relative_error < 1e-8
        assert report.analytic == 6.0
        assert report.numeric == pytest.approx(6.0, abs=1e-7)
        np.testing.assert_array_equal(params, [3.0])  # restored

    def test_constant_function_reports_zero(self):
        report = finite_difference_check(
            lambda p: 1.0, np.ones(5), np.zeros(5), epsilon=1e-5
        )
        assert report.max_relative_error == 0.0

    def test_flags_wrong_gradient(self):
        params = np.array([1.0, 2.0])

        def f(p):
            return float(np.sum(p**2))

        wrong = np.array([2.0, 3.0])  # true gradient is [2, 4]
        report = finite_difference_check(f, params, wrong, epsilon=1e-5)
        assert report.max_relative_error > 0.2
        assert report.worst_index == 1

    def test_margin_loss_gradient_of_two_class_output(self):
        # lengths sit away from both hinge corners so the loss is smooth here
        rng = np.random.default_rng(8)
        activations = rng.normal(0.0, 0.3, (1, 2, 3))
        _, grad = margin_loss_batch(activations, [1], TrainConfig())

        flat = activations.reshape(-1)

        def f(p):
            return margin_loss_batch(p.reshape(1, 2, 3), [1], TrainConfig())[0]

        report = finite_difference_check(f, flat, grad.reshape(-1), epsilon=1e-6)
        assert report.max_relative_error < 1e-6

    def test_non_finite_function_raises(self):
        def f(p):
            return float("nan")

        with pytest.raises(FloatingPointError):
            finite_difference_check(f, np.ones(2), np.zeros(2))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda p: 0.0, np.ones(2), np.zeros(3))
        with pytest.raises(ValueError):
            finite_difference_check(lambda p: 0.0, np.ones(2), np.zeros(2), epsilon=0.0)
        with pytest.raises(ValueError):
            finite_difference_check(lambda p: 0.0, np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match=f"epsilon .* got {epsilon}"):
            finite_difference_check(lambda p: float(p.sum()), np.ones(2), np.ones(2), epsilon)


class TestCheckInt:
    @pytest.mark.parametrize(
        "value", [2.5, 3.0, True, np.float64(3.0), np.bool_(True), "3", None], ids=repr
    )
    def test_non_integer_refused(self, value):
        with pytest.raises(ValueError, match="count must be an integer"):
            check_int(value, "count")

    @pytest.mark.parametrize("value, low", [(0, 1), (-1, 1), (1, 2), (np.int64(1), 2)])
    def test_below_low_refused(self, value, low):
        with pytest.raises(ValueError, match=f"count must be >= {low}, got {value}"):
            check_int(value, "count", low)

    @pytest.mark.parametrize(
        "value", [1, 2**70, np.int64(16), np.uint8(3), np.uint64(2**64 - 1)], ids=repr
    )
    def test_integers_accepted_as_int(self, value):
        count = check_int(value, "count")
        assert type(count) is int and count == int(value)


class TestCheckFloat:
    @pytest.mark.parametrize(
        "value", [True, False, np.bool_(False), "0.5", None, [0.5], np.ones(1)], ids=repr
    )
    def test_non_number_refused(self, value):
        pattern = r"rate must lie in \[0, inf\), got " + re.escape(repr(value))
        with pytest.raises(ValueError, match=pattern):
            check_float(value, "rate")

    @pytest.mark.parametrize(
        "value, high, positive, interval",
        [
            (-0.1, np.inf, False, r"\[0, inf\)"),
            (-np.inf, np.inf, False, r"\[0, inf\)"),
            (np.inf, np.inf, False, r"\[0, inf\)"),
            (np.nan, np.inf, False, r"\[0, inf\)"),
            (0.0, np.inf, True, r"\(0, inf\)"),
            (np.float32(1.0), 1, False, r"\[0, 1\)"),
            (1, 1, True, r"\(0, 1\)"),
        ],
        ids=repr,
    )
    def test_outside_interval_refused(self, value, high, positive, interval):
        pattern = f"rate must lie in {interval}, got {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=pattern):
            check_float(value, "rate", high, positive)

    # float() of such an int raises OverflowError; of such a long double, gives inf
    @pytest.mark.parametrize(
        "value",
        [10**400, -(10**400), 2**1024, np.longdouble("1e400")],
        ids=["10**400", "-10**400", "2**1024", "longdouble-1e400"],
    )
    def test_beyond_float_range_refused(self, value):
        pattern = r"rate must lie in \[0, inf\), got " + re.escape(repr(value))
        with pytest.raises(ValueError, match=pattern):
            check_float(value, "rate")

    @pytest.mark.parametrize(
        "value, high, positive",
        [
            (0, np.inf, False),
            (0.0, 1, False),
            (1e-300, np.inf, True),
            (2**70, np.inf, False),
            (np.float32(0.25), 1, True),
            (np.float64(0.999), 1, True),
            (np.int64(3), 4, True),
        ],
        ids=repr,
    )
    def test_real_numbers_accepted_as_float(self, value, high, positive):
        rate = check_float(value, "rate", high, positive)
        assert type(rate) is float and rate == float(value)


class TestCheckSeed:
    @pytest.mark.parametrize(
        "value", [0.5, True, np.float64(3.0), "3", None], ids=repr
    )
    def test_non_integer_refused(self, value):
        with pytest.raises(ValueError, match="seed must be an integer"):
            check_seed(value)

    @pytest.mark.parametrize("value", [-1, 2**64, np.int64(-1)], ids=repr)
    def test_outside_64_bits_refused(self, value):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            check_seed(value)

    @pytest.mark.parametrize(
        "value", [0, 2**64 - 1, np.uint64(7), np.int32(7), np.uint64(2**64 - 1)], ids=repr
    )
    def test_integers_accepted_as_int(self, value):
        seed = check_seed(value)
        assert type(seed) is int and seed == int(value)

    def test_name_in_message(self):
        with pytest.raises(ValueError, match="step must be an integer"):
            check_seed(1.0, "step")

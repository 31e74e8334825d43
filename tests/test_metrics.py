"""Margin loss and confusion-matrix statistics."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsicaps.metrics import (
    ConfusionMatrix,
    format_metrics_kv,
    format_metrics_table,
    margin_loss_batch,
)
from hsicaps.numerics import finite_difference_check
from hsicaps.training import TrainConfig

# the reference margins: m+ = 0.9, m- = 0.1, weight 0.5
MARGINS = TrainConfig()


class TestMarginConfig:
    """The margin settings, which ``TrainConfig`` declares under their
    config keys."""

    def test_defaults(self):
        config = TrainConfig()
        assert (config.margin_upper, config.margin_lower) == (0.9, 0.1)
        assert config.margin_weight == 0.5

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"margin_upper": 0.0}, "margin_upper"),
            ({"margin_upper": 1.0}, "margin_upper"),
            ({"margin_lower": 0.0}, "margin_lower"),
            ({"margin_lower": 0.95}, "margin_lower .* margin_upper"),  # above the upper margin
            ({"margin_weight": -0.1}, "margin_weight"),
        ],
        ids=[f"kwargs{i}" for i in range(5)],
    )
    def test_validation(self, kwargs, key):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_negative_weight_rejected(self, weight):
        with pytest.raises(ValueError, match=f"margin_weight .* got {weight}"):
            TrainConfig(margin_weight=weight)


class TestMarginLoss:
    """Single-sample cases run as batches of one."""

    def test_hand_computed_example(self):
        # lengths 0.6 and 0.3 with class 1 present:
        #   (0.9 - 0.6)^2 + 0.5 * (0.3 - 0.1)^2 = 0.09 + 0.02 = 0.11
        activations = np.array([[0.6, 0.0], [0.3, 0.0]])
        loss, grad = margin_loss_batch(activations[None], [1], MARGINS)
        assert loss == pytest.approx(0.11, rel=1e-12)
        np.testing.assert_allclose(
            grad, [[[-0.6, 0.0], [0.2, 0.0]]], rtol=1e-12
        )

    def test_satisfied_margins_give_zero(self):
        activations = np.array([[0.95, 0.0], [0.05, 0.0]])
        loss, grad = margin_loss_batch(activations[None], [1], MARGINS)
        assert loss == 0.0
        assert not grad.any()

    def test_zero_length_true_capsule(self):
        activations = np.array([[0.0, 0.0], [0.05, 0.0]])
        loss, grad = margin_loss_batch(activations[None], [1], MARGINS)
        assert loss == pytest.approx(0.81, rel=1e-12)
        # direction of a zero vector is undefined; the gradient is pinned to 0
        np.testing.assert_array_equal(grad[0, 0], [0.0, 0.0])

    def test_negative_weight_zero_ignores_absent_classes(self):
        activations = np.array([[0.9, 0.0], [0.8, 0.0]])
        loss, _ = margin_loss_batch(activations[None], [1], TrainConfig(margin_weight=0.0))
        assert loss == 0.0

    def test_wrong_class_penalized_from_both_sides(self):
        activations = np.array([[0.1, 0.0], [0.9, 0.0]])
        loss, _ = margin_loss_batch(activations[None], [1], MARGINS)
        assert loss == pytest.approx(0.8**2 + 0.5 * 0.8**2, rel=1e-12)

    def test_batch_mean_and_scaling(self):
        rng = np.random.default_rng(0)
        activations = rng.normal(0, 0.4, (3, 4, 5))
        classes = np.array([1, 3, 4])
        mean, grad_mean = margin_loss_batch(activations, classes, MARGINS)
        singles = [
            margin_loss_batch(activations[b : b + 1], classes[b : b + 1], MARGINS)
            for b in range(3)
        ]
        assert mean == pytest.approx(sum(s for s, _ in singles) / 3.0, rel=1e-12)
        for b, (_, g) in enumerate(singles):
            np.testing.assert_allclose(grad_mean[b], g[0] / 3.0, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        activations = rng.normal(0, 0.3, (2, 3, 4))
        classes = np.array([2, 1])
        _, grad = margin_loss_batch(activations, classes, MARGINS)
        report = finite_difference_check(
            lambda a: margin_loss_batch(a, classes, MARGINS)[0], activations, grad
        )
        assert report.max_relative_error < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="class ids"):
            margin_loss_batch(np.zeros((1, 2, 3)), [0], MARGINS)
        with pytest.raises(ValueError, match="class ids"):
            margin_loss_batch(np.zeros((1, 2, 3)), [3], MARGINS)
        with pytest.raises(ValueError, match="activations"):
            margin_loss_batch(np.zeros((2, 3)), [1], MARGINS)
        with pytest.raises(ValueError, match="true_classes"):
            margin_loss_batch(np.zeros((2, 2, 3)), np.array([1, 1, 1]), MARGINS)

    @pytest.mark.parametrize("ids", [[1.5, 2.0], [True, True]], ids=repr)
    def test_non_integer_class_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="class ids must be integers"):
            margin_loss_batch(np.zeros((2, 2, 3)), ids, MARGINS)

    def test_overflowing_loss_raises_without_warning(self):
        # 15 absent classes at length 0.95 sum past the float64 range, while
        # each gradient entry stays finite
        activations = np.zeros((1, 16, 16))
        activations[:, :, 0] = 0.95
        config = TrainConfig(margin_weight=5e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="margin loss"):
                margin_loss_batch(activations, [1], config)


class TestConfusionMatrix:
    def from_counts(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        cm = ConfusionMatrix(counts.shape[0])
        cm.counts += counts
        return cm

    def test_accumulate(self):
        cm = ConfusionMatrix(3)
        for truth, predicted in [(1, 1), (1, 2), (3, 1)]:
            cm.accumulate_many(np.array([truth]), np.array([predicted]))
        np.testing.assert_array_equal(
            cm.counts, [[1, 1, 0], [0, 0, 0], [1, 0, 0]]
        )
        assert cm.total == 3

    def test_accumulate_many_matches_loop(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(1, 5, 200)
        pred = rng.integers(1, 5, 200)
        cm = ConfusionMatrix(4)
        cm.accumulate_many(truth, pred)
        counts = np.zeros((4, 4), dtype=np.int64)
        for t, p in zip(truth, pred):
            counts[t - 1, p - 1] += 1
        np.testing.assert_array_equal(cm.counts, counts)

    def test_accumulate_many_empty_is_noop(self):
        cm = ConfusionMatrix(2)
        cm.accumulate_many(np.array([], dtype=int), np.array([], dtype=int))
        assert cm.total == 0

    def test_range_validation(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(ValueError):
            cm.accumulate_many(np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            cm.accumulate_many(np.array([1]), np.array([3]))
        with pytest.raises(ValueError):
            cm.accumulate_many(np.array([1, 3]), np.array([1, 1]))
        with pytest.raises(ValueError):
            cm.accumulate_many(np.array([1]), np.array([1, 1]))
        with pytest.raises(ValueError, match="class ids must be integers"):
            cm.accumulate_many(np.array([1.9, 2.5]), np.array([1, 2]))
        with pytest.raises(ValueError, match="num_classes must be >= 1"):
            ConfusionMatrix(0)
        with pytest.raises(ValueError, match="num_classes must be an integer"):
            ConfusionMatrix(2.0)

    def test_two_class_example(self):
        result = self.from_counts([[40, 10], [20, 30]]).metrics()
        assert result.overall_accuracy == pytest.approx(0.7)
        assert result.average_accuracy == pytest.approx(0.7)
        # chance agreement (50*60 + 50*40) / 100^2 = 0.5, so (0.7-0.5)/0.5
        assert result.kappa == pytest.approx(0.4)
        np.testing.assert_allclose(result.per_class, [0.8, 0.6])
        assert result.excluded_classes == []

    def test_empty_row_excluded_from_average(self):
        result = self.from_counts([[10, 0, 0], [5, 5, 0], [0, 0, 0]]).metrics()
        assert result.overall_accuracy == pytest.approx(0.75)
        assert result.average_accuracy == pytest.approx(0.75)
        assert result.kappa == pytest.approx(0.5)
        np.testing.assert_allclose(result.per_class[:2], [1.0, 0.5])
        assert np.isnan(result.per_class[2])
        assert result.excluded_classes == [3]

    def test_chance_level_gives_zero_kappa(self):
        result = self.from_counts([[25, 25], [25, 25]]).metrics()
        assert result.overall_accuracy == 0.5
        assert result.kappa == 0.0

    def test_perfect_prediction(self):
        result = self.from_counts([[7, 0], [0, 9]]).metrics()
        assert result.overall_accuracy == 1.0
        assert result.kappa == 1.0

    def test_degenerate_single_cell(self):
        # every count in one cell: chance agreement is 1, defined kappa is 1
        result = self.from_counts([[5, 0], [0, 0]]).metrics()
        assert result.overall_accuracy == 1.0
        assert result.kappa == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(2).metrics()

    @given(
        st.lists(
            st.lists(st.integers(0, 40), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.integers(2, 5),
        st.permutations([0, 1, 2]),
    )
    def test_invariances(self, rows, scale, perm):
        counts = np.array(rows, dtype=np.int64)
        if counts.sum() == 0 or (counts.sum(axis=1) == 0).any():
            return
        base = self.from_counts(counts).metrics()
        assert 0.0 <= base.overall_accuracy <= 1.0
        assert base.kappa <= 1.0
        # metrics are ratios of counts: scaling every cell changes nothing
        scaled = self.from_counts(counts * scale).metrics()
        assert scaled.overall_accuracy == pytest.approx(base.overall_accuracy)
        assert scaled.kappa == pytest.approx(base.kappa)
        # relabeling classes permutes per_class but fixes the summaries
        perm = np.array(perm)
        shuffled = self.from_counts(counts[np.ix_(perm, perm)]).metrics()
        assert shuffled.overall_accuracy == pytest.approx(base.overall_accuracy)
        assert shuffled.average_accuracy == pytest.approx(base.average_accuracy)
        assert shuffled.kappa == pytest.approx(base.kappa)
        np.testing.assert_allclose(shuffled.per_class, base.per_class[perm])


class TestFormatters:
    def example(self):
        cm = ConfusionMatrix(2)
        cm.counts += np.array([[40, 10], [20, 30]])
        return cm

    def test_table_content(self):
        text = format_metrics_table(self.example())
        assert "overall_accuracy  0.700000" in text
        assert "average_accuracy  0.700000" in text
        assert "kappa_x100        40.000000" in text
        assert "class_1" in text and "class_2" in text
        assert text == format_metrics_table(self.example())  # deterministic

    def test_table_marks_missing_support(self):
        cm = ConfusionMatrix(2)
        cm.counts[0, 0] = 4
        text = format_metrics_table(cm)
        assert "excluded_from_average  2" in text

    def test_kv_round_trips_floats(self):
        text = format_metrics_kv(self.example())
        pairs = dict(
            line.split(" = ", 1) for line in text.strip().splitlines()
        )
        assert float(pairs["oa"]) == 0.7
        assert float(pairs["kappa_x100"]) == pytest.approx(40.0)
        assert pairs["class_1_name"] == "class_1"

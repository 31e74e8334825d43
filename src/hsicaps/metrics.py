"""Training objective and evaluation statistics.

The loss is a two-sided squared hinge on class-capsule lengths; evaluation
accumulates an integer confusion matrix and derives overall accuracy, average
per-class accuracy, and the chance-corrected agreement coefficient from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .numerics import check_int

if TYPE_CHECKING:
    from .training import TrainConfig

__all__ = [
    "ConfusionMatrix",
    "MetricsResult",
    "format_metrics_table",
]


def margin_loss_batch(
    activations: np.ndarray,
    true_classes: np.ndarray,
    config: TrainConfig,
) -> tuple[float, np.ndarray]:
    """Batched margin loss: the mean over samples, plus its gradient.

    ``activations`` is (B, classes, dim), ``true_classes`` (B,) 1-based.  With
    lengths v_k of one sample's class capsules, its loss is

        sum_k [ T_k * max(0, m+ - v_k)^2
                + w * (1 - T_k) * max(0, v_k - m-)^2 ]

    where T is the one-hot truth and m+, m- and w are ``config``'s
    ``margin_upper``, ``margin_lower`` and ``margin_weight``: the present
    class is pushed above m+, absent classes below m-, and w keeps early
    training from being dominated by shrinking every capsule.  The returned
    gradient is that of the mean, so it already carries the 1/B; at an
    exactly zero-length capsule it is taken as zero.  A non-finite loss or
    gradient raises FloatingPointError.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if activations.ndim != 3 or not len(activations):
        raise ValueError(
            f"activations must be (B, classes, dim) with B >= 1, got {activations.shape}"
        )
    batch, num_classes, _ = activations.shape
    true_classes = _class_ids(true_classes, num_classes)
    if true_classes.shape != (batch,):
        raise ValueError(f"true_classes must be ({batch},), got {true_classes.shape}")

    lengths = np.linalg.norm(activations, axis=-1)
    onehot = np.zeros((batch, num_classes))
    onehot[np.arange(batch), true_classes - 1] = 1.0

    # the check below reports what an overflow (a huge margin_weight) would warn about
    with np.errstate(over="ignore", invalid="ignore"):
        present_gap = np.maximum(0.0, config.margin_upper - lengths)
        absent_gap = np.maximum(0.0, lengths - config.margin_lower)
        loss = (
            onehot * present_gap**2
            + config.margin_weight * (1.0 - onehot) * absent_gap**2
        ).sum(axis=1).mean()

        d_length = (
            -2.0 * onehot * present_gap
            + 2.0 * config.margin_weight * (1.0 - onehot) * absent_gap
        )
        inv_length = np.divide(1.0, lengths, out=np.zeros_like(lengths), where=lengths > 0)
        grad = (d_length * inv_length)[..., None] * activations / batch
    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        raise FloatingPointError("margin loss or its gradient is not finite")
    return float(loss), grad


def _class_ids(ids, num_classes: int) -> np.ndarray:
    """``ids`` as an array of integers in [1, num_classes], else ``ValueError``."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu" or ((ids < 1) | (ids > num_classes)).any():
        raise ValueError(f"class ids must be integers in [1, {num_classes}]")
    return ids


@dataclass
class MetricsResult:
    """Summary statistics of one confusion matrix.

    ``per_class`` holds each class's recall, NaN for classes with no test
    support; those ids are listed in ``excluded_classes`` and are left out of
    the average accuracy.  ``kappa`` is on the [-1, 1] scale (multiply by 100
    for reporting).
    """

    overall_accuracy: float
    average_accuracy: float
    kappa: float
    per_class: np.ndarray
    excluded_classes: list[int] = field(default_factory=list)


class ConfusionMatrix:
    """Integer n x n counts; rows are true classes, columns predictions,
    both 1-based."""

    def __init__(self, num_classes: int):
        self.num_classes = check_int(num_classes, "num_classes")
        self.counts = np.zeros((self.num_classes, self.num_classes), dtype=np.int64)

    def accumulate_many(
        self, true_classes: np.ndarray, predicted_classes: np.ndarray
    ) -> None:
        true_classes = _class_ids(true_classes, self.num_classes)
        predicted_classes = _class_ids(predicted_classes, self.num_classes)
        if true_classes.shape != predicted_classes.shape:
            raise ValueError("true and predicted arrays must have the same shape")
        np.add.at(self.counts, (true_classes - 1, predicted_classes - 1), 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def metrics(self) -> MetricsResult:
        """Derive overall/average accuracy and the agreement coefficient.

        Overall accuracy is trace / total.  Average accuracy is the mean
        per-class recall over classes that appear in the truth; empty rows
        are excluded (they contribute nothing to either the trace or the
        chance term, so the coefficient needs no special case).  The
        agreement coefficient is (p_o - p_e) / (1 - p_e) with p_e the
        marginal-product chance agreement; the degenerate p_e = 1 case (all
        mass in one cell) is defined as 1.
        """
        total = self.total
        if total == 0:
            raise ValueError("cannot compute metrics of an empty confusion matrix")
        row_sums = self.counts.sum(axis=1)
        col_sums = self.counts.sum(axis=0)
        diag = np.diag(self.counts)

        supported = row_sums > 0
        per_class = np.full(self.num_classes, np.nan)
        per_class[supported] = diag[supported] / row_sums[supported]
        excluded = [int(i) + 1 for i in np.nonzero(~supported)[0]]

        overall = float(diag.sum() / total)
        average = float(per_class[supported].mean())
        chance = float((row_sums * col_sums).sum() / (total * total))
        kappa = 1.0 if chance >= 1.0 else (overall - chance) / (1.0 - chance)
        return MetricsResult(overall, average, float(kappa), per_class, excluded)


def format_metrics_table(cm: ConfusionMatrix, result: MetricsResult | None = None) -> str:
    """Human-readable report: one line per class, named ``class_N``, then the
    three summaries."""
    result = result or cm.metrics()
    row_sums = cm.counts.sum(axis=1)
    lines = [f"{'class':>5}  {'name':<12}  {'support':>7}  {'accuracy':>8}"]
    for i in range(cm.num_classes):
        cid = i + 1
        acc = result.per_class[i]
        acc_text = f"{acc:8.4f}" if np.isfinite(acc) else "       -"
        lines.append(f"{cid:>5}  {f'class_{cid}':<12}  {row_sums[i]:>7}  {acc_text}")
    lines.append("")
    lines.append(f"overall_accuracy  {result.overall_accuracy:.6f}")
    lines.append(f"average_accuracy  {result.average_accuracy:.6f}")
    lines.append(f"kappa_x100        {result.kappa * 100.0:.6f}")
    if result.excluded_classes:
        lines.append(
            "excluded_from_average  "
            + ",".join(str(c) for c in result.excluded_classes)
        )
    return "\n".join(lines) + "\n"


def format_metrics_kv(cm: ConfusionMatrix, result: MetricsResult | None = None) -> str:
    """Machine-readable ``key = value`` report with full float precision."""
    result = result or cm.metrics()
    lines = []
    for i in range(cm.num_classes):
        cid = i + 1
        lines.append(f"class_{cid}_name = class_{cid}")
        acc = result.per_class[i]
        lines.append(f"class_{cid}_accuracy = {acc!r}")
    lines.append(f"oa = {result.overall_accuracy!r}")
    lines.append(f"aa = {result.average_accuracy!r}")
    lines.append(f"kappa_x100 = {result.kappa * 100.0!r}")
    return "\n".join(lines) + "\n"

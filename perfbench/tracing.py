"""Span recorder wrapped around the package's public calls.

A traced run replaces each listed function, in the module whose code calls
it, with a wrapper that records a span: name, start, end and the span that
was open when it started.  The package itself is not changed; the original
attributes are put back when tracing ends.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import Callable


def _forward_label(args, kwargs) -> tuple[str, int]:
    patches = kwargs["patches"] if "patches" in kwargs else args[1]
    keep = kwargs["keep_cache"] if "keep_cache" in kwargs else (len(args) > 3 and args[3])
    return ("layers.forward_batch.train" if keep else "layers.forward_batch.infer"), len(patches)


def _backward_label(args, kwargs) -> tuple[str, int]:
    cache = kwargs["cache"] if "cache" in kwargs else args[1]
    return "layers.backward_batch", len(cache.patches)


@dataclass(frozen=True)
class Target:
    """One public function, the module attributes through which the workloads
    reach it, and the end-to-end metric it should move."""

    name: str
    call_sites: tuple[str, ...]
    moves: str
    label: Callable | None = None  # (args, kwargs) -> (span name, samples)
    counts_bytes: bool = False


TARGETS = (
    Target(
        "layers.forward_batch",
        ("hsicaps.training.forward_batch",),
        "train_*: px_per_s on train-ip (about a third of a step) and train-toy; "
        "infer_*: px_per_s on map-pavia (almost all of it) and the validation "
        "share of train-ip",
        label=_forward_label,
    ),
    Target(
        "layers.backward_batch",
        ("hsicaps.training.backward_batch",),
        "px_per_s on train-ip (about two thirds of a step) and train-toy; "
        "does not run on map-pavia",
        label=_backward_label,
    ),
    Target(
        "training.evaluate",
        ("hsicaps.training.evaluate",),
        "validation share of px_per_s on train-ip",
    ),
    Target(
        "training.predict_coords",
        ("hsicaps.training.predict_coords", "hsicaps.cli.predict_coords"),
        "validation share of px_per_s on train-ip; px_per_s on map-pavia",
    ),
    Target(
        "training.adam_step",
        ("hsicaps.training.adam_step",),
        "px_per_s on train-toy (under 1% of a step on train-ip)",
    ),
    Target(
        "metrics.margin_loss_batch",
        ("hsicaps.training.margin_loss_batch",),
        "px_per_s on train-toy (under 1% of a step on train-ip)",
    ),
    Target(
        "data.extract_patches",
        ("hsicaps.training.extract_patches",),
        "px_per_s on train-toy and map-pavia",
        counts_bytes=True,
    ),
    Target("data.load_cube", ("hsicaps.data.load_cube",), "setup_s on all workloads"),
    Target(
        "data.fit_whitening",
        ("hsicaps.data.fit_whitening",),
        "setup_s, mostly on train-ip",
    ),
    Target(
        "data.apply_whitening",
        ("hsicaps.data.apply_whitening",),
        "setup_s, mostly on train-ip",
    ),
    Target(
        "data.stratified_split",
        ("hsicaps.data.stratified_split",),
        "setup_s on train-ip and train-toy",
    ),
    Target(
        "layers.load_checkpoint",
        ("hsicaps.layers.load_checkpoint",),
        "setup_s on map-pavia",
    ),
    Target(
        "cli.classification_map",
        ("hsicaps.cli.classification_map",),
        "px_per_s on map-pavia",
    ),
    Target("cli.write_ppm", ("hsicaps.cli.write_ppm",), "px_per_s on map-pavia"),
    Target(
        "training.train",
        ("hsicaps.training.train",),
        "self_s is the Python loop glue: px_per_s on train-toy",
    ),
)


class Tracer:
    """Records nested spans while installed; the clock is ``perf_counter_ns``."""

    def __init__(self) -> None:
        # (span id, parent id or -1, name, start ns, end ns, self ns, samples,
        #  bytes produced, rep tag)
        self.spans: list[tuple[str | int, ...]] = []
        self._open: list[list[int]] = []  # [span id, child ns] per open span
        self.rep = ""

    def _wrap(self, original: Callable, target: Target) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name, samples = (
                target.label(args, kwargs) if target.label else (target.name, 0)
            )
            span_id = len(self.spans)
            self.spans.append(())  # reserve the id; filled in when the span ends
            parent = self._open[-1][0] if self._open else -1
            self._open.append([span_id, 0])
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _, child_ns = self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                produced = getattr(result, "nbytes", 0) if target.counts_bytes else 0
                self.spans[span_id] = (
                    span_id, parent, name, start, end, end - start - child_ns,
                    samples, produced, self.rep,
                )
            return result

        return wrapper

    @contextmanager
    def installed(self, rep: str):
        """Trace every target while the block runs, tagging spans with ``rep``."""
        self.rep = rep
        replaced = []
        try:
            for target in TARGETS:
                for site in target.call_sites:
                    module_name, attr = site.rsplit(".", 1)
                    module = import_module(module_name)
                    original = getattr(module, attr)
                    replaced.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, target))
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def rep_totals(self, rep: str) -> dict[str, dict[str, int]]:
        """Per span name: calls, busy ns, self ns, samples and bytes in one rep."""
        totals: dict[str, dict[str, int]] = {}
        for _, _, name, start, end, self_ns, samples, produced, tag in self.spans:
            if tag != rep:
                continue
            entry = totals.setdefault(
                name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "samples": 0, "bytes": 0}
            )
            entry["calls"] += 1
            entry["busy_ns"] += end - start
            entry["self_ns"] += self_ns
            entry["samples"] += samples
            entry["bytes"] += produced
        return totals

    def write_spans(self, path: str, origin_ns: int) -> None:
        """One JSON object per span, times in seconds since ``origin_ns``."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, self_ns, samples, produced, rep in self.spans:
                record = {
                    "id": span_id,
                    "parent": None if parent < 0 else parent,
                    "name": name,
                    "rep": rep,
                    "start_s": (start - origin_ns) / 1e9,
                    "end_s": (end - origin_ns) / 1e9,
                    "self_s": self_ns / 1e9,
                }
                if samples:
                    record["samples"] = samples
                if produced:
                    record["bytes"] = produced
                fh.write(json.dumps(record) + "\n")


def _span_names() -> list[str]:
    names = []
    for target in TARGETS:
        if target.name == "layers.forward_batch":
            names += ["layers.forward_batch.train", "layers.forward_batch.infer"]
        else:
            names.append(target.name)
    return names


def _quantities(span_name: str) -> list[tuple[str, str, str, str]]:
    """(metric name, source field, unit, better) reported for one span name."""
    if span_name.startswith("layers.forward_batch."):
        prefix = "layers.forward_batch." + span_name.rsplit(".", 1)[1] + "_"
    else:
        prefix = span_name + "."
    out = [
        (prefix + "calls", "calls", "count", "lower"),
        (prefix + "busy_s", "busy_s", "s", "lower"),
        (prefix + "self_s", "self_s", "s", "lower"),
    ]
    if span_name.startswith(("layers.forward_batch", "layers.backward_batch")):
        out += [
            (prefix + "samples", "samples", "count", "higher"),
            (prefix + "ms_per_sample", "ms_per_sample", "ms", "lower"),
        ]
    if span_name == "data.extract_patches":
        out.append((prefix + "patch_mb", "patch_mb", "MiB", "lower"))
    return out


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every measured per-layer metric, in order."""
    return [
        (metric, unit, better)
        for span_name in _span_names()
        for metric, _, unit, better in _quantities(span_name)
    ]


def summarize(rep_totals: list[dict[str, dict[str, int]]]) -> dict[str, float]:
    """Median over traced reps of each per-layer quantity.  A function that
    does not run on the workload reports zero calls and zero seconds."""
    metrics: dict[str, float] = {}
    for span_name in _span_names():
        per_rep = []
        for totals in rep_totals:
            entry = totals.get(span_name, {})
            samples = entry.get("samples", 0)
            busy_s = entry.get("busy_ns", 0) / 1e9
            per_rep.append(
                {
                    "calls": entry.get("calls", 0),
                    "busy_s": busy_s,
                    "self_s": entry.get("self_ns", 0) / 1e9,
                    "samples": samples,
                    "ms_per_sample": 1e3 * busy_s / samples if samples else 0.0,
                    "patch_mb": entry.get("bytes", 0) / 2**20,
                }
            )
        for metric, field, unit, _ in _quantities(span_name):
            # a count is reported as one rep's value, never an average of two
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[metric] = median(rep[field] for rep in per_rep)
    return metrics

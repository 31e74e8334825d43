"""hsicaps benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload train-ip --seed 3 --seconds 25 --trace 0

One invocation with ``--workload`` runs in one process, with BLAS on one
thread.  It writes its seeded inputs under ``.perfbench_out/`` in the
checkout, times at least ``SETUP_REPS`` set-ups (and as many as fit in
``SETUP_SECONDS``), then as many fixed reps of the workload as fit in
``--seconds`` (at least one).  Each rep's output is checked; a rep that
raises or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics:

    setup_s      s      median set-up: cube load, whitening, split (train-*)
                        or checkpoint load (map-pavia); model init runs
                        inside train() and is counted there
    px_per_s     px/s   pixels through the model per second in the fastest
                        rep: training samples over train() wall time,
                        validation included (train_samples_per_s on
                        train-*), or scene pixels over classification_map +
                        write_ppm (map_pixels_per_s on map-pavia)
    peak_rss_mb  MiB    peak resident memory of the process
    oa           fraction  best validation OA (train-ip), test OA
                        (train-toy), map OA over labeled pixels (map-pavia)

and ``fail_ratio`` as the result's ``failed`` / ``attempted``.

``--trace 1`` alternates untraced and traced set-ups and reps.  It reports,
for each wrapped public function, its calls, busy and self seconds per rep
(medians over traced reps), the computed FLOP and byte counts, and the
tracing overhead as traced minus untraced end-to-end numbers.  It also
writes every span to ``.perfbench_out/<workload>-seed<n>-spans.jsonl``.

Every invocation saves its result with an environment record to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from environment import pin_single_thread

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train-ip", "map-pavia", "train-toy")
# set-ups repeat at least SETUP_REPS times and until SETUP_SECONDS have passed
SETUP_REPS = 7
SETUP_SECONDS = 1.0
SEED_SPACE = 2**32


def _import_package():
    """Import hsicaps from this checkout's sources, never from elsewhere."""
    if not (SRC / "hsicaps" / "__init__.py").is_file():
        raise ImportError(f"no hsicaps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hsicaps

    if Path(hsicaps.__file__).resolve().parent != SRC / "hsicaps":
        raise ImportError(f"imported hsicaps from {hsicaps.__file__}, not {SRC}")


def _timed_setups(workload, tracer):
    """Set-up times untraced and traced, and the tracer's totals per traced
    set-up; with a tracer the two kinds alternate."""
    untraced, traced, traced_totals = [], [], []
    start = time.perf_counter()
    i = 0
    while len(untraced) < SETUP_REPS or time.perf_counter() - start < SETUP_SECONDS:
        is_traced = tracer is not None and i % 2 == 1
        tag = f"setup{i}"
        with tracer.installed(tag) if is_traced else nullcontext():
            began = time.perf_counter()
            workload.setup()
            seconds = time.perf_counter() - began
        if is_traced:
            traced.append(seconds)
            traced_totals.append(tracer.rep_totals(tag))
        else:
            untraced.append(seconds)
        i += 1
    return untraced, traced, traced_totals


def _reps(workload, seconds: float, tracer):
    """Run reps until ``seconds`` of wall time have passed (at least one);
    with a tracer, alternate untraced and traced reps and stop after a
    traced one.  Returns (untraced, traced, failure messages, attempted,
    failed)."""
    untraced, traced, messages = [], [], []
    failed = 0
    start = time.perf_counter()
    attempted = 0
    while True:
        is_traced = tracer is not None and attempted % 2 == 1
        tag = f"rep{attempted}"
        attempted += 1
        try:
            with tracer.installed(tag) if is_traced else nullcontext():
                result = workload.rep()
        except Exception:  # a rep that raises is a failed rep, not a crash
            failed += 1
            messages.append(traceback.format_exc())
        else:
            failed += bool(result.problems)
            messages += result.problems
            (traced if is_traced else untraced).append((tag, result))
        out_of_time = time.perf_counter() - start >= seconds
        if out_of_time and (tracer is None or attempted % 2 == 0):
            return untraced, traced, messages, attempted, failed


def _px_per_s(reps) -> float:
    """Throughput of the fastest rep: other tenants of a shared machine only
    ever add time, so it is the least disturbed estimate of the program's
    own cost."""
    return max(r.pixels / r.seconds for _, r in reps)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import counts
    import environment
    import workloads
    from tracing import TARGETS, Tracer, summarize

    origin_ns = time.perf_counter_ns()
    counts.check_reference_shapes()
    workdir = OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, seed % SEED_SPACE, workdir)
    workload.generate()

    tracer = Tracer() if trace else None
    setup_times, traced_setup_times, setup_totals = _timed_setups(workload, tracer)
    untraced, traced, failures, attempted, failed = _reps(workload, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for problem in failures:
        print(f"{name}: {problem}", file=sys.stderr)

    if not untraced:
        print(f"{name}: no rep completed, no metrics", file=sys.stderr)
        return 1
    px_per_s = _px_per_s(untraced)
    setup_s = statistics.median(setup_times)
    if trace:
        if not traced:
            print(f"{name}: no traced rep completed, no metrics", file=sys.stderr)
            return 1
        traced_px_per_s = _px_per_s(traced)
        traced_setup_s = statistics.median(traced_setup_times)
        metrics = summarize(setup_totals)
        for key, value in summarize([tracer.rep_totals(tag) for tag, _ in traced]).items():
            # set-up and reps call disjoint functions, so one side is zero
            metrics[key] += value
        metrics.update(counts.layer_counts(workload.arch, workloads.ROUTING_ITERS, workload.batch))
        metrics["trace.overhead_pct"] = 100.0 * (px_per_s / traced_px_per_s - 1.0)
        metrics["trace.px_per_s_delta"] = traced_px_per_s - px_per_s
        metrics["trace.setup_s_delta"] = traced_setup_s - setup_s
        units = metric_units(trace=True)
    else:
        metrics = {
            "setup_s": setup_s,
            "px_per_s": px_per_s,
            "peak_rss_mb": peak_rss_mb,
            "oa": statistics.median(r.oa for _, r in untraced),
        }
        units = metric_units(trace=False)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    saved = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "result": result,
        "environment": environment.record(ROOT, SRC / "hsicaps"),
        "setup_s": setup_times,
        "reps": [
            {"tag": tag, "traced": tag in {t for t, _ in traced}, "pixels": r.pixels,
             "seconds": r.seconds, "oa": r.oa, "problems": r.problems}
            for tag, r in sorted(untraced + traced, key=lambda x: int(x[0][3:]))
        ],
        "failures": failures,
    }
    if trace:
        saved["moves"] = {target.name: target.moves for target in TARGETS}
        tracer.write_spans(str(OUT / f"{name}-seed{seed}-spans.jsonl"), origin_ns)
    (OUT / f"{stem}.json").write_text(json.dumps(saved, indent=1) + "\n")

    _print_report(name, trace, metrics, units, attempted, failed)
    print(json.dumps(result))
    return 0


END_TO_END_UNITS = {"setup_s": "s", "px_per_s": "px/s", "peak_rss_mb": "MiB", "oa": "fraction"}
# tracing overhead: traced minus untraced, in the same run
OVERHEAD_UNITS = {
    "trace.overhead_pct": "%",
    "trace.px_per_s_delta": "px/s",
    "trace.setup_s_delta": "s",
}


def metric_units(trace: bool) -> dict[str, str]:
    """Reported metric names and units, in order."""
    if not trace:
        return END_TO_END_UNITS
    from counts import COUNT_UNITS
    from tracing import per_layer_spec

    units = {name: unit for name, unit, _ in per_layer_spec()}
    return {**units, **COUNT_UNITS, **OVERHEAD_UNITS}


def _print_report(name, trace, metrics, units, attempted, failed) -> None:
    print(f"== {name} ({'traced' if trace else 'untraced'}) ==")
    if trace:
        for key, unit in units.items():
            print(f"  {key:<48} {metrics[key]:>14.6g} {unit}")
        return
    # the end-to-end metrics under their per-workload names
    throughput = "map_pixels_per_s" if name == "map-pavia" else "train_samples_per_s"
    rows = [
        ("setup_s", metrics["setup_s"], "s"),
        (throughput, metrics["px_per_s"], "samples/s" if name != "map-pavia" else "px/s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MiB"),
        ("oa", metrics["oa"], "fraction"),
        ("fail_ratio", failed / attempted, "failed/attempted"),
    ]
    for key, value, unit in rows:
        print(f"  {key:<22} {value:>12.6g} {unit}")


def _run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_single_thread()
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

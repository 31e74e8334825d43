"""Command-line front end.

Subcommands: ``info``, ``whiten``, ``split``, ``train``, ``eval``,
``param-count``, ``gradcheck``, ``render-map``.  Exit codes: 0 on success,
1 for validation problems (bad flags, malformed config or container files,
mismatched shapes) and running out of memory, 2 for numerical failures
(gradient-check tolerance violations, training divergence).

Run settings travel in a ``key = value`` config file (one pair per line,
``#`` comments), each key an ``Architecture`` or ``TrainConfig`` field name
or a run-only setting (paths, split, whitening); ``HSICAPS_OUTPUT_DIR``
overrides the configured output directory when set.  ``train`` stores the
settings, less the two paths, in the checkpoint, and ``eval`` and
``render-map`` take the split, seed, whitening and routing depth from there.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    HsiCube,
    apply_whitening,
    atomic_writes,
    fit_whitening,
    load_cube,
    save_cube,
    stratified_split,
    write_atomic,
)
from .layers import (
    Architecture,
    CheckpointFormatError,
    ModelParams,
    encode_checkpoint,
    load_checkpoint,
    param_count,
    read_checkpoint,
)
from .metrics import ConfusionMatrix, MetricsResult, format_metrics_kv, format_metrics_table
from .numerics import check_float, check_int, check_seed
from .training import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    predict_coords,
    run_gradient_check,
    train,
)

__all__ = [
    "DEFAULT_PALETTE",
    "RunConfig",
    "classification_map",
    "load_palette",
    "main",
    "parse_config",
    "serialize_config",
    "write_ppm",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

OUTPUT_DIR_ENV = "HSICAPS_OUTPUT_DIR"

# 16 visually well-separated colors for rendered class maps; id 0 renders black.
DEFAULT_PALETTE: dict[int, tuple[int, int, int]] = {
    1: (230, 25, 75),
    2: (60, 180, 75),
    3: (255, 225, 25),
    4: (0, 130, 200),
    5: (245, 130, 48),
    6: (145, 30, 180),
    7: (70, 240, 240),
    8: (240, 50, 230),
    9: (210, 245, 60),
    10: (250, 190, 212),
    11: (0, 128, 128),
    12: (220, 190, 255),
    13: (170, 110, 40),
    14: (255, 250, 200),
    15: (128, 0, 0),
    16: (170, 255, 195),
}


# The run settings the library dataclasses declare, each under its field
# name; the cube gives channels and num_classes.
_DECLARED = [
    f
    for cls in (Architecture, TrainConfig)
    for f in dataclasses.fields(cls)
    if f.name not in ("channels", "num_classes")
]


@dataclass
class _RunOnlySettings:
    """The run's paths, split and whitening, which no library dataclass
    declares; RunConfig adds the settings ``_DECLARED`` lists."""

    cube: str = ""
    output_dir: str = "runs/out"
    train_fraction: float = 0.2
    val_fraction: float = 0.1
    whiten: bool = True
    whiten_epsilon: float = 1e-5

    def __post_init__(self) -> None:
        train = check_float(self.train_fraction, "train_fraction", high=1, positive=True)
        val = check_float(self.val_fraction, "val_fraction", high=1, positive=True)
        if train + val >= 1:
            raise ValueError(f"train_fraction {train} and val_fraction {val} must sum below 1")
        check_float(self.whiten_epsilon, "whiten_epsilon", positive=True)
        # a truthy string such as "no" would otherwise be written back as true
        if not isinstance(self.whiten, (bool, np.bool_)):
            raise ValueError(f"whiten must be a boolean, got {self.whiten!r}")

    def architecture(self, channels: int, num_classes: int) -> Architecture:
        return self._build(Architecture, channels=channels, num_classes=num_classes)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def _build(self, cls, **given):
        names = [f.name for f in dataclasses.fields(cls) if f.name not in given]
        return cls(**given, **{name: getattr(self, name) for name in names})


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(f.name, f.type, dataclasses.field(default=f.default)) for f in _DECLARED],
    bases=(_RunOnlySettings,),
    namespace={"__module__": __name__, "__doc__": "Everything a training run needs."},
)

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


def finite_float(text: str) -> float:
    """``float(text)``, refusing NaN and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def seed_int(text: str) -> int:
    """``int(text)`` if it is a seed, else a flag error."""
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word not in _TRUE_WORDS | _FALSE_WORDS:
        raise ValueError(f"expected a boolean, got {text!r}")
    return word in _TRUE_WORDS


# RunConfig annotation -> (parser, writer) of a setting's config text.  The
# writer formats the declared type, so numpy scalars round-trip too; an int
# setting holding a fraction is refused rather than truncated.
_CODECS = {
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "int": (int, lambda value: str(operator.index(value))),
    "float": (finite_float, lambda value: repr(float(value))),
    "str": (str, str),
}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a RunConfig.

    Unknown keys, repeated keys, and unparsable values are errors; omitted
    keys keep their defaults.
    """
    parsers = {f.name: _CODECS[f.type][0] for f in dataclasses.fields(RunConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in parsers:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from exc
    return RunConfig(**values)


def serialize_config(config: RunConfig, omit: tuple[str, ...] = ()) -> str:
    """Render a RunConfig as ``key = value`` lines, except the keys in
    ``omit``; parse_config inverts this."""
    lines = [
        f"{f.name} = {_CODECS[f.type][1](getattr(config, f.name))}"
        for f in dataclasses.fields(RunConfig)
        if f.name not in omit
    ]
    return "\n".join(lines) + "\n"


def load_palette(path: str) -> dict[int, tuple[int, int, int]]:
    """Read ``id r g b`` lines (``#`` comments allowed) into a palette."""
    palette: dict[int, tuple[int, int, int]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 4:
                raise ValueError(f"expected 'id r g b', got {raw!r}")
            cid, r, g, b = (int(p) for p in parts)
            check_int(cid, "class id")
            if not all(0 <= v <= 255 for v in (r, g, b)):
                raise ValueError("color values must be in [0, 255]")
        except ValueError as exc:
            raise ValueError(f"palette line {lineno}: {exc}") from exc
        palette[cid] = (r, g, b)
    return palette


def write_ppm(
    path: str, class_ids: np.ndarray, palette: dict[int, tuple[int, int, int]]
) -> None:
    """Write a (H, W) class-id image as binary PPM (P6), id 0 as black.

    Every nonzero id present must have a palette entry.
    """
    class_ids = np.asarray(class_ids)
    if class_ids.ndim != 2:
        raise ValueError(f"class ids must be (H, W), got shape {class_ids.shape}")
    present = np.unique(class_ids)
    missing = [int(c) for c in present if c != 0 and int(c) not in palette]
    if missing:
        raise ValueError(f"palette is missing entries for class ids {missing}")
    height, width = class_ids.shape
    lut = np.zeros((int(present.max()) + 1 if len(present) else 1, 3), dtype=np.uint8)
    for cid, rgb in palette.items():
        if cid < len(lut):
            lut[cid] = rgb
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    write_atomic(path, [header, lut[class_ids].tobytes()])


def classification_map(
    params: ModelParams,
    cube: HsiCube,
    routing_iters: int = RunConfig.routing_iters,
    batch_size: int = 512,
    labeled_only: bool = False,
) -> np.ndarray:
    """Predict a class id for every pixel (or only labeled pixels), (H, W).

    ``batch_size`` caps the pixels per model call; :func:`predict_coords`
    runs the model in prediction-budget blocks within that cap.
    """
    if labeled_only:
        rows, cols = np.nonzero(cube.labels > 0)
    else:
        rows, cols = np.nonzero(np.ones_like(cube.labels))
    coords = np.stack([rows, cols], axis=1)
    ids = np.zeros((cube.height, cube.width), dtype=np.int32)
    # predict_coords checks the channel count, also when no pixel is selected
    ids[rows, cols] = predict_coords(params, cube, coords, routing_iters, batch_size)
    return ids


def _prepared_cube(cube: HsiCube, whiten: bool, epsilon: float) -> HsiCube:
    """The model's view of a cube: whitened unless disabled."""
    if not whiten:
        return cube
    return apply_whitening(cube, fit_whitening(cube, epsilon))


def _load_run(args: argparse.Namespace) -> tuple[ModelParams, RunConfig, HsiCube]:
    """The checkpoint's parameters and run settings, and the model's view of
    the cube under those settings."""
    params, _, _, settings = read_checkpoint(args.checkpoint)
    if not settings:
        raise CheckpointFormatError(
            "checkpoint carries no run settings; evaluate it through the library"
        )
    try:
        config = parse_config(settings)
    except ValueError as exc:
        raise CheckpointFormatError(f"checkpoint settings: {exc}") from exc
    cube = load_cube(args.cube)
    return params, config, _prepared_cube(cube, config.whiten, config.whiten_epsilon)


# ---------------------------------------------------------------------------
# subcommands


def _stage_metrics(stage, directory: Path, cm: ConfusionMatrix, result: MetricsResult) -> None:
    """Stage a run's ``metrics.txt`` and ``metrics.kv`` in ``directory``."""
    stage(directory / "metrics.txt", [format_metrics_table(cm, result).encode()])
    stage(directory / "metrics.kv", [format_metrics_kv(cm, result).encode()])


def cmd_info(args: argparse.Namespace) -> int:
    cube = load_cube(args.cube)
    histogram = cube.class_histogram()
    classes = sorted(c for c in histogram if c != 0)
    print(f"{cube.height} × {cube.width} × {cube.channels}, {len(classes)} classes")
    if 0 in histogram:
        print(f"unlabeled: {histogram[0]}")
    for cid in classes:
        print(f"class {cid}: {histogram[cid]}")
    return EXIT_OK


def cmd_whiten(args: argparse.Namespace) -> int:
    cube = load_cube(args.cube)
    transform = fit_whitening(cube, args.epsilon)
    save_cube(apply_whitening(cube, transform), args.output)
    print(f"wrote whitened cube to {args.output}")
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    cube = load_cube(args.cube)
    split = stratified_split(cube, (args.train_fraction, args.val_fraction), args.seed)
    print(f"{'class':>5}  {'train':>7}  {'val':>7}  {'test':>7}")
    totals = [0, 0, 0]
    for cid, (n_train, n_val, n_test) in split.counts().items():
        print(f"{cid:>5}  {n_train:>7}  {n_val:>7}  {n_test:>7}")
        totals[0] += n_train
        totals[1] += n_val
        totals[2] += n_test
    print(f"{'total':>5}  {totals[0]:>7}  {totals[1]:>7}  {totals[2]:>7}")
    if args.output:
        lines = ["subset\tclass\trow\tcol"]
        for subset in ("train", "val", "test"):
            coords, labels = split.subset(subset)
            for (row, col), cid in zip(coords, labels):
                lines.append(f"{subset}\t{cid}\t{row}\t{col}")
        write_atomic(args.output, [("\n".join(lines) + "\n").encode()])
        print(f"wrote assignment to {args.output}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = parse_config(Path(args.config).read_text())
    if not config.cube:
        raise ValueError("config must set 'cube'")
    # rejects bad optimization settings before any file is read or written
    train_config = config.train_config()
    output_dir = Path(os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    # the raw cube is freed once whitened, before training starts
    prepared = _prepared_cube(load_cube(config.cube), config.whiten, config.whiten_epsilon)
    split = stratified_split(
        prepared, (config.train_fraction, config.val_fraction), config.seed
    )
    arch = config.architecture(prepared.channels, prepared.num_classes())
    params, record = train(prepared, split, train_config, arch)

    # store the settings without the two paths, and score the float32
    # parameters the checkpoint holds (what ``hsicaps eval`` sees); the four
    # artifacts replace the earlier run's only once all of them are written
    settings = serialize_config(config, omit=("cube", "output_dir"))
    with atomic_writes() as stage:
        checkpoint = stage(
            output_dir / "checkpoint.cckp",
            encode_checkpoint(params, record.best_step, config.seed, settings),
        )
        saved, _, _ = load_checkpoint(checkpoint)
        test_coords, _ = split.subset("test")
        cm = evaluate(saved, prepared, test_coords, config.routing_iters)
        result = cm.metrics()
        stage(output_dir / "train_log.tsv", [record.to_tsv().encode()])
        _stage_metrics(stage, output_dir, cm, result)

    print(f"best epoch {record.best_epoch} (val OA {record.best_val_accuracy:.4f})")
    print(f"test OA {result.overall_accuracy:.4f}")
    print(f"test AA {result.average_accuracy:.4f}")
    print(f"test kappa_x100 {result.kappa * 100.0:.4f}")
    print(f"artifacts in {output_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    params, config, prepared = _load_run(args)
    split = stratified_split(
        prepared, (config.train_fraction, config.val_fraction), config.seed
    )
    coords, _ = split.subset(args.subset)
    cm = evaluate(params, prepared, coords, config.routing_iters)
    result = cm.metrics()
    sys.stdout.write(format_metrics_table(cm, result))
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_writes() as stage:
            _stage_metrics(stage, out, cm, result)
        print(f"wrote metrics to {out}")
    return EXIT_OK


def cmd_param_count(args: argparse.Namespace) -> int:
    arch = Architecture(channels=args.channels, num_classes=args.classes)
    print(f"{param_count(arch):,}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    tolerance = check_float(args.tolerance, "tolerance", positive=True)
    reports = run_gradient_check(seed=args.seed, epsilon=args.epsilon)
    failed = False
    for group in sorted(reports):
        report = reports[group]
        status = "ok" if report.max_relative_error < tolerance else "FAIL"
        failed = failed or status == "FAIL"
        print(
            f"{group}: max relative error {report.max_relative_error:.3e} "
            f"(analytic {report.analytic:.6e}, numeric {report.numeric:.6e}) {status}"
        )
    if failed:
        print(
            f"gradient check failed at tolerance {tolerance}", file=sys.stderr
        )
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_render_map(args: argparse.Namespace) -> int:
    params, config, prepared = _load_run(args)
    palette = load_palette(args.palette) if args.palette else DEFAULT_PALETTE
    ids = classification_map(
        params,
        prepared,
        routing_iters=config.routing_iters,
        labeled_only=args.labeled_only,
    )
    write_ppm(args.output, ids, palette)
    print(f"wrote class map to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that to exit code 1
    def error(self, message):  # noqa: D102
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsicaps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print cube dimensions and class histogram")
    p.add_argument("cube")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("whiten", help="write a spectrally whitened copy of a cube")
    p.add_argument("cube")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--epsilon", type=finite_float, default=RunConfig.whiten_epsilon)
    p.set_defaults(func=cmd_whiten)

    p = sub.add_parser("split", help="print (and optionally write) a stratified split")
    p.add_argument("cube")
    p.add_argument("--train-fraction", type=finite_float, default=RunConfig.train_fraction)
    p.add_argument("--val-fraction", type=finite_float, default=RunConfig.val_fraction)
    p.add_argument("--seed", type=seed_int, default=RunConfig.seed)
    p.add_argument("-o", "--output", default="")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="run the full training pipeline from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a cube subset")
    p.add_argument("checkpoint")
    p.add_argument("cube")
    p.add_argument("--subset", choices=("train", "val", "test"), default="test")
    p.add_argument("-o", "--output", default="")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("param-count", help="print the trainable parameter count")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("gradcheck", help="finite-difference the backward pass")
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--epsilon", type=finite_float, default=1e-5)
    p.add_argument("--tolerance", type=finite_float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("render-map", help="render a classification map as PPM")
    p.add_argument("checkpoint")
    p.add_argument("cube")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--labeled-only", action="store_true")
    p.add_argument("--palette", default="")
    p.set_defaults(func=cmd_render_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse -h
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_OK


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit("error: run hsicaps commands as `python -m hsicaps`, not `python -m hsicaps.cli`")

"""The three workloads: seeded inputs, set-up, one timed rep and its gates.

Every call into the package goes through a module attribute (``data.load_cube``,
``training.train``, ...) so that a traced run can wrap it.  Inputs are
generated and written before any timing starts; ``setup`` is what a user pays
before the first call into the model; ``rep`` is one fixed unit of work, the
same on every repeat, so its accuracy never depends on how fast it ran.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from hsicaps import cli, data, layers, training

BATCH = 64
ROUTING_ITERS = 3
WHITEN_EPSILON = 1e-5
# The synthetic scenes' noise sits below sqrt(WHITEN_EPSILON), so whitening
# damps the noise-only components instead of scaling them to unit variance.
# At noise 0.25 a whitened 200-channel scene stays near chance (validation OA
# 0.05-0.13) after 3-16 short epochs, which leaves nothing to check; at this
# noise train-ip reaches validation OA 0.96-1.0 in 5 epochs on the 20 seeds
# tried.
QUIET_NOISE = 3e-4


@dataclass
class RepResult:
    """One rep: pixels pushed through the model in ``seconds`` of timed work,
    the rep's accuracy, and the gates it failed."""

    pixels: int
    seconds: float
    oa: float
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TrainRecipe:
    height: int
    width: int
    channels: int
    classes: int
    noise_sigma: float
    fractions: tuple[float, float]
    epochs: int
    # "validation": oa is the best validation OA and the epoch loss must fall
    # every epoch; "test": oa is the test OA from training.evaluate, run
    # untimed at the end of each rep
    score: str
    oa_floor: float


class TrainWorkload:
    """``training.train()`` on a whitened, per-class split scene."""

    def __init__(self, recipe: TrainRecipe, seed: int, workdir: Path):
        self.recipe = recipe
        self.seed = seed
        self.cube_path = str(workdir / "scene.hsic")
        self.arch = layers.Architecture(channels=recipe.channels, num_classes=recipe.classes)
        self.batch = BATCH

    def generate(self) -> None:
        r = self.recipe
        cube = data.make_synthetic_cube(
            r.height, r.width, r.channels, r.classes,
            noise_sigma=r.noise_sigma, seed=self.seed,
        )
        data.save_cube(cube, self.cube_path)

    def setup(self) -> None:
        cube = data.load_cube(self.cube_path)
        self.cube = data.apply_whitening(cube, data.fit_whitening(cube, WHITEN_EPSILON))
        self.split = data.stratified_split(self.cube, self.recipe.fractions, self.seed)

    def rep(self) -> RepResult:
        config = training.TrainConfig(
            epochs=self.recipe.epochs,
            batch_size=BATCH,
            routing_iters=ROUTING_ITERS,
            seed=self.seed,
        )
        start = time.perf_counter()
        params, record = training.train(self.cube, self.split, config, self.arch)
        seconds = time.perf_counter() - start
        pixels = len(self.split.subset("train")[0]) * config.epochs

        problems = []
        losses = record.epoch_losses
        if not np.isfinite(losses).all():
            problems.append(f"non-finite epoch loss {losses}")
        if self.recipe.score == "test":
            test_coords, _ = self.split.subset("test")
            oa = training.evaluate(params, self.cube, test_coords).metrics().overall_accuracy
        else:
            oa = record.best_val_accuracy
            if any(later >= earlier for earlier, later in zip(losses, losses[1:])):
                problems.append(f"epoch loss not decreasing {losses}")
        if not oa >= self.recipe.oa_floor:
            problems.append(f"OA {oa:.4f} below floor {self.recipe.oa_floor}")
        return RepResult(pixels, seconds, oa, problems)


class MapWorkload:
    """Whole-scene class map the way ``hsicaps render-map`` makes it."""

    # 2048 pixels: four full batches per map
    HEIGHT, WIDTH, CHANNELS, CLASSES = 64, 32, 103, 9
    MAP_BATCH = 512
    # the checkpoint is trained here, before timing, so the map has an
    # accuracy to check
    TRAIN_FRACTIONS = (0.15, 0.05)
    TRAIN_EPOCHS = 4
    OA_FLOOR = 0.9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cube_path = str(workdir / "scene.hsic")
        self.checkpoint_path = str(workdir / "model.cckp")
        self.ppm_path = str(workdir / "map.ppm")
        self.arch = layers.Architecture(channels=self.CHANNELS, num_classes=self.CLASSES)
        self.batch = self.MAP_BATCH

    def generate(self) -> None:
        cube = data.make_synthetic_cube(
            self.HEIGHT, self.WIDTH, self.CHANNELS, self.CLASSES,
            noise_sigma=QUIET_NOISE, seed=self.seed,
        )
        data.save_cube(cube, self.cube_path)
        cube = data.load_cube(self.cube_path)
        cube = data.apply_whitening(cube, data.fit_whitening(cube, WHITEN_EPSILON))
        split = data.stratified_split(cube, self.TRAIN_FRACTIONS, self.seed)
        config = training.TrainConfig(
            epochs=self.TRAIN_EPOCHS, batch_size=BATCH,
            routing_iters=ROUTING_ITERS, seed=self.seed,
        )
        params, record = training.train(cube, split, config, self.arch)
        layers.save_checkpoint(self.checkpoint_path, params, record.best_step, self.seed)

    def setup(self) -> None:
        self.params, _, _ = layers.load_checkpoint(self.checkpoint_path)
        cube = data.load_cube(self.cube_path)
        self.cube = data.apply_whitening(cube, data.fit_whitening(cube, WHITEN_EPSILON))

    def rep(self) -> RepResult:
        start = time.perf_counter()
        ids = cli.classification_map(
            self.params, self.cube, routing_iters=ROUTING_ITERS, batch_size=self.MAP_BATCH
        )
        cli.write_ppm(self.ppm_path, ids, cli.DEFAULT_PALETTE)
        seconds = time.perf_counter() - start

        problems = []
        shape = (self.cube.height, self.cube.width)
        if ids.shape != shape:
            problems.append(f"map shape {ids.shape} is not the scene's {shape}")
        problems += _ppm_problems(self.ppm_path, shape)
        labels = self.cube.labels
        labeled = labels > 0
        oa = float(np.mean(ids[labeled] == labels[labeled])) if ids.shape == shape else 0.0
        if not oa >= self.OA_FLOOR:
            problems.append(f"map OA {oa:.4f} below floor {self.OA_FLOOR}")
        return RepResult(ids.size, seconds, oa, problems)


_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _ppm_problems(path: str, shape: tuple[int, int]) -> list[str]:
    """Parse the binary PPM header and check it against the scene."""
    with open(path, "rb") as fh:
        blob = fh.read()
    match = _PPM_HEADER.match(blob)
    if match is None:
        return [f"PPM header does not parse: {blob[:20]!r}"]
    width, height, maxval = (int(g) for g in match.groups())
    problems = []
    if (height, width) != shape or maxval != 255:
        problems.append(f"PPM header says {width}x{height} max {maxval}")
    if len(blob) - match.end() != 3 * width * height:
        problems.append(f"PPM payload of {len(blob) - match.end()} bytes")
    return problems


def make(name: str, seed: int, workdir: Path):
    if name == "train-ip":
        recipe = TrainRecipe(
            145, 145, 200, 16, QUIET_NOISE, (0.01, 0.01), 5, "validation", 0.9
        )
        return TrainWorkload(recipe, seed, workdir)
    if name == "map-pavia":
        return MapWorkload(seed, workdir)
    if name == "train-toy":
        # the README quick start at criterion 07's size, schedule and target
        recipe = TrainRecipe(64, 64, 32, 3, 0.25, (0.2, 0.1), 20, "test", 0.99)
        return TrainWorkload(recipe, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

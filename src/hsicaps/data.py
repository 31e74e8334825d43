"""Hyperspectral cube handling and preprocessing.

Covers the binary cube container, PCA whitening fitted on the full pixel
population, mirror-extended spatial patch extraction, seeded per-class
stratified splits, and a synthetic labeled cube for tests and demos.  It
also holds ``atomic_writes``, the temp-file-then-rename writer through which
every file the package writes goes, and ``float32_payload``, which both
binary containers store their values through.
"""

from __future__ import annotations

import os
import struct
import warnings
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClassSplit",
    "CubeFormatError",
    "HsiCube",
    "Patch",
    "SplitAssignment",
    "WhiteningTransform",
    "apply_whitening",
    "atomic_writes",
    "extract_patch",
    "extract_patches",
    "fit_whitening",
    "float32_payload",
    "invert_whitening",
    "load_cube",
    "make_synthetic_cube",
    "reflect_index",
    "save_cube",
    "stratified_split",
    "write_atomic",
]

CUBE_MAGIC = b"HSIC"
CUBE_VERSION = 1
# magic(4) + version(1) + height(4) + width(4) + channels(4) + label flag(1)
_HEADER = struct.Struct("<BIIIB")
_HEADER_SIZE = 4 + _HEADER.size


class CubeFormatError(ValueError):
    """A cube file violated the binary container contract.

    ``offset`` is the byte position at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class HsiCube:
    """A hyperspectral scene: ``values`` is (height, width, channels) float64
    reflectance, ``labels`` is (height, width) int32 with 0 = unlabeled
    background and class ids counted from 1."""

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.values.ndim != 3:
            raise ValueError(f"values must be (H, W, C), got shape {self.values.shape}")
        if self.labels.shape != self.values.shape[:2]:
            raise ValueError(
                f"labels shape {self.labels.shape} does not match spatial extent "
                f"{self.values.shape[:2]}"
            )
        if min(self.values.shape) < 1:
            raise ValueError(f"all cube dimensions must be >= 1, got {self.values.shape}")
        if (self.labels < 0).any():
            raise ValueError("labels must be non-negative")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    def num_classes(self) -> int:
        """Largest class id present (0 for a fully unlabeled cube)."""
        return int(self.labels.max())

    def class_histogram(self) -> dict[int, int]:
        """Pixel count per label id actually present, id 0 included."""
        ids, counts = np.unique(self.labels, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def labeled_coords(self, class_id: int) -> np.ndarray:
        """(m, 2) row/col coordinates of the pixels labeled ``class_id``,
        in row-major scan order."""
        rows, cols = np.nonzero(self.labels == class_id)
        return np.stack([rows, cols], axis=1).astype(np.int64)


@contextmanager
def atomic_writes() -> Iterator[Callable[[str | os.PathLike, Iterable[bytes]], str]]:
    """Write a group of files whole or not at all.

    The block gets ``stage(path, chunks)``, which writes ``chunks`` to a temp
    file in the target's directory and returns the temp file's path.  When
    the block ends, ``os.replace`` moves every temp file over its target, in
    staging order.  If the block raises, every temp file is removed and the
    earlier files stay as they were.  Nothing is fsynced, so this guards
    against a failing or killed writer, not against power loss.
    """
    staged: list[tuple[str, str]] = []

    def stage(path: str | os.PathLike, chunks: Iterable[bytes]) -> str:
        path = os.fspath(path)
        head, name = os.path.split(path)
        temp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
        staged.append((temp, path))
        with open(temp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        return temp

    try:
        yield stage
        for temp, path in staged:
            os.replace(temp, path)
    except BaseException:
        for temp, _ in staged:
            if os.path.exists(temp):
                os.remove(temp)
        raise


def write_atomic(path: str | os.PathLike, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` whole or not at all: :func:`atomic_writes`
    for one file."""
    with atomic_writes() as stage:
        stage(path, chunks)


def float32_payload(values: np.ndarray, name: str) -> bytes:
    """``values`` as little-endian float32 bytes, the containers' payload.

    Raises:
        ValueError: naming ``name`` and the flat index of the first value
            that is not finite in float32 (a NaN, an infinity or a float64
            beyond the float32 range), which the loaders would reject.
    """
    # the check below reports what the cast would warn about
    with np.errstate(over="ignore", invalid="ignore"):
        stored = np.ascontiguousarray(values, dtype="<f4")
    finite = np.isfinite(stored)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(
            f"{name}: value {float(np.ravel(values)[first])} at value index "
            f"{first} is not finite in float32"
        )
    return stored.tobytes()


def save_cube(cube: HsiCube, path: str, include_labels: bool | None = None) -> None:
    """Write a cube to the binary container.

    Values are stored as little-endian float32 in (row, col, channel) order,
    labels as little-endian uint16.  ``include_labels=None`` writes labels
    exactly when any pixel is labeled.  A value that is not finite in
    float32 raises ``ValueError`` before anything is written.
    """
    if include_labels is None:
        include_labels = bool(cube.labels.any())
    if include_labels and cube.num_classes() > np.iinfo(np.uint16).max:
        raise ValueError("label ids exceed the uint16 storage range")
    header = CUBE_MAGIC + _HEADER.pack(
        CUBE_VERSION, cube.height, cube.width, cube.channels, int(include_labels)
    )
    chunks = [header, float32_payload(cube.values, "cube values")]
    if include_labels:
        chunks.append(np.ascontiguousarray(cube.labels, dtype="<u2").tobytes())
    write_atomic(path, chunks)


def load_cube(path: str) -> HsiCube:
    """Read a cube from the binary container.

    Raises:
        CubeFormatError: on a bad magic, unsupported version, invalid
            dimensions, truncated payload, trailing bytes, or a non-finite
            value; the error carries the byte offset of the failure.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CUBE_MAGIC:
        raise CubeFormatError(f"bad magic {data[:4]!r}, expected {CUBE_MAGIC!r}", 0)
    if len(data) < _HEADER_SIZE:
        raise CubeFormatError(
            f"truncated header: {len(data)} bytes, need {_HEADER_SIZE}", len(data)
        )
    version, height, width, channels, has_labels = _HEADER.unpack(
        data[4:_HEADER_SIZE]
    )
    if version != CUBE_VERSION:
        raise CubeFormatError(f"unsupported version {version}", 4)
    if min(height, width, channels) < 1:
        raise CubeFormatError(
            f"invalid dimensions {height} x {width} x {channels}", 5
        )
    if has_labels not in (0, 1):
        raise CubeFormatError(f"label flag must be 0 or 1, got {has_labels}", 17)

    n_pixels = height * width
    values_bytes = n_pixels * channels * 4
    labels_bytes = n_pixels * 2 if has_labels else 0
    expected = _HEADER_SIZE + values_bytes + labels_bytes
    if len(data) < expected:
        raise CubeFormatError(
            f"truncated payload: expected {expected} bytes total, file has {len(data)}",
            len(data),
        )
    if len(data) > expected:
        raise CubeFormatError(
            f"payload size mismatch: {len(data) - expected} trailing bytes", expected
        )

    stored = np.frombuffer(
        data, dtype="<f4", count=n_pixels * channels, offset=_HEADER_SIZE
    )
    # checked on the float32 view: casting a signalling NaN would warn
    finite = np.isfinite(stored)
    if not finite.all():
        first = int(np.argmin(finite))
        raise CubeFormatError(
            f"non-finite value {stored[first]} at value index {first}",
            _HEADER_SIZE + 4 * first,
        )
    values = stored.reshape(height, width, channels).astype(np.float64)
    if has_labels:
        labels = (
            np.frombuffer(data, dtype="<u2", count=n_pixels, offset=_HEADER_SIZE + values_bytes)
            .reshape(height, width)
            .astype(np.int32)
        )
    else:
        labels = np.zeros((height, width), dtype=np.int32)
    return HsiCube(values, labels)


@dataclass
class WhiteningTransform:
    """Affine spectral decorrelation fitted on the pixel population.

    ``basis`` holds orthonormal covariance eigenvectors as columns and
    ``inv_sqrt_eigs[i] = 1 / sqrt(eigenvalue_i + epsilon)``; a pixel x maps to
    ``inv_sqrt_eigs * (basis^T @ (x - mean))``.
    """

    mean: np.ndarray
    basis: np.ndarray
    inv_sqrt_eigs: np.ndarray

    @property
    def channels(self) -> int:
        return self.mean.shape[0]


def fit_whitening(cube: HsiCube, epsilon: float = 1e-5) -> WhiteningTransform:
    """Fit the whitening transform on every pixel of the cube.

    The covariance is the population estimate (normalized by the pixel count,
    not by count - 1).  ``epsilon`` regularizes near-zero eigenvalues; with
    ``epsilon`` far below the smallest eigenvalue the transformed population
    covariance is the identity.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    pixels = cube.values.reshape(-1, cube.channels)
    if pixels.shape[0] < cube.channels + 1:
        raise ValueError(
            f"need at least channels + 1 = {cube.channels + 1} pixels to fit, "
            f"got {pixels.shape[0]}"
        )
    if not np.isfinite(pixels).all():
        raise ValueError("non-finite values in cube")
    mean = pixels.mean(axis=0)
    centered = pixels - mean
    cov = centered.T @ centered / pixels.shape[0]
    eigvals, basis = np.linalg.eigh(cov)
    # order components by descending eigenvalue so later channel truncation
    # (valid-padding convolutions never reach the last few positions) costs
    # the least informative directions, and clip the tiny negative rounding
    # that eigh can produce
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    basis = basis[:, ::-1]
    return WhiteningTransform(mean, basis, 1.0 / np.sqrt(eigvals + epsilon))


def apply_whitening(cube: HsiCube, transform: WhiteningTransform) -> HsiCube:
    """Whiten every pixel spectrum; labels are carried over unchanged."""
    if transform.channels != cube.channels:
        raise ValueError(
            f"transform fitted for {transform.channels} channels, cube has {cube.channels}"
        )
    pixels = cube.values.reshape(-1, cube.channels)
    whitened = ((pixels - transform.mean) @ transform.basis) * transform.inv_sqrt_eigs
    return HsiCube(whitened.reshape(cube.values.shape), cube.labels.copy())


def invert_whitening(cube: HsiCube, transform: WhiteningTransform) -> HsiCube:
    """Undo :func:`apply_whitening` (exact up to rounding)."""
    if transform.channels != cube.channels:
        raise ValueError(
            f"transform fitted for {transform.channels} channels, cube has {cube.channels}"
        )
    pixels = cube.values.reshape(-1, cube.channels)
    restored = (pixels / transform.inv_sqrt_eigs) @ transform.basis.T + transform.mean
    return HsiCube(restored.reshape(cube.values.shape), cube.labels.copy())


def reflect_index(index: np.ndarray | int, size: int) -> np.ndarray:
    """Fold out-of-range indices back into ``[0, size)`` by mirroring about the
    edges without repeating them: -1 -> 1, size -> size - 2.

    Handles any number of bounces; a size-1 axis maps everything to 0.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    index = np.asarray(index, dtype=np.int64)
    if size == 1:
        return np.zeros_like(index)
    period = 2 * (size - 1)
    m = np.mod(index, period)
    return np.minimum(m, period - m)


@dataclass
class Patch:
    """A spatial window around one pixel: ``data`` is (size, size, channels)
    and ``label`` is the center pixel's class id."""

    center: tuple[int, int]
    data: np.ndarray
    label: int


def extract_patch(cube: HsiCube, row: int, col: int, size: int) -> Patch:
    """Cut the ``size`` x ``size`` window centered on (row, col), mirroring
    across the image border where the window sticks out.

    ``size`` must be odd so the window has a center; the center itself must be
    inside the cube.
    """
    data = extract_patches(cube, np.array([[row, col]]), size)[0]
    return Patch((row, col), data, int(cube.labels[row, col]))


def extract_patches(cube: HsiCube, coords: np.ndarray, size: int) -> np.ndarray:
    """Vectorized :func:`extract_patch` over an (m, 2) coordinate array;
    returns (m, size, size, channels) float64."""
    if size % 2 != 1 or size < 1:
        raise ValueError(f"patch size must be odd and positive, got {size}")
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"coords must be (m, 2), got shape {coords.shape}")
    if len(coords) and (
        coords[:, 0].min() < 0
        or coords[:, 0].max() >= cube.height
        or coords[:, 1].min() < 0
        or coords[:, 1].max() >= cube.width
    ):
        raise ValueError("patch centers outside cube")
    half = size // 2
    offsets = np.arange(-half, half + 1)
    rows = reflect_index(coords[:, 0:1] + offsets, cube.height)
    cols = reflect_index(coords[:, 1:2] + offsets, cube.width)
    return cube.values[rows[:, :, None], cols[:, None, :], :]


@dataclass
class ClassSplit:
    """Row/col coordinate arrays of one class's train/val/test pixels."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class SplitAssignment:
    """Per-class disjoint train/val/test pixel assignment.

    ``skipped`` records class ids in range that had no labeled pixels.
    """

    classes: dict[int, ClassSplit]
    fractions: tuple[float, float]
    seed: int
    skipped: list[int] = field(default_factory=list)

    def counts(self) -> dict[int, tuple[int, int, int]]:
        """Per-class (train, val, test) sizes, ascending class id."""
        return {
            cid: (len(s.train), len(s.val), len(s.test))
            for cid, s in sorted(self.classes.items())
        }

    def subset(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """All coordinates of one subset concatenated in ascending class
        order, with their class ids: ((M, 2) coords, (M,) labels)."""
        coord_parts: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        for cid, split in sorted(self.classes.items()):
            part = getattr(split, name)
            coord_parts.append(part)
            label_parts.append(np.full(len(part), cid, dtype=np.int64))
        if not coord_parts:
            return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(coord_parts), np.concatenate(label_parts)


def stratified_split(
    cube: HsiCube, fractions: tuple[float, float], seed: int
) -> SplitAssignment:
    """Split each class's labeled pixels into train/val/test.

    Per class with m pixels the split takes ``floor(m * fractions[0])`` for
    training and ``floor(m * fractions[1])`` for validation; the remainder is
    test.  Membership is a seeded permutation, so the same seed reproduces the
    same assignment and different seeds change membership but never the
    counts.  A class id in range with zero labeled pixels is skipped and
    recorded in ``skipped``.
    """
    train_frac, val_frac = fractions
    if train_frac <= 0 or val_frac <= 0:
        raise ValueError(f"fractions must be positive, got {fractions}")
    if train_frac + val_frac >= 1:
        raise ValueError(f"fractions must sum to less than 1, got {fractions}")
    rng = np.random.default_rng(seed)
    classes: dict[int, ClassSplit] = {}
    skipped: list[int] = []
    for cid in range(1, cube.num_classes() + 1):
        coords = cube.labeled_coords(cid)
        m = len(coords)
        if m == 0:
            skipped.append(cid)
            warnings.warn(f"class {cid} has no labeled pixels; skipped", stacklevel=2)
            continue
        # the + 1e-9 guards against the float products of nominal fractions
        # like 0.2 landing a hair below an exact integer
        n_train = int(m * train_frac + 1e-9)
        n_val = int(m * val_frac + 1e-9)
        shuffled = coords[rng.permutation(m)]
        classes[cid] = ClassSplit(
            train=shuffled[:n_train],
            val=shuffled[n_train : n_train + n_val],
            test=shuffled[n_train + n_val :],
        )
    return SplitAssignment(classes, (train_frac, val_frac), seed, skipped)


def make_synthetic_cube(
    height: int = 64,
    width: int = 64,
    channels: int = 32,
    num_classes: int = 3,
    *,
    noise_sigma: float = 0.25,
    seed: int = 0,
    band_axis: int = 0,
) -> HsiCube:
    """Fully labeled synthetic scene of smooth spectral prototypes in stripes.

    Class c's prototype is a Gaussian bump centered at a distinct wavelength;
    every pixel is its class prototype plus iid Gaussian noise.  Classes are
    laid out as equal stripes along ``band_axis`` (0 = horizontal bands,
    1 = vertical), so the cube is separable by spectrum alone at moderate
    noise while patches near stripe boundaries still mix classes.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if band_axis not in (0, 1):
        raise ValueError(f"band_axis must be 0 or 1, got {band_axis}")
    rng = np.random.default_rng(seed)
    grid = np.arange(channels, dtype=np.float64)
    centers = (np.arange(num_classes) + 0.5) * channels / num_classes
    bump_width = channels / (2.5 * num_classes)
    prototypes = np.exp(-0.5 * ((grid - centers[:, None]) / bump_width) ** 2)

    extent = height if band_axis == 0 else width
    stripe = np.minimum(
        np.arange(extent) * num_classes // extent, num_classes - 1
    ).astype(np.int32)
    if band_axis == 0:
        labels = np.repeat(stripe[:, None] + 1, width, axis=1)
    else:
        labels = np.repeat(stripe[None, :] + 1, height, axis=0)
    values = prototypes[labels - 1] + rng.normal(0.0, noise_sigma, (height, width, channels))
    return HsiCube(values, labels)

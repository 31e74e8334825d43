"""Hyperspectral cube handling and preprocessing.

Covers the binary cube container, PCA whitening fitted on the full pixel
population, mirror-extended spatial patch extraction, seeded per-class
stratified splits, and a synthetic labeled cube for tests and demos.  It
also holds ``atomic_writes``, the temp-file-then-rename writer through which
every file the package writes goes, ``float32_payload``, which both binary
containers store their values through, and ``check_coords``, the one rule
for pixel coordinates; these three are not exported.
"""

from __future__ import annotations

import os
import struct
import warnings
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .numerics import check_float, check_int, check_seed, row_chunks

__all__ = [
    "CubeFormatError",
    "HsiCube",
    "SplitAssignment",
    "WhiteningTransform",
    "apply_whitening",
    "extract_patches",
    "fit_whitening",
    "invert_whitening",
    "load_cube",
    "make_synthetic_cube",
    "reflect_index",
    "save_cube",
    "stratified_split",
]

CUBE_MAGIC = b"HSIC"
CUBE_VERSION = 1
# magic, version, height, width, channels, label flag
_HEADER = struct.Struct("<4sBIIIB")


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
    reflectance, ``labels`` is a read-only (height, width) int32 copy with
    0 = unlabeled background and class ids counted from 1."""

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels)
        # checked before the cast, which would truncate fractions and wrap large
        # ids; the cube file stores labels as u16
        if labels.dtype.kind not in "buif" or not (
            (labels >= 0) & (labels <= 65535) & (labels == np.trunc(labels))
        ).all():
            raise ValueError("labels must be whole numbers in [0, 65535]")
        self.labels = labels.astype(np.int32)  # read-only: a write would skip the check
        self.labels.flags.writeable = False
        if self.values.ndim != 3:
            raise ValueError(f"values must be (H, W, C), got shape {self.values.shape}")
        if self.labels.shape != self.values.shape[:2]:
            raise ValueError(
                f"labels shape {self.labels.shape} does not match spatial extent "
                f"{self.values.shape[:2]}"
            )
        if min(self.values.shape) < 1:
            raise ValueError(f"all cube dimensions must be >= 1, got {self.values.shape}")

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


def save_cube(cube: HsiCube, path: str) -> None:
    """Write a cube to the binary container.

    Values are stored as little-endian float32 in (row, col, channel) order,
    labels as little-endian uint16, and labels are stored exactly when some
    pixel is labeled.  A value that is not finite in float32 raises
    ``ValueError`` before anything is written.
    """
    include_labels = bool(cube.labels.any())
    header = _HEADER.pack(
        CUBE_MAGIC, CUBE_VERSION, cube.height, cube.width, cube.channels, int(include_labels)
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
    if len(data) < _HEADER.size:
        raise CubeFormatError(
            f"truncated header: {len(data)} bytes, need {_HEADER.size}", len(data)
        )
    _, version, height, width, channels, has_labels = _HEADER.unpack_from(data)
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
    expected = _HEADER.size + values_bytes + labels_bytes
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
        data, dtype="<f4", count=n_pixels * channels, offset=_HEADER.size
    )

    def widen(chunk: np.ndarray, out: np.ndarray) -> bool:
        """Whether ``chunk`` holds a non-finite value, else copy it to ``out``."""
        # checked on the float32 view first: casting a signalling NaN would warn
        if finite := bool(np.isfinite(chunk).all()):
            out[...] = chunk
        return not finite

    values = np.empty((n_pixels, channels))
    if row_chunks(widen, stored.reshape(n_pixels, channels), values):
        first = int(np.argmin(np.isfinite(stored)))
        raise CubeFormatError(
            f"non-finite value {stored[first]} at value index {first}",
            _HEADER.size + 4 * first,
        )
    if has_labels:
        labels = np.frombuffer(
            data, dtype="<u2", count=n_pixels, offset=_HEADER.size + values_bytes
        ).reshape(height, width)
    else:
        labels = np.zeros((height, width), dtype=np.int32)
    return HsiCube(values.reshape(height, width, channels), labels)


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

    The covariance is the population estimate (normalized by the pixel count, not
    by count - 1); it and the mean are row-chunk sums added in row order (README,
    Determinism).  ``epsilon`` regularizes near-zero eigenvalues; with ``epsilon``
    far below the smallest eigenvalue the transformed population covariance is the identity.
    """
    epsilon = check_float(epsilon, "epsilon", positive=True)
    pixels = cube.values.reshape(-1, cube.channels)
    if pixels.shape[0] < cube.channels + 1:
        raise ValueError(
            f"need at least channels + 1 = {cube.channels + 1} pixels to fit, "
            f"got {pixels.shape[0]}"
        )
    # any non-finite pixel makes its channel's sum non-finite, without a warning
    with np.errstate(invalid="ignore"):
        mean = row_chunks(lambda rows: rows.sum(axis=0), pixels) / len(pixels)
    if not np.isfinite(mean).all():
        raise ValueError("non-finite values in cube")

    def gram(rows: np.ndarray) -> np.ndarray:
        centered = rows - mean
        return centered.T @ centered

    cov = row_chunks(gram, pixels) / len(pixels)
    eigvals, basis = np.linalg.eigh(cov)
    # order components by descending eigenvalue so later channel truncation
    # (valid-padding convolutions never reach the last few positions) costs
    # the least informative directions, and clip the tiny negative rounding
    # that eigh can produce
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    basis = basis[:, ::-1]
    return WhiteningTransform(mean, basis, 1.0 / np.sqrt(eigvals + epsilon))


def _fitted_pixels(cube: HsiCube, transform: WhiteningTransform) -> np.ndarray:
    """The cube's (pixels, channels) view, if ``transform`` fits its channels."""
    if transform.channels != cube.channels:
        raise ValueError(
            f"transform fitted for {transform.channels} channels, cube has {cube.channels}"
        )
    return cube.values.reshape(-1, cube.channels)


def apply_whitening(cube: HsiCube, transform: WhiteningTransform) -> HsiCube:
    """Whiten every pixel spectrum; labels are carried over unchanged."""
    pixels = _fitted_pixels(cube, transform)
    scaled_basis = transform.basis * transform.inv_sqrt_eigs

    def whiten(rows: np.ndarray, out: np.ndarray) -> None:
        np.matmul(rows - transform.mean, scaled_basis, out=out)

    whitened = np.empty(pixels.shape)
    row_chunks(whiten, pixels, whitened)
    return HsiCube(whitened.reshape(cube.values.shape), cube.labels)


def invert_whitening(cube: HsiCube, transform: WhiteningTransform) -> HsiCube:
    """Undo :func:`apply_whitening` (exact up to rounding)."""
    pixels = _fitted_pixels(cube, transform)
    restored = (pixels / transform.inv_sqrt_eigs) @ transform.basis.T + transform.mean
    return HsiCube(restored.reshape(cube.values.shape), cube.labels)


def reflect_index(index: np.ndarray | int, size: int) -> np.ndarray:
    """Fold out-of-range indices back into ``[0, size)`` by mirroring about the
    edges without repeating them: -1 -> 1, size -> size - 2.

    Handles any number of bounces; a size-1 axis maps everything to 0.
    """
    size = check_int(size, "size")
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise ValueError(f"index must hold integers, got {index.dtype}")
    if size == 1:
        return np.zeros_like(index)
    period = 2 * (size - 1)
    m = np.mod(index, period)
    return np.minimum(m, period - m)


def check_coords(coords, cube: HsiCube) -> np.ndarray:
    """``coords`` as an int64 (m, 2) array of (row, col) pixels inside
    ``cube``, else ``ValueError`` naming them."""
    coords = np.asarray(coords)
    if coords.dtype.kind not in "iu" or coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(
            f"coords must be an (m, 2) integer array, got {coords.dtype} {coords.shape}"
        )
    if (coords < 0).any() or (coords >= (cube.height, cube.width)).any():
        raise ValueError(f"coords hold a pixel outside the {cube.height} x {cube.width} cube")
    return coords.astype(np.int64, copy=False)


def extract_patches(cube: HsiCube, coords: np.ndarray, size: int) -> np.ndarray:
    """Cut the ``size`` x ``size`` window centered on each (row, col) of an
    (m, 2) coordinate array, mirroring across the image border where a window
    sticks out; returns (m, size, size, channels) float64.

    ``size`` must be odd so each window has a center; the centers are
    checked by :func:`check_coords`.
    """
    size = check_int(size, "patch size")
    if size % 2 != 1:
        raise ValueError(f"patch size must be odd, got {size}")
    coords = check_coords(coords, cube)
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
    if not isinstance(fractions, (tuple, list)) or len(fractions) != 2:
        raise ValueError(f"fractions must be a (train, val) pair, got {fractions!r}")
    train_frac, val_frac = (check_float(f, "fractions", 1, positive=True) for f in fractions)
    if train_frac + val_frac >= 1:
        raise ValueError(f"fractions must sum to less than 1, got {fractions}")
    seed = check_seed(seed)
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
) -> HsiCube:
    """Fully labeled synthetic scene of smooth spectral prototypes in stripes.

    Class c's prototype is a Gaussian bump centered at a distinct wavelength;
    every pixel is its class prototype plus iid Gaussian noise.  Classes are
    laid out as equal horizontal stripes, top to bottom, so the cube is
    separable by spectrum alone at moderate noise while patches near stripe
    boundaries still mix classes.
    """
    height = check_int(height, "height")
    width = check_int(width, "width")
    channels = check_int(channels, "channels")
    num_classes = check_int(num_classes, "num_classes", low=2)
    noise_sigma = check_float(noise_sigma, "noise_sigma")
    rng = np.random.default_rng(check_seed(seed))
    grid = np.arange(channels, dtype=np.float64)
    centers = (np.arange(num_classes) + 0.5) * channels / num_classes
    bump_width = channels / (2.5 * num_classes)
    prototypes = np.exp(-0.5 * ((grid - centers[:, None]) / bump_width) ** 2)

    stripe = np.minimum(
        np.arange(height) * num_classes // height, num_classes - 1
    ).astype(np.int32)
    labels = np.repeat(stripe[:, None] + 1, width, axis=1)
    values = prototypes[labels - 1] + rng.normal(0.0, noise_sigma, (height, width, channels))
    return HsiCube(values, labels)

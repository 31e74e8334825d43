"""Dense numerical primitives shared by every layer.

The ReLU pair, the integer, float and seed rules, the output-length law of
valid-padding convolutions (nothing pads implicitly: ``floor((length - kernel)
/ stride) + 1``), a central-difference checker for the hand-written backward
passes, ``run_pieces``, which runs model pieces on the calling thread and the
package's one worker thread, and ``row_chunks``, which runs preprocessing and
each Adam update in 1 MiB row chunks on the two.  Importing it fixes glibc's
malloc thresholds, which keeps a training step's temporaries off fresh pages.
The package exports none of them: every caller is one of its own modules.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import copy_context
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Floor for the relative-error denominator so near-zero gradient pairs do not
# blow the ratio up.
REL_ERR_FLOOR = 1e-12


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0, x)``; shape and dtype preserved."""
    return np.maximum(x, 0.0)


def relu_grad(pre_activation: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gate ``upstream`` by the ReLU derivative taken at ``pre_activation``.

    The derivative at exactly zero is taken as zero.  A non-finite ``upstream``
    gives NaN even where the gate is closed, so ``backward_batch`` refuses it.
    """
    return upstream * (pre_activation > 0)


def check_int(value, name: str, low: float = 1) -> int:
    """``value`` as an int if it is a Python or numpy integer of at least
    ``low``, else ``ValueError`` naming ``name``; ``True`` is refused.  The
    one integer rule of the package."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_float(value, name: str, high: float = np.inf, positive: bool = False) -> float:
    """``value`` as a float if it is a Python or numpy real number (not a bool) in
    [0, ``high``), or (0, ``high``) when ``positive``, else ``ValueError`` naming ``name``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        number = float(value) if real else np.nan
    except OverflowError:  # a Python int beyond the float64 range
        number = np.inf
    if not ((0 < number if positive else 0 <= number) and number < high):
        raise ValueError(f"{name} must lie in {'(' if positive else '['}0, {high}), got {value!r}")
    return number


def check_seed(value, name: str = "seed") -> int:
    """``value`` as an int if it is an integer in [0, 2**64), else
    ``ValueError``: what numpy's generators and the checkpoint trailer take."""
    if not 0 <= check_int(value, name, low=float("-inf")) < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return int(value)


def conv1d_output_length(length: int, kernel_size: int, stride: int) -> int:
    """Number of valid kernel placements: ``floor((length - kernel) / stride) + 1``,
    for positive integers, which ``Architecture``, the one caller, has checked."""
    if length < kernel_size:
        raise ValueError(f"signal length {length} is shorter than kernel size {kernel_size}")
    return (length - kernel_size) // stride + 1


@dataclass
class GradCheckReport:
    """Worst-coordinate outcome of a finite-difference gradient comparison."""

    max_relative_error: float
    worst_index: int
    analytic: float
    numeric: float


def finite_difference_check(
    f: Callable[[np.ndarray], float],
    params: np.ndarray,
    analytic_grad: np.ndarray,
    epsilon: float = 1e-5,
) -> GradCheckReport:
    """Compare an analytic gradient against central differences, coordinate by coordinate.

    ``params`` is perturbed in place one coordinate at a time (and restored),
    with ``f`` re-evaluated at ``params +/- epsilon * e_i``; ``f`` must read the
    array it is handed rather than a private copy.  The relative error at each
    coordinate is ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.

    Raises:
        FloatingPointError: if ``f`` returns a non-finite value at any
            perturbed point.
        ValueError: on shape mismatch, an empty parameter array, or an
            ``epsilon`` that is not positive and finite.
    """
    epsilon = check_float(epsilon, "epsilon", positive=True)
    params = np.asarray(params, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if analytic_grad.shape != params.shape:
        raise ValueError(
            f"gradient shape {analytic_grad.shape} does not match parameter shape {params.shape}"
        )
    if params.size == 0:
        raise ValueError("cannot gradient-check an empty parameter array")

    flat_params = params.reshape(-1)
    flat_grad = analytic_grad.reshape(-1)
    report = GradCheckReport(
        max_relative_error=-1.0, worst_index=0, analytic=0.0, numeric=0.0
    )
    for i in range(flat_params.size):
        original = flat_params[i]
        flat_params[i] = original + epsilon
        f_plus = float(f(params))
        flat_params[i] = original - epsilon
        f_minus = float(f(params))
        flat_params[i] = original
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(
                f"non-finite value from f at perturbed coordinate {i}"
            )
        numeric = (f_plus - f_minus) / (2.0 * epsilon)
        analytic = float(flat_grad[i])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERR_FLOOR)
        if rel > report.max_relative_error:
            report = GradCheckReport(rel, i, analytic, numeric)
    return report


def _set_malloc_thresholds(open_libc: Callable = lambda: ctypes.CDLL(None)) -> None:
    """Fix glibc's mmap threshold at 32 MiB, the ceiling of its dynamic one, and
    its trim threshold at twice that (mallopt(3)); elsewhere, or if refused, nothing."""
    try:
        mallopt = getattr(open_libc(), "mallopt", None)
    except (OSError, TypeError):  # Windows has no process-wide symbol table
        return
    if mallopt is not None and mallopt(-3, 32 * 2**20):  # M_MMAP_THRESHOLD
        mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD


# The one worker, whose thread starts on first use, runs a call's second
# piece; numpy releases the GIL, so the pieces run on two cores.  One worker,
# not a pool: each extra thread gets its own malloc arena.
def _reset_worker() -> None:
    """Make an unstarted worker; a forked child inherits none of its thread."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hsicaps-half")


_reset_worker()
os.register_at_fork(after_in_child=_reset_worker)
_set_malloc_thresholds()


def run_pieces(body: Callable, piece_args: list[tuple]) -> list:
    """``body(*args)`` for each piece's arguments: the first on this thread,
    a second on the worker under this thread's context, so ``np.errstate``
    holds there too.  The worker's piece has ended when this returns or
    raises; an exception in the first piece wins over one in the second."""
    rest = [_WORKER.submit(copy_context().run, body, *args) for args in piece_args[1:]]
    try:
        first = body(*piece_args[0])
    finally:
        wait(rest)
    return [first] + [future.result() for future in rest]


# Bytes of float64 rows per chunk, to stay in L2.  Load, fit and apply at
# 145 x 145 x 200, medians of 20 interleaved in one process (ms): 256 KiB 152,
# 512 KiB 149, 1 MiB 144, 2 MiB 148, 4 MiB 148 (two vCPUs, one BLAS thread).
# The fit adds each chunk's sums in row order as they arrive: its traced
# allocations peaked at 3.5-5.1 MiB, against 11.5-11.8 MiB with every chunk's
# 320 KiB Gram matrix kept to the end, at the same speed.
_CHUNK_BYTES = 2**20


def row_chunks(body: Callable, *arrays: np.ndarray):
    """The sum of ``body(*rows)`` over chunks of rows, ``rows`` being the same rows
    of each 2-D array, cut by the first's shape.  One chunk runs directly; over two,
    this thread and the worker take chunks from one iterator: a busy core holds up
    one.  Results are added in row order as they arrive, so only those that finished
    ahead of an earlier chunk wait, and ``None`` results sum to ``None``."""
    rows, step = len(arrays[0]), max(2, _CHUNK_BYTES // (8 * arrays[0].shape[1]))
    # numpy multiplies one row as a matrix-vector product, which rounds
    # differently, so a last chunk of one row joins the chunk before it
    cuts = [*range(0, max(1, rows - 1), step), rows]
    if len(cuts) == 2:
        return body(*arrays)
    pending = iter(enumerate(zip(cuts, cuts[1:])))  # next() is atomic under the GIL
    held, lock, total, added = {}, threading.Lock(), None, 0

    def drain() -> None:
        nonlocal total, added
        for i, (start, stop) in pending:
            result = body(*(array[start:stop] for array in arrays))
            with lock:
                held[i] = result
                while added in held:
                    result = held.pop(added)
                    total = result if total is None else total + result
                    added += 1

    run_pieces(drain, [()] * (1 + (len(cuts) > 3)))
    return total

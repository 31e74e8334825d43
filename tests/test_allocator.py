"""The malloc thresholds ``hsicaps.numerics`` fixes when it is imported.

glibc returns a freed block above its mmap threshold to the kernel, and
trims the heap's top above its trim threshold, so without fixed thresholds
every training step faulted its temporaries back in.  The step test runs in
a fresh interpreter on one BLAS thread; the stand-in tests check that a C
library without a usable ``mallopt`` leaves the import harmless.
"""

import ctypes
import platform
import statistics
import types

import pytest

from hsicaps.numerics import _set_malloc_thresholds

from conftest import run_fresh

STEP_SCRIPT = """
import resource
import numpy as np
from hsicaps.layers import Architecture, backward_batch, forward_batch, init_params
from hsicaps.metrics import margin_loss_batch
from hsicaps.training import AdamState, TrainConfig, adam_step

arch = Architecture(channels=103, num_classes=9)
params = init_params(arch, 3)
rng = np.random.default_rng(4)
patches = rng.normal(size=(64, arch.patch_size, arch.patch_size, arch.channels))
labels = rng.integers(1, arch.num_classes + 1, size=64)
config = TrainConfig()
state = AdamState.for_params(params)


def step():
    acts, cache = forward_batch(params, patches, config.routing_iters, keep_cache=True)
    _, grad = margin_loss_batch(acts, labels, config)
    adam_step(params, backward_batch(params, cache, grad), state, config)


for _ in range(5):
    step()
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def glibc_mallopt_missing():
    """Why this process has no glibc ``mallopt``, or ``None`` if it has one."""
    try:
        found = hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):  # Windows has no process-wide symbol table
        found = False
    if found and platform.libc_ver()[0] == "glibc":
        return None
    return f"no glibc mallopt on {platform.platform()} (C library: {platform.libc_ver()})"


def test_steady_state_training_step_does_not_fault():
    missing = glibc_mallopt_missing()
    if missing:
        pytest.skip(missing)
    faults = [int(line) for line in run_fresh(STEP_SCRIPT)]
    assert len(faults) == 10
    # at glibc's default thresholds these steps took 2,900-6,200 minor faults each
    assert statistics.median(faults) < 100, faults


class StandInLibc:
    """A C library whose ``mallopt`` records each call and answers ``answer``:
    0 refuses, as musl's stub does."""

    def __init__(self, answer):
        self.answer, self.calls = answer, []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.answer


def no_symbol_table():
    raise TypeError("LoadLibrary() argument 1 must be str, not None")


@pytest.mark.parametrize("open_libc", [no_symbol_table, types.SimpleNamespace])
def test_no_mallopt_does_nothing(open_libc):
    _set_malloc_thresholds(open_libc)


@pytest.mark.parametrize(
    "answer, calls",
    [(0, [(-3, 32 * 2**20)]), (1, [(-3, 32 * 2**20), (-1, 64 * 2**20)])],
)
def test_trim_threshold_follows_an_accepted_mmap_threshold(answer, calls):
    libc = StandInLibc(answer)
    _set_malloc_thresholds(lambda: libc)
    assert libc.calls == calls

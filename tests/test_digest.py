"""A recorded digest of the engine's numbers.

One SHA-256 over the activations and the seven gradients (in sorted name
order) of ``forward_batch`` and ``backward_batch`` at (channels, classes,
batch) = (200, 16, 64), (103, 9, 64) and (200, 16, 37): init seed 3, patches
from ``default_rng(4)``, routing depth 3, an upstream of ones.  It runs in a
fresh interpreter with BLAS on one thread.  The bits depend on the BLAS build
and on the kernel set OpenBLAS picks for the CPU, so there is one digest per
kernel set, and the test skips unless the build and the kernel set match a
record.  On a SkylakeX host a second run forces the Haswell kernels, in its
own environment only, and checks that record too.  A change that alters the
engine's arithmetic on purpose records the new digests here.
"""

import pytest

from conftest import run_fresh

# the build's configuration string, which names the kernel set it runs
RECORDED_BUILD = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY {} MAX_THREADS=64"
RECORDED_DIGESTS = {
    "SkylakeX": "4824074583ed06c95153d56768ed0b9a36aba3c80c23929c9b69a006b67db18e",
    # Taken on a SkylakeX host with OPENBLAS_CORETYPE=Haswell (Zen reports
    # Haswell too), as the forced test runs it; not yet checked on real AVX2
    # or Zen hardware.
    "Haswell": "d00a7b7896bc1c17d006273fcb92a35ca8c5ca932bdb7c4eb4931a40199bd57a",
}

DIGEST_SCRIPT = """
import ctypes, glob, hashlib, os
import numpy as np
from hsicaps.layers import Architecture, backward_batch, forward_batch, init_params

libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_config64_"):
        getter = getattr(lib, name)
        getter.argtypes, getter.restype = [], ctypes.c_char_p
        print(getter().decode())
digest = hashlib.sha256()
for channels, classes, batch in ((200, 16, 64), (103, 9, 64), (200, 16, 37)):
    arch = Architecture(channels=channels, num_classes=classes)
    params = init_params(arch, 3)
    shape = (batch, arch.patch_size, arch.patch_size, channels)
    patches = np.random.default_rng(4).normal(size=shape)
    acts, cache = forward_batch(params, patches, 3, keep_cache=True)
    grads = backward_batch(params, cache, np.ones_like(acts))
    digest.update(acts.tobytes())
    for name in sorted(grads):
        digest.update(grads[name].tobytes())
print(digest.hexdigest())
"""


def engine_digest(**environ):
    """(BLAS core and configuration lines, digest) of the script run in a
    fresh interpreter on one BLAS thread, with ``environ`` added to its
    environment only."""
    *blas, digest = run_fresh(DIGEST_SCRIPT, **environ)
    return blas, digest


def record(core):
    return [core, RECORDED_BUILD.format(core)]


@pytest.fixture(scope="module")
def unforced():
    return engine_digest()


def test_engine_digest_matches_the_record(unforced):
    blas, digest = unforced
    recorded = [record(core) for core in RECORDED_DIGESTS]
    if blas not in recorded:
        # the digest in the message is what a new record for this kernel set takes
        pytest.skip(f"digests recorded under BLAS {recorded}, this one is {blas}, digest {digest}")
    assert digest == RECORDED_DIGESTS[blas[0]]


def test_forced_haswell_digest_matches_the_record(unforced):
    # a SkylakeX host runs the Haswell kernels too when told to, so there
    # both records are checked and a re-record cannot miss one of them
    blas, _ = unforced
    if blas != record("SkylakeX"):
        pytest.skip(f"the Haswell record is checked on SkylakeX hosts, this one is {blas}")
    blas, digest = engine_digest(OPENBLAS_CORETYPE="Haswell")
    assert blas == record("Haswell")
    assert digest == RECORDED_DIGESTS["Haswell"]

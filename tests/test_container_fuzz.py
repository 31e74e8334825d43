"""Byte-level fuzzing of the two binary containers.

A truncated or byte-mutated ``.hsic`` or ``.cckp`` file either loads or
fails with its container's format error, which the CLI maps to exit 1;
no other exception and no numpy warning may escape the loader.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicaps.cli import RunConfig, serialize_config
from hsicaps.data import CubeFormatError, HsiCube, load_cube, save_cube
from hsicaps.layers import (
    MINIATURE_ARCHITECTURE,
    CheckpointFormatError,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

# header bytes before the variable-length parts: magic, version and
# dimensions of a cube; magic, version, the architecture block and the
# settings length of a checkpoint
CUBE_HEADER = 18
CHECKPOINT_HEADER = 61


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """One valid small file of each kind, the checkpoint with the settings
    text a training run stores, and a path for their damaged copies."""
    base = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    cube = HsiCube(rng.normal(size=(3, 4, 5)), rng.integers(0, 3, (3, 4)))
    save_cube(cube, str(base / "valid.hsic"))
    settings = serialize_config(RunConfig(seed=3), omit=("cube", "output_dir"))
    save_checkpoint(
        str(base / "valid.cckp"), init_params(MINIATURE_ARCHITECTURE, 0), 7, 3, settings
    )
    return {
        kind: ((base / f"valid.{kind}").read_bytes(), base / f"damaged.{kind}")
        for kind in ("hsic", "cckp")
    }


@st.composite
def damaged(draw, blob: bytes, header: int) -> bytes:
    """``blob``, whole in about half the draws and otherwise cut short, then
    with a few bytes overwritten, half of them in the header.  Whole files
    reach the checks that run after the size check."""
    length = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    data = bytearray(blob[:length])
    for _ in range(draw(st.integers(0, 4)) if data else 0):
        position = draw(
            st.one_of(
                st.integers(0, min(header, len(data)) - 1),
                st.integers(0, len(data) - 1),
            )
        )
        data[position] = draw(st.integers(0, 255))
    return bytes(data)


def load_or_format_error(load, path, blob, error) -> None:
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load(str(path))
        except error:
            pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_cube_raises_only_cube_format_error(containers, data):
    blob, path = containers["hsic"]
    damage = data.draw(damaged(blob, CUBE_HEADER))
    load_or_format_error(load_cube, path, damage, CubeFormatError)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_raises_only_checkpoint_format_error(containers, data):
    blob, path = containers["cckp"]
    damage = data.draw(damaged(blob, CHECKPOINT_HEADER))
    load_or_format_error(load_checkpoint, path, damage, CheckpointFormatError)

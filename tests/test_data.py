"""Cube container, file format, whitening, patches, and splits."""

import functools
import multiprocessing
import operator
import struct
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hsicaps.numerics
from hsicaps.data import (
    CubeFormatError,
    HsiCube,
    apply_whitening,
    extract_patches,
    fit_whitening,
    invert_whitening,
    load_cube,
    make_synthetic_cube,
    reflect_index,
    save_cube,
    stratified_split,
)

from conftest import (
    NON_FINITE_FLOAT32,
    UNSTORABLE_FLOAT64,
    nearest_centroid_accuracy,
    shrink_row_chunks,
)


def random_cube(seed=0, height=6, width=5, channels=4, num_classes=3):
    rng = np.random.default_rng(seed)
    # draw values already representable in float32 so file round trips are exact
    values = rng.normal(size=(height, width, channels)).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, num_classes + 1, (height, width)).astype(np.int32)
    return HsiCube(values, labels)


class TestHsiCube:
    def test_validation(self):
        with pytest.raises(ValueError):
            HsiCube(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            HsiCube(np.zeros((3, 3, 2)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            HsiCube(np.zeros((3, 3, 2)), np.full((3, 3), -1))
        with pytest.raises(ValueError, match="dimensions must be >= 1"):
            HsiCube(np.zeros((3, 0, 2)), np.zeros((3, 0)))

    def test_histogram_and_coords(self):
        labels = np.array([[0, 1], [2, 1]])
        cube = HsiCube(np.zeros((2, 2, 3)), labels)
        assert cube.class_histogram() == {0: 1, 1: 2, 2: 1}
        assert cube.num_classes() == 2
        np.testing.assert_array_equal(cube.labeled_coords(1), [[0, 1], [1, 1]])

    def test_labels_cannot_change_after_the_check(self):
        # a write past the u16 range would otherwise be saved wrapped
        labels = np.array([[0, 1]], dtype=np.int32)
        cube = HsiCube(np.zeros((1, 2, 3)), labels)
        with pytest.raises(ValueError, match="read-only"):
            cube.labels[0, 1] = 70000
        labels[0, 1] = 2  # the caller's array stays the caller's
        assert cube.labels.tolist() == [[0, 1]]


class TestCubeFile:
    def test_round_trip(self, tmp_path):
        cube = random_cube()
        path = tmp_path / "c.hsic"
        save_cube(cube, str(path))
        loaded = load_cube(str(path))
        np.testing.assert_array_equal(loaded.values, cube.values)
        np.testing.assert_array_equal(loaded.labels, cube.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        cube = HsiCube(random_cube().values, np.zeros((6, 5), dtype=np.int32))
        path = tmp_path / "c.hsic"
        save_cube(cube, str(path))
        loaded = load_cube(str(path))
        assert loaded.num_classes() == 0
        np.testing.assert_array_equal(loaded.labels, 0)
        # the label block is omitted entirely
        assert path.stat().st_size == 18 + 6 * 5 * 4 * 4

    def test_exact_byte_layout(self, tmp_path):
        values = np.arange(4, dtype=np.float64).reshape(1, 2, 2)
        labels = np.array([[3, 7]], dtype=np.int32)
        path = tmp_path / "c.hsic"
        save_cube(HsiCube(values, labels), str(path))
        expected = (
            b"HSIC"
            + struct.pack("<BIIIB", 1, 1, 2, 2, 1)
            + np.array([0, 1, 2, 3], dtype="<f4").tobytes()
            + np.array([3, 7], dtype="<u2").tobytes()
        )
        assert path.read_bytes() == expected

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.hsic"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(CubeFormatError) as err:
            load_cube(str(path))
        assert err.value.offset == 0
        assert "magic" in str(err.value)

    def test_truncated_header_reports_offset(self, tmp_path):
        path = tmp_path / "short.hsic"
        path.write_bytes(b"HSIC\x01\x00")
        with pytest.raises(CubeFormatError, match="truncated header: 6 bytes, need 18") as err:
            load_cube(str(path))
        assert err.value.offset == 6

    def test_truncated_payload_reports_offset(self, tmp_path):
        cube = random_cube()
        path = tmp_path / "c.hsic"
        save_cube(cube, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CubeFormatError) as err:
            load_cube(str(path))
        assert "truncated" in str(err.value)
        assert err.value.offset == len(blob) - 10

    def test_trailing_bytes_rejected(self, tmp_path):
        cube = random_cube()
        path = tmp_path / "c.hsic"
        save_cube(cube, str(path))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CubeFormatError) as err:
            load_cube(str(path))
        assert "mismatch" in str(err.value)

    @pytest.mark.parametrize("bits", NON_FINITE_FLOAT32.values(), ids=NON_FINITE_FLOAT32)
    def test_non_finite_value_rejected(self, tmp_path, bits):
        path = tmp_path / "c.hsic"
        save_cube(random_cube(), str(path))
        blob = bytearray(path.read_bytes())
        offset = 18 + 4 * 7
        blob[offset : offset + 4] = struct.pack("<I", bits)
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CubeFormatError, match="non-finite") as err:
                load_cube(str(path))
        assert err.value.offset == offset

    @pytest.mark.parametrize("value", UNSTORABLE_FLOAT64.values(), ids=UNSTORABLE_FLOAT64)
    def test_unstorable_value_not_written(self, tmp_path, value):
        cube = random_cube()
        cube.values[2, 1, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cube values: .* at value index 47 "):
                save_cube(cube, str(tmp_path / "c.hsic"))
        assert not list(tmp_path.iterdir())

    def test_label_id_beyond_uint16_not_written(self):
        # refused when the cube is built, so no writer ever sees it
        labels = np.array([[0, 2**16]], dtype=np.int32)
        with pytest.raises(ValueError, match=r"labels must be whole numbers in \[0, 65535\]"):
            HsiCube(np.zeros((1, 2, 1)), labels)

    def test_bad_version_and_dimensions(self, tmp_path):
        path = tmp_path / "c.hsic"
        path.write_bytes(b"HSIC" + struct.pack("<BIIIB", 9, 1, 1, 1, 0) + bytes(4))
        with pytest.raises(CubeFormatError) as err:
            load_cube(str(path))
        assert err.value.offset == 4
        path.write_bytes(b"HSIC" + struct.pack("<BIIIB", 1, 0, 1, 1, 0))
        with pytest.raises(CubeFormatError):
            load_cube(str(path))


class TestWhitening:
    def correlated_cube(self, seed=0, height=40, width=50, channels=12):
        rng = np.random.default_rng(seed)
        mixing = rng.normal(size=(channels, channels))
        latent = rng.normal(size=(height * width, channels))
        values = (latent @ mixing.T + rng.normal(size=channels)).reshape(
            height, width, channels
        )
        return HsiCube(values, np.zeros((height, width), dtype=np.int32))

    def test_output_population_is_white(self):
        cube = self.correlated_cube()
        transform = fit_whitening(cube, epsilon=1e-12)
        out = apply_whitening(cube, transform)
        pixels = out.values.reshape(-1, cube.channels)
        assert np.abs(pixels.mean(axis=0)).max() < 1e-9
        cov = pixels.T @ pixels / pixels.shape[0]
        assert np.abs(cov - np.eye(cube.channels)).max() < 1e-6

    def test_components_ordered_by_decreasing_variance(self):
        cube = self.correlated_cube(seed=4)
        transform = fit_whitening(cube, epsilon=1e-12)
        # inv_sqrt_eigs grows as the eigenvalues shrink
        assert (np.diff(transform.inv_sqrt_eigs) >= 0).all()

    def test_inverse_recovers_pixels(self):
        cube = self.correlated_cube(seed=2)
        transform = fit_whitening(cube)
        restored = invert_whitening(apply_whitening(cube, transform), transform)
        np.testing.assert_allclose(restored.values, cube.values, atol=1e-6)

    def test_constant_channel_stays_finite(self):
        cube = self.correlated_cube(seed=1)
        cube.values[:, :, 3] = 42.0
        transform = fit_whitening(cube, epsilon=1e-5)
        out = apply_whitening(cube, transform)
        assert np.isfinite(out.values).all()

    def test_validation(self):
        small = HsiCube(np.zeros((2, 2, 8)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            fit_whitening(small)  # 4 pixels < 9
        cube = self.correlated_cube()
        with pytest.raises(ValueError):
            fit_whitening(cube, epsilon=0.0)
        transform = fit_whitening(cube)
        other = HsiCube(np.zeros((3, 3, 5)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="fitted for 12 channels, cube has 5"):
            apply_whitening(other, transform)
        with pytest.raises(ValueError, match="fitted for 12 channels, cube has 5"):
            invert_whitening(other, transform)

    def test_non_finite_covariance_raises(self):
        cube = self.correlated_cube()
        cube.values[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            fit_whitening(cube)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match=f"got {epsilon}"):
            fit_whitening(self.correlated_cube(), epsilon=epsilon)


def record_pieces(monkeypatch, worker_first=False):
    """Record how many threads each row-chunk call runs on.  With
    ``worker_first``, the calling thread of a two-thread call starts taking
    chunks only after the worker has stopped, so the worker takes them all."""
    run_pieces = hsicaps.numerics.run_pieces
    calls = []

    def recording(body, piece_args):
        calls.append(len(piece_args))
        if not worker_first or len(piece_args) == 1:
            return run_pieces(body, piece_args)
        drained = threading.Event()

        def ordered(*args):
            if threading.current_thread().name.startswith("hsicaps-half"):
                try:
                    return body(*args)
                finally:
                    drained.set()
            assert drained.wait(timeout=30)
            return body(*args)

        return run_pieces(ordered, piece_args)

    monkeypatch.setattr(hsicaps.numerics, "run_pieces", recording)
    return calls


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def in_row_order(parts):
    """The parts added left to right, as the row-chunk sums are."""
    return functools.reduce(operator.add, parts)


def _whiten(cube):
    apply_whitening(cube, fit_whitening(cube))


class TestRowChunks:
    """load_cube, fit_whitening and apply_whitening run in chunks of pixel
    rows, on the calling thread and the worker once there are over two; here
    a chunk holds 7 rows of a 5-pixel-wide cube."""

    # 10 and 15 pixels run as two chunks on the caller alone, 20, 50 and 95
    # as 3, 7 and 14 on two threads; a last row of its own (15 and 50 pixels)
    # joins the chunk before it, as one row would round differently
    @pytest.mark.parametrize("height, threads", [(2, 1), (3, 1), (4, 2), (10, 2), (19, 2)])
    def test_chunks_match_the_single_call_formulas(self, tmp_path, monkeypatch, height, threads):
        path = tmp_path / "c.hsic"
        save_cube(random_cube(height, height=height, width=5, channels=6), str(path))
        stored = np.frombuffer(path.read_bytes(), "<f4", count=height * 5 * 6, offset=18)
        pixels = stored.astype(np.float64).reshape(-1, 6)
        # the documented formulas: per-chunk sums and centered Grams, added in
        # row order over the 7-row chunks
        cuts = [*range(0, max(1, len(pixels) - 1), 7), len(pixels)]
        chunks = [pixels[a:b] for a, b in zip(cuts, cuts[1:])]
        mean = in_row_order(chunk.sum(axis=0) for chunk in chunks) / len(pixels)
        centered = [chunk - mean for chunk in chunks]
        cov = in_row_order(c.T @ c for c in centered) / len(pixels)
        eigvals, basis = np.linalg.eigh(cov)
        basis = basis[:, ::-1]
        inv_sqrt_eigs = 1.0 / np.sqrt(np.clip(eigvals[::-1], 0.0, None) + 1e-5)
        expected = (pixels - mean) @ (basis * inv_sqrt_eigs)

        # the worker taking every chunk first changes no byte
        for worker_first in (False, True):
            with monkeypatch.context() as patch:
                calls = record_pieces(patch, worker_first)
                shrink_row_chunks(7, 6, patch)
                loaded = load_cube(str(path))
                transform = fit_whitening(loaded, 1e-5)
                whitened = apply_whitening(loaded, transform)
            # load, the sums, the Grams and apply
            assert calls == [threads] * 4
            assert same_bytes(loaded.values.reshape(-1, 6), pixels)
            assert same_bytes(transform.mean, mean)
            assert same_bytes(transform.basis, basis)
            assert same_bytes(transform.inv_sqrt_eigs, inv_sqrt_eigs)
            assert same_bytes(whitened.values.reshape(-1, 6), expected)

    def test_fit_allocates_no_copy_of_the_cube(self):
        # 6.4 MB of float64 in 7 chunks of 1 MiB: each thread holds one
        # centered chunk at a time
        cube = random_cube(height=400, width=100, channels=20)
        tracemalloc.start()
        try:
            fit_whitening(cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cube.values.nbytes / 2

    @pytest.mark.parametrize("kind", ["quiet_nan", "signalling_nan"])
    def test_nan_in_a_worker_chunk(self, tmp_path, monkeypatch, kind):
        cube = random_cube(height=19, width=5, channels=6)
        path = tmp_path / "c.hsic"
        save_cube(cube, str(path))
        index = 6 * 50 + 2  # pixel 50, in the eighth chunk
        blob = bytearray(path.read_bytes())
        blob[18 + 4 * index : 22 + 4 * index] = struct.pack("<I", NON_FINITE_FLOAT32[kind])
        path.write_bytes(bytes(blob))
        # the float64 NaN of the same kind
        cube.values.view(np.uint64).reshape(-1)[index] = {
            "quiet_nan": 0x7FF8000000000000,
            "signalling_nan": 0x7FF0000000000001,
        }[kind]
        calls = record_pieces(monkeypatch, worker_first=True)
        shrink_row_chunks(7, 6, monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CubeFormatError, match="non-finite") as err:
                load_cube(str(path))
            with pytest.raises(ValueError, match="non-finite values in cube"):
                fit_whitening(cube)
        assert err.value.offset == 18 + 4 * index
        assert calls[0] == 2

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_chunk_error_arrives_after_the_worker_chunk_ends(self, monkeypatch, failing):
        started, ended = threading.Event(), []

        def body(chunk):
            if threading.current_thread().name.startswith("hsicaps-half"):
                started.set()
                time.sleep(0.1)
                ended.append(len(chunk))
                if failing == "worker":
                    raise FloatingPointError("worker chunk")
            else:
                assert started.wait(timeout=30)
                if failing == "caller":
                    raise FloatingPointError("caller chunk")

        shrink_row_chunks(7, 4, monkeypatch)
        with pytest.raises(FloatingPointError, match=f"{failing} chunk"):
            hsicaps.numerics.row_chunks(body, np.zeros((30, 4)))
        # the caller's error waits for the worker to take every other chunk;
        # the worker's ends its drain and the caller takes the rest
        assert ended == ([7, 7, 7, 2] if failing == "caller" else [7])

    def test_concurrent_calls_take_every_chunk_once(self, monkeypatch):
        # four callers share the one worker; a chunk taken twice or skipped
        # would show in the results or leave rows unwritten
        shrink_row_chunks(2, 3, monkeypatch)
        source = np.arange(3000.0).reshape(1000, 3)
        outputs, taken = {}, {k: [] for k in range(1, 5)}

        def call(k):
            out = np.empty_like(source)

            def body(chunk, out_rows):
                np.multiply(chunk, k, out=out_rows)
                start = int(chunk[0, 0]) // 3
                taken[k].append(start)
                return [start]  # lists add up to the starts in row order

            outputs[k] = out, hsicaps.numerics.row_chunks(body, source, out)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(1, 5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(1, 5):
            out, starts = outputs[k]
            assert starts == sorted(taken[k]) == list(range(0, 1000, 2))
            assert np.array_equal(out, source * k)

    def test_forked_child_whitens(self, monkeypatch):
        shrink_row_chunks(7, 4, monkeypatch)
        cube = random_cube(height=19, width=5)
        _whiten(cube)  # the parent's worker thread is running
        child = multiprocessing.get_context("fork").Process(target=_whiten, args=(cube,))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0


def bounce_oracle(index: int, size: int) -> int:
    """Mirror an index into range by simulating the bounces one at a time."""
    if size == 1:
        return 0
    while not 0 <= index < size:
        if index < 0:
            index = -index
        else:
            index = 2 * (size - 1) - index
    return index


class TestReflectIndex:
    def test_known_values(self):
        np.testing.assert_array_equal(
            reflect_index(np.array([-2, -1, 0, 4, 5, 6]), 5), [2, 1, 0, 4, 3, 2]
        )

    @given(st.integers(-30, 30), st.integers(1, 8))
    def test_matches_bounce_oracle(self, index, size):
        assert int(reflect_index(index, size)) == bounce_oracle(index, size)

    @pytest.mark.parametrize(
        "size, message",
        [(0, "size must be >= 1, got 0"), (2.5, "size must be an integer, got 2.5")],
    )
    def test_malformed_size_rejected(self, size, message):
        with pytest.raises(ValueError, match=message):
            reflect_index(np.array([0, 1]), size)


class TestPatches:
    def test_interior_patch_is_a_slice(self):
        cube = random_cube(height=9, width=9)
        patches = extract_patches(cube, np.array([[4, 4]]), 5)
        assert patches.shape == (1, 5, 5, cube.channels)
        np.testing.assert_array_equal(patches[0], cube.values[2:7, 2:7])

    def test_corner_patch_mirrors(self):
        cube = random_cube(height=6, width=7)
        patches = extract_patches(cube, np.array([[0, 0]]), 3)
        rows = [1, 0, 1]
        cols = [1, 0, 1]
        want = cube.values[np.ix_(rows, cols)]
        np.testing.assert_array_equal(patches[0], want)

    def test_batch_matches_single(self):
        """Each row of a batch is the single window cut from the cube that
        numpy's reflect padding extends by two pixels on each side."""
        cube = random_cube(height=8, width=11)
        rng = np.random.default_rng(5)
        coords = np.stack(
            [rng.integers(0, 8, 20), rng.integers(0, 11, 20)], axis=1
        )
        batch = extract_patches(cube, coords, 5)
        padded = np.pad(cube.values, ((2, 2), (2, 2), (0, 0)), mode="reflect")
        for idx, (row, col) in enumerate(coords):
            np.testing.assert_array_equal(batch[idx], padded[row : row + 5, col : col + 5])

    def test_validation(self):
        cube = random_cube()
        with pytest.raises(ValueError, match="odd"):
            extract_patches(cube, np.array([[0, 0]]), 4)
        with pytest.raises(ValueError, match="outside"):
            extract_patches(cube, np.array([[99, 0]]), 3)
        with pytest.raises(ValueError, match="outside"):
            extract_patches(cube, np.array([[0, 99]]), 3)
        with pytest.raises(ValueError, match="coords"):
            extract_patches(cube, np.array([0, 0]), 3)
        with pytest.raises(ValueError, match="patch size must be an integer, got 3.0"):
            extract_patches(cube, np.array([[0, 0]]), 3.0)
        with pytest.raises(ValueError, match="patch size must be >= 1, got -1"):
            extract_patches(cube, np.array([[0, 0]]), -1)


class TestStratifiedSplit:
    def labeled_cube(self, counts: dict[int, int], width=50):
        total = sum(counts.values())
        height = -(-total // width)
        flat = np.zeros(height * width, dtype=np.int32)
        pos = 0
        for cid, count in counts.items():
            flat[pos : pos + count] = cid
            pos += count
        labels = flat.reshape(height, width)
        return HsiCube(np.zeros((height, width, 1)), labels)

    def test_floor_rule_small_cases(self):
        cube = self.labeled_cube({1: 10, 2: 1, 3: 46})
        split = stratified_split(cube, (0.2, 0.1), seed=0)
        assert split.counts() == {1: (2, 1, 7), 2: (0, 0, 1), 3: (9, 4, 33)}

    def test_partition_is_exact(self):
        cube = self.labeled_cube({1: 37, 2: 12})
        split = stratified_split(cube, (0.2, 0.1), seed=3)
        parts = [split.subset(name) for name in ("train", "val", "test")]
        for cid in (1, 2):
            mine = [coords[labels == cid] for coords, labels in parts]
            combined = set(map(tuple, np.concatenate(mine).tolist()))
            want = set(map(tuple, cube.labeled_coords(cid).tolist()))
            assert combined == want
            assert sum(map(len, mine)) == len(want)

    def test_same_seed_reproduces(self):
        cube = self.labeled_cube({1: 30, 2: 25})
        a = stratified_split(cube, (0.2, 0.1), seed=7)
        b = stratified_split(cube, (0.2, 0.1), seed=7)
        for name in ("train", "val"):
            for got, want in zip(a.subset(name), b.subset(name)):
                np.testing.assert_array_equal(got, want)

    def test_seed_changes_membership_not_counts(self):
        cube = self.labeled_cube({1: 40, 2: 33})
        a = stratified_split(cube, (0.2, 0.1), seed=0)
        b = stratified_split(cube, (0.2, 0.1), seed=1)
        assert a.counts() == b.counts()
        (a_coords, a_labels), (b_coords, b_labels) = a.subset("train"), b.subset("train")
        different = any(
            not np.array_equal(a_coords[a_labels == cid], b_coords[b_labels == cid])
            for cid in (1, 2)
        )
        assert different

    def test_empty_class_skipped_with_record(self):
        labels = np.zeros((4, 10), dtype=np.int32)
        labels[0, :] = 1
        labels[1, :] = 3  # class 2 missing
        cube = HsiCube(np.zeros((4, 10, 1)), labels)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            split = stratified_split(cube, (0.2, 0.1), seed=0)
        assert [str(w.message) for w in caught] == ["class 2 has no labeled pixels; skipped"]
        assert sorted(split.counts()) == [1, 3]

    def test_unlabeled_cube_gives_empty_subsets(self):
        cube = HsiCube(np.zeros((3, 4, 1)), np.zeros((3, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = stratified_split(cube, (0.2, 0.1), seed=0)
        assert split.counts() == {}
        for name in ("train", "val", "test"):
            coords, labels = split.subset(name)
            assert coords.shape == (0, 2) and labels.shape == (0,)

    def test_fraction_validation(self):
        cube = self.labeled_cube({1: 10})
        with pytest.raises(ValueError):
            stratified_split(cube, (0.0, 0.1), seed=0)
        with pytest.raises(ValueError):
            stratified_split(cube, (0.7, 0.3), seed=0)

    @pytest.mark.parametrize("fractions", [(np.nan, 0.1), (0.2, np.nan)], ids=["train", "val"])
    def test_nan_fraction_rejected(self, fractions):
        with pytest.raises(ValueError, match=r"fractions must lie in \(0, 1\), got nan"):
            stratified_split(self.labeled_cube({1: 10}), fractions, seed=0)

    def test_seed_outside_64_bits_rejected(self):
        cube = self.labeled_cube({1: 10})
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
                stratified_split(cube, (0.2, 0.1), seed)

    @pytest.mark.parametrize("seed", [0.5, True], ids=repr)
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            stratified_split(self.labeled_cube({1: 10}), (0.2, 0.1), seed)

    def test_numpy_integer_seed_matches_int(self):
        cube = self.labeled_cube({1: 10, 2: 12})
        split = stratified_split(cube, (0.2, 0.1), np.uint64(7))
        for part in ("train", "val", "test"):
            for got, want in zip(
                split.subset(part), stratified_split(cube, (0.2, 0.1), 7).subset(part)
            ):
                np.testing.assert_array_equal(got, want)

    def test_subset_concatenation_is_class_ordered(self):
        cube = self.labeled_cube({1: 10, 2: 10})
        split = stratified_split(cube, (0.2, 0.1), seed=0)
        coords, labels = split.subset("train")
        assert labels.tolist() == sorted(labels.tolist())
        assert len(coords) == len(labels) == 4
        assert not coords.flags.writeable and not labels.flags.writeable


class TestSyntheticCube:
    def test_shapes_and_labels(self):
        cube = make_synthetic_cube(20, 30, 16, 4, seed=0)
        assert cube.values.shape == (20, 30, 16)
        assert cube.num_classes() == 4
        assert (cube.labels >= 1).all()  # fully labeled

    def test_separable_by_nearest_centroid(self):
        cube = make_synthetic_cube(64, 64, 32, 3, noise_sigma=0.25, seed=0)
        split = stratified_split(cube, (0.2, 0.1), seed=0)
        assert nearest_centroid_accuracy(cube, split) >= 0.99

    def test_validation(self):
        with pytest.raises(ValueError, match="num_classes must be >= 2, got 1"):
            make_synthetic_cube(8, 8, 8, 1)
        with pytest.raises(ValueError, match="num_classes must be an integer"):
            make_synthetic_cube(8, 8, 8, 3.0)

"""Property tests for canonical content digests and the rolling run fold.

The digest is the integrity layer's ground truth: it must be a pure
function of payload *content* — independent of ``PYTHONHASHSEED``, dict
insertion order, pickling (the processes backend round-trips every
message), and array memory layout — while remaining sensitive to any
actual value, dtype, or shape change.
"""

import hashlib
import os
import pathlib
import pickle
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.comm import serialization
from repro.comm.serialization import CONTENT_DIGEST_BYTES, content_digest
from repro.integrity import fold_commit, run_digest_hex

scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.text(max_size=20),
    st.binary(max_size=20),
)
arrays = st.integers(1, 30).flatmap(
    lambda n: st.integers(0, 2**31).map(
        lambda seed: np.random.default_rng(seed).normal(size=n)
    )
)
payloads = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=10,
)


class TestCanonicality:
    def test_stable_across_hash_seeds(self):
        """The same payload digests identically under different
        PYTHONHASHSEED values — i.e. nothing leaks Python ``hash()``."""
        code = (
            "import numpy as np\n"
            "from repro.comm.serialization import content_digest\n"
            "p = {'south': np.arange(12.0), 'east': np.ones((3, 4)),\n"
            "     'meta': {'k': [1, 2.5, 'x', b'y', None, True],\n"
            "              'tags': {'a', 'b', 'c'}}}\n"
            "print(content_digest(p))\n"
        )
        import repro

        src = str(pathlib.Path(repro.__file__).parents[1])
        digests = set()
        for hashseed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert len(digests.pop()) == 2 * CONTENT_DIGEST_BYTES

    @given(p=payloads)
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip_preserves_digest(self, p):
        assert content_digest(pickle.loads(pickle.dumps(p))) == content_digest(p)

    @given(
        items=st.dictionaries(st.text(max_size=6), scalars, min_size=2, max_size=6),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_dict_insertion_order_irrelevant(self, items, seed):
        keys = list(items)
        np.random.default_rng(seed).shuffle(keys)
        reordered = {k: items[k] for k in keys}
        assert content_digest(reordered) == content_digest(items)

    def test_set_order_irrelevant(self):
        assert content_digest({"a", "b", "c"}) == content_digest({"c", "a", "b"})

    def test_array_layout_irrelevant_content_decisive(self):
        a = np.arange(12.0).reshape(3, 4)
        strided = np.asfortranarray(a)  # same values, different memory order
        assert content_digest(strided) == content_digest(a)
        assert content_digest(a.T) != content_digest(a)  # shape differs
        assert content_digest(a.astype(np.float32)) != content_digest(a)


class TestSensitivity:
    def test_scalar_types_do_not_collide(self):
        digs = [content_digest(v) for v in (1, 1.0, True, "1", b"1", None)]
        assert len(set(digs)) == len(digs)

    def test_single_element_change_detected(self):
        a = np.zeros(64)
        b = a.copy()
        b[17] = 1e-12
        assert content_digest({"x": a}) != content_digest({"x": b})

    def test_nesting_is_not_flattened(self):
        assert content_digest([1, [2, 3]]) != content_digest([[1, 2], 3])
        assert content_digest([1, 2, 3]) != content_digest([1, [2, 3]])

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            content_digest(object())


def _copying_array_update(h, a):
    """Feed ``a`` into ``h`` the way arrays were first encoded: a
    ``tobytes()`` copy of the C-order array after the dtype / ndim / shape
    header."""
    h.update(b"A")
    descr = a.dtype.str.encode()
    h.update(struct.pack("<I", len(descr)))
    h.update(descr)
    h.update(struct.pack("<I", a.ndim))
    for dim in a.shape:
        h.update(struct.pack("<q", dim))
    h.update(np.ascontiguousarray(a).tobytes())


def _copying_array_digest(a):
    h = hashlib.blake2b(digest_size=CONTENT_DIGEST_BYTES)
    _copying_array_update(h, a)
    return h.hexdigest()


_BASE = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0

#: name -> (array, its digest as recorded with the copying encoding).
PINNED_ARRAYS = {
    "float64": (_BASE, "f96bfb760147d4b468d05e336946251f"),
    "int64": (np.arange(-5, 7, dtype=np.int64).reshape(3, 4), "d56f3374b6d979f763cc1c9ad246e953"),
    "uint8": (np.arange(250, 256, dtype=np.uint8), "1bfcedd8fdafd36ea29236cf1d3493b9"),
    "bool": (
        np.array([[True, False, True], [False, False, True]]),
        "833fd23668a4ec03b72bed1d8970aca1",
    ),
    "0-d": (np.array(2.5), "fa9b82427031246f8ea0de774dec1c6a"),
    "empty": (np.zeros((0, 3)), "88aea9536655a70c62b9132953712e40"),
    "view": (_BASE[1:, ::2], "039e09f5b232c9dd815407b316c844f9"),
    "fortran": (np.asfortranarray(_BASE), "f96bfb760147d4b468d05e336946251f"),
}


class TestArrayBuffer:
    """Arrays are hashed through the buffer protocol, not a ``tobytes()``
    copy; the digest is bit-identical to the copying encoding."""

    @pytest.mark.parametrize("name", sorted(PINNED_ARRAYS))
    def test_digest_is_pinned(self, name):
        a, want = PINNED_ARRAYS[name]
        assert content_digest(a) == want
        assert _copying_array_digest(a) == want

    @pytest.mark.parametrize(
        "a",
        [
            np.arange(5, dtype=">f8"),
            np.zeros(3, dtype=[("a", "i4"), ("b", "f8")]),
            np.array(["2020-01-01", "2021-06-30"], dtype="M8[D]"),
            np.arange(6, dtype=np.complex128).reshape(2, 3).T,
            np.array(7, dtype=np.uint8),
        ],
        ids=["big-endian", "structured", "datetime", "complex-transposed", "0-d-uint8"],
    )
    def test_matches_copying_encoding(self, a):
        assert content_digest(a) == _copying_array_digest(a)

    def test_object_array_refused(self):
        with pytest.raises(TypeError):
            content_digest(np.array([1, None], dtype=object))
        with pytest.raises(TypeError):
            content_digest({"x": np.zeros(2, dtype=[("a", "O")])})

    def test_contiguous_array_is_hashed_in_place(self, monkeypatch):
        fed = []
        blake2b = hashlib.blake2b

        class Spy:
            def __init__(self, **kwargs):
                self._h = blake2b(**kwargs)

            def update(self, data):
                fed.append(data)
                self._h.update(data)

            def hexdigest(self):
                return self._h.hexdigest()

        a = np.arange(1000.0)
        want = content_digest(a)
        monkeypatch.setattr(serialization.hashlib, "blake2b", Spy)
        assert content_digest(a) == want
        assert any(isinstance(d, np.ndarray) and np.shares_memory(d, a) for d in fed)
        assert not any(isinstance(d, bytes) and len(d) == a.nbytes for d in fed)

    def test_run_digest_unchanged(self, monkeypatch):
        """A small edit-distance run folds the run digest recorded with the
        copying encoding, and the copying encoding still folds it."""
        problem = EditDistance.random(30, 40, seed=3)
        config = RunConfig(backend="serial", process_partition=8)
        run = EasyHPS(config).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.run_digest == "6d7003d1bf0fb5ab"

        buffered = serialization._hash_into

        def copying(h, obj):
            if isinstance(obj, np.ndarray):
                _copying_array_update(h, obj)
            else:
                buffered(h, obj)

        monkeypatch.setattr(serialization, "_hash_into", copying)
        again = EasyHPS(config).run(problem)
        assert again.report.run_digest == run.report.run_digest


class TestRunFold:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_fold_is_order_independent(self, seed):
        rng = np.random.default_rng(seed)
        commits = [((int(i), int(rng.integers(8))), f"d{int(rng.integers(1000)):03x}")
                   for i in range(6)]
        order = list(range(len(commits)))
        rng.shuffle(order)
        acc_a = acc_b = 0
        for tid, dig in commits:
            acc_a = fold_commit(acc_a, tid, dig)
        for i in order:
            tid, dig = commits[i]
            acc_b = fold_commit(acc_b, tid, dig)
        assert run_digest_hex(acc_a) == run_digest_hex(acc_b)

    def test_fold_is_self_inverse(self):
        acc = fold_commit(0, (1, 2), "abc")
        acc = fold_commit(acc, (3, 4), "def")
        acc = fold_commit(acc, (1, 2), "abc")  # revoke the first commit
        assert acc == fold_commit(0, (3, 4), "def")

    def test_replacing_a_commit_changes_the_fold(self):
        honest = fold_commit(0, (0, 0), "aaaa")
        lied = fold_commit(0, (0, 0), "bbbb")
        assert honest != lied

    def test_hex_rendering_is_16_chars(self):
        assert run_digest_hex(0) == "0" * 16
        assert len(run_digest_hex(fold_commit(0, (5, 5), "x"))) == 16

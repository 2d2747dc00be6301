"""Property tests for canonical content digests and the rolling run fold.

The digest is the integrity layer's ground truth: it must be a pure
function of payload *content* — independent of ``PYTHONHASHSEED``, dict
insertion order, pickling (the processes backend round-trips every
message), and array memory layout — while remaining sensitive to any
actual value, dtype, or shape change.
"""

import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

"""Property-based tests of the communication layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.messages import IdleSignal, TaskAssign, TaskResult
from repro.comm.serialization import MESSAGE_ENVELOPE_BYTES, message_nbytes, payload_nbytes
from repro.comm.transport import channel_pair

# Recursive payloads of the kinds the runtime actually ships.
scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=20),
    st.binary(max_size=20),
)
arrays = st.integers(0, 50).map(lambda n: np.zeros(n))
payloads = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


@given(p=payloads)
@settings(max_examples=60, deadline=None)
def test_payload_size_nonnegative_and_finite(p):
    size = payload_nbytes(p)
    assert isinstance(size, int)
    assert size >= 0


@given(a=payloads, b=payloads)
@settings(max_examples=40, deadline=None)
def test_payload_size_additive_over_lists(a, b):
    assert payload_nbytes([a, b]) == payload_nbytes(a) + payload_nbytes(b)


@given(p=payloads, key=st.text(min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_dict_wrapper_adds_key_bytes(p, key):
    assert payload_nbytes({key: p}) == payload_nbytes(key) + payload_nbytes(p)


@given(n=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_assign_size_tracks_array_payload(n):
    msg = TaskAssign((0, 0), 0, {"x": np.zeros(n)})
    assert message_nbytes(msg) == MESSAGE_ENVELOPE_BYTES + 8 * n + 1


@given(seq=st.lists(st.sampled_from(["idle", "result"]), min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_channel_preserves_order_and_counts(seq):
    a, b = channel_pair()
    sent = []
    for i, kind in enumerate(seq):
        msg = IdleSignal(i) if kind == "idle" else TaskResult((i, 0), 0, 0, {})
        a.send(msg)
        sent.append(msg)
    received = [b.recv(timeout=1.0) for _ in seq]
    assert received == sent
    assert a.sent_messages == b.received_messages == len(seq)
    assert a.sent_bytes == b.received_bytes


def test_numpy_scalars_are_sized():
    assert payload_nbytes(np.float64(1.5)) == 8
    assert payload_nbytes(np.int32(7)) == 8


def test_memoryview_sized():
    assert payload_nbytes(memoryview(b"abcdef")) == 6


# -- digests across the pipe's pickle round trip ---------------------------------------

import pickle  # noqa: E402

from repro.comm.serialization import content_digest  # noqa: E402

_DTYPES = ["u1", "i2", "i4", "i8", "f4", "f8", "c8", "?"]


@st.composite
def odd_arrays(draw):
    """Arbitrary dtypes, shapes, and strides — including zero-size blocks
    and non-contiguous views, the shapes a transport must not silently
    canonicalize differently."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=0, max_size=3)))
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    base = np.arange(max(n, 1), dtype=np.int64) % 251
    arr = base.astype(dtype)[:n].reshape(shape)
    variant = draw(st.sampled_from(["c", "f", "strided", "transposed"]))
    if variant == "f" and arr.ndim >= 2:
        arr = np.asfortranarray(arr)
    elif variant == "strided" and arr.ndim >= 1 and arr.shape[0] >= 2:
        arr = arr[::2]
    elif variant == "transposed" and arr.ndim >= 2:
        arr = arr.T
    return arr


@given(arr=odd_arrays())
@settings(max_examples=120, deadline=None)
def test_digest_survives_pickle_roundtrip(arr):
    """The canonical digest describes content, not layout: the pipe's
    pickle round trip (which may change order and strides) keeps it."""
    before = content_digest({"x": arr})
    after = content_digest(pickle.loads(pickle.dumps({"x": arr})))
    assert after == before

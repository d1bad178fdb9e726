"""The wire protocol: roundtrips, malformed-frame rejection, typed errors.

The contract under test: every receive path fails *promptly and typed* —
truncated frames, oversized length prefixes, unknown protocol versions and
mid-frame disconnects raise :class:`repro.errors.WireProtocolError` (never a
hang, never a partial frame passed off as a whole one), while a clean EOF at
a frame boundary is ``None``.  A fuzz loop hammers the payload decoder with
mutated bytes: any outcome other than a successful decode or a
``WireProtocolError`` is a bug.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import wire
from repro.core.protocols import profile_key
from repro.data.records import Profile, Tweet, Visit
from repro.errors import (
    ConfigurationError,
    EngineOverloadError,
    RemoteJudgeError,
    ReproError,
    WireProtocolError,
)

# ------------------------------------------------------------------ roundtrips


def test_payload_roundtrip_body_only():
    body = {"op": "gather", "nested": [1, 2.5, "x", None, True]}
    decoded, arrays = wire.decode_payload(wire.encode_payload(body))
    assert decoded == body
    assert arrays == []


@pytest.mark.parametrize(
    "array",
    [
        np.arange(12, dtype=np.float64).reshape(3, 4),
        np.arange(5, dtype=np.int32),
        np.array([], dtype=np.float32).reshape(0, 7),
        np.array(3.5),  # zero-dimensional
        np.array([True, False, True]),
    ],
)
def test_payload_roundtrip_arrays(array):
    body, arrays = wire.decode_payload(wire.encode_payload({"n": 1}, [array]))
    assert body == {"n": 1}
    (decoded,) = arrays
    assert decoded.dtype == array.dtype
    assert decoded.shape == array.shape
    assert np.array_equal(decoded, array)


def test_payload_roundtrip_multiple_arrays_preserves_order():
    first = np.arange(6, dtype=np.float64).reshape(2, 3)
    second = np.arange(4, dtype=np.int64)
    _, arrays = wire.decode_payload(wire.encode_payload(None, [first, second]))
    assert np.array_equal(arrays[0], first)
    assert np.array_equal(arrays[1], second)


def test_decoded_arrays_are_writable_copies():
    payload = wire.encode_payload(None, [np.arange(4, dtype=np.float64)])
    _, (array,) = wire.decode_payload(payload)
    array[0] = 99.0  # must not raise: not a read-only view into the payload
    assert array[0] == 99.0


def test_non_contiguous_array_roundtrips():
    array = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
    _, (decoded,) = wire.decode_payload(wire.encode_payload(None, [array]))
    assert np.array_equal(decoded, array)


def test_object_dtype_refused_on_encode():
    with pytest.raises(WireProtocolError):
        wire.encode_payload(None, [np.array([object()], dtype=object)])


def test_string_dtype_refused_on_encode():
    with pytest.raises(WireProtocolError):
        wire.encode_payload(None, [np.array(["a", "b"])])


# ------------------------------------------------------------- malformed frames


def test_truncated_json_header_raises():
    payload = wire.encode_payload({"op": "x"})
    with pytest.raises(WireProtocolError):
        wire.decode_payload(payload[: len(payload) // 2])


def test_truncated_array_data_raises():
    payload = wire.encode_payload(None, [np.arange(100, dtype=np.float64)])
    with pytest.raises(WireProtocolError):
        wire.decode_payload(payload[:-8])


def test_trailing_bytes_raise():
    with pytest.raises(WireProtocolError):
        wire.decode_payload(wire.encode_payload({"op": "x"}) + b"\x00")


def test_bad_json_raises():
    header = b"not json at all"
    with pytest.raises(WireProtocolError):
        wire.decode_payload(struct.pack(">I", len(header)) + header)


def test_bad_dtype_descriptor_raises():
    import json

    header = json.dumps(
        {"body": None, "arrays": [{"dtype": "V8", "shape": [1]}]}
    ).encode()
    payload = struct.pack(">I", len(header)) + header + b"\x00" * 8
    with pytest.raises(WireProtocolError):
        wire.decode_payload(payload)


def test_negative_shape_raises():
    import json

    header = json.dumps(
        {"body": None, "arrays": [{"dtype": "<f8", "shape": [-1]}]}
    ).encode()
    with pytest.raises(WireProtocolError):
        wire.decode_payload(struct.pack(">I", len(header)) + header)


def test_unknown_version_raises():
    frame = bytearray(wire.encode_frame(wire.FRAME_PING, b""))
    frame[4] = wire.WIRE_VERSION + 1
    with pytest.raises(WireProtocolError, match="version"):
        wire._parse_header(bytes(frame[:6]), wire.MAX_FRAME_BYTES)


def test_unknown_frame_type_raises():
    header = struct.pack(">IBB", 0, wire.WIRE_VERSION, 200)
    with pytest.raises(WireProtocolError, match="frame type"):
        wire._parse_header(header, wire.MAX_FRAME_BYTES)


def test_oversized_length_prefix_rejected_before_allocation():
    # 3 GiB length prefix: must be refused from the 6 header bytes alone.
    header = struct.pack(">IBB", 3 * 1024**3, wire.WIRE_VERSION, wire.FRAME_CALL)
    with pytest.raises(WireProtocolError, match="bound"):
        wire._parse_header(header, wire.MAX_FRAME_BYTES)


# ----------------------------------------------------------------- typed errors


def test_known_error_roundtrips_as_itself():
    decoded = wire.decode_error(wire.encode_error(EngineOverloadError("queue full")))
    assert isinstance(decoded, EngineOverloadError)
    assert "queue full" in str(decoded)


def test_configuration_error_roundtrips():
    decoded = wire.decode_error(wire.encode_error(ConfigurationError("bad op")))
    assert isinstance(decoded, ConfigurationError)


def test_unknown_error_becomes_remote_judge_error():
    decoded = wire.decode_error(wire.encode_error(ValueError("boom")))
    assert isinstance(decoded, RemoteJudgeError)
    assert "ValueError" in str(decoded)
    assert "boom" in str(decoded)


def test_hostile_error_type_cannot_escape_repro_errors():
    # A frame naming a non-exception attribute of repro.errors must not be
    # instantiated as one; it degrades to RemoteJudgeError.
    payload = wire.encode_payload({"type": "annotations", "message": "x"})
    decoded = wire.decode_error(payload)
    assert isinstance(decoded, RemoteJudgeError)


# ----------------------------------------------------------------- socket paths


def _socket_pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


def test_send_recv_frame_over_socket():
    left, right = _socket_pair()
    try:
        payload = wire.encode_payload({"op": "ping"}, [np.arange(3, dtype=np.float64)])
        wire.send_frame(left, wire.FRAME_CALL, payload)
        frame_type, received = wire.recv_frame(right)
        assert frame_type == wire.FRAME_CALL
        assert received == payload
    finally:
        left.close()
        right.close()


def test_clean_eof_at_frame_boundary_is_none():
    left, right = _socket_pair()
    try:
        wire.send_frame(left, wire.FRAME_PING)
        left.close()
        assert wire.recv_frame(right) == (wire.FRAME_PING, b"")
        assert wire.recv_frame(right) is None
    finally:
        right.close()


def test_disconnect_mid_header_raises_promptly():
    left, right = _socket_pair()
    try:
        left.sendall(wire.encode_frame(wire.FRAME_PING)[:3])  # half a header
        left.close()
        with pytest.raises(WireProtocolError, match="mid-frame"):
            wire.recv_frame(right)
    finally:
        right.close()


def test_disconnect_mid_payload_raises_promptly():
    left, right = _socket_pair()
    try:
        frame = wire.encode_frame(wire.FRAME_CALL, b"x" * 1000)
        left.sendall(frame[: len(frame) - 400])
        left.close()
        with pytest.raises(WireProtocolError, match="mid-frame"):
            wire.recv_frame(right)
    finally:
        right.close()


def test_recv_frame_honours_max_frame_bytes():
    left, right = _socket_pair()
    try:
        wire.send_frame(left, wire.FRAME_CALL, b"x" * 4096)
        with pytest.raises(WireProtocolError, match="bound"):
            wire.recv_frame(right, max_frame_bytes=1024)
    finally:
        left.close()
        right.close()


def test_async_reader_matches_sync_semantics():
    import asyncio

    async def scenario():
        reader = asyncio.StreamReader()
        payload = wire.encode_payload({"op": "x"})
        reader.feed_data(wire.encode_frame(wire.FRAME_RESULT, payload))
        frame_type, received = await wire.read_frame_async(reader)
        assert frame_type == wire.FRAME_RESULT
        assert received == payload

        # clean EOF at a boundary -> None
        reader.feed_eof()
        assert await wire.read_frame_async(reader) is None

        # EOF mid-header -> typed error
        broken = asyncio.StreamReader()
        broken.feed_data(b"\x00\x00\x00")
        broken.feed_eof()
        try:
            await wire.read_frame_async(broken)
        except WireProtocolError:
            pass
        else:
            raise AssertionError("mid-header EOF did not raise")

        # EOF mid-payload -> typed error
        broken = asyncio.StreamReader()
        broken.feed_data(wire.encode_frame(wire.FRAME_CALL, b"abcdef")[:-2])
        broken.feed_eof()
        try:
            await wire.read_frame_async(broken)
        except WireProtocolError:
            pass
        else:
            raise AssertionError("mid-payload EOF did not raise")

    asyncio.run(scenario())


# ------------------------------------------------------------- profile batches


def _profile(uid=7, visits=((1.0, 40.5, -73.9), (2.0, 40.6, -73.8)), **fields):
    tweet = Tweet(
        uid=fields.pop("tweet_uid", uid),
        ts=fields.pop("ts", 10.0),
        content=fields.pop("content", "coffee at the park"),
        lat=fields.pop("lat", 40.7),
        lon=fields.pop("lon", -74.0),
        true_pid=fields.pop("true_pid", 3),
    )
    return Profile(
        uid=uid,
        tweet=tweet,
        visit_history=tuple(Visit(*visit) for visit in visits),
        pid=fields.pop("pid", 3),
        revision=fields.pop("revision", 2),
    )


def _roundtrip(profiles):
    rows, visits = wire.encode_profiles(profiles)
    return wire.decode_profiles(*wire.decode_payload(wire.encode_payload(rows, [visits])))


_FINITE = st.floats(allow_nan=False)
_INTS = st.integers(min_value=-(2**80), max_value=2**80)
_PROFILES = st.builds(
    _profile,
    uid=_INTS,
    visits=st.lists(st.tuples(_FINITE, _FINITE, _FINITE), max_size=5),
    tweet_uid=_INTS,
    ts=_FINITE,
    content=st.text(),
    lat=st.none() | _FINITE,
    lon=st.none() | _FINITE,
    true_pid=st.none() | _INTS,
    pid=st.none() | _INTS,
    revision=st.none() | _INTS,
)


@given(profiles=st.lists(_PROFILES, max_size=6))
@settings(max_examples=60, deadline=None)
@example(profiles=[])
@example(profiles=[_profile(visits=())])
@example(
    profiles=[
        _profile(lat=None, lon=None, pid=None, revision=None, true_pid=None),
        _profile(uid=2**70, tweet_uid=2**70, content="caf\u00e9 \u6771\u4eac \x00 \U0001f600"),
    ]
)
def test_profile_batch_roundtrips_exactly(profiles):
    assert _roundtrip(profiles) == profiles


def test_profile_batch_layout():
    rows, visits = wire.encode_profiles([_profile(uid=2**70), _profile(visits=())])
    assert rows[0] == [2**70, 2**70, 10.0, "coffee at the park", 40.7, -74.0, 3, 3, 2, 2]
    assert [row[-1] for row in rows] == [2, 0]
    assert len(rows[0]) == len(wire.PROFILE_ROW_FIELDS)
    assert visits.dtype == np.float64 and visits.shape == (2, 3)
    assert visits.flags.c_contiguous
    assert wire.encode_profiles([])[1].shape == (0, 3)


def test_profile_batch_preserves_float_bits():
    """Floats cross as raw float64 bytes or JSON repr, never rounded."""
    awkward = [0.1 + 0.2, 5e-324, -0.0, 1.7976931348623157e308, float("inf")]
    profile = _profile(ts=awkward[0], lat=awkward[1], visits=[tuple(awkward[2:])])
    (decoded,) = _roundtrip([profile])
    assert decoded == profile

    def floats(p):
        (visit,) = p.visit_history
        return np.array([p.ts, p.lat, visit.ts, visit.lat, visit.lon]).tobytes()

    assert floats(decoded) == floats(profile)  # -0.0 == 0.0, but not bit for bit


_GOOD_ROWS, _GOOD_VISITS = wire.encode_profiles([_profile(), _profile(uid=8, visits=())])


@pytest.mark.parametrize(
    "rows, arrays, match",
    [
        (_GOOD_ROWS, [], "one visits array"),
        (_GOOD_ROWS, [_GOOD_VISITS, _GOOD_VISITS], "one visits array"),
        (_GOOD_ROWS, [_GOOD_VISITS.astype(np.float32)], "float64"),
        (_GOOD_ROWS, [_GOOD_VISITS.astype(np.int64)], "float64"),
        (_GOOD_ROWS, [_GOOD_VISITS.reshape(-1)], "float64"),
        (_GOOD_ROWS, [_GOOD_VISITS.reshape(1, 2, 3)], "float64"),
        (_GOOD_ROWS, [np.zeros((2, 4))], "float64"),
        ({"rows": _GOOD_ROWS}, [_GOOD_VISITS], "must be a list"),
        (None, [_GOOD_VISITS], "must be a list"),
        ([_GOOD_ROWS[0][:-1], _GOOD_ROWS[1]], [_GOOD_VISITS], "list of 10"),
        ([_GOOD_ROWS[0] + [0], _GOOD_ROWS[1]], [_GOOD_VISITS], "list of 10"),
        ([tuple(_GOOD_ROWS[0])], [_GOOD_VISITS], "list of 10"),
        ([_GOOD_ROWS[0][:-1] + [-1], _GOOD_ROWS[1][:-1] + [3]], [_GOOD_VISITS], "non-negative"),
        ([_GOOD_ROWS[0][:-1] + [2.0], _GOOD_ROWS[1]], [_GOOD_VISITS], "non-negative int"),
        ([_GOOD_ROWS[0][:-1] + ["2"], _GOOD_ROWS[1]], [_GOOD_VISITS], "non-negative int"),
        ([_GOOD_ROWS[0][:-1] + [True], _GOOD_ROWS[1]], [_GOOD_VISITS], "non-negative int"),
        ([_GOOD_ROWS[0][:-1] + [1], _GOOD_ROWS[1]], [_GOOD_VISITS], "count 1 visits"),
        ([_GOOD_ROWS[0], _GOOD_ROWS[1][:-1] + [1]], [_GOOD_VISITS], "count 3 visits"),
        ([], [_GOOD_VISITS], "count 0 visits"),
        ([["x"] + _GOOD_ROWS[0][1:], _GOOD_ROWS[1]], [_GOOD_VISITS], "invalid profile row"),
        ([_GOOD_ROWS[0][:2] + [None] + _GOOD_ROWS[0][3:]], [_GOOD_VISITS], "invalid profile row"),
        ([_GOOD_ROWS[0][:4] + [{}] + _GOOD_ROWS[0][5:]], [_GOOD_VISITS], "invalid profile row"),
        ([_GOOD_ROWS[0][:3] + [7] + _GOOD_ROWS[0][4:]], [_GOOD_VISITS], "content must be"),
    ],
)
def test_malformed_profile_batch_raises_typed(rows, arrays, match):
    with pytest.raises(WireProtocolError, match=match):
        wire.decode_profiles(rows, arrays)


# ------------------------------------------------------------ keyed decoding


@given(profiles=st.lists(_PROFILES, max_size=6))
@settings(max_examples=60, deadline=None)
@example(profiles=[])
@example(profiles=[_profile(visits=())])
@example(
    profiles=[
        _profile(lat=None, lon=None, pid=None, revision=None, true_pid=None),
        _profile(uid=2**70, tweet_uid=2**70, content="caf\u00e9 \u6771\u4eac \x00 \U0001f600"),
    ]
)
def test_keys_from_scalar_rows_are_the_decoded_profiles_keys(profiles):
    rows, visits = wire.encode_profiles(profiles)
    body, arrays = wire.decode_payload(wire.encode_payload(rows, [visits]))
    keys, build = wire.decode_keyed_profiles(body, arrays)
    decoded = wire.decode_profiles(body, arrays)
    assert keys == [profile_key(profile) for profile in decoded]
    assert keys == [profile_key(profile) for profile in profiles]
    # The builder makes exactly the positions asked for, in that order.
    positions = list(range(len(profiles)))[::-2]
    assert build(positions) == [profiles[i] for i in positions]


class _RowJudge:
    """A feature-space judge whose row for a profile is its uid."""

    def predict_proba(self, pairs):
        return np.zeros(len(pairs))

    def featurize_profiles(self, profiles):
        return np.array([[float(profile.uid)] for profile in profiles])

    def score_feature_pairs(self, left, right):
        return np.zeros(len(left))


def test_malformed_row_after_store_hits_fails_before_any_lookup():
    """Validation covers the whole batch before the keyed gather looks
    anything up: a bad row behind resident profiles is a typed error, and
    the store counts no hit or miss for the rows in front of it."""
    from repro.api import ColocationEngine
    from repro.cluster.worker import handle_call

    engine = ColocationEngine(_RowJudge(), cache_size=16)
    residents = [_profile(uid=1), _profile(uid=2, visits=())]
    engine.warm(residents)
    before = engine.cache_info()
    rows, visits = wire.encode_profiles(residents)
    bad = list(rows[0])
    bad[0] = "not-a-uid"
    payload = wire.encode_payload(
        {"op": "gather", "profiles": rows + [bad]},
        [np.concatenate([visits, visits[: bad[-1]]])],
    )
    with pytest.raises(WireProtocolError, match="invalid profile row"):
        handle_call(engine, payload)
    assert engine.cache_info() == before
    # The same batch without the bad row is all hits.
    reply, _ = wire.decode_payload(
        handle_call(engine, wire.encode_payload({"op": "gather", "profiles": rows}, [visits]))
    )
    assert (reply["hits"], reply["misses"]) == (2, 0)


_GOOD_KEY = [7, 12.5, "coffee", 3, 2]


def test_profile_keys_roundtrip():
    keys = [(7, 12.5, "coffee", 3, 2), (8, 1.0, "", 0, -1)]
    assert wire.decode_keys(wire.encode_keys(keys)) == keys
    with pytest.raises(WireProtocolError, match="list of 5"):
        wire.decode_keys(wire.encode_keys([(9, 2.0, "tea", 1)]))


@pytest.mark.parametrize(
    "keys, match",
    [
        (None, "must be a list"),
        ({"keys": [_GOOD_KEY]}, "must be a list"),
        ([_GOOD_KEY[:4]], "list of 5"),
        ([_GOOD_KEY + [0]], "list of 5"),
        ([tuple(_GOOD_KEY)], "list of 5"),
        (["7,12.5,coffee,3,2"], "list of 5"),
        ([7], "list of 5"),
        ([["x"] + _GOOD_KEY[1:]], "invalid profile key"),
        ([_GOOD_KEY[:1] + [None] + _GOOD_KEY[2:]], "invalid profile key"),
        ([_GOOD_KEY[:3] + [[1]] + _GOOD_KEY[4:]], "invalid profile key"),
        ([_GOOD_KEY[:4] + [float("inf")]], "invalid profile key"),
    ],
)
def test_malformed_profile_keys_raise_typed(keys, match):
    with pytest.raises(WireProtocolError, match=match):
        wire.decode_keys(keys)


def test_wire_version_bumped_for_columnar_profile_batches():
    """A version-2 peer's frame is refused, never misparsed as a batch."""
    assert wire.WIRE_VERSION == 3
    header = struct.pack(">IBB", 0, 2, wire.FRAME_CALL)
    with pytest.raises(WireProtocolError, match="unknown wire protocol version 2"):
        wire._parse_header(header, wire.MAX_FRAME_BYTES)


# ------------------------------------------------------------------- fuzz loop


def test_payload_decoder_fuzz_never_hangs_or_crashes():
    """Mutated payload bytes either decode or raise WireProtocolError.

    Anything else — a segfault-adjacent numpy error, a KeyError, an unbounded
    allocation — is a decoder bug.  Seeded, so failures reproduce.
    """
    rng = np.random.default_rng(20260808)
    batch_rows, batch_visits = wire.encode_profiles(
        [_profile(), _profile(uid=2**70, visits=()), _profile(uid=9, lat=None, lon=None)]
    )
    seeds = [
        wire.encode_payload(batch_rows, [batch_visits]),
        wire.encode_payload({"op": "gather", "profiles": [1, 2, 3]}),
        wire.encode_payload(None, [np.arange(32, dtype=np.float64).reshape(4, 8)]),
        wire.encode_payload({"k": "v"}, [np.arange(3, dtype=np.int32), np.zeros(2)]),
        wire.encode_error(EngineOverloadError("full")),
    ]
    for trial in range(300):
        base = bytearray(seeds[trial % len(seeds)])
        mutation = trial % 5
        if mutation == 0:  # truncate
            base = base[: int(rng.integers(0, len(base)))]
        elif mutation == 1:  # flip random bytes
            for _ in range(int(rng.integers(1, 6))):
                base[int(rng.integers(len(base)))] = int(rng.integers(256))
        elif mutation == 2:  # append junk
            base.extend(rng.integers(0, 256, size=int(rng.integers(1, 40))).astype(np.uint8).tobytes())
        elif mutation == 3:  # scramble the JSON length prefix
            base[0:4] = struct.pack(">I", int(rng.integers(0, 2**31)))
        else:  # random garbage of a plausible size
            base = bytearray(rng.integers(0, 256, size=int(rng.integers(0, 200))).astype(np.uint8).tobytes())
        try:
            body, arrays = wire.decode_payload(bytes(base))
            assert isinstance(arrays, list)
            profiles = wire.decode_profiles(body, arrays)
        except WireProtocolError:
            pass  # the only acceptable failure
        else:
            assert all(isinstance(profile, Profile) for profile in profiles)


def test_payload_fuzz_through_the_keyed_decoder_fails_typed():
    """The fuzz seeds and mutations above, decoded through the keyed entry:
    only :class:`WireProtocolError` may escape, and a batch that decodes
    builds profiles whose keys are the keys it reported."""
    rng = np.random.default_rng(20260808)
    batch_rows, batch_visits = wire.encode_profiles(
        [_profile(), _profile(uid=2**70, visits=()), _profile(uid=9, lat=None, lon=None)]
    )
    seeds = [
        wire.encode_payload(batch_rows, [batch_visits]),
        wire.encode_payload({"op": "gather", "profiles": [1, 2, 3]}),
        wire.encode_payload(None, [np.arange(32, dtype=np.float64).reshape(4, 8)]),
        wire.encode_payload({"k": "v"}, [np.arange(3, dtype=np.int32), np.zeros(2)]),
        wire.encode_error(EngineOverloadError("full")),
    ]
    keys, _ = wire.decode_keyed_profiles(*wire.decode_payload(seeds[0]))
    assert len(keys) == 3  # the unmutated batch seed decodes
    for trial in range(300):
        base = bytearray(seeds[trial % len(seeds)])
        mutation = trial % 5
        if mutation == 0:  # truncate
            base = base[: int(rng.integers(0, len(base)))]
        elif mutation == 1:  # flip random bytes
            for _ in range(int(rng.integers(1, 6))):
                base[int(rng.integers(len(base)))] = int(rng.integers(256))
        elif mutation == 2:  # append junk
            base.extend(rng.integers(0, 256, size=int(rng.integers(1, 40))).astype(np.uint8).tobytes())
        elif mutation == 3:  # scramble the JSON length prefix
            base[0:4] = struct.pack(">I", int(rng.integers(0, 2**31)))
        else:  # random garbage of a plausible size
            base = bytearray(rng.integers(0, 256, size=int(rng.integers(0, 200))).astype(np.uint8).tobytes())
        try:
            body, arrays = wire.decode_payload(bytes(base))
            keys, build = wire.decode_keyed_profiles(body, arrays)
        except WireProtocolError:
            continue  # the only acceptable failure
        profiles = build(range(len(keys)))
        assert [profile_key(profile) for profile in profiles] == keys


def test_frame_stream_fuzz_fails_typed_and_promptly():
    """A peer writing garbage mid-stream must produce a typed error, fast."""
    rng = np.random.default_rng(99)
    for trial in range(20):
        left, right = _socket_pair()
        try:
            good = wire.encode_frame(wire.FRAME_CALL, wire.encode_payload({"t": trial}))
            junk = rng.integers(0, 256, size=int(rng.integers(1, 64))).astype(np.uint8).tobytes()
            cut = int(rng.integers(0, len(good)))

            def peer(sock=left, prefix=good[:cut], garbage=junk):
                sock.sendall(prefix + garbage)
                sock.close()

            thread = threading.Thread(target=peer)
            thread.start()
            try:
                while True:  # drain until EOF or a typed failure
                    if wire.recv_frame(right) is None:
                        break
            except ReproError:
                pass
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            left.close()
            right.close()

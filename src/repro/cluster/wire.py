"""The cluster wire protocol: length-prefixed, versioned binary frames.

Process workers (:mod:`repro.cluster.worker`) and the :class:`WorkerPool`
gateway (:mod:`repro.cluster.gateway`) talk over sockets using one frame
format::

    +--------+---------+------+-----------------+
    | length | version | type |     payload     |
    | uint32 |  uint8  |uint8 |  length bytes   |
    +--------+---------+------+-----------------+

All integers are big-endian.  ``length`` counts payload bytes only, and is
bounded by ``max_frame_bytes`` on the receiving side — an oversized prefix is
rejected *before* any allocation, so a corrupt or hostile peer cannot make
the receiver buffer gigabytes.  ``version`` is :data:`WIRE_VERSION`; frames
from a different protocol generation raise :class:`WireProtocolError` rather
than being misparsed.

Payloads carry a JSON body plus zero or more raw numpy arrays::

    uint32 json_length | json bytes | array 0 bytes | array 1 bytes | ...

The JSON header is ``{"body": ..., "arrays": [{"dtype", "shape"}, ...]}``;
each array travels as its raw C-contiguous bytes, described by a dtype
string and shape — **no pickle anywhere on the wire**, so a worker never
executes code smuggled through a feature payload, and a megabyte of float64
feature rows costs a memcpy, not a serializer walk.

Profiles travel columnar.  A ``gather`` or ``warm`` CALL body carries
``{"profiles": rows}`` plus exactly one array, built by
:func:`encode_profiles`:

* ``rows`` — one short JSON list per profile,
  ``[uid, tweet_uid, ts, content, lat, lon, true_pid, pid, revision,
  n_visits]``.  JSON keeps uids beyond int64 (which :func:`shard_index
  <repro.cluster.shard_index>` routes) and ``None`` without sentinels, and
  floats cross it as their shortest round-trip ``repr``;
* the visits — every profile's Eq. (1)–(2) history concatenated in row
  order as one C-contiguous float64 ``(V, 3)`` array of ``(ts, lat, lon)``,
  where ``V`` is the sum of the rows' ``n_visits``.

Both halves are exact, so a decoded profile equals the one sent and the
worker's feature rows are bit-identical to a local featurize.  The decoder
(:func:`decode_keyed_profiles`) validates the whole batch before anything
is looked up or built — a malformed batch raises
:class:`WireProtocolError` — then hands back each row's profile key, built
from the scalar row alone, and a builder for the rows a worker's store
lacks; :func:`decode_profiles` builds them all.

Errors are frames too: :func:`encode_error` captures a worker-side exception
as ``{"type", "message"}`` and :func:`decode_error` maps it back — known
:mod:`repro.errors` types re-raise as themselves client-side (so
:class:`EngineOverloadError` backpressure crosses the process boundary
intact), anything else arrives as :class:`RemoteJudgeError`.

Every receive path raises :class:`WireProtocolError` *promptly* on
truncation, oversize, or unknown versions: a partial read never corrupts the
stream silently, and a half-written frame from a dying peer fails the read
instead of hanging it.
"""

from __future__ import annotations

import json
import struct
from itertools import starmap
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import errors as errors_mod
from repro.core.protocols import UNREVISIONED, ProfileKey
from repro.data.records import Profile, Tweet, Visit
from repro.errors import ReproError, RemoteJudgeError, WireProtocolError

#: Protocol generation; bumped on incompatible frame-format changes.
#: Version 2: profile keys on the wire (snapshot/restore) grew a fifth
#: ``revision`` element, and the ``INVALIDATE`` frame joined the protocol.
#: Version 3: ``gather``/``warm`` bodies carry columnar profile batches
#: (:func:`encode_profiles`) instead of one JSON object per visit.
WIRE_VERSION = 3

#: Default bound on one frame's payload, enforced before allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Frame header: payload length (uint32), version (uint8), type (uint8).
_HEADER = struct.Struct(">IBB")
_JSON_LENGTH = struct.Struct(">I")

# ------------------------------------------------------------------ frame types
FRAME_HELLO = 1  #: worker -> gateway registration: {"worker_id", "token", "pid"}
FRAME_CALL = 2  #: an operation request: body {"op": ..., ...}, optional arrays
FRAME_RESULT = 3  #: a successful operation result
FRAME_ERROR = 4  #: a typed worker-side error: {"type", "message"}
FRAME_PING = 5  #: heartbeat probe; payload echoed back verbatim
FRAME_PONG = 6  #: heartbeat echo
FRAME_SHUTDOWN = 7  #: gateway -> worker: finish up and exit
FRAME_INVALIDATE = 8  #: gateway -> worker cache invalidation: {"uids" | "stale"}

_KNOWN_FRAMES = frozenset(
    (
        FRAME_HELLO,
        FRAME_CALL,
        FRAME_RESULT,
        FRAME_ERROR,
        FRAME_PING,
        FRAME_PONG,
        FRAME_SHUTDOWN,
        FRAME_INVALIDATE,
    )
)


# -------------------------------------------------------------------- payloads


def encode_payload(body: object, arrays: Sequence[np.ndarray] = ()) -> bytes:
    """Serialize a JSON-able body plus raw numpy arrays into payload bytes.

    Arrays must be numeric/bool (``object`` and other pickled dtypes are
    refused — the whole point of the format is that nothing on the wire is
    executable); they are sent C-contiguous.
    """
    descriptors = []
    blobs = []
    for array in arrays:
        shape = np.shape(array)
        array = np.ascontiguousarray(array)  # promotes 0-d to 1-d: keep `shape`
        if array.dtype.hasobject or array.dtype.kind not in "biufc":
            raise WireProtocolError(
                f"array dtype {array.dtype!r} is not wire-encodable (numeric/bool only)"
            )
        descriptors.append({"dtype": array.dtype.str, "shape": list(shape)})
        blobs.append(array.tobytes())
    header = json.dumps({"body": body, "arrays": descriptors}, separators=(",", ":")).encode()
    return b"".join([_JSON_LENGTH.pack(len(header)), header] + blobs)


def decode_payload(payload: bytes) -> tuple[object, list[np.ndarray]]:
    """Inverse of :func:`encode_payload`; raises :class:`WireProtocolError`
    on any inconsistency (bad JSON, dtype, or byte-count mismatch).

    Decoded arrays are fresh writable copies, never views into the payload
    buffer, so callers may cache or mutate them freely.
    """
    if len(payload) < _JSON_LENGTH.size:
        raise WireProtocolError("payload shorter than its JSON length prefix")
    (json_length,) = _JSON_LENGTH.unpack_from(payload)
    offset = _JSON_LENGTH.size
    if json_length > len(payload) - offset:
        raise WireProtocolError("payload JSON header extends past the frame")
    try:
        header = json.loads(payload[offset : offset + json_length].decode("utf-8"))
        body = header["body"]
        descriptors = header["arrays"]
        if not isinstance(descriptors, list):
            raise WireProtocolError("payload array table is not a list")
    except WireProtocolError:
        raise
    except Exception as exc:  # malformed JSON/UTF-8/missing keys
        raise WireProtocolError(f"undecodable payload header: {exc}") from exc
    offset += json_length
    arrays: list[np.ndarray] = []
    for descriptor in descriptors:
        try:
            dtype = np.dtype(descriptor["dtype"])
            shape = tuple(int(n) for n in descriptor["shape"])
        except Exception as exc:
            raise WireProtocolError(f"invalid array descriptor {descriptor!r}") from exc
        if dtype.hasobject or dtype.kind not in "biufc":
            raise WireProtocolError(f"array dtype {dtype!r} is not wire-decodable")
        if any(n < 0 for n in shape):
            raise WireProtocolError(f"negative dimension in array shape {shape!r}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        if nbytes > len(payload) - offset:
            raise WireProtocolError("array data extends past the frame")
        arrays.append(
            np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(payload):
        raise WireProtocolError(f"{len(payload) - offset} trailing bytes after the last array")
    return body, arrays


# ---------------------------------------------------------------- profile keys


def encode_keys(keys: Iterable[ProfileKey]) -> list[list]:
    """Profile keys as JSON lists ``[uid, ts, content, history_len, revision]``."""
    return [list(k) for k in keys]


def decode_keys(keys: object) -> list[ProfileKey]:
    """Inverse of :func:`encode_keys`; :class:`WireProtocolError` on a malformed list."""
    if not isinstance(keys, list):
        raise WireProtocolError(f"profile keys must be a list, got {type(keys).__name__}")
    bad = [k for k in keys if not isinstance(k, list) or len(k) != 5]
    if bad:
        raise WireProtocolError(f"a profile key is a list of 5, got {bad[0]!r}")
    try:
        return [(int(k[0]), float(k[1]), str(k[2]), int(k[3]), int(k[4])) for k in keys]
    except (TypeError, ValueError, OverflowError) as exc:
        raise WireProtocolError(f"invalid profile key: {exc}") from exc


# ------------------------------------------------------------ profile batches

#: Elements of one profile row in a columnar batch (see the module docstring).
PROFILE_ROW_FIELDS = (
    "uid",
    "tweet_uid",
    "ts",
    "content",
    "lat",
    "lon",
    "true_pid",
    "pid",
    "revision",
    "n_visits",
)


def encode_profiles(profiles: Iterable[Profile]) -> tuple[list[list], np.ndarray]:
    """A columnar profile batch: JSON scalar rows plus one ``(V, 3)`` visits array.

    Send the rows as the ``profiles`` body entry and the array as the
    call's only array; :func:`decode_profiles` inverts it exactly.
    """
    rows = []
    flat: list[float] = []
    for profile in profiles:
        tweet = profile.tweet
        history = profile.visit_history
        rows.append(
            [
                profile.uid,
                tweet.uid,
                tweet.ts,
                tweet.content,
                tweet.lat,
                tweet.lon,
                tweet.true_pid,
                profile.pid,
                profile.revision,
                len(history),
            ]
        )
        for visit in history:
            flat += (visit.ts, visit.lat, visit.lon)
    return rows, np.array(flat, dtype=np.float64).reshape(-1, 3)


def _optional(convert, value):
    return None if value is None else convert(value)


def decode_keyed_profiles(
    rows: object, arrays: Sequence[np.ndarray]
) -> tuple[list[ProfileKey], Callable[[Iterable[int]], list[Profile]]]:
    """Validate a whole columnar batch; return its keys and a profile builder.

    The keys are each row's :func:`repro.core.profile_key`, built from the
    scalar row alone (``uid``, ``ts``, ``content``, ``n_visits``,
    ``revision``), so a store lookup needs no :class:`Visit` at all.
    ``build(positions)`` returns the exact profiles at those row positions,
    in that order; a worker builds only its store misses.

    Every row is validated before this returns, whichever rows are built
    later: :class:`WireProtocolError` unless there is exactly one 2-D
    float64 array with 3 columns, ``rows`` is a list of 10-element lists,
    every ``n_visits`` is a non-negative int and the counts sum to the
    array's length — or when a scalar does not convert to its field.
    """
    if len(arrays) != 1:
        raise WireProtocolError(f"a profile batch carries one visits array, not {len(arrays)}")
    (visits,) = arrays
    if visits.dtype != np.float64 or visits.ndim != 2 or visits.shape[1] != 3:
        raise WireProtocolError(
            f"visits array must be float64 (V, 3), got {visits.dtype} {visits.shape}"
        )
    if not isinstance(rows, list):
        raise WireProtocolError(f"profile rows must be a list, got {type(rows).__name__}")
    width = len(PROFILE_ROW_FIELDS)
    total = 0
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise WireProtocolError(f"a profile row is a list of {width}, got {row!r}")
        count = row[-1]
        if type(count) is not int or count < 0:
            raise WireProtocolError(f"n_visits must be a non-negative int, got {count!r}")
        total += count
    if total != len(visits):
        raise WireProtocolError(
            f"profile rows count {total} visits but the array holds {len(visits)}"
        )
    scalars = []
    keys = []
    start = 0
    for uid, tweet_uid, ts, content, lat, lon, true_pid, pid, revision, count in rows:
        if not isinstance(content, str):
            raise WireProtocolError(f"tweet content must be a string, got {content!r}")
        try:
            row = (
                int(uid),
                int(tweet_uid),
                float(ts),
                content,
                _optional(float, lat),
                _optional(float, lon),
                _optional(int, true_pid),
                _optional(int, pid),
                _optional(int, revision),
                start,
                start + count,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise WireProtocolError(f"invalid profile row: {exc}") from exc
        scalars.append(row)
        keys.append(
            (row[0], row[2], content, count, UNREVISIONED if row[8] is None else row[8])
        )
        start += count

    def build(positions: Iterable[int]) -> list[Profile]:
        profiles = []
        for position in positions:
            uid, tweet_uid, ts, content, lat, lon, true_pid, pid, revision, first, stop = (
                scalars[position]
            )
            profiles.append(
                Profile(
                    uid=uid,
                    tweet=Tweet(
                        uid=tweet_uid, ts=ts, content=content, lat=lat, lon=lon, true_pid=true_pid
                    ),
                    visit_history=tuple(starmap(Visit, visits[first:stop].tolist())),
                    pid=pid,
                    revision=revision,
                )
            )
        return profiles

    return keys, build


def decode_profiles(rows: object, arrays: Sequence[np.ndarray]) -> list[Profile]:
    """Inverse of :func:`encode_profiles`: every profile of the batch.

    The build-everything case of :func:`decode_keyed_profiles`, with the
    same validation and the same typed errors.
    """
    keys, build = decode_keyed_profiles(rows, arrays)
    return build(range(len(keys)))


# ---------------------------------------------------------------- typed errors


def encode_error(exc: BaseException) -> bytes:
    """Payload bytes describing a worker-side exception (type name + message)."""
    return encode_payload({"type": type(exc).__name__, "message": str(exc)})


def decode_error(payload: bytes) -> ReproError:
    """The client-side exception for an error frame's payload.

    :mod:`repro.errors` types come back as themselves; everything else as
    :class:`RemoteJudgeError` carrying the original type name.
    """
    body, _ = decode_payload(payload)
    if not isinstance(body, dict):
        raise WireProtocolError(f"malformed error frame body: {body!r}")
    name = str(body.get("type", "Exception"))
    message = str(body.get("message", ""))
    known = getattr(errors_mod, name, None)
    if isinstance(known, type) and issubclass(known, ReproError):
        return known(message)
    return RemoteJudgeError(f"{name}: {message}")


# ------------------------------------------------------------------- sync I/O


def encode_frame(frame_type: int, payload: bytes = b"") -> bytes:
    """Header + payload bytes for one frame."""
    return _HEADER.pack(len(payload), WIRE_VERSION, frame_type) + payload


def send_frame(sock, frame_type: int, payload: bytes = b"") -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(frame_type, payload))


def _parse_header(header: bytes, max_frame_bytes: int) -> tuple[int, int]:
    """(frame_type, payload_length) from header bytes; validates everything."""
    length, version, frame_type = _HEADER.unpack(header)
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"unknown wire protocol version {version} (this build speaks {WIRE_VERSION})"
        )
    if frame_type not in _KNOWN_FRAMES:
        raise WireProtocolError(f"unknown frame type {frame_type}")
    if length > max_frame_bytes:
        raise WireProtocolError(
            f"frame length prefix {length} exceeds the {max_frame_bytes}-byte bound"
        )
    return frame_type, length


def _recv_exactly(sock, n: int) -> bytes:
    """Exactly ``n`` bytes from a blocking socket; ``b""`` only at clean EOF
    before the first byte.  A connection dropping mid-read raises."""
    if n == 0:
        return b""
    chunks: list[bytes] = []
    received = 0
    while received < n:
        chunk = sock.recv(min(65536, n - received))
        if not chunk:
            if received == 0:
                return b""
            raise WireProtocolError(
                f"connection closed mid-frame ({received} of {n} bytes read)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock, max_frame_bytes: int = MAX_FRAME_BYTES) -> tuple[int, bytes] | None:
    """Read one frame from a blocking socket.

    Returns ``(frame_type, payload)``, or ``None`` on a clean EOF at a frame
    boundary.  EOF *inside* a frame — header or payload — raises
    :class:`WireProtocolError` promptly; the caller never blocks on bytes
    that will not come, and never sees a partial frame as a whole one.
    """
    header = _recv_exactly(sock, _HEADER.size)
    if not header:
        return None
    frame_type, length = _parse_header(header, max_frame_bytes)
    payload = _recv_exactly(sock, length)
    if length and not payload:
        raise WireProtocolError("connection closed between frame header and payload")
    return frame_type, payload


# ------------------------------------------------------------------ async I/O


async def read_frame_async(
    reader, max_frame_bytes: int = MAX_FRAME_BYTES
) -> tuple[int, bytes] | None:
    """:func:`recv_frame` over an :class:`asyncio.StreamReader`."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireProtocolError(
            f"connection closed mid-frame header ({len(exc.partial)} of {_HEADER.size} bytes)"
        ) from exc
    frame_type, length = _parse_header(header, max_frame_bytes)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of {length} payload bytes)"
        ) from exc
    return frame_type, payload

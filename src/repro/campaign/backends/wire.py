"""The coordinator<->worker wire protocol (framing, auth, deadlines).

Transport: length-prefixed pickle frames over one TCP connection per
worker agent.  A frame is an 8-byte big-endian payload length followed
by ``pickle.dumps((kind, payload))``; kinds in use:

======================  =======================================================
frame                   direction / meaning
======================  =======================================================
``hello``               worker -> coordinator: ``{token, slots, label, pid}``
``welcome``             coordinator -> worker: authenticated, stay connected
``task``                coordinator -> worker: ``{ticket, env, deadline_left}``
                        -- ``env`` is a
                        :class:`repro.campaign.backends.specs.ShardEnvelope`
                        (spec inline on a worker's first sight of a
                        fingerprint, bare fingerprint thereafter)
``result``              worker -> coordinator: ``{ticket, outcome}``
``spans``               worker -> coordinator: ``{ticket, batch, sent}`` --
                        trace spans a traced shard recorded
                        (:class:`repro.obs.recorder.SpanBatch`), sent right
                        after the shard's ``result`` frame; ``sent`` is the
                        worker's own monotonic send instant, from which the
                        coordinator derives a clock-offset correction.
                        Observability only: losing one never affects results
``error``               worker -> coordinator: ``{ticket, message}`` -- the
                        shard raised; deterministic, so it is *not* requeued
``heartbeat``           worker -> coordinator: liveness while computing
``ping``                coordinator -> worker: ``{t}`` -- a round-trip probe;
                        ``t`` is the coordinator's monotonic send instant
``pong``                worker -> coordinator: the ping payload echoed
                        verbatim (receipt-minus-``t`` is the RTT sample the
                        coordinator's heartbeat-latency histogram observes)
``status``              coordinator -> observer: one
                        :class:`repro.obs.live.ProgressSnapshot` as JSON
                        (see :func:`repro.obs.live.snapshot_to_json`) --
                        the live campaign view ``python -m repro.obs.watch``
                        renders.  Observability only, like ``spans``
``cancel``              coordinator -> worker: ``{ticket}`` -- stop that
                        shard at its next cancel probe; its (discarded)
                        result then comes back early and frees the slot
``shutdown``            coordinator -> worker: campaign over, exit cleanly
======================  =======================================================

Authentication: the first frame on a fresh connection must be a
``hello`` whose token matches the coordinator's (compared with
:func:`hmac.compare_digest`); anything else closes the connection.
A hello carrying ``role: "observer"`` authenticates a *read-only*
peer: it receives ``status`` frames and the ``shutdown``, is never
assigned work, and contributes zero capacity -- everything it sees is
JSON, so an observer client needs no pickle trust in the coordinator.
Control frames (hello/welcome/heartbeat/cancel/shutdown/error) are JSON and
task/result frames are pickle, and the coordinator refuses to decode
pickle from a connection that has not authenticated -- unpickling
grants code execution, so no untrusted byte ever reaches
``pickle.loads``.  The token gates participation; the channel itself is
plaintext TCP, so run it on a trusted network or through an SSH tunnel
(frames are neither encrypted nor integrity-protected in transit).

Deadlines: ``SearchLimits.deadline`` is an absolute ``time.monotonic()``
instant, meaningful only on the host that stamped it.  The wire layer
therefore ships the *remaining* budget: :func:`pack_task` strips the
absolute deadline and records ``deadline_left`` seconds at send time;
:func:`unpack_task` re-anchors it on the worker's own monotonic clock.
Transit latency eats into the budget on the worker's side of the fence,
which errs toward stricter deadlines -- never laxer.
"""

from __future__ import annotations

import json
import pickle
import select
import socket
import struct
from dataclasses import replace
from typing import Any

from repro.campaign.backends.base import WorkItem
from repro.campaign.backends.specs import ShardEnvelope
from repro.obs import clock

#: Refuse frames beyond this (a corrupt length prefix would otherwise
#: allocate unbounded memory before pickle even looks at the payload).
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">Q")

#: Format tags, the first payload byte: control frames are JSON so the
#: coordinator never unpickles bytes from an *unauthenticated* peer
#: (unpickling grants code execution); task/result frames carry rich
#: objects and stay pickle -- decodable only after the token handshake.
_FMT_JSON = 0x4A  # 'J'
_FMT_PICKLE = 0x50  # 'P'

#: Frame kinds that must cross the wire as JSON: everything exchanged
#: before trust is established, plus plain-data control traffic (which
#: includes everything an observer connection ever sees).
_JSON_KINDS = frozenset(
    {"hello", "welcome", "heartbeat", "cancel", "shutdown", "error",
     "ping", "pong", "status"}
)

#: Ceiling on how long one frame send may stall on a congested peer
#: before the connection is declared dead.
SEND_TIMEOUT = 30.0

#: Environment variable both ends read the shared token from (keeps it
#: off command lines and out of ``ps`` output).
TOKEN_ENV = "REPRO_WORKER_TOKEN"


class WireError(ConnectionError):
    """The peer vanished or sent garbage; the connection is dead."""


def _send_all(sock: socket.socket, blob: bytes, timeout: float) -> None:
    """Send fully, waiting out full buffers on non-blocking sockets.

    Both ends run their sockets non-blocking inside select loops, and
    ``sendall`` on a non-blocking socket raises the moment the send
    buffer fills -- which a burst of task frames or a large snapshot
    pickle can do to a perfectly healthy peer.  Spin ``send`` with a
    writability wait instead, bounded by ``timeout``.
    """
    view = memoryview(blob)
    deadline = clock.monotonic() + timeout
    while view.nbytes:
        try:
            sent = sock.send(view)
        except (BlockingIOError, InterruptedError):
            remaining = deadline - clock.monotonic()
            if remaining <= 0:
                raise WireError(f"send stalled for {timeout:.0f}s") from None
            select.select([], [sock], [], min(0.2, remaining))
            continue
        except OSError as exc:
            raise WireError(f"send failed: {exc}") from None
        view = view[sent:]


def send_frame(
    sock: socket.socket,
    kind: str,
    payload: dict[str, Any],
    *,
    timeout: float = SEND_TIMEOUT,
) -> None:
    """Serialize and send one frame (raises :class:`WireError` on loss).

    ``timeout`` bounds the stall on a congested peer; senders of purely
    observational frames (``status`` to observers) pass a short one so a
    stuck consumer is declared dead instead of stalling the campaign.
    """
    if kind in _JSON_KINDS:
        body = bytes([_FMT_JSON]) + json.dumps([kind, payload]).encode("utf-8")
    else:
        body = bytes([_FMT_PICKLE]) + pickle.dumps((kind, payload), protocol=4)
    _send_all(sock, _HEADER.pack(len(body)) + body, timeout)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        try:
            chunk = sock.recv(min(n, 1 << 20))
        except OSError as exc:
            raise WireError(f"recv failed: {exc}") from None
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, *, allow_pickle: bool = True
) -> tuple[str, dict[str, Any]]:
    """Blocking read of one frame (honors the socket's timeout)."""
    (size,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if size > MAX_FRAME_BYTES:
        raise WireError(f"frame of {size} bytes exceeds protocol maximum")
    return decode_payload(_recv_exact(sock, size), allow_pickle=allow_pickle)


def decode_payload(
    blob: bytes, *, allow_pickle: bool = True
) -> tuple[str, dict[str, Any]]:
    """Decode one frame payload (used by buffered readers too).

    ``allow_pickle=False`` is the pre-authentication mode: only JSON
    control frames decode, so an untrusted peer's bytes never reach
    ``pickle.loads``.
    """
    if not blob:
        raise WireError("empty frame")
    fmt, body = blob[0], blob[1:]
    try:
        if fmt == _FMT_JSON:
            kind, payload = json.loads(body.decode("utf-8"))
        elif fmt == _FMT_PICKLE:
            if not allow_pickle:
                raise WireError("pickle frame before authentication")
            kind, payload = pickle.loads(body)
        else:
            raise WireError(f"unknown frame format {fmt:#x}")
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"undecodable frame: {exc}") from None
    if not isinstance(kind, str) or not isinstance(payload, dict):
        raise WireError("malformed frame")
    return kind, payload


def extract_frames(
    buffer: bytearray, *, allow_pickle: bool = True
) -> list[tuple[str, dict[str, Any]]]:
    """Pop every complete frame off a connection's receive buffer."""
    frames = []
    while len(buffer) >= _HEADER.size:
        (size,) = _HEADER.unpack(buffer[: _HEADER.size])
        if size > MAX_FRAME_BYTES:
            raise WireError(f"frame of {size} bytes exceeds protocol maximum")
        end = _HEADER.size + size
        if len(buffer) < end:
            break
        frames.append(
            decode_payload(
                bytes(buffer[_HEADER.size : end]), allow_pickle=allow_pickle
            )
        )
        del buffer[:end]
    return frames


# ----------------------------------------------------------------------
# Deadline translation
# ----------------------------------------------------------------------
def pack_task(
    ticket: int, work: "WorkItem | ShardEnvelope"
) -> tuple[str, dict[str, Any]]:
    """Build a ``task`` frame, translating the absolute deadline.

    ``work`` may be a bare :class:`WorkItem` (wrapped in a plain
    :class:`repro.campaign.backends.specs.ShardEnvelope`) or an
    envelope the dispatcher already built (spec inline or bare
    fingerprint -- see the specs module).  The shared-memory filter name
    is stripped too: the segment lives on the coordinator's host and a
    remote ``attach`` would at best fail and at worst alias an unrelated
    local segment of the same name.
    """
    env = work if isinstance(work, ShardEnvelope) else ShardEnvelope(item=work)
    limits = env.unit_limits()
    deadline_left = None
    if limits is not None and limits.deadline is not None:
        deadline_left = max(0.0, limits.deadline - clock.monotonic())
        env = env.with_limits(replace(limits, deadline=None))
    if env.item.filter_name is not None:
        env = replace(env, item=replace(env.item, filter_name=None))
    return "task", {"ticket": ticket, "env": env, "deadline_left": deadline_left}


def unpack_task(payload: dict[str, Any]) -> tuple[int, "ShardEnvelope"]:
    """Re-anchor a ``task`` frame's deadline on this host's clock."""
    env: ShardEnvelope = payload["env"]
    deadline_left = payload.get("deadline_left")
    if deadline_left is not None:
        limits = replace(
            env.unit_limits(), deadline=clock.monotonic() + deadline_left
        )
        env = env.with_limits(limits)
    return payload["ticket"], env


def parse_hostport(text: str, default_port: int = 0) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``HOST``) CLI addresses."""
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, default_port
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(f"bad address {text!r}; expected HOST:PORT") from None

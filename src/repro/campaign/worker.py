"""The remote worker agent: ``python -m repro.campaign.worker``.

One agent connects to a :class:`SocketClusterBackend` coordinator,
authenticates with the shared token (``--token`` or, preferably, the
``REPRO_WORKER_TOKEN`` environment variable so the secret stays out of
``ps``), advertises ``--slots`` worker slots, and then loops: receive
pickled shards, run each in a local ``ProcessPoolExecutor`` child --
*never* on the agent thread, so heartbeats keep flowing while a search
computes -- and stream the outcomes back.  A ``cancel`` frame posts its
ticket to the pool's cancel board
(:mod:`repro.campaign.backends.specs`), so a shard the coordinator has
dropped stops within one ``_CLOCK_STRIDE`` window and frees its slot.

Launching one agent per host (or per core) is deliberately a one-liner::

    REPRO_WORKER_TOKEN=$TOKEN python -m repro.campaign.worker \
        --connect coord.example.com:7781 --slots 8

works verbatim behind ``ssh host ...``, in a container entry point, or
as a k8s Deployment command.  The agent exits 0 when the coordinator
shuts the campaign down (or closes the connection), non-zero when it
never managed to connect or authenticate inside the ``--retry`` window.

Failure semantics: the agent makes no attempt to survive a coordinator
restart -- shards are deterministic and the *coordinator* owns requeueing
(it re-issues any shard whose worker vanished), so the cheap and correct
reaction to a lost connection is to exit and let the operator (or the
supervisor that launched the agent) start a fresh one.
"""

from __future__ import annotations

import argparse
import os
import select
import signal
import socket
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace

from repro.campaign.backends.specs import (
    ShardEnvelope,
    SpecMiss,
    attach_cancel_board,
    cancel_board,
    execute_envelope,
    post_cancel,
)
from repro.obs import clock
from repro.obs.recorder import TracedOutcome
from repro.campaign.backends.wire import (
    TOKEN_ENV,
    WireError,
    extract_frames,
    recv_frame,
    send_frame,
    unpack_task,
    parse_hostport,
)

#: Seconds between heartbeat frames (the coordinator reaps workers
#: silent for ~6 of these).
HEARTBEAT_INTERVAL = 5.0


def _die_with_parent() -> None:
    """Pool-child initializer: die when the agent does (Linux).

    A SIGKILLed agent cannot unwind its pool, and an orphaned child
    blocks on the call-queue pipe forever; ``PR_SET_PDEATHSIG`` makes
    the kernel deliver SIGKILL to the child the moment its parent goes.
    Best-effort -- on non-Linux platforms a hard-killed agent may leave
    a child finishing its current shard (harmless: detached stdio, no
    coordinator to report to).
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except Exception:
        pass


def _init_child(board) -> None:
    """Pool-child initializer: die with the agent, share its cancel board."""
    _die_with_parent()
    attach_cancel_board(board)


def _connect_with_retry(addr: tuple[str, int], retry_s: float) -> socket.socket:
    """Dial the coordinator, retrying inside the window (races startup)."""
    deadline = clock.monotonic() + retry_s
    while True:
        try:
            return socket.create_connection(addr, timeout=5.0)
        except OSError as exc:
            if clock.monotonic() >= deadline:
                raise SystemExit(
                    f"worker: cannot reach coordinator at "
                    f"{addr[0]}:{addr[1]} within {retry_s:.0f}s: {exc}"
                ) from None
            time.sleep(0.2)


def _handshake(sock: socket.socket, token: str, slots: int, label: str) -> None:
    sock.settimeout(10.0)
    send_frame(
        sock,
        "hello",
        {"token": token, "slots": slots, "label": label, "pid": os.getpid()},
    )
    try:
        # The welcome is a JSON control frame; refuse pickle until the
        # coordinator has proven it is the one we were pointed at.
        kind, _ = recv_frame(sock, allow_pickle=False)
    except (WireError, socket.timeout):
        raise SystemExit(
            "worker: coordinator closed the connection during the "
            "handshake (wrong token?)"
        ) from None
    if kind != "welcome":
        raise SystemExit(f"worker: unexpected handshake reply {kind!r}")


def _serve(sock: socket.socket, pool: ProcessPoolExecutor, board) -> None:
    """The agent loop: pull tasks, push results, heartbeat throughout.

    ``board`` is the cancel board ``pool``'s children were initialized
    with.
    """
    sock.setblocking(False)
    buffer = bytearray()
    running: dict[int, Future] = {}
    envelopes: dict[int, ShardEnvelope] = {}
    # Specs by fingerprint, cached agent-side: the coordinator ships each
    # spec inline once per connection; pool children are warmed lazily
    # (a cold child answers SpecMiss and the agent resubmits from here).
    specs: dict = {}
    last_beat = clock.monotonic()
    while True:
        now = clock.monotonic()
        if now - last_beat >= HEARTBEAT_INTERVAL:
            send_frame(sock, "heartbeat", {})
            last_beat = now
        for ticket, future in list(running.items()):
            if not future.done():
                continue
            del running[ticket]
            try:
                outcome = future.result()
            except WireError:
                raise
            except Exception as exc:  # the shard itself raised
                envelopes.pop(ticket, None)
                send_frame(sock, "error", {"ticket": ticket, "message": repr(exc)})
                continue
            if isinstance(outcome, SpecMiss):
                env = envelopes.get(ticket)
                spec = specs.get(outcome.spec_fp)
                if env is not None and spec is not None:
                    env = replace(env, spec=spec)
                    envelopes[ticket] = env
                    running[ticket] = pool.submit(execute_envelope, env, ticket)
                else:  # should be unreachable: the coordinator ships first
                    send_frame(
                        sock,
                        "error",
                        {
                            "ticket": ticket,
                            "message": f"unknown spec {outcome.spec_fp:#x}",
                        },
                    )
                continue
            envelopes.pop(ticket, None)
            batch = None
            if isinstance(outcome, TracedOutcome):
                outcome, batch = outcome.outcome, outcome.batch
            send_frame(sock, "result", {"ticket": ticket, "outcome": outcome})
            if batch is not None:
                # Spans ride behind their result so a lost connection
                # never costs a result for the sake of observability.
                # ``sent`` is stamped as late as possible: the
                # coordinator's receipt-minus-sent difference becomes
                # the batch's clock-offset correction.
                send_frame(
                    sock,
                    "spans",
                    {"ticket": ticket, "batch": batch,
                     "sent": clock.monotonic()},
                )
        readable, _, _ = select.select([sock], [], [], 0.2)
        if not readable:
            continue
        try:
            chunk = sock.recv(1 << 16)
        except BlockingIOError:
            continue
        except OSError:
            return
        if not chunk:
            return  # coordinator is gone; campaign over
        buffer += chunk
        for kind, payload in extract_frames(buffer):
            if kind == "task":
                ticket, env = unpack_task(payload)
                assert isinstance(env, ShardEnvelope)
                if env.spec_fp is not None and env.spec is not None:
                    specs.setdefault(env.spec_fp, env.spec)
                envelopes[ticket] = env
                running[ticket] = pool.submit(execute_envelope, env, ticket)
            elif kind == "cancel":
                ticket = payload.get("ticket")
                if isinstance(ticket, int) and ticket in running:
                    post_cancel(board, ticket)
            elif kind == "ping":
                # RTT probe: echo the payload verbatim so the
                # coordinator can subtract its own send instant.
                send_frame(sock, "pong", payload)
            elif kind == "shutdown":
                return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (SocketClusterBackend / --backend socket)",
    )
    parser.add_argument(
        "--token", default=None,
        help=f"shared auth token (default: ${TOKEN_ENV})",
    )
    parser.add_argument(
        "--slots", type=int, default=1,
        help="concurrent shards this agent runs (local process pool size)",
    )
    parser.add_argument(
        "--retry", type=float, default=10.0,
        help="seconds to keep retrying the initial connection (default 10)",
    )
    parser.add_argument(
        "--label", default=None,
        help="worker name in coordinator diagnostics (default host:pid)",
    )
    args = parser.parse_args(argv)
    token = args.token or os.environ.get(TOKEN_ENV)
    if not token:
        parser.error(f"no auth token: pass --token or set ${TOKEN_ENV}")
    if args.slots < 1:
        parser.error("--slots must be >= 1")
    label = args.label or f"{socket.gethostname()}:{os.getpid()}"
    # A terminated agent must still unwind (the finally below), or its
    # pool children leak blocked on the call queue -- holding any
    # inherited pipes open forever.  SIGTERM is how the coordinator's
    # close() retires locally-spawned agents.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    sock = _connect_with_retry(parse_hostport(args.connect), args.retry)
    board = cancel_board()
    pool = ProcessPoolExecutor(
        max_workers=args.slots, initializer=_init_child, initargs=(board,)
    )
    try:
        _handshake(sock, token, args.slots, label)
        try:
            _serve(sock, pool, board)
        except WireError:
            pass  # coordinator vanished mid-campaign: exit cleanly
    finally:
        # Never wait=True: the coordinator is gone (or told us to stop),
        # so nobody wants the in-flight result -- release the children
        # (each exits after its current shard) and leave promptly.
        pool.shutdown(wait=False, cancel_futures=True)
        sock.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The multi-host backend: a TCP coordinator for remote worker agents.

``SocketClusterBackend`` listens on a host:port; any number of
``python -m repro.campaign.worker`` agents connect (from this machine or
any other), authenticate with the shared token, and pull pickled
:class:`repro.campaign.backends.base.WorkItem` shards.  The coordinator

- tracks per-worker capacity (``slots``) and keeps every authenticated
  worker saturated from one FIFO queue,
- converts the campaign's absolute monotonic deadline into a remaining
  budget per task frame (clocks do not agree across hosts),
- treats a closed socket, a send failure or a silent heartbeat window as
  worker death and **requeues** that worker's in-flight shards at the
  front of the queue (shards are deterministic pure functions, so a
  re-run is indistinguishable from the first run), and
- discards results for cancelled tickets coordinator-side, and tells
  the agent holding a cancelled ticket to stop it (a ``cancel`` frame:
  the agent posts the ticket to its pool's cancel board, exactly like
  the process backend), so the worker slot frees within one
  ``_CLOCK_STRIDE`` window instead of after the whole dead shard.

Workers are launched out-of-band -- the point of the backend is that the
launch mechanism is trivial::

    REPRO_WORKER_TOKEN=... python -m repro.campaign.worker \
        --connect COORD_HOST:7781

over SSH, in a container, or under kubernetes; :meth:`spawn_local_workers`
starts them as local subprocesses for tests and single-host smoke runs.

Beyond workers, the coordinator accepts read-only **observer**
connections (a ``hello`` with ``role: "observer"`` and the same token):
they contribute zero capacity, are never dispatched to, and receive
``status`` frames -- live :class:`repro.obs.live.ProgressSnapshot`
records -- which ``python -m repro.obs.watch`` renders.  The coordinator
also probes every worker with ``ping`` frames and folds the echoed
``pong`` round trips into a heartbeat-latency histogram
(``cluster.heartbeat_rtt_s``), the measurement half of the ROADMAP's
WAN-adaptive heartbeat follow-up.

No shared visited filter: ``make_filter`` inherits the ``None`` default
-- shared-memory segments do not cross hosts, so ``shared_visited``
units degrade to per-shard search (sound; the in-process mirror folding
still applies inside each shard).
"""

from __future__ import annotations

import hmac
import os
import secrets as _secrets
import select
import socket
import subprocess
import sys
from collections import deque
from typing import Iterator

from repro import obs
from repro.obs import clock
from repro.obs.live import WorkerHealth
from repro.obs.metrics import Histogram, log_bucket_boundaries
from repro.campaign.backends.base import (
    ExecutionBackend,
    ShardFailure,
    WorkItem,
    budget_outcome,
)
from repro.campaign.backends.specs import make_envelope
from repro.campaign.backends.wire import (
    TOKEN_ENV,
    WireError,
    extract_frames,
    pack_task,
    send_frame,
)
from repro.mc.result import Outcome

#: A worker silent for this many seconds is presumed dead (its agent
#: heartbeats every ~5 s even while the search computes in a child
#: process, so this is six missed beats).
HEARTBEAT_TIMEOUT = 30.0

#: A connection that has not authenticated within this window is dropped.
AUTH_TIMEOUT = 10.0

#: Seconds between coordinator->worker round-trip probes (``ping``
#: frames); matches the workers' own heartbeat cadence.
PING_INTERVAL = 5.0

#: Buckets for the heartbeat round-trip histogram: 10 us .. 10 s, four
#: log buckets per decade (same-host agents land around 0.1-1 ms; a WAN
#: hop shows up two decades higher -- the measurement the ROADMAP's
#: WAN-adaptive heartbeat follow-up needs).
RTT_BUCKETS = log_bucket_boundaries(-5, 1, 4)

#: Send stall allowed on a ``status`` frame before the observer is
#: declared dead: short, because a stalled observer must never be able
#: to hold up the coordinator's event loop (workers get the full
#: ``SEND_TIMEOUT``; observers are disposable).
OBSERVER_SEND_TIMEOUT = 2.0


class _WorkerConn:
    """One connected (maybe not yet authenticated) worker agent."""

    def __init__(self, sock: socket.socket, addr):
        sock.setblocking(False)
        self.sock = sock
        self.addr = addr
        self.authed = False
        self.slots = 1
        self.label = f"{addr[0]}:{addr[1]}"
        self.inflight: set[int] = set()
        self.buffer = bytearray()
        self.last_seen = clock.monotonic()
        #: Read-only status consumer (hello ``role: "observer"``): zero
        #: slots, never dispatched to, excluded from capacity and from
        #: the worker-failure counter -- it can watch, never work.
        self.is_observer = False
        #: RTT probe state: when the last ``ping`` went out, and the
        #: last measured round-trip (``None`` until the first pong).
        self.last_ping: float | None = None
        self.last_rtt: float | None = None
        #: Throughput of this agent's most recent completed search
        #: shard (states/s); surfaced in worker-health snapshots.
        self.last_states_per_s: float | None = None
        #: Spec fingerprints this agent has been shipped inline; later
        #: shards of the same unit cross as bare fingerprints (the agent
        #: caches specs and warms its own pool children).  Dies with the
        #: connection, so a replacement worker is re-shipped naturally.
        self.seen_specs: set[int] = set()

    def fileno(self) -> int:
        return self.sock.fileno()

    def free_slots(self) -> int:
        return self.slots - len(self.inflight) if self.authed else 0

    def pump(self):
        """Drain readable bytes; complete frames out, ``None`` if dead."""
        received = False
        try:
            while True:
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    return None  # orderly EOF
                self.buffer += chunk
                received = True
        except BlockingIOError:
            pass
        except OSError:
            return None
        if received:
            # Any bytes count as liveness, not just complete frames: a
            # worker mid-transfer of one large result frame (heartbeats
            # cannot interleave on the stream) must not be reaped as
            # silent and have its shard requeued in a livelock.
            self.last_seen = clock.monotonic()
        try:
            # Until the token handshake succeeds, only JSON control
            # frames decode -- an untrusted peer's bytes must never
            # reach pickle.loads (that would be pre-auth code execution).
            return extract_frames(self.buffer, allow_pickle=self.authed)
        except WireError:
            return None  # garbage on the wire: treat the peer as gone


class SocketClusterBackend(ExecutionBackend):
    """Coordinate campaign shards across socket-connected worker agents."""

    name = "socket"

    def __init__(
        self,
        listen: tuple[str, int] = ("127.0.0.1", 0),
        *,
        token: str | None = None,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
        auth_timeout: float = AUTH_TIMEOUT,
    ):
        self._listener = socket.create_server(listen, reuse_port=False)
        self._listener.setblocking(False)
        #: The shared secret workers must present; generated when the
        #: operator did not provide one (read it off this attribute to
        #: hand to remote agents, or set ``REPRO_WORKER_TOKEN`` both ends).
        self.token = token if token else _secrets.token_hex(16)
        self.heartbeat_timeout = heartbeat_timeout
        self.auth_timeout = auth_timeout
        self._workers: list[_WorkerConn] = []
        self._items: dict[int, WorkItem] = {}
        self._queue: deque[int] = deque()
        self._assigned: dict[int, _WorkerConn] = {}
        self._discarded: set[int] = set()
        self._results: deque[tuple[int, Outcome]] = deque()
        self._next_ticket = 0
        self._deadline: float | None = None
        self._pending_error: Exception | None = None
        #: Local agent subprocesses started by :meth:`spawn_local_workers`
        #: (tests kill one of these to exercise the requeue path).
        self.spawned: list[subprocess.Popen] = []
        #: Observability counters: shards requeued after a worker died,
        #: and workers declared dead.
        self.requeued = 0
        self.worker_failures = 0
        #: Heartbeat round-trip latency across all workers (ping->pong;
        #: mirrored into the campaign's registry when one is attached,
        #: so it lands in traces and ``repro.obs.report``).
        self.heartbeat_rtt = Histogram("cluster.heartbeat_rtt_s", RTT_BUCKETS)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the coordinator accepts workers on."""
        return self._listener.getsockname()[:2]

    def spawn_local_workers(
        self, n: int, *, slots: int = 1
    ) -> list[subprocess.Popen]:
        """Start ``n`` local agent subprocesses pointed at this coordinator."""
        host, port = self.address
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        env = dict(os.environ)
        env[TOKEN_ENV] = self.token
        procs = []
        for _ in range(n):
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.campaign.worker",
                        "--connect",
                        f"{host}:{port}",
                        "--slots",
                        str(slots),
                        "--retry",
                        "30",
                    ],
                    env=env,
                    # Fully detached from our stdio: an agent (or a pool
                    # child it forked) that outlives us must not hold a
                    # CI/pytest pipeline open through inherited pipes.
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        self.spawned.extend(procs)
        return procs

    def wait_for_workers(self, n: int, timeout: float = 60.0) -> None:
        """Block until ``n`` worker slots are connected and authenticated."""
        deadline = clock.monotonic() + timeout
        while self.capacity() < n:
            if clock.monotonic() >= deadline:
                raise TimeoutError(
                    f"only {self.capacity()}/{n} worker slots connected "
                    f"within {timeout:.0f}s (listening on "
                    f"{self.address[0]}:{self.address[1]})"
                )
            self._poll(0.2)

    def capacity(self) -> int:
        # Observers are explicitly excluded (their slots are zero by
        # construction, but capacity is a scheduling input -- be direct).
        return sum(
            w.slots for w in self._workers if w.authed and not w.is_observer
        )

    def outstanding(self) -> int:
        # Discarded-but-assigned shards still occupy a worker slot until
        # their agent's probe stops them, so they count against idle
        # capacity.
        return len(self._queue) + len(self._assigned)

    # ------------------------------------------------------------------
    # The backend contract
    # ------------------------------------------------------------------
    def submit_unit(self, item: WorkItem) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        self._items[ticket] = item
        self._queue.append(ticket)
        return ticket

    def cancel(self, ticket: int) -> bool:
        conn = self._assigned.get(ticket)
        if conn is not None:
            # The result is dropped on arrival, so the ticket is
            # guaranteed not to be yielded; the cancel frame makes the
            # agent stop the search and send that result early.
            if ticket not in self._discarded:
                self._discarded.add(ticket)
                try:
                    send_frame(conn.sock, "cancel", {"ticket": ticket})
                except WireError:
                    self._drop_worker(conn)
            return True
        if ticket in self._items:
            self._queue.remove(ticket)
            del self._items[ticket]
            return True
        for pos, (done_ticket, _) in enumerate(self._results):
            if done_ticket == ticket:
                del self._results[pos]
                return True
        return True  # already yielded or never existed: nothing to undo

    def _live_outstanding(self) -> int:
        live_assigned = len(self._assigned) - len(
            self._discarded & self._assigned.keys()
        )
        return len(self._queue) + live_assigned

    def as_completed(self) -> Iterator[tuple[int, Outcome]]:
        while self._results or self._live_outstanding():
            if self._pending_error is not None:
                error, self._pending_error = self._pending_error, None
                raise error
            if self._results:
                yield self._results.popleft()
                continue
            self._poll(0.2)

    def close(self) -> None:
        for conn in self._workers:
            try:
                send_frame(conn.sock, "shutdown", {})
            except WireError:
                pass
            conn.sock.close()
        self._workers.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        for proc in self.spawned:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.spawned:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def _poll(self, timeout: float) -> None:
        """One coordinator cycle: accept, read, reap, dispatch."""
        self._expire_queued()
        readable_from = [self._listener] + self._workers
        try:
            readable, _, _ = select.select(readable_from, [], [], timeout)
        except (OSError, ValueError):
            readable = []  # a conn died under select; the reap pass finds it
        now = clock.monotonic()
        for source in readable:
            if source is self._listener:
                self._accept_new()
                continue
            frames = source.pump()
            if frames is None:
                self._drop_worker(source)
                continue
            for kind, payload in frames:
                self._handle_frame(source, kind, payload)
        for conn in list(self._workers):
            silent = now - conn.last_seen
            limit = (
                self.heartbeat_timeout if conn.authed else self.auth_timeout
            )
            if silent > limit:
                self._drop_worker(conn)
        self._send_pings(now)
        self._dispatch()
        self._check_spawned()
        self._publish_status()

    def _send_pings(self, now: float) -> None:
        """RTT probes to every authed worker, one per :data:`PING_INTERVAL`.

        Each ping carries its own send instant, so a late pong still
        measures a true round trip; a lost one simply yields no sample
        (liveness is the heartbeat reaper's job, not the probe's).
        """
        for conn in list(self._workers):
            if not conn.authed or conn.is_observer:
                continue
            if conn.last_ping is not None and now - conn.last_ping < PING_INTERVAL:
                continue
            conn.last_ping = now
            try:
                send_frame(conn.sock, "ping", {"t": now})
            except WireError:
                self._drop_worker(conn)

    # ------------------------------------------------------------------
    # Status surfaces (observability only; see repro.obs.live)
    # ------------------------------------------------------------------
    def worker_health(self) -> tuple:
        """One :class:`repro.obs.live.WorkerHealth` per authed worker."""
        now = clock.monotonic()
        return tuple(
            WorkerHealth(
                label=conn.label,
                slots=conn.slots,
                inflight=len(conn.inflight),
                heartbeat_age_s=max(0.0, now - conn.last_seen),
                spec_cache=len(conn.seen_specs),
                last_states_per_s=conn.last_states_per_s,
                rtt_s=conn.last_rtt,
            )
            for conn in self._workers
            if conn.authed and not conn.is_observer
        )

    def broadcast_status(self, payload: dict) -> None:
        """Fan one ``status`` frame to every attached observer.

        A slow or vanished observer is dropped on the spot (short send
        timeout) -- it holds no work and owes no results, so the only
        thing its death can ever cost is its own view.
        """
        for conn in list(self._workers):
            if not (conn.authed and conn.is_observer):
                continue
            try:
                send_frame(
                    conn.sock, "status", payload, timeout=OBSERVER_SEND_TIMEOUT
                )
            except WireError:
                self._drop_worker(conn)

    def _expire_queued(self) -> None:
        """Budget-synthesize outcomes for queued work past the deadline."""
        if self._deadline is None or clock.monotonic() < self._deadline:
            return
        while self._queue:
            ticket = self._queue.popleft()
            del self._items[ticket]
            self._results.append((ticket, budget_outcome()))

    def _accept_new(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            self._workers.append(_WorkerConn(sock, addr))

    def _handle_frame(self, conn: _WorkerConn, kind: str, payload) -> None:
        if not conn.authed:
            token = payload.get("token") if kind == "hello" else None
            if not isinstance(token, str) or not hmac.compare_digest(
                token, self.token
            ):
                self._drop_worker(conn)  # wrong/no token: no requeue needed
                return
            conn.authed = True
            if payload.get("role") == "observer":
                # Read-only peer: zero slots (never dispatched to, zero
                # capacity), kept alive by its own heartbeats, fed
                # ``status`` frames until it detaches or the campaign
                # shuts down.
                conn.is_observer = True
                conn.slots = 0
            else:
                conn.slots = max(1, int(payload.get("slots") or 1))
            label = payload.get("label")
            if label:
                conn.label = str(label)
            try:
                send_frame(conn.sock, "welcome", {"coordinator_pid": os.getpid()})
                if conn.is_observer:
                    # Catch the newcomer up immediately: the latest
                    # snapshot, if a campaign has published one.
                    publisher = self._status_publisher
                    if (
                        publisher is not None
                        and publisher.last_snapshot is not None
                    ):
                        from repro.obs.live import snapshot_to_json

                        send_frame(
                            conn.sock,
                            "status",
                            snapshot_to_json(publisher.last_snapshot),
                            timeout=OBSERVER_SEND_TIMEOUT,
                        )
            except WireError:
                self._drop_worker(conn)
            return
        if kind == "result":
            self._take_result(conn, payload["ticket"], payload["outcome"])
        elif kind == "spans":
            # Worker-side trace spans, sent right behind their result.
            # The worker stamped its own monotonic ``sent`` instant;
            # receipt-minus-sent folds clock skew plus one-way latency
            # into one per-batch offset, re-anchoring the span
            # timestamps on the coordinator's clock (same-host agents:
            # sub-millisecond error).  Pure observability -- stale or
            # discarded tickets' spans still merge, results never do.
            recorder = obs.recorder()
            if recorder is not None:
                offset = clock.monotonic() - payload["sent"]
                recorder.absorb(
                    payload["batch"], offset=offset, worker=conn.label
                )
        elif kind == "pong":
            # Round-trip sample: the worker echoed our monotonic send
            # instant, so receipt-minus-sent is one full RTT on this
            # host's clock (no cross-host clock math involved).
            sent = payload.get("t")
            if isinstance(sent, (int, float)):
                rtt = max(0.0, clock.monotonic() - sent)
                conn.last_rtt = rtt
                self.heartbeat_rtt.observe(rtt)
                if self._registry is not None:
                    self._registry.histogram(
                        "cluster.heartbeat_rtt_s", RTT_BUCKETS
                    ).observe(rtt)
        elif kind == "error":
            # A raising shard is deterministic -- requeueing would fail
            # identically elsewhere -- so deliver a ShardFailure and let
            # the scheduler decide relevance (a cancelled/serially-dead
            # shard's failure is dropped, like everywhere else).
            self._take_result(
                conn,
                payload.get("ticket"),
                ShardFailure(f"worker {conn.label}: {payload.get('message')}"),
            )
        # heartbeats need no handling beyond the last_seen bump in pump()

    def _take_result(self, conn: _WorkerConn, ticket: int, outcome) -> None:
        if self._assigned.get(ticket) is not conn:
            return  # stale: the ticket was requeued to another worker
        if (
            isinstance(outcome, Outcome)
            and outcome.elapsed > 0
            and outcome.stats.states > 0
        ):
            # Worker-health bookkeeping only (discarded results still
            # measured real throughput, so record before that check).
            conn.last_states_per_s = outcome.stats.states / outcome.elapsed
        self._release(conn, ticket)
        if ticket in self._discarded:
            self._discarded.discard(ticket)
            return
        self._results.append((ticket, outcome))

    def _release(self, conn: _WorkerConn, ticket) -> None:
        conn.inflight.discard(ticket)
        self._assigned.pop(ticket, None)
        self._items.pop(ticket, None)

    def _drop_worker(self, conn: _WorkerConn) -> None:
        if conn not in self._workers:
            return
        self._workers.remove(conn)
        conn.sock.close()
        if conn.authed and not conn.is_observer:
            # A vanished observer held no work and owed no results: not
            # a worker failure (and nothing below requeues -- its
            # inflight set is empty by construction).
            self.worker_failures += 1
        for ticket in sorted(conn.inflight, reverse=True):
            self._assigned.pop(ticket, None)
            if ticket in self._discarded:
                self._discarded.discard(ticket)
                self._items.pop(ticket, None)
                continue
            # Requeue at the front, ascending, so the replacement worker
            # picks the serially-oldest shard first.
            self._queue.appendleft(ticket)
            self.requeued += 1
        conn.inflight.clear()

    def _dispatch(self) -> None:
        for conn in list(self._workers):
            if conn not in self._workers:
                continue  # dropped while dispatching to an earlier worker
            if conn.is_observer:
                continue  # read-only by contract (free_slots is 0 too)
            while self._queue and conn.free_slots() > 0:
                ticket = self._queue.popleft()
                item = self._items[ticket]
                fp = item.spec_fp
                with_spec = fp is not None and fp not in conn.seen_specs
                env = make_envelope(
                    item, with_spec=with_spec, trace=obs.enabled()
                )
                try:
                    send_frame(conn.sock, *pack_task(ticket, env))
                except WireError:
                    self._queue.appendleft(ticket)
                    self._drop_worker(conn)
                    break
                if with_spec:
                    conn.seen_specs.add(fp)
                conn.inflight.add(ticket)
                self._assigned[ticket] = conn

    def _check_spawned(self) -> None:
        """Fail fast when every locally-spawned agent is already dead."""
        # Only *worker* connections count as live here: an attached
        # observer must not mask the every-spawned-agent-dead condition
        # (it can watch, but it will never drain the queue).
        has_workers = any(not w.is_observer for w in self._workers)
        if not self.spawned or has_workers or not self._live_outstanding():
            return
        if all(proc.poll() is not None for proc in self.spawned):
            self._pending_error = RuntimeError(
                "all locally-spawned campaign workers exited "
                f"({[proc.returncode for proc in self.spawned]}) with "
                f"{self._live_outstanding()} shards outstanding"
            )

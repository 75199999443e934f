"""The worker client: lease units from a coordinator, validate, stream back.

A worker client runs the same :class:`repro.campaign.supervisor.UnitLoop`
as a local campaign — hello, lease, validate in a
:class:`repro.tv.parallel.WorkerPool` slot, report — with a TCP channel
in place of the in-process coordinator, so a unit validated here is
structure-deterministic and byte-identical to one validated anywhere
else.  Around the loop it adds only what a network needs:

- a **heartbeat thread** renews every held lease on the advertised
  interval (the channel is lock-serialized, so it shares the socket with
  the lease/result loop);
- a **silent coordinator** (no bytes, no FIN) gets a bounded number of
  reconnect-and-resend attempts before it is reported lost;
- ``SIGTERM`` (or :meth:`ServiceWorker.request_drain`) triggers a graceful
  drain: stop leasing, finish and report in-flight units, say
  ``goodbye``, exit cleanly.

The client itself dying takes no protocol action at all — that is the
case the coordinator's lease expiry exists for.
"""

from __future__ import annotations

import logging
import os
import socket as socket_module
import threading
from dataclasses import dataclass

from repro.campaign.supervisor import UnitLoop, WorkerSummary
from repro.service.protocol import (
    MessageChannel,
    ProtocolError,
    ProtocolTimeout,
    connect,
)

logger = logging.getLogger(__name__)


@dataclass
class WorkerConfig:
    """One worker client's knobs (the ``repro service worker`` flags)."""

    connect: str
    worker_id: str | None = None
    #: local validation subprocesses (slots); clamped to cpu_count for
    #: real CPU-bound validation, kept as requested for injected hooks.
    jobs: int = 1
    #: replaces the validate hook advertised by the coordinator
    #: (fault-injection harnesses arm this locally).
    validate: object | None = None
    #: overrides the coordinator-advertised shared cache directory — a
    #: worker on another host without the shared filesystem points this
    #: at local scratch (or "" to disable persistence).
    cache_dir: str | None = None
    connect_retries: int = 40
    #: seconds to wait for any coordinator reply before declaring the
    #: connection silent (a powered-off or partitioned coordinator sends
    #: neither data nor FIN, so a blocking recv would wait forever).
    #: None restores the historical block-forever behaviour.
    recv_timeout: float | None = 60.0
    #: reconnect-and-resend attempts after a silent timeout before the
    #: coordinator is reported lost and the worker exits nonzero.
    recv_retries: int = 2

    def resolved_worker_id(self) -> str:
        if self.worker_id:
            return self.worker_id
        return f"{socket_module.gethostname()}-{os.getpid()}"


class ServiceWorker:
    """One worker client (see module docstring for the protocol dance)."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.worker_id = config.resolved_worker_id()
        self._drain = threading.Event()  # SIGTERM / request_drain()
        self._server_drain = threading.Event()  # coordinator said drain
        self._lost = threading.Event()  # connection gone
        self._channel: MessageChannel | None = None
        self._reconnect_lock = threading.Lock()

    def request_drain(self) -> None:
        """Finish in-flight units, report them, say goodbye, stop."""
        self._drain.set()

    # -- RPC helpers -----------------------------------------------------------

    def _request(self, message: dict) -> dict | None:
        """One RPC; connection loss sets ``_lost`` instead of raising so
        the drain/death paths degrade uniformly.

        A *silent* coordinator (recv timeout: no bytes, no FIN) gets a
        bounded number of reconnect-and-resend attempts — every message
        type is safe to re-issue (results are first-write-wins at the
        coordinator, leases and heartbeats are idempotent per worker) —
        before the coordinator is reported lost.
        """
        attempts = max(0, self.config.recv_retries) + 1
        for attempt in range(attempts):
            channel = self._channel
            if channel is None or self._lost.is_set():
                return None
            try:
                return channel.request(message)
            except ProtocolTimeout as error:
                logger.warning(
                    "coordinator silent (attempt %d/%d): %s",
                    attempt + 1,
                    attempts,
                    error,
                )
                if attempt + 1 == attempts or not self._reconnect(channel):
                    break
            except (ProtocolError, OSError) as error:
                logger.warning("coordinator connection lost: %s", error)
                self._lost.set()
                return None
        logger.error(
            "coordinator lost: no reply from %s after %d attempts",
            self.config.connect,
            attempts,
        )
        self._lost.set()
        return None

    def _reconnect(self, stale: MessageChannel) -> bool:
        """Replace a timed-out channel; False when the redial fails.

        Lock-guarded so the heartbeat thread and the lease/result loop
        don't both redial after the same silence; the loser of the race
        just reuses the winner's fresh channel.
        """
        with self._reconnect_lock:
            if self._channel is not stale:
                return True  # another thread already replaced it
            stale.close()
            try:
                self._channel = connect(
                    self.config.connect,
                    retries=1,
                    recv_timeout=self.config.recv_timeout,
                )
            except ConnectionError:
                return False
            return True

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._lost.is_set():
            if self._drain.wait(timeout=interval):
                return  # draining: the main loop owns the goodbye
            reply = self._request(
                {"type": "heartbeat", "worker_id": self.worker_id}
            )
            if reply is None:
                return
            if reply.get("drain"):
                self._server_drain.set()

    # -- main loop -------------------------------------------------------------

    def run(self) -> WorkerSummary:
        config = self.config
        self._channel = connect(
            config.connect,
            retries=config.connect_retries,
            recv_timeout=config.recv_timeout,
        )
        units = UnitLoop(
            self._request,
            self.worker_id,
            socket_module.gethostname(),
            config.jobs,
            validate=config.validate,
            cache_dir=config.cache_dir,
            draining=lambda: self._drain.is_set() or self._server_drain.is_set(),
            lost=self._lost.is_set,
        )
        welcome = units.hello()
        if welcome is None:
            self._channel.close()
            raise ConnectionError(
                f"coordinator {config.connect} sent no welcome"
            )
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(float(welcome.get("heartbeat_seconds", 5.0)),),
            daemon=True,
        )
        heartbeat.start()
        try:
            return units.run()
        finally:
            self._drain.set()  # stops the heartbeat thread
            if not self._lost.is_set():
                self._request({"type": "goodbye", "worker_id": self.worker_id})
            self._channel.close()
            heartbeat.join(timeout=2.0)


def run_worker(config: WorkerConfig) -> WorkerSummary:
    """Convenience wrapper: build, run, return the summary."""
    return ServiceWorker(config).run()

"""The campaign job table: one coordinator for local and remote workers.

A :class:`Coordinator` owns everything about *what* runs next and how a
failure is charged — the per-shard ready queues drained round-robin,
retry with exponential backoff, poison-pill quarantine, leases, and the
journal writes behind each transition.  It speaks a small message
protocol (:meth:`Coordinator.handle`: ``hello``, ``lease``, ``heartbeat``,
``result``, ``worker_death``, ``goodbye``, ``status``) and never touches a
socket or a process.  Two callers drive it through the same unit loop
(:class:`repro.campaign.supervisor.UnitLoop`): a local campaign calls
``handle`` in process, and :mod:`repro.service` serves it over TCP.

- **Leases, not assignments.**  A granted unit carries a lease.  Remote
  workers keep it renewed by heartbeat; one that vanishes — SIGKILL,
  kernel panic, network partition — simply stops renewing, and
  :meth:`Coordinator.sweep` re-queues each of its in-flight units
  *exactly once* after lease expiry (the lease table pops entries, so a
  second expiry cannot happen), without charging the function a
  poison-pill kill: a silent worker is indistinguishable from a
  partition, and the journal's rule is that only *observed* deaths
  count.  A local campaign observes its deaths directly and never sweeps.
- **Idempotent results.**  The first ``result`` for a unit wins and is
  journaled as ``done``; anything later — the presumed-dead worker's
  answer surfacing after its unit was re-run elsewhere — is journaled as
  ``duplicate`` and dropped.  Validation is structure-deterministic, so
  duplicates agree with the accepted outcome; dropping them keeps every
  unit accounted exactly once.
- **Observed deaths quarantine.**  A worker that sees its validation
  subprocess die reports ``worker_death``; those are the deaths that feed
  the poison-pill counter, so a function that keeps killing workers is
  quarantined after ``max_kills`` observed deaths no matter how many
  hosts it burned.
- **One journal.**  Every transition goes through the campaign journal
  (events tagged with ``worker``/``host``), so ``repro campaign
  status|resume`` and the deterministic merger read a local and a
  service-run directory alike.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.campaign.journal import Journal, load_state
from repro.campaign.leases import LeaseTable
from repro.campaign.merge import build_status
from repro.tv.parallel import Task

if TYPE_CHECKING:
    from repro.campaign.supervisor import PreparedCampaign

logger = logging.getLogger(__name__)


@dataclass
class ServiceConfig:
    """Knobs of one coordinator; ``host``, ``port``, ``poll_seconds`` and
    ``drain_grace_seconds`` only matter when it is served over TCP."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick; the bound port is ``Coordinator.address``.
    port: int = 0
    #: lease duration; must exceed a unit's hard validation budget or the
    #: coordinator will re-queue units that are still being worked on.
    lease_seconds: float = 60.0
    #: heartbeat interval advertised to workers (any RPC also renews).
    heartbeat_seconds: float = 5.0
    #: backoff advertised on ``wait`` replies when every queue is empty
    #: or backing off.
    wait_seconds: float = 0.25
    #: completion-poll / lease-sweep interval of the serve loop.
    poll_seconds: float = 0.1
    #: how long the server lingers after completion so workers draining
    #: their last RPCs get a clean ``drain`` instead of a reset.
    drain_grace_seconds: float = 1.0


@dataclass
class WorkerInfo:
    """Per-worker accounting (service status, forensics)."""

    worker_id: str
    host: str
    slots: int = 1
    leased: int = 0
    completed: int = 0
    duplicates: int = 0
    deaths_reported: int = 0
    expired_leases: int = 0
    departed: bool = False
    last_seen: float = field(default=0.0)


class Coordinator:
    """Shared campaign state behind one lock.  Callers pass decoded
    messages to :meth:`handle` and get the reply back, so all protocol
    semantics are unit-testable without sockets.

    Construction journals the recovery of a resumed campaign's orphans:
    a ``requeue`` each, or a ``quarantine`` once the journal-derived kill
    count has reached ``max_kills``."""

    def __init__(
        self,
        prepared: PreparedCampaign,
        journal: Journal,
        service: ServiceConfig | None = None,
    ):
        self.prepared = prepared
        self.service = service or ServiceConfig()
        self._journal = journal
        self._lock = threading.RLock()
        self._leases = LeaseTable(self.service.lease_seconds)
        self._kills = prepared.kills
        self._workers: dict[str, WorkerInfo] = {}
        manifest = prepared.manifest
        self._assignment = {
            name: index
            for index, shard in enumerate(manifest["shard_lists"])
            for name in shard
        }
        self._unresolved = {task.name for task in prepared.tasks}
        self._shard_ids = sorted({task.shard for task in prepared.tasks})
        self._queues: dict[int, deque[Task]] = {
            shard: deque() for shard in self._shard_ids
        }
        for task in prepared.tasks:
            self._queues[task.shard].append(task)
        self._rotation = 0
        self._next_index = (
            max((task.index for task in prepared.tasks), default=-1) + 1
        )
        max_kills = prepared.max_kills
        for name, attempt in prepared.orphans.items():
            # Journaled before anything is granted, so a resume that
            # itself crashes never re-queues the same orphan twice.
            if self._kills.get(name, 0) >= max_kills:
                self._journal_event(
                    "quarantine",
                    name,
                    attempt=attempt,
                    reason=(
                        f"poison pill: {self._kills[name]} worker deaths"
                        " without an outcome"
                    ),
                )
                self._unresolved.discard(name)
            else:
                self._journal_event(
                    "requeue",
                    name,
                    attempt=attempt,
                    reason="in flight at supervisor crash/halt",
                    delay=0.0,
                )
        self._imprecise = sorted(
            name
            for name, options in prepared.overrides.items()
            if options.imprecise_liveness
        )

    # -- state queries ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        with self._lock:
            return not self._unresolved

    # -- scheduling ------------------------------------------------------------

    def _next_ready(self, now: float) -> Task | None:
        """Round-robin over shard queues, honouring retry backoff and
        dropping entries resolved while they waited (late duplicate
        acceptance can settle a queued retry)."""
        for offset in range(len(self._shard_ids)):
            shard = self._shard_ids[
                (self._rotation + offset) % len(self._shard_ids)
            ]
            queue = self._queues[shard]
            while queue and queue[0].name not in self._unresolved:
                queue.popleft()  # stale: settled while queued
            if (
                queue
                and queue[0].not_before <= now
                and self._leases.lease_of(queue[0].name) is None
            ):
                self._rotation = (
                    self._rotation + offset + 1
                ) % len(self._shard_ids)
                return queue.popleft()
        return None

    def _requeue(self, name: str, attempt: int, delay: float) -> None:
        task = Task(
            index=self._next_index,
            name=name,
            shard=self._assignment[name],
            attempt=attempt,
            not_before=time.monotonic() + delay,
        )
        self._next_index += 1
        self._queues.setdefault(task.shard, deque()).append(task)
        if task.shard not in self._shard_ids:
            self._shard_ids = sorted(self._queues)

    def sweep(self, now: float | None = None) -> list[str]:
        """Re-queue units whose leases expired; returns their names."""
        now = time.monotonic() if now is None else now
        requeued = []
        with self._lock:
            for lease in self._leases.expire(now):
                info = self._workers.get(lease.worker_id)
                if info is not None:
                    info.expired_leases += 1
                if lease.unit not in self._unresolved:
                    continue
                self._journal_event(
                    "requeue",
                    lease.unit,
                    attempt=lease.attempt,
                    reason=(
                        f"lease expired ({lease.lease_id},"
                        f" worker {lease.worker_id} presumed dead)"
                    ),
                    delay=0.0,
                    death=False,
                    worker=lease.worker_id,
                )
                self._requeue(lease.unit, lease.attempt + 1, 0.0)
                requeued.append(lease.unit)
                logger.warning(
                    "lease %s on %r expired (worker %s); re-queued",
                    lease.lease_id,
                    lease.unit,
                    lease.worker_id,
                )
        return requeued

    # -- journal helpers -------------------------------------------------------

    def _journal_event(self, kind: str, name: str, **extra) -> None:
        event = {
            "event": kind,
            "fn": name,
            "shard": self._assignment.get(name),
            **extra,
        }
        self._journal.append(event)

    # -- message dispatch ------------------------------------------------------

    def handle(self, message: dict, peer_host: str = "?") -> dict:
        kind = message.get("type")
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            return {"type": "error", "detail": f"unknown message type {kind!r}"}
        with self._lock:
            return handler(message, peer_host)

    def _touch(self, message: dict, peer_host: str) -> WorkerInfo:
        worker_id = message.get("worker_id", "?")
        info = self._workers.get(worker_id)
        if info is None:
            info = self._workers[worker_id] = WorkerInfo(
                worker_id=worker_id, host=message.get("host", peer_host)
            )
        info.last_seen = time.monotonic()
        return info

    def _on_hello(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        info.slots = int(message.get("slots", 1))
        info.departed = False
        manifest = self.prepared.manifest
        logger.info(
            "worker %s (%s, %d slots) joined", info.worker_id, info.host,
            info.slots,
        )
        return {
            "type": "welcome",
            "worker_id": info.worker_id,
            "module_text": self.prepared.module_text,
            "wall_budget": manifest["wall_budget"],
            "incremental": manifest.get("incremental", True),
            "target": manifest.get("target", "vx86"),
            "imprecise": self._imprecise,
            "cache_dir": manifest["cache_dir"],
            "validate": manifest.get("validate"),
            "lease_seconds": self.service.lease_seconds,
            "heartbeat_seconds": self.service.heartbeat_seconds,
            "wait_seconds": self.service.wait_seconds,
        }

    def _on_lease(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        now = time.monotonic()
        self._leases.renew_worker(info.worker_id, now)
        if not self._unresolved:
            return {"type": "drain"}
        task = self._next_ready(now)
        if task is None:
            return {"type": "wait", "seconds": self.service.wait_seconds}
        lease = self._leases.grant(task.name, info.worker_id, task.attempt, now)
        info.leased += 1
        self._journal_event(
            "start",
            task.name,
            attempt=task.attempt,
            worker=info.worker_id,
            host=info.host,
            lease=lease.lease_id,
        )
        return {
            "type": "unit",
            "unit": task.name,
            "lease_id": lease.lease_id,
            "attempt": task.attempt,
            "shard": task.shard,
        }

    def _on_heartbeat(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        renewed = self._leases.renew_worker(info.worker_id, time.monotonic())
        return {
            "type": "ack",
            "renewed": renewed,
            "drain": not self._unresolved,
        }

    def _on_result(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        unit = message.get("unit", "")
        lease = self._leases.release(message.get("lease_id", ""))
        attempt = lease.attempt if lease else message.get("attempt", 0)
        if unit not in self._unresolved:
            # First write won already: the unit was re-run elsewhere after
            # this worker's lease expired.  Log, tally, drop.
            info.duplicates += 1
            self._journal_event(
                "duplicate",
                unit,
                attempt=attempt,
                worker=info.worker_id,
                host=info.host,
            )
            logger.info(
                "duplicate result for %r from %s dropped (first write wins)",
                unit,
                info.worker_id,
            )
            return {"type": "ack", "duplicate": True}
        self._journal_event(
            "done",
            unit,
            attempt=attempt,
            outcome=message.get("outcome"),
            worker=info.worker_id,
            host=info.host,
        )
        self._unresolved.discard(unit)
        info.completed += 1
        return {"type": "ack", "duplicate": False}

    def _on_worker_death(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        info.deaths_reported += 1
        unit = message.get("unit", "")
        detail = message.get("detail", "validation subprocess died")
        lease = self._leases.release(message.get("lease_id", ""))
        if unit not in self._unresolved:
            return {"type": "ack", "stale": True}
        attempt = lease.attempt if lease else message.get("attempt", 0)
        self._kills[unit] = self._kills.get(unit, 0) + 1
        max_kills = self.prepared.max_kills
        if self._kills[unit] >= max_kills:
            self._journal_event(
                "quarantine",
                unit,
                attempt=attempt,
                reason=(
                    f"poison pill: killed {self._kills[unit]} workers"
                    f" ({detail})"
                ),
                worker=info.worker_id,
                host=info.host,
            )
            self._unresolved.discard(unit)
            return {"type": "ack", "quarantined": True}
        delay = self.prepared.backoff_seconds * (2 ** (self._kills[unit] - 1))
        self._journal_event(
            "requeue",
            unit,
            attempt=attempt,
            reason=detail,
            delay=delay,
            death=True,
            worker=info.worker_id,
            host=info.host,
        )
        self._requeue(unit, attempt + 1, delay)
        return {"type": "ack", "quarantined": False}

    def _on_goodbye(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        info.departed = True
        for lease in self._leases.release_worker(info.worker_id):
            if lease.unit not in self._unresolved:
                continue
            self._journal_event(
                "requeue",
                lease.unit,
                attempt=lease.attempt,
                reason=f"worker {info.worker_id} drained mid-lease",
                delay=0.0,
                death=False,
                worker=info.worker_id,
            )
            self._requeue(lease.unit, lease.attempt + 1, 0.0)
        logger.info("worker %s departed", info.worker_id)
        return {"type": "ack"}

    def _on_status(self, message: dict, peer_host: str) -> dict:
        status = build_status(
            self.prepared.manifest, load_state(self.prepared.directory)
        )
        lines = [status.render(), self._render_service_lines()]
        return {
            "type": "status",
            "complete": status.complete,
            "unresolved": len(self._unresolved),
            "leases": len(self._leases),
            "workers": len(self._workers),
            "render": "\n".join(lines),
        }

    def _render_service_lines(self) -> str:
        lines = [
            f"service: workers={len(self._workers)}"
            f" leases-outstanding={len(self._leases)}"
            f" leases-granted={self._leases.granted}"
            f" leases-expired={self._leases.expired}"
        ]
        for worker_id in sorted(self._workers):
            info = self._workers[worker_id]
            state = "departed" if info.departed else "active"
            lines.append(
                f"worker {worker_id} ({info.host}, {state}):"
                f" leased={info.leased} completed={info.completed}"
                f" duplicates={info.duplicates}"
                f" deaths-reported={info.deaths_reported}"
                f" leases-expired={info.expired_leases}"
            )
        return "\n".join(lines)

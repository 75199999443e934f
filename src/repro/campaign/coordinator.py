"""The campaign job table.

A :class:`Coordinator` owns everything about *what* runs next and how a
failure is charged: the per-shard ready queues drained round-robin,
retry with exponential backoff, poison-pill quarantine, and the journal
write behind each transition.  It never touches a process.  The local
campaign driver (:func:`repro.campaign.supervisor._run_local`) asks it
for the next task with :meth:`~Coordinator.next_task`, runs the task in
a :class:`repro.tv.parallel.WorkerPool` slot, and reports what became of
it with :meth:`~Coordinator.record_result` or
:meth:`~Coordinator.record_death`.

- **Observed deaths quarantine.**  A worker process that dies under a
  task is charged to its function; a function that keeps killing
  workers is quarantined after ``max_kills`` deaths, counting the ones
  earlier runs journaled.
- **Orphans first.**  A resumed campaign's orphans (functions a crashed
  or halted run left in flight) are journaled as ``requeue`` or
  ``quarantine`` before anything is granted, so a resume that itself
  crashes never re-queues the same orphan twice.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import TYPE_CHECKING

from repro.campaign.journal import Journal, outcome_to_json
from repro.tv.driver import TvOutcome
from repro.tv.parallel import Task

if TYPE_CHECKING:
    from repro.campaign.supervisor import PreparedCampaign


class Coordinator:
    """Pending work of one campaign run, journaled as it moves.

    Construction journals the recovery of a resumed campaign's orphans:
    a ``requeue`` each, or a ``quarantine`` once the journal-derived kill
    count has reached ``max_kills``."""

    def __init__(self, prepared: PreparedCampaign, journal: Journal):
        self.prepared = prepared
        self._journal = journal
        self._kills = prepared.kills
        self._assignment = {
            name: index
            for index, shard in enumerate(prepared.manifest["shard_lists"])
            for name in shard
        }
        self._unresolved = {task.name for task in prepared.tasks}
        for name, attempt in prepared.orphans.items():
            if self._kills.get(name, 0) >= prepared.max_kills:
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
        self._shard_ids = sorted({task.shard for task in prepared.tasks})
        self._queues: dict[int, deque[Task]] = {
            shard: deque() for shard in self._shard_ids
        }
        for task in prepared.tasks:
            if task.name in self._unresolved:
                self._queues[task.shard].append(task)
        self._rotation = 0

    @property
    def finished(self) -> bool:
        return not self._unresolved

    def next_task(self) -> Task | None:
        """Journal ``start`` for the next ready task and return it; None
        while every queue is empty or backing off.  Shard queues are
        drained round-robin."""
        now = time.monotonic()
        for offset in range(len(self._shard_ids)):
            shard = self._shard_ids[
                (self._rotation + offset) % len(self._shard_ids)
            ]
            queue = self._queues[shard]
            if queue and queue[0].not_before <= now:
                self._rotation = (
                    self._rotation + offset + 1
                ) % len(self._shard_ids)
                task = queue.popleft()
                self._journal_event("start", task.name, attempt=task.attempt)
                return task
        return None

    def record_result(self, task: Task, outcome: TvOutcome) -> None:
        """Journal the task's terminal outcome."""
        self._journal_event(
            "done",
            task.name,
            attempt=task.attempt,
            outcome=outcome_to_json(outcome),
        )
        self._unresolved.discard(task.name)

    def record_death(self, task: Task, detail: str) -> None:
        """Charge a worker death to the task's function: re-queue it after
        an exponential backoff, or quarantine it at ``max_kills``."""
        name = task.name
        self._kills[name] = self._kills.get(name, 0) + 1
        if self._kills[name] >= self.prepared.max_kills:
            self._journal_event(
                "quarantine",
                name,
                attempt=task.attempt,
                reason=(
                    f"poison pill: killed {self._kills[name]} workers"
                    f" ({detail})"
                ),
            )
            self._unresolved.discard(name)
            return
        delay = self.prepared.backoff_seconds * (2 ** (self._kills[name] - 1))
        self._journal_event(
            "requeue",
            name,
            attempt=task.attempt,
            reason=detail,
            delay=delay,
            death=True,
        )
        self._queues[task.shard].append(
            dataclasses.replace(
                task,
                attempt=task.attempt + 1,
                not_before=time.monotonic() + delay,
            )
        )

    def _journal_event(self, kind: str, name: str, **extra) -> None:
        self._journal.append(
            {
                "event": kind,
                "fn": name,
                "shard": self._assignment.get(name),
                **extra,
            }
        )

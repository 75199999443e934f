"""Parallel batch validation (the campaign driver's fan-out layer).

The GCC-style campaign is embarrassingly parallel: every function is
validated independently, so the batch fans out over worker *processes*
(symbolic execution and CDCL are pure Python — threads would serialize on
the GIL).  The design constraints:

- **Spawn safety.**  :class:`repro.smt.terms.Term` objects are interned in
  a per-process table; shipping them across a pipe would either break the
  ``is``-equality invariant or smuggle one process's table into another.
  Workers therefore receive the module *as text* and re-parse it — the
  printer/parser round-trip is exact (see ``ConstGep.__str__``) and
  validation outcomes are structure-deterministic, so a worker reproduces
  precisely the sequential result.
- **Deterministic ordering.**  Results are re-assembled by task index;
  the returned :class:`BatchResult` lists outcomes in input order no
  matter which worker finished first.
- **Hard kill-and-reap.**  The per-function ``wall_budget_seconds`` is
  enforced cooperatively inside KEQ, but a worker stuck outside a budget
  check (or in a pathological parse) would stall the pool.  The pool
  tracks a hard deadline per in-flight task; an overdue worker is
  terminated, its task recorded as ``Category.TIMEOUT``, and a fresh
  worker spawned in its place.  A worker that dies (crash, OOM-kill) is
  reaped and yields ``Category.OTHER`` with its exit code, and the pool
  keeps draining.

:class:`WorkerPool` is the one slot pool of the code base: it drives
:func:`run_batch_parallel` here and durable campaigns
(:mod:`repro.campaign.supervisor`).

Each worker keeps one :class:`repro.smt.cache.QueryCache` for its
lifetime; with ``cache_dir`` set, decided queries are shared across
workers and across runs through the persistent store.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import time
import traceback
from multiprocessing import connection as mp_connection
from collections import deque
from dataclasses import dataclass

from repro.keq.report import FAILURE_CLASS_CRASH, FAILURE_CLASS_TIMEOUT
from repro.llvm import ir
from repro.tv.batch import BatchResult, run_batch
from repro.tv.driver import Category, TvOptions, TvOutcome, validate_function
from repro.util import available_cpus

logger = logging.getLogger(__name__)

#: Hard-kill deadline: the cooperative wall budget, plus headroom for one
#: budget-check interval and the module re-parse.
_GRACE_FACTOR = 1.5
_GRACE_SLACK = 5.0

#: Dispatcher poll interval while waiting for results (seconds).
_POLL_SECONDS = 0.05


def default_validate(module, name, options, cache):
    """The validation callable workers run; replaceable via ``validate``
    (used by tests to inject hanging/crashing workloads)."""
    return validate_function(module, name, options, cache)


def _worker_main(conn, module_text, options, overrides, cache_dir, validate):
    """Worker loop: re-parse the module, then serve tasks off the pipe."""
    from repro.llvm import parse_module
    from repro.smt import QueryCache

    validate = validate or default_validate
    try:
        module = parse_module(module_text)
    except Exception:
        detail = traceback.format_exc(limit=8)
        module = None
    cache = QueryCache(cache_dir=cache_dir)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, index, name = message
        task_options = overrides.get(name, options)
        target = (task_options or TvOptions()).target
        if module is None:
            outcome = TvOutcome(
                name,
                Category.OTHER,
                target=target,
                detail=f"module re-parse failed:\n{detail}",
                failure_class=FAILURE_CLASS_CRASH,
            )
        else:
            try:
                outcome = validate(module, name, task_options, cache)
            except BaseException:
                outcome = TvOutcome(
                    name,
                    Category.OTHER,
                    target=target,
                    detail=traceback.format_exc(limit=12),
                    failure_class=FAILURE_CLASS_CRASH,
                )
        try:
            conn.send(("done", index, outcome))
        except (BrokenPipeError, OSError):
            return


@dataclass
class Task:
    """One unit of work for a pool slot (``Worker.assign`` reads ``index``
    and ``name``); the campaign job table adds its shard, attempt and
    retry backoff."""

    index: int
    name: str
    shard: int = 0
    attempt: int = 1
    not_before: float = 0.0


class Worker:
    """One spawned worker process plus its duplex pipe and current task."""

    def __init__(self, ctx, module_text, options, overrides, cache_dir, validate):
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, module_text, options, overrides, cache_dir, validate),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.task: Task | None = None
        self.started: float = 0.0
        self.deadline: float | None = None

    def assign(self, task: Task, hard_budget: float | None) -> None:
        self.task = task
        self.started = time.perf_counter()
        self.deadline = (
            self.started + hard_budget if hard_budget is not None else None
        )
        self.conn.send(("task", task.index, task.name))

    def overdue(self, now: float) -> bool:
        return (
            self.task is not None
            and self.deadline is not None
            and now > self.deadline
        )

    def shutdown(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.process.close()

    def kill(self) -> None:
        self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)
        self.conn.close()
        self.process.close()


def hard_budget(
    options: TvOptions | None,
    grace_factor: float = _GRACE_FACTOR,
    grace_slack: float = _GRACE_SLACK,
) -> float | None:
    wall = (options or TvOptions()).keq.wall_budget_seconds
    if wall is None:
        return None
    return wall * grace_factor + grace_slack


def _clamp_jobs(jobs: int | None, validate) -> int:
    """Pool size for ``jobs`` requested slots (None = one per core)."""
    cores = available_cpus()
    if jobs is None:
        return cores
    if validate is None and jobs > cores:
        # Workers run pure-Python CPU-bound search: oversubscribing cores
        # only adds scheduler thrash (BENCH_parallel.json measured jobs=4 at
        # 0.24x sequential on a 1-core box).  Injected ``validate`` hooks
        # (test harnesses exercising pool mechanics) keep the requested
        # fan-out.
        logger.info(
            "clamping jobs=%d to cpu_count=%d (avoiding oversubscription)",
            jobs,
            cores,
        )
        return cores
    return max(1, jobs)


@dataclass
class SlotEvent:
    """What became of one submitted task: ``done`` (the worker replied),
    ``died`` (the worker process died under it) or ``killed`` (hard
    wall-clock kill).  ``outcome`` is the worker's reply, or the
    ``other``/``timeout`` outcome the pool records for a death or kill."""

    kind: str
    task: Task
    outcome: TvOutcome


class WorkerPool:
    """Up to ``size`` worker slots, spawned on demand.

    :meth:`submit` hands a task to an idle slot; :meth:`wait` turns every
    reply, death (reaped, with its exit code) and overdue hard kill into
    one :class:`SlotEvent`.  A dead or killed slot is closed and dropped;
    the next :meth:`submit` spawns its replacement.
    """

    def __init__(
        self,
        size: int | None,
        module_text: str,
        options: TvOptions | None,
        overrides: dict[str, TvOptions],
        cache_dir: str | None,
        validate=None,
        grace_factor: float = _GRACE_FACTOR,
        grace_slack: float = _GRACE_SLACK,
    ):
        self.size = _clamp_jobs(size, validate)
        self._ctx = mp.get_context("spawn")
        self._worker_args = (module_text, options, overrides, cache_dir, validate)
        self._options = options
        self._overrides = overrides
        self._grace = (grace_factor, grace_slack)
        self._slots: list[Worker] = []

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def busy(self) -> int:
        return sum(1 for worker in self._slots if worker.task is not None)

    @property
    def idle(self) -> int:
        """Tasks :meth:`submit` can take right now."""
        return self.size - self.busy

    def submit(self, task: Task) -> None:
        """Run ``task`` on an idle slot (the caller checks :attr:`idle`).

        A slot found dead before it takes the task is replaced and the
        task handed to the replacement: the task never ran, so no event
        is reported for it."""
        budget = hard_budget(self._task_options(task), *self._grace)
        while True:
            worker = next((w for w in self._slots if w.task is None), None)
            if worker is None:
                worker = Worker(self._ctx, *self._worker_args)
                self._slots.append(worker)
            try:
                if worker.process.is_alive():
                    worker.assign(task, budget)
                    return
            except (BrokenPipeError, OSError):
                pass
            # The slot died while idle: replace it, charge nobody.
            worker.task = None
            self._discard(worker)

    def wait(self, timeout: float | None = None) -> list[SlotEvent]:
        """Wait up to ``timeout`` seconds for the busy slots; returns the
        events in slot order.  Sleeps when no slot is busy."""
        timeout = _POLL_SECONDS if timeout is None else timeout
        busy = [worker for worker in self._slots if worker.task is not None]
        if not busy:
            time.sleep(timeout)
            return []
        ready = mp_connection.wait([w.conn for w in busy], timeout=timeout)
        events = []
        for worker in busy:
            task = worker.task
            if worker.conn in ready:
                try:
                    _, _, outcome = worker.conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-task (crash, OOM-kill, SIGKILL).
                    worker.process.join(timeout=1.0)  # reap for the exit code
                    outcome = TvOutcome(
                        task.name,
                        Category.OTHER,
                        target=self._task_options(task).target,
                        detail=(
                            "worker process died"
                            f" (exitcode={worker.process.exitcode})"
                        ),
                        seconds=time.perf_counter() - worker.started,
                        failure_class=FAILURE_CLASS_CRASH,
                    )
                    worker.task = None
                    self._discard(worker)
                    events.append(SlotEvent("died", task, outcome))
                    continue
                worker.task = None
                events.append(SlotEvent("done", task, outcome))
            elif worker.overdue(time.perf_counter()):
                # Hung worker: hard kill-and-reap, classify as TIMEOUT.
                outcome = TvOutcome(
                    task.name,
                    Category.TIMEOUT,
                    target=self._task_options(task).target,
                    detail="hard wall-clock kill (worker unresponsive)",
                    seconds=time.perf_counter() - worker.started,
                    failure_class=FAILURE_CLASS_TIMEOUT,
                )
                self._discard(worker)
                events.append(SlotEvent("killed", task, outcome))
        return events

    def _task_options(self, task: Task) -> TvOptions:
        return self._overrides.get(task.name, self._options) or TvOptions()

    def _discard(self, worker: Worker) -> None:
        worker.kill()
        self._slots.remove(worker)

    def close(self) -> None:
        """Stop idle slots, kill busy ones, and reap them all."""
        slots, self._slots = self._slots, []
        for worker in slots:
            if worker.task is not None:
                worker.kill()
            else:
                worker.shutdown()


def run_batch_parallel(
    module: ir.Module,
    options: TvOptions | None = None,
    jobs: int | None = None,
    function_names: list[str] | None = None,
    overrides: dict[str, TvOptions] | None = None,
    cache_dir: str | None = None,
    validate=None,
    grace_factor: float = _GRACE_FACTOR,
    grace_slack: float = _GRACE_SLACK,
) -> BatchResult:
    """Validate every function of a module across ``jobs`` worker processes.

    Mirrors :func:`repro.tv.batch.run_batch` (same arguments, same
    deterministic outcome order; ``jobs=1`` is outcome-identical), adding
    the fan-out, the hard per-function kill described in the module
    docstring, and cross-process cache sharing via ``cache_dir``.
    ``validate`` replaces the per-function validation callable in the
    workers; it must be an importable module-level function.
    """
    names = function_names if function_names is not None else list(module.functions)
    overrides = overrides or {}
    jobs = min(_clamp_jobs(jobs, validate), len(names) or 1)
    if jobs == 1 and validate is None:
        # One effective worker gains nothing from the pool but pays spawn
        # and re-parse costs; run_batch is outcome-identical.
        logger.info("single effective worker: validating sequentially")
        return run_batch(
            module,
            options,
            function_names=names,
            overrides=overrides,
            cache_dir=cache_dir,
        )
    pending = deque(Task(index, name) for index, name in enumerate(names))
    outcomes: dict[int, TvOutcome] = {}
    with WorkerPool(
        jobs,
        str(module),
        options,
        overrides,
        cache_dir,
        validate,
        grace_factor,
        grace_slack,
    ) as pool:
        while len(outcomes) < len(names):
            while pending and pool.idle:
                pool.submit(pending.popleft())
            for event in pool.wait():
                outcomes[event.task.index] = event.outcome

    result = BatchResult(outcomes=[outcomes[i] for i in range(len(names))])
    result.merge_stats()
    return result

"""The campaign supervisor: plan, run and resume a durable campaign.

``run_campaign`` turns a corpus into a durable campaign directory; crashes
(of workers *or* of the supervisor itself) lose at most the functions that
were in flight, and ``resume_campaign`` re-queues exactly those and drives
the rest to completion.  ``campaign_status`` inspects a directory without
running anything.

The run itself is one loop (:func:`_run_local`): it takes tasks from the
job table (:class:`repro.campaign.coordinator.Coordinator` — shard
round-robin, retry backoff, quarantine), runs them in one
:class:`repro.tv.parallel.WorkerPool`, and hands every result or death
back to the table, which journals it.

Failure handling policy (the paper's Section 5 taxonomy, operationalised):

- deterministic failures — ``timeout`` (step/wall budget), ``oom``
  (spec-size budget), ``inadequate_sync`` (liveness-inadequate sync
  points) — are terminal outcomes, recorded once and never retried;
- a *worker death* (SIGKILL, OOM-kill, segfault) is transient from the
  campaign's point of view: the function is re-queued with exponential
  backoff.  A function whose worker dies ``max_kills`` times is a poison
  pill and is quarantined (journalled, excluded from scheduling, reported
  under the ``crash`` class) instead of wedging the campaign;
- with ``halt_on_worker_death`` the campaign instead stops at the
  first death — the mode CI uses to simulate a mid-campaign crash and
  assert that ``resume`` recovers cleanly.

Workers are the spawn-safe processes of :mod:`repro.tv.parallel` (module
shipped as text, hard wall-clock deadline, per-worker query cache); the
persistent ``cache_dir`` is the layer shards share.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field

from repro.campaign.coordinator import Coordinator
from repro.campaign.journal import (
    JOURNAL_VERSION,
    Journal,
    load_manifest,
    load_state,
    manifest_path,
    write_manifest,
)
from repro.campaign.merge import (
    CampaignReport,
    CampaignStatus,
    build_status,
    merge_campaign,
)
from repro.campaign.shard import ShardItem, plan_shards
from repro.targets import DEFAULT_TARGET
from repro.tv.batch import corpus_overrides
from repro.tv.dedup import plan_dedup
from repro.tv.driver import TvOptions
from repro.tv.parallel import Task, WorkerPool
from repro.workloads import EXTERNAL_CALLEES, gcc_like_corpus


#: how long the run loop waits for an event when no task is ready.
_IDLE_WAIT_SECONDS = 0.25


class CampaignError(RuntimeError):
    """Misuse of a campaign directory (missing/duplicate manifest, ...)."""


class CampaignInterrupted(RuntimeError):
    """The supervisor stopped before completion (``halt_on_worker_death``).

    The journal is consistent: completed functions have ``done`` events,
    the interrupted ones are in flight and will be re-queued by resume.
    """


@dataclass
class CampaignConfig:
    """Knobs of one campaign; persisted to the manifest."""

    scale: int = 120
    seed: int = 2021
    #: per-function wall-clock budget (None = step budgets only).
    wall_budget: float | None = 30.0
    shards: int = 2
    jobs: int = 2
    #: shared persistent query cache; None = ``<directory>/cache``.
    cache_dir: str | None = None
    dedup: bool = True
    strategy: str = "size_balanced"
    #: worker deaths per function before quarantine (poison-pill rule).
    max_kills: int = 2
    #: base of the exponential re-queue backoff after a worker death.
    backoff_seconds: float = 0.5
    halt_on_worker_death: bool = False
    #: replacement validation callable (importable module-level function,
    #: e.g. the SIGKILL injector in :mod:`repro.campaign.hooks`).
    validate: object | None = None
    #: assumption-based incremental solving (see repro.smt.SolverSession).
    incremental: bool = True
    #: target ISA every function of the campaign validates against.
    target: str = DEFAULT_TARGET


def _base_options(
    wall_budget: float | None,
    incremental: bool = True,
    target: str = DEFAULT_TARGET,
) -> TvOptions:
    if wall_budget is None:
        options = TvOptions()
    else:
        options = TvOptions.for_campaign(wall_budget_seconds=wall_budget)
    options.keq.incremental_solving = incremental
    options.target = target
    return options


def _validate_ref(validate) -> str | None:
    if validate is None:
        return None
    return f"{validate.__module__}:{validate.__qualname__}"


def _resolve_validate(reference: str | None):
    if not reference:
        return None
    module_name, _, qualname = reference.partition(":")
    try:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError, ValueError) as error:
        raise CampaignError(
            f"the manifest's validate hook {reference!r} does not resolve"
            f" ({error}); this code base can no longer run that campaign"
        ) from error
    return target


@dataclass
class PreparedCampaign:
    """Everything a campaign run needs: the published manifest, the module
    as spawn-safe text, the base options and per-function overrides, the
    pending tasks, and the journal-derived kill counts and orphans."""

    directory: str
    manifest: dict
    module_text: str
    options: TvOptions
    overrides: dict[str, TvOptions]
    tasks: list[Task]
    kills: dict[str, int]
    validate: object | None
    #: functions a crashed or halted run left in flight -> their attempt.
    orphans: dict[str, int] = field(default_factory=dict)

    @property
    def max_kills(self) -> int:
        return self.manifest["max_kills"]

    @property
    def backoff_seconds(self) -> float:
        return self.manifest["backoff_seconds"]


def prepare_campaign(
    directory: str,
    config: CampaignConfig | None = None,
    corpus=None,
) -> PreparedCampaign:
    """Plan a fresh campaign: build (or take) the corpus, run dedup and
    sharding, publish the manifest, and return the full task list."""
    config = config or CampaignConfig()
    if os.path.exists(manifest_path(directory)):
        raise CampaignError(
            f"{directory!r} already holds a campaign; use resume"
        )
    corpus_desc: dict = {"kind": "custom"}
    if corpus is None:
        corpus = gcc_like_corpus(scale=config.scale, seed=config.seed)
        corpus_desc = {
            "kind": "gcc_like",
            "scale": config.scale,
            "seed": config.seed,
        }
    module = corpus.build_module()
    base = _base_options(config.wall_budget, config.incremental, config.target)
    overrides = corpus_overrides(corpus, base)
    names = list(module.functions)
    run_names, replay, classes = names, {}, 0
    if config.dedup:
        plan = plan_dedup(
            module,
            names,
            base,
            overrides,
            known_externals=frozenset(EXTERNAL_CALLEES),
        )
        run_names, replay, classes = plan.run_names, plan.replay, plan.classes
    run_set = set(run_names)
    sizes = {
        name: sum(1 for _ in module.function(name).instructions())
        for name in names
    }
    items = [
        ShardItem(
            name=name,
            weight=sizes[name] if name in run_set else 0,
            group=replay.get(name, name),
        )
        for name in names
    ]
    shard_plan = plan_shards(items, config.shards, config.strategy)
    cache_dir = config.cache_dir or os.path.join(directory, "cache")
    manifest = {
        "version": JOURNAL_VERSION,
        "corpus": corpus_desc,
        "wall_budget": config.wall_budget,
        "shards": shard_plan.n_shards,
        "jobs": config.jobs,
        "cache_dir": cache_dir,
        "dedup": config.dedup,
        "strategy": config.strategy,
        "max_kills": config.max_kills,
        "backoff_seconds": config.backoff_seconds,
        "halt_on_worker_death": config.halt_on_worker_death,
        "validate": _validate_ref(config.validate),
        "incremental": config.incremental,
        "target": config.target,
        "functions": names,
        "run_names": run_names,
        "replay": replay,
        "dedup_classes": classes,
        "shard_lists": shard_plan.shards,
    }
    write_manifest(directory, manifest)
    tasks = [
        Task(index, name, shard_plan.shard_of(name))
        for index, name in enumerate(
            name
            for shard in shard_plan.shards
            for name in shard
            if name in run_set
        )
    ]
    return PreparedCampaign(
        directory=directory,
        manifest=manifest,
        module_text=str(module),
        options=base,
        overrides=overrides,
        tasks=tasks,
        kills={},
        validate=config.validate,
    )


def prepare_resume(
    directory: str,
    corpus=None,
    validate=None,
    target: str | None = None,
) -> PreparedCampaign:
    """Plan the continuation of a crashed or halted campaign.

    Returns the prepared plan: completed and quarantined work excluded,
    attempt counters and kill counts continued from the journal, and the
    *orphans* — functions left in flight — with the attempt they were
    on.  The coordinator journals their recovery before it grants
    anything (see :class:`~repro.campaign.coordinator.Coordinator`).
    """
    try:
        manifest = load_manifest(directory)
    except OSError as error:
        raise CampaignError(f"no campaign manifest in {directory!r}") from error
    campaign_target = manifest.get("target", DEFAULT_TARGET)
    if target is not None and target != campaign_target:
        # Outcomes of the two targets are not interchangeable; resuming a
        # vx86 campaign under --target vriscv would merge verdicts proved
        # against a different semantics.
        raise CampaignError(
            f"campaign in {directory!r} targets {campaign_target!r};"
            f" refusing to resume with target {target!r}"
        )
    if corpus is None:
        desc = manifest["corpus"]
        if desc.get("kind") != "gcc_like":
            raise CampaignError(
                "campaign was started from a custom corpus; pass it to resume"
            )
        corpus = gcc_like_corpus(scale=desc["scale"], seed=desc["seed"])
    if validate is None:
        validate = _resolve_validate(manifest.get("validate"))
    module = corpus.build_module()
    base = _base_options(
        manifest["wall_budget"],
        manifest.get("incremental", True),
        campaign_target,
    )
    overrides = corpus_overrides(corpus, base)
    state = load_state(directory)
    run_names = set(manifest["run_names"])
    pending = (
        (shard, name)
        for shard, names in enumerate(manifest["shard_lists"])
        for name in names
        if name in run_names
        and name not in state.completed
        and name not in state.quarantined
    )
    tasks = [
        Task(index, name, shard, attempt=state.ledger(name).starts + 1)
        for index, (shard, name) in enumerate(pending)
    ]
    kills = {name: ledger.kills for name, ledger in state.ledgers.items()}
    return PreparedCampaign(
        directory=directory,
        manifest=manifest,
        module_text=str(module),
        options=base,
        overrides=overrides,
        tasks=tasks,
        kills=kills,
        validate=validate,
        orphans={
            orphan: state.ledger(orphan).starts for orphan in state.orphans()
        },
    )


def run_campaign(
    directory: str,
    config: CampaignConfig | None = None,
    corpus=None,
) -> CampaignReport:
    """Start a fresh campaign in ``directory`` and drive it to completion.

    ``corpus`` defaults to :func:`gcc_like_corpus` at the config's
    scale/seed (the resumable case); a custom corpus is accepted but must
    be passed to ``resume_campaign`` again after a crash.
    """
    config = config or CampaignConfig()
    prepared = prepare_campaign(directory, config, corpus)
    with Journal(directory) as journal:
        _run_local(prepared, journal)
    return merge_campaign(prepared.manifest, load_state(directory))


def resume_campaign(
    directory: str,
    corpus=None,
    validate=None,
    target: str | None = None,
) -> CampaignReport:
    """Resume a crashed or halted campaign: skip completed work, re-queue
    in-flight functions exactly once, finish, and merge.

    ``target`` (when given) must match the manifest's recorded target —
    a mismatch raises :class:`CampaignError` instead of silently mixing
    per-target verdicts."""
    prepared = prepare_resume(directory, corpus, validate, target)
    with Journal(directory) as journal:
        _run_local(prepared, journal)
    return merge_campaign(prepared.manifest, load_state(directory))


def campaign_status(directory: str) -> CampaignStatus:
    """Inspect a campaign directory without running anything."""
    try:
        manifest = load_manifest(directory)
    except OSError as error:
        raise CampaignError(f"no campaign manifest in {directory!r}") from error
    return build_status(manifest, load_state(directory))


def _run_local(prepared: PreparedCampaign, journal: Journal) -> None:
    """Drain a campaign's job table through one worker pool of the
    manifest's ``jobs`` slots.  With ``halt_on_worker_death`` the first
    death is journaled as ``halt`` instead of being charged to the table,
    and :class:`CampaignInterrupted` is raised."""
    table = Coordinator(prepared, journal)
    manifest = prepared.manifest
    with WorkerPool(
        manifest["jobs"],
        prepared.module_text,
        prepared.options,
        prepared.overrides,
        manifest["cache_dir"],
        prepared.validate,
    ) as pool:
        while not table.finished:
            wait = None
            while pool.idle:
                task = table.next_task()
                if task is None:
                    # Everything left is in flight or backing off.
                    wait = _IDLE_WAIT_SECONDS
                    break
                pool.submit(task)
            for event in pool.wait(wait):
                task = event.task
                if event.kind != "died":
                    table.record_result(task, event.outcome)
                elif manifest["halt_on_worker_death"]:
                    # The halt names the function so load_state charges
                    # the death to it (the poison-pill counter survives
                    # the restart).
                    journal.append(
                        {
                            "event": "halt",
                            "fn": task.name,
                            "shard": task.shard,
                            "attempt": task.attempt,
                            "reason": event.outcome.detail,
                        }
                    )
                    raise CampaignInterrupted(
                        f"halted on worker death while validating"
                        f" {task.name!r} ({event.outcome.detail}); resume"
                        " to continue"
                    )
                else:
                    table.record_death(task, event.outcome.detail)

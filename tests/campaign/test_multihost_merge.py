"""Multi-host journals: tags, idempotent acceptance, deterministic merge.

These tests construct journals directly (no network, no subprocesses).
Directories written while campaigns could also be served over TCP carry
host/worker/lease tags and ``duplicate`` events, and local resume relies
on the same invariants: the tags are inert to the loader, the first
``done`` per function wins, duplicate results are tallied but never
double-counted, and the merged report is byte-identical no matter which
hosts completed which units in what order.
"""

from repro.campaign.journal import (
    Journal,
    load_state,
    outcome_to_json,
    write_manifest,
)
from repro.campaign.merge import build_status, merge_campaign
from repro.tv.driver import Category, TvOutcome

MANIFEST = {
    "version": 1,
    "corpus": {"kind": "custom"},
    "wall_budget": None,
    "shards": 2,
    "jobs": 1,
    "cache_dir": "unused",
    "dedup": True,
    "strategy": "round_robin",
    "max_kills": 2,
    "backoff_seconds": 0.1,
    "halt_on_worker_death": False,
    "validate": None,
    "functions": ["fn_a", "fn_b", "fn_c", "fn_dup"],
    "run_names": ["fn_a", "fn_b", "fn_c"],
    "replay": {"fn_dup": "fn_a"},
    "dedup_classes": 1,
    "shard_lists": [["fn_a", "fn_dup"], ["fn_b", "fn_c"]],
}


def outcome_payload(name, category=Category.SUCCEEDED):
    return outcome_to_json(TvOutcome(name, category))


def journal_dir(tmp_path, name, events):
    directory = str(tmp_path / name)
    write_manifest(directory, MANIFEST)
    with Journal(directory) as journal:
        for event in events:
            journal.append(event)
    return directory


def done(name, shard, host=None, worker=None, category=Category.SUCCEEDED):
    event = {
        "event": "done",
        "fn": name,
        "shard": shard,
        "attempt": 1,
        "outcome": outcome_payload(name, category),
    }
    if host:
        event["host"] = host
    if worker:
        event["worker"] = worker
    return event


def start(name, shard, host=None, worker=None, attempt=1):
    event = {"event": "start", "fn": name, "shard": shard, "attempt": attempt}
    if host:
        event["host"] = host
    if worker:
        event["worker"] = worker
    return event


class TestHostTags:
    def test_tags_are_inert_to_the_loader(self, tmp_path):
        tagged = journal_dir(
            tmp_path,
            "tagged",
            [
                start("fn_a", 0, host="h1", worker="w1"),
                done("fn_a", 0, host="h1", worker="w1"),
                start("fn_b", 1, host="h2", worker="w2"),
                done("fn_b", 1, host="h2", worker="w2"),
                start("fn_c", 1, host="h1", worker="w1"),
                done("fn_c", 1, host="h1", worker="w1"),
            ],
        )
        plain = journal_dir(
            tmp_path,
            "plain",
            [
                start("fn_a", 0),
                done("fn_a", 0),
                start("fn_b", 1),
                done("fn_b", 1),
                start("fn_c", 1),
                done("fn_c", 1),
            ],
        )
        tagged_report = merge_campaign(MANIFEST, load_state(tagged))
        plain_report = merge_campaign(MANIFEST, load_state(plain))
        assert tagged_report.summary() == plain_report.summary()
        assert tagged_report.function_table() == plain_report.function_table()

    def test_completion_order_does_not_change_the_report(self, tmp_path):
        forward = journal_dir(
            tmp_path,
            "forward",
            [
                done("fn_a", 0, host="h1"),
                done("fn_b", 1, host="h2"),
                done("fn_c", 1, host="h1"),
            ],
        )
        scrambled = journal_dir(
            tmp_path,
            "scrambled",
            [
                done("fn_c", 1, host="h9"),
                done("fn_a", 0, host="h2"),
                done("fn_b", 1, host="h1"),
            ],
        )
        a = merge_campaign(MANIFEST, load_state(forward))
        b = merge_campaign(MANIFEST, load_state(scrambled))
        assert a.summary() == b.summary()
        assert a.function_table() == b.function_table()


class TestIdempotentAcceptance:
    def test_first_done_wins(self, tmp_path):
        directory = journal_dir(
            tmp_path,
            "dup",
            [
                done("fn_a", 0, worker="w1", category=Category.SUCCEEDED),
                # The same unit surfacing again from a presumed-dead
                # worker — with a different category, to prove which one
                # the merge uses.
                done("fn_a", 0, worker="w2", category=Category.TIMEOUT),
                done("fn_b", 1),
                done("fn_c", 1),
            ],
        )
        state = load_state(directory)
        assert state.ledger("fn_a").duplicates == 1
        assert state.outcome("fn_a").category == Category.SUCCEEDED
        report = merge_campaign(MANIFEST, state)
        assert report.complete
        # fn_a accounted once, replayed once (fn_dup), never twice.
        table = dict(
            (row[0], row[1]) for row in report.function_table()
        )
        assert table["fn_a"] == Category.SUCCEEDED
        assert table["fn_dup"] == Category.SUCCEEDED
        assert len(report.function_table()) == 4

    def test_explicit_duplicate_events_counted(self, tmp_path):
        directory = journal_dir(
            tmp_path,
            "dup2",
            [
                done("fn_a", 0, worker="w1"),
                {
                    "event": "duplicate",
                    "fn": "fn_a",
                    "shard": 0,
                    "attempt": 2,
                    "worker": "w2",
                    "host": "h2",
                },
            ],
        )
        state = load_state(directory)
        assert state.duplicates == 1
        assert state.ledger("fn_a").dones == 1  # not double-counted


class TestResumedMultiWorkerRun:
    def test_interrupted_multiworker_equals_uninterrupted(self, tmp_path):
        """The service acceptance property at the journal level: a run
        where one host died mid-lease (requeue + late duplicate) renders
        the same bytes as an undisturbed run."""
        undisturbed = journal_dir(
            tmp_path,
            "undisturbed",
            [
                start("fn_a", 0, host="h1", worker="w1"),
                done("fn_a", 0, host="h1", worker="w1"),
                start("fn_b", 1, host="h1", worker="w1"),
                done("fn_b", 1, host="h1", worker="w1"),
                start("fn_c", 1, host="h1", worker="w1"),
                done("fn_c", 1, host="h1", worker="w1"),
            ],
        )
        disturbed = journal_dir(
            tmp_path,
            "disturbed",
            [
                start("fn_a", 0, host="h1", worker="w1"),
                start("fn_b", 1, host="h2", worker="w2"),
                done("fn_b", 1, host="h2", worker="w2"),
                # h1 went silent holding fn_a: lease expired, re-queued.
                {
                    "event": "requeue",
                    "fn": "fn_a",
                    "shard": 0,
                    "attempt": 1,
                    "reason": "lease expired (L000001, worker w1 presumed dead)",
                    "delay": 0.0,
                    "death": False,
                    "worker": "w1",
                },
                start("fn_a", 0, host="h2", worker="w2", attempt=2),
                done("fn_a", 0, host="h2", worker="w2"),
                # ... and then h1's answer surfaced after all.
                {
                    "event": "duplicate",
                    "fn": "fn_a",
                    "shard": 0,
                    "attempt": 1,
                    "worker": "w1",
                    "host": "h1",
                },
                start("fn_c", 1, host="h2", worker="w2"),
                done("fn_c", 1, host="h2", worker="w2"),
            ],
        )
        a = merge_campaign(MANIFEST, load_state(undisturbed))
        b = merge_campaign(MANIFEST, load_state(disturbed))
        assert b.complete
        assert a.summary(include_timing=False) == b.summary(
            include_timing=False
        )
        assert a.function_table() == b.function_table()

    def test_status_counts_retries_and_duplicates(self, tmp_path):
        directory = journal_dir(
            tmp_path,
            "status",
            [
                start("fn_a", 0, host="h1", worker="w1"),
                {
                    "event": "requeue",
                    "fn": "fn_a",
                    "shard": 0,
                    "attempt": 1,
                    "reason": "lease expired",
                    "delay": 0.0,
                    "death": False,
                },
                start("fn_a", 0, host="h2", worker="w2", attempt=2),
                done("fn_a", 0, host="h2", worker="w2"),
                {
                    "event": "duplicate",
                    "fn": "fn_a",
                    "shard": 0,
                    "attempt": 1,
                    "worker": "w1",
                },
                start("fn_b", 1, host="h1", worker="w1"),
                {
                    "event": "requeue",
                    "fn": "fn_b",
                    "shard": 1,
                    "attempt": 1,
                    "reason": "worker process died (exitcode=-9)",
                    "delay": 0.1,
                    "death": True,
                },
            ],
        )
        status = build_status(MANIFEST, load_state(directory))
        assert status.retries == 2
        assert status.worker_deaths == 1
        assert status.duplicates == 1
        rendered = status.render()
        assert "requeues=2" in rendered
        assert "worker-deaths=1" in rendered
        assert "duplicate-results=1" in rendered

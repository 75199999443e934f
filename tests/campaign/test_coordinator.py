"""The campaign job table, driven through its direct methods.

No worker processes: a prepared campaign plus synthetic outcomes
exercise grants, retry backoff, poison-pill quarantine and the recovery
of a resumed campaign's orphans.
"""

import time

import pytest

from repro.campaign import CampaignConfig, load_state, read_events
from repro.campaign.coordinator import Coordinator
from repro.campaign.journal import Journal
from repro.campaign.supervisor import prepare_campaign, prepare_resume
from repro.tv.driver import Category, TvOutcome

DETAIL = "worker process died (exitcode=-9)"


def config():
    return CampaignConfig(
        scale=4,
        seed=7,
        shards=2,
        jobs=1,
        wall_budget=20.0,
        backoff_seconds=0.05,
    )


@pytest.fixture
def directory(tmp_path):
    return str(tmp_path / "camp")


@pytest.fixture
def table(directory):
    prepared = prepare_campaign(directory, config())
    with Journal(directory) as journal:
        yield Coordinator(prepared, journal)


def succeed(table, task):
    table.record_result(task, TvOutcome(task.name, Category.SUCCEEDED))


def next_ready(table):
    """The next task, waiting out retry backoff."""
    deadline = time.monotonic() + 30.0
    while (task := table.next_task()) is None:
        assert time.monotonic() < deadline, "no task became ready"
        time.sleep(0.01)
    return task


def drain(table):
    """Grant and complete until the table is finished; returns grants."""
    grants = []
    while not table.finished:
        task = next_ready(table)
        grants.append(task)
        succeed(table, task)
    return grants


def grant_until(table, name):
    """Grant (completing the others) until ``name`` comes up."""
    while (task := next_ready(table)).name != name:
        succeed(table, task)
    return task


class TestGrants:
    def test_full_drain_grants_each_run_unit_once(self, table, directory):
        grants = drain(table)
        run_names = set(table.prepared.manifest["run_names"])
        assert {task.name for task in grants} == run_names
        assert len(grants) == len(run_names)
        assert table.next_task() is None
        assert load_state(directory).completed == run_names


class TestWorkerDeath:
    def test_death_requeues_with_backoff(self, table, directory):
        task = table.next_task()
        table.record_death(task, DETAIL)
        requeues = [e for e in read_events(directory) if e["event"] == "requeue"]
        assert len(requeues) == 1
        assert requeues[0]["fn"] == task.name
        assert requeues[0]["death"] is True
        assert requeues[0]["delay"] == pytest.approx(0.05)
        regrant = grant_until(table, task.name)
        assert regrant.attempt == task.attempt + 1

    def test_second_death_quarantines(self, table, directory):
        task = table.next_task()
        table.record_death(task, DETAIL)
        table.record_death(grant_until(table, task.name), DETAIL)
        drain(table)
        state = load_state(directory)
        assert task.name in state.quarantined
        assert "poison pill: killed 2 workers" in state.quarantined[task.name]
        # Only the retried death is a death-flagged requeue; the final one
        # is folded into the quarantine event.
        assert state.worker_deaths == 1
        assert state.ledger(task.name).requeues == 1


class TestResumeOrphans:
    def crash_with_one_in_flight(self, directory):
        """Run a campaign until one task is in flight, then stop."""
        prepared = prepare_campaign(directory, config())
        with Journal(directory) as journal:
            table = Coordinator(prepared, journal)
            succeed(table, table.next_task())
            return table.next_task()

    def test_orphans_journaled_before_the_first_grant(self, directory):
        orphan = self.crash_with_one_in_flight(directory)
        before = len(read_events(directory))
        prepared = prepare_resume(directory)
        assert prepared.orphans == {orphan.name: orphan.attempt}
        with Journal(directory) as journal:
            table = Coordinator(prepared, journal)
            recovery = read_events(directory)[before:]
            assert [(e["event"], e["fn"]) for e in recovery] == [
                ("requeue", orphan.name)
            ]
            regrant = grant_until(table, orphan.name)
            succeed(table, regrant)
            drain(table)
        assert regrant.attempt == orphan.attempt + 1
        events = read_events(directory)[before:]
        requeues = [e for e in events if e["event"] == "requeue"]
        assert len(requeues) == 1  # exactly once
        assert load_state(directory).orphans() == []

"""Campaign directories written by older versions of the code base.

Directories written before the solver portfolio and the point/campaign
session scopes were removed carry ``session_scope``/``portfolio*`` keys
in the manifest and the removed upkeep/portfolio counters in every
journaled ``solver_stats``.  Those keys are ignored: the resumed campaign
runs with function-scoped sessions and renders the same report as an
uninterrupted run.

A manifest may also name a ``validate`` hook that no longer exists (the
sleep-injected hook of the removed TCP service benchmark).  Resuming it
is refused with one :class:`CampaignError` naming the reference.
"""

import json

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignInterrupted,
    campaign_status,
    load_manifest,
    resume_campaign,
    run_campaign,
)
from repro.campaign.hooks import KILL_DIR_ENV, KILL_ONCE_ENV, sigkill_injector
from repro.campaign.journal import journal_path, write_manifest
from repro.campaign.supervisor import prepare_campaign
from repro.cli import main

#: late in the dispatch order, so the halted run has journaled outcomes
VICTIM = "fn_succeeded_0004"

LEGACY_MANIFEST_KEYS = {
    "session_scope": "campaign",
    "portfolio": 4,
    "portfolio_mode": "processes",
    "portfolio_probe": 0,
}

LEGACY_STATS = {
    "clauses_subsumed": 3,
    "clauses_strengthened": 5,
    "clauses_evicted": 0,
    "probe_failed_literals": 1,
    "session_scope": "campaign,function",
    "portfolio_queries": 2,
    "vars_eliminated": 7,
    "clauses_blocked": 1,
    "portfolio_wins_by_config": {"baseline": 1, "luby-pos": 1},
    "portfolio_probe_decided": 1,
    "portfolio_escalations": 1,
    "portfolio_mode": "processes",
}


def config(**overrides):
    settings = dict(
        scale=8,
        seed=7,
        shards=2,
        jobs=2,
        wall_budget=30.0,
        backoff_seconds=0.05,
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


def halted_legacy_directory(directory, monkeypatch):
    """A campaign halted mid-run, then rewritten into the legacy format."""
    monkeypatch.setenv(KILL_ONCE_ENV, VICTIM)
    monkeypatch.setenv(KILL_DIR_ENV, directory)
    with pytest.raises(CampaignInterrupted):
        run_campaign(
            directory,
            config(halt_on_worker_death=True, validate=sigkill_injector),
        )
    write_manifest(directory, {**load_manifest(directory), **LEGACY_MANIFEST_KEYS})
    path = journal_path(directory)
    with open(path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    legacy_stats = 0
    for event in events:
        stats = event.get("outcome", {}).get("solver_stats")
        if stats is not None:
            stats.update(LEGACY_STATS)
            legacy_stats += 1
    assert legacy_stats, "the halted run journaled no solver stats"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(event) + "\n" for event in events)


class TestLegacyCampaignDirectory:
    def test_resume_ignores_removed_keys_and_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        plain = run_campaign(str(tmp_path / "plain"), config())
        directory = str(tmp_path / "legacy")
        halted_legacy_directory(directory, monkeypatch)

        status = campaign_status(directory).render()
        assert "campaign status: in progress" in status
        assert "portfolio" not in status

        report = resume_campaign(directory)
        assert report.complete
        assert report.summary(include_timing=False) == plain.summary(
            include_timing=False
        )
        assert report.function_table() == plain.function_table()
        session_lines = [
            line
            for line in report.summary().splitlines()
            if line.startswith("session:")
        ]
        assert len(session_lines) == 1
        assert session_lines[0].split()[1].startswith("checks=")


class TestUnresolvableValidateHook:
    @pytest.mark.parametrize(
        "reference",
        [
            "repro.campaign.hooks:sleepy_validate",
            "repro.service.worker:validate",
        ],
    )
    def test_resume_names_the_reference(self, tmp_path, reference, capsys):
        directory = str(tmp_path / "camp")
        prepare_campaign(directory, config(scale=4))
        write_manifest(
            directory, {**load_manifest(directory), "validate": reference}
        )
        with pytest.raises(CampaignError, match=reference):
            resume_campaign(directory)
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "resume", directory])
        message = str(exc.value.code)
        assert reference in message
        assert "\n" not in message

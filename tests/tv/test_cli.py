"""Tests for the command-line driver (the artifact's run-tests.py analogue)."""

import pytest

from repro.cli import main

SIMPLE = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  ret i32 %a
}
"""

WAW = """
@b = external global [8 x i8]
define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"""


@pytest.fixture
def simple_file(tmp_path):
    path = tmp_path / "simple.ll"
    path.write_text(SIMPLE)
    return str(path)


@pytest.fixture
def waw_file(tmp_path):
    path = tmp_path / "waw.ll"
    path.write_text(WAW)
    return str(path)


class TestSingle:
    def test_validates_simple_function(self, simple_file, capsys):
        assert main(["single", simple_file]) == 0
        out = capsys.readouterr().out
        assert "succeeded" in out

    def test_bug_flag_produces_failure_exit(self, waw_file, capsys):
        assert main(["single", waw_file, "--bug", "waw"]) == 1
        out = capsys.readouterr().out
        assert "miscompiled" in out

    def test_merge_stores_flag_validates(self, waw_file):
        assert main(["single", waw_file, "--merge-stores"]) == 0

    def test_explicit_function_name(self, simple_file):
        assert main(["single", simple_file, "--function", "f"]) == 0

    def test_imprecise_liveness_flag(self, tmp_path, capsys):
        path = tmp_path / "loop.ll"
        path.write_text(
            """
define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %head ]
  %inc = add i32 %i, 1
  %c = icmp ult i32 %inc, %n
  br i1 %c, label %head, label %done
done:
  ret i32 %i
}
"""
        )
        assert main(["single", str(path), "--imprecise-liveness"]) == 1
        assert "other" in capsys.readouterr().out


class TestProof:
    def test_proof_flag_records_and_rechecks(self, simple_file, capsys):
        assert main(["single", simple_file, "--proof"]) == 0
        out = capsys.readouterr().out
        assert "equivalence proof" in out
        assert "proof re-check: ok=True" in out


class TestShow:
    def test_prints_machine_code_and_points(self, simple_file, capsys):
        assert main(["show", simple_file]) == 0
        out = capsys.readouterr().out
        assert ".LBB0" in out
        assert "sync point p_entry" in out


class TestCampaign:
    def test_small_campaign_runs(self, capsys):
        assert main(["campaign", "run", "--scale", "6", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "Succeeded" in out

    def test_campaign_jobs_and_cache_dir_flags(self, tmp_path, capsys):
        directory = str(tmp_path / "qc")
        argv = [
            "campaign", "run", "--scale", "6", "--seed", "11",
            "--jobs", "2", "--cache-dir", directory,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert "Succeeded" in out
        assert "solver: queries=" in out
        # Second run reuses the persistent cache: the hit counter is live.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache_hits=0 " not in warm

    def test_campaign_dir_run_and_status(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        argv = [
            "campaign", "run", "--scale", "6", "--seed", "11",
            "--dir", directory, "--shards", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "functions accounted (complete)" in out
        assert "shard 0:" in out and "shard 1:" in out
        assert main(["campaign", "status", directory]) == 0
        status = capsys.readouterr().out
        assert "campaign status: complete" in status
        # A second run into the same directory is refused.
        with pytest.raises(SystemExit):
            main(argv)

    def test_no_dedup_reaches_run_corpus(self, monkeypatch, capsys):
        calls = []

        class Result:
            def summary(self):
                return "stub"

        def fake_run_corpus(corpus, options, **kwargs):
            calls.append(kwargs)
            return Result()

        monkeypatch.setattr("repro.cli.run_corpus", fake_run_corpus)
        argv = ["campaign", "run", "--scale", "6", "--seed", "11"]
        assert main(argv + ["--no-dedup"]) == 0
        assert main(argv) == 0
        assert [call["dedup"] for call in calls] == [False, True]

    def test_campaign_resume_without_manifest_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "resume", str(tmp_path / "nope")])


class TestPortfolioFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "x.ll", "--portfolio", "2"],
            ["single", "x.ll", "--session-scope", "campaign"],
            ["campaign", "run", "--scale", "6", "--portfolio", "2"],
            ["campaign", "run", "--scale", "6", "--session-scope", "campaign"],
        ],
    )
    def test_removed_solver_flags_are_usage_errors(self, argv, capsys):
        # The solver portfolio and the point/campaign session scopes are
        # gone; their flags must fail loudly rather than be ignored.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServiceRemoved:
    def test_service_subcommand_is_a_usage_error(self, capsys):
        # The TCP service is gone; a local campaign runs the same job table.
        with pytest.raises(SystemExit) as exc:
            main(["service", "coordinate", "--dir", "camp", "--port", "0"])
        assert exc.value.code == 2
        assert "invalid choice: 'service'" in capsys.readouterr().err

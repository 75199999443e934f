"""Benchmark of the translation-validation pipeline (Figure 6 campaign ledger).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every stage runs in a fresh interpreter
(``stage.py``) whose PYTHONHASHSEED is taken from ``ledger.json``:

- ``--trace 0`` times the set-up several times (fresh interpreter, imports,
  corpus build), then validates the workload's corpus untraced, pass after
  pass, for at least S seconds; it prints every end-to-end metric;
- ``--trace 1`` runs the passes untraced and then the same number traced,
  checks that tracing changed no verdict and no pipeline counter, and
  prints the per-layer metrics (per pass).

A timed run makes whole rounds over every hash seed of the ledger, one
fresh stage per hash seed, so all runs measure the same mix; ``--seed N``
only picks which hash seed goes first, and the traced run uses that one.
The corpus seed is the workload's own (``--corpus-seed`` overrides it;
``--hash-seed`` replaces the round with one hash seed).

Every verdict is checked against the corpus's known answer; each mismatch
is listed and counted as failed.  The last line of output is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``, holding the
metrics BENCHMARK.json lists; the wall-clock metrics are printed above it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stage  # noqa: E402  (needs HERE on sys.path)
import tracer  # noqa: E402


#: personality(2) flag that turns off address-space randomization.
ADDR_NO_RANDOMIZE = 0x0040000


class StageError(RuntimeError):
    pass


def fixed_layout() -> None:
    """Run the stage with address-space randomization off.

    The program's term hashes mix in the identity hash of sort objects, so
    under one PYTHONHASHSEED the SAT search still differs from process to
    process with the heap's addresses.  Fixing the layout makes a run's
    counts repeat exactly for a given hash seed; where the personality call
    is refused the stage runs randomized."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def stage_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_stage(args: list[str], hash_seed: int, deadline: float) -> float:
    """Run one stage to completion before ``deadline``; returns the seconds
    from launch until the stage printed ``ready`` (set-up stages) or ended."""
    command = [sys.executable, os.path.join(HERE, "stage.py"), *args]
    started = time.perf_counter()
    with subprocess.Popen(
        command,
        env=stage_env(hash_seed),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=fixed_layout,
    ) as process:
        ready = None
        try:
            while select.select([process.stdout], [], [], deadline - time.perf_counter())[0]:
                line = process.stdout.readline()
                if not line:
                    break
                if line.strip() == "ready" and ready is None:
                    ready = time.perf_counter() - started
            code = process.wait(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            code = None
        except BaseException:
            process.kill()  # interrupted: leave no stage behind
            process.wait()
            raise
        if code is None or process.poll() is None:
            process.kill()
            process.wait()
            raise StageError(f"stage {args[0]} ran past the run's time limit")
    if code != 0:
        raise StageError(f"stage {args[0]} exited with code {code}")
    return ready if ready is not None else time.perf_counter() - started


def measure(name, corpus_seed, hash_seed, seconds, traced, workdir, deadline, passes=None):
    """One measuring stage; its passes are tagged with the hash seed."""
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    # Fixed-width arguments: a traced stage and its untraced reference must
    # start from the same heap layout (see tracer.import_layers).
    args = [
        "measure", name, str(corpus_seed), str(seconds), str(int(traced)),
        workdir, out, f"{passes or 0:04d}",
    ]
    run_stage(args, hash_seed, deadline)
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    for run in result["runs"]:
        run["hash_seed"] = hash_seed
    return result


def verdict_count(result: dict) -> int:
    return sum(len(run["verdicts"]) for run in result["runs"])


def functions_per_s(result: dict) -> float:
    """Verdicts per second of pipeline wall (entry to merged report), over
    every pass of the run."""
    return verdict_count(result) / sum(run["wall_s"] for run in result["runs"])


def report_errors(result: dict, target: str, corpus_seed: int):
    errors = []
    for number, run in enumerate(result["runs"]):
        for error in run["errors"]:
            errors.append(error)
            print(
                f"verdict error: {error['function']} target={target}"
                f" corpus_seed={corpus_seed} hash_seed={run['hash_seed']}"
                f" pass={number}"
                f" expected={error['expected']} got={error['got']}"
            )
    return errors


def end_to_end(result: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """The listed end-to-end metrics, and the ones printed but not listed.

    Listed are the ones that repeat across runs: the pipeline's own
    operation counts per function (a run covers every hash seed, so they are
    the same on every run), the Figure 6 success rate, memory and set-up
    time.  Wall-clock rates are printed, not listed: on a shared host they
    drift by more than any bound allows.  The median verdict time also
    falls in a sparse gap of the figure6 time distribution, the error rate
    is zero on the listed workloads, and p90 is undefined below 100
    verdicts."""
    runs = result["runs"]
    times_ms = [1000.0 * seconds for run in runs for seconds in run["seconds"]]
    verdicts = len(times_ms)
    supported = sum(run["supported"] for run in runs)

    def per_function(counter):
        return sum(run["counters"][counter] for run in runs) / verdicts

    listed = {
        "queries_per_function": (per_function("queries"), "count"),
        "sat_conflicts_per_function": (per_function("conflicts"), "count"),
        "sat_propagations_per_function": (per_function("propagations"), "count"),
        "success_rate": (sum(run["succeeded"] for run in runs) / supported, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    extra = {
        "functions_per_s": (functions_per_s(result), "1/s"),
        "verdict_mean_ms": (statistics.fmean(times_ms), "ms"),
        "verdict_p50_ms": (statistics.median(times_ms), "ms"),
        "verdict_error_rate": (
            sum(len(run["errors"]) for run in runs) / verdicts,
            "ratio",
        ),
    }
    if verdicts >= 100:
        extra["verdict_p90_ms"] = (
            statistics.quantiles(times_ms, n=10, method="inclusive")[-1],
            "ms",
        )
    else:
        print(
            f"verdict_p90_ms omitted: {verdicts} verdicts < 100,"
            " fewer than 10 samples would lie beyond it"
        )
    return listed, extra


#: Pipeline counters that repeat exactly in a campaign.  The SAT counters
#: do not: which worker validates which function depends on scheduling, and
#: a worker's earlier functions decide the order its terms were interned in.
CAMPAIGN_EXACT = ("dedup_classes", "deduped", "queries", "incremental_checks")


def inert(untraced: dict, traced: dict, campaign: bool) -> bool:
    """Tracing must change no verdict and no pipeline counter."""
    same = len(untraced["runs"]) == len(traced["runs"])
    for number, (plain, trace) in enumerate(zip(untraced["runs"], traced["runs"])):
        names = CAMPAIGN_EXACT if campaign else plain["counters"]
        differ = [
            name for name in names if plain["counters"][name] != trace["counters"][name]
        ]
        differ += [
            function
            for function, verdict in plain["verdicts"].items()
            if trace["verdicts"].get(function) != verdict
        ]
        if differ:
            same = False
            print(f"tracing not inert: pass={number} differs at {sorted(differ)}")
    return same


def per_layer(untraced: dict, traced: dict, workload: dict) -> dict:
    """Per-layer totals of the traced run, divided by its passes."""
    summary = tracer.summarize(traced["dumps"])
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    runs = traced["runs"]
    passes = len(runs)
    functions = verdict_count(traced)

    def s(name):
        return self_s.get(name, 0.0) / passes

    def n(name):
        return calls.get(name, 0) / passes

    def c(name):
        return counts.get(name, 0) / passes

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    solver_queries = n("solver") + n("session")
    sat_s = s("sat")
    campaign = workload["entry"] == "run_campaign"
    drive_s = 0.0
    if campaign:
        # Drive wall: entry-to-report wall minus planning and merging.
        for dump in traced["dumps"][:1]:
            for name, start, end, _, _ in dump["spans"]:
                if name == "run":
                    drive_s += end - start
                elif name in ("campaign.prepare", "campaign.merge"):
                    drive_s -= end - start
    busy = sum(run["busy_s"] for run in runs)
    capacity = runs[0]["jobs"] * drive_s
    # Validation's root span: the entry call in-process, the per-function
    # hook in campaign workers (the supervisor's own root self time is its
    # dispatch loop waiting on the workers).
    root = "worker.validate" if campaign else "run"
    unattributed = s(root)
    roots = sum(
        end - start
        for dump in traced["dumps"]
        for name, start, end, _, _ in dump["spans"]
        if name == root
    )

    def counter(name):
        return sum(run["counters"][name] for run in runs) / passes

    return {
        "workloads.build_s": (s("workloads"), "s"),
        "dedup.self_s": (s("dedup"), "s"),
        "dedup.classes": (c("dedup.classes"), "count"),
        "dedup.replayed": (c("dedup.replayed"), "count"),
        "isel.calls": (n("isel"), "count"),
        "isel.s": (s("isel"), "s"),
        "isel.calls_per_function": (ratio(n("isel") * passes, functions), "ratio"),
        "isel.machine_insns": (c("isel.machine_insns"), "count"),
        "vcgen.calls": (n("vcgen"), "count"),
        "vcgen.s": (s("vcgen"), "s"),
        "vcgen.sync_points": (c("vcgen.sync_points"), "count"),
        "vcgen.spec_size": (c("vcgen.spec_size"), "count"),
        "keq.self_s": (s("keq"), "s"),
        "keq.steps": (c("keq.steps"), "count"),
        "keq.points": (c("keq.points"), "count"),
        "keq.pairs": (c("keq.pairs"), "count"),
        "solver.queries": (solver_queries, "count"),
        "solver.self_s": (s("solver") + s("session"), "s"),
        "solver.unknowns": (c("solver.unknowns"), "count"),
        "solver.fast_path_ratio": (
            ratio(summary["solver_fast"] / passes, solver_queries), "ratio"
        ),
        "solver.sat_calls_reported": (counter("sat_calls"), "count"),
        "session.checks": (n("session"), "count"),
        "session.clauses_reused": (counter("clauses_reused"), "count"),
        "bitblast.calls": (n("bitblast"), "count"),
        "bitblast.s": (s("bitblast"), "s"),
        "sat.solve_calls": (n("sat"), "count"),
        "sat.s": (sat_s, "s"),
        "sat.conflicts": (c("sat.conflicts"), "count"),
        "sat.propagations": (c("sat.propagations"), "count"),
        "sat.decisions": (c("sat.decisions"), "count"),
        "sat.conflicts_per_s": (ratio(c("sat.conflicts"), sat_s), "1/s"),
        "cache.lookups": (n("cache"), "count"),
        "cache.hit_rate": (ratio(c("cache.hits"), n("cache")), "ratio"),
        "cache.stores": (n("cache.store"), "count"),
        "campaign.prepare_s": (s("campaign.prepare"), "s"),
        "campaign.merge_s": (s("campaign.merge"), "s"),
        "journal.appends": (n("journal"), "count"),
        "journal.append_s": (s("journal"), "s"),
        "campaign.worker_spawns": (c("campaign.worker_spawns"), "count"),
        "campaign.hard_kills": (c("campaign.hard_kills"), "count"),
        "campaign.worker_busy_ratio": (ratio(busy, capacity), "ratio"),
        "trace.overhead": (
            ratio(functions_per_s(untraced), functions_per_s(traced)),
            "ratio",
        ),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.unattributed_share": (ratio(unattributed * passes, roots), "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, help="default: the workload's")
    parser.add_argument("--hash-seed", type=int, help="default: from --seed")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program sources (src/repro) next to the benchmark",
              file=sys.stderr)
        return 2
    ledger = stage.load_ledger()
    workload = ledger["workloads"].get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    hash_seeds = ledger["hash_seeds"]
    start = args.seed % len(hash_seeds)
    order = hash_seeds[start:] + hash_seeds[:start]
    if args.hash_seed is not None:
        order = [args.hash_seed]
    corpus_seed = args.corpus_seed
    if corpus_seed is None:
        corpus_seed = workload["corpus_seed"]
    deadline = time.perf_counter() + ledger["run_limit_s"]
    print(
        f"workload={args.workload} target={workload['target']} seed={args.seed}"
        f" corpus_seed={corpus_seed}"
        f" hash_seeds={order[:1] if args.trace else order} trace={args.trace}"
    )

    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid():08d}")
    os.makedirs(workdir)
    try:
        if args.trace:
            untraced = measure(
                args.workload, corpus_seed, order[0], args.seconds, False,
                os.path.join(workdir, "u0000"), deadline,
            )
            traced = measure(
                args.workload, corpus_seed, order[0], args.seconds, True,
                os.path.join(workdir, "t0000"), deadline,
                passes=len(untraced["runs"]),
            )
            result = traced
            errors = report_errors(result, workload["target"], corpus_seed)
            ok = inert(untraced, traced, workload["entry"] == "run_campaign")
            metrics = per_layer(untraced, traced, workload)
        else:
            setup = ["setup", args.workload, str(corpus_seed)]
            setup_times = [
                run_stage(setup, order[0], deadline)
                for _ in range(ledger["setup_probes"])
            ]
            # Whole rounds over the hash seeds, one fresh stage each, so every
            # run measures the same mix whatever its --seed.
            result = {"runs": [], "peak_rss_mb": 0.0}
            started = time.perf_counter()
            while not result["runs"] or time.perf_counter() - started < args.seconds:
                for hash_seed in order:
                    part = measure(
                        args.workload, corpus_seed, hash_seed, 0, False,
                        os.path.join(workdir, f"u{len(result['runs']):04d}"),
                        deadline, passes=1,
                    )
                    result["runs"] += part["runs"]
                    result["peak_rss_mb"] = max(result["peak_rss_mb"], part["peak_rss_mb"])
            errors = report_errors(result, workload["target"], corpus_seed)
            ok = True
            metrics, extra = end_to_end(result, setup_times)
            for name, (value, unit) in extra.items():
                print(f"{name} = {value:.6g} {unit}")
    except StageError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = verdict_count(result)
    for run in result["runs"]:
        print(
            f"pass hash_seed={run['hash_seed']} verdicts={len(run['verdicts'])}"
            f" wall_s={run['wall_s']:.4f}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    summary = {
        "correct": ok and not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())

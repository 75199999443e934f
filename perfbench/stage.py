"""One benchmark stage in a fresh interpreter (started by ``run.py``).

    python3 perfbench/stage.py setup WORKLOAD CORPUS_SEED
    python3 perfbench/stage.py measure WORKLOAD CORPUS_SEED SECONDS TRACED WORKDIR OUT PASSES

``setup`` imports the pipeline, generates the workload's corpus and builds
its module, then prints ``ready`` (the caller times it).  ``measure``
validates the corpus through the public pipeline entry point
(``run_campaign`` or ``run_corpus``), one pass after another, until SECONDS
have elapsed (or for exactly PASSES passes when that is not 0), and writes
every verdict, the pipeline's own counters and, when TRACED, the spans to
OUT as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: The paper's Figure 8 function (write-after-write store merge, §5.2).
FIGURE_8 = """
@b = external global [8 x i8]

define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"""

#: QueryStats fields recorded per pass (in-process they repeat exactly under
#: one hash seed; ``run.CAMPAIGN_EXACT`` names the ones a campaign repeats).
PIPELINE_COUNTERS = (
    "queries",
    "sat_calls",
    "conflicts",
    "decisions",
    "propagations",
    "incremental_checks",
    "clauses_reused",
    "cache_hits",
    "cache_misses",
)


def load_ledger() -> dict:
    with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as handle:
        return json.load(handle)


def make_corpus(workload: dict, corpus_seed: int):
    from repro.workloads import gcc_like_corpus, solver_bound_corpus

    if workload["corpus"] == "gcc_like":
        return gcc_like_corpus(scale=workload["scale"], seed=corpus_seed)
    return solver_bound_corpus(functions=workload["functions"], seed=corpus_seed)


def verdict_errors(outcomes, expected: dict[str, str]) -> list[dict]:
    """Every outcome whose category differs from its known answer."""
    return [
        {"function": o.function, "expected": expected[o.function], "got": o.category}
        for o in outcomes
        if o.category != expected[o.function]
    ]


def self_test() -> None:
    """The verdict check must not be vacuous: the Figure 8 function under
    the reinjected WAW store-merge bug, labelled ``succeeded``, is exactly
    one verdict error."""
    from repro.isel import BugMode, IselOptions
    from repro.llvm import parse_module
    from repro.tv.driver import TvOptions, validate_function

    module = parse_module(FIGURE_8)
    outcome = validate_function(
        module, "foo", TvOptions(isel=IselOptions(bug=BugMode.WAW_STORE_MERGE))
    )
    errors = verdict_errors([outcome], {"foo": "succeeded"})
    if len(errors) != 1:
        raise SystemExit(
            f"verdict self-test failed: expected 1 verdict error, got {errors}"
        )


def setup(workload: dict, seed: int) -> None:
    import repro.campaign.supervisor  # noqa: F401  (the pipeline entry points)
    import repro.tv.batch  # noqa: F401

    make_corpus(workload, seed).build_module()
    print("ready", flush=True)


def _run_one(workload, corpus, corpus_seed, directory, traced, recorder):
    """Validate the corpus once through the public entry point; returns the
    merged BatchResult, the wall seconds from entry to merged report, and
    the number of workers."""
    from repro.campaign.supervisor import CampaignConfig, run_campaign
    from repro.isel import IselOptions
    from repro.tv.batch import run_corpus
    from repro.tv.driver import TvOptions
    from repro.util import available_cpus

    root = recorder.open("run") if recorder else None
    started = time.perf_counter()
    if workload["entry"] == "run_campaign":
        import tracer

        config = CampaignConfig(
            scale=workload["scale"],
            seed=corpus_seed,
            jobs=min(workload["jobs"], available_cpus()),
            target=workload["target"],
            validate=tracer.traced_validate if traced else None,
        )
        report = run_campaign(directory, config)  # fresh: the cache starts cold
        batch = report.batch
        jobs = config.jobs
    else:
        options = TvOptions.for_campaign(target=workload["target"])
        options.isel = IselOptions(mul_decompose=workload["mul_decompose"])
        batch = run_corpus(corpus, options)
        jobs = 1
    wall = time.perf_counter() - started
    if recorder:
        recorder.close(root)
    return batch, wall, jobs


def measure(
    workload: dict,
    seed: int,
    seconds: float,
    traced: bool,
    workdir: str,
    out: str,
    passes: int | None,
) -> None:
    import tracer

    tracer.import_layers()
    self_test()  # before the wrappers go in, so it leaves no spans
    recorder = None
    if traced:
        os.environ[tracer.TRACE_DIR_ENV] = workdir
        recorder = tracer.install()
    corpus = make_corpus(workload, seed)
    expected = {spec.name: spec.expect for spec in corpus.functions}
    runs = []
    started = time.perf_counter()
    while True:
        directory = os.path.join(workdir, f"campaign-{len(runs):04d}")
        batch, wall, jobs = _run_one(workload, corpus, seed, directory, traced, recorder)
        stats = batch.solver_stats
        runs.append(
            {
                "wall_s": wall,
                "jobs": jobs,
                "verdicts": {o.function: o.category for o in batch.outcomes},
                "seconds": [o.seconds for o in batch.outcomes],
                "busy_s": sum(o.seconds for o in batch.outcomes if not o.deduped),
                "supported": len(batch.supported),
                "succeeded": batch.count("succeeded"),
                "errors": verdict_errors(batch.outcomes, expected),
                "counters": {
                    "dedup_classes": batch.dedup_classes,
                    "deduped": batch.deduped_functions,
                    **{name: getattr(stats, name) for name in PIPELINE_COUNTERS},
                },
            }
        )
        if passes is not None:
            if len(runs) >= passes:
                break
        elif time.perf_counter() - started >= seconds:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "runs": runs,
        # ru_maxrss is in KiB on Linux: this process plus its largest worker.
        "peak_rss_mb": (own + workers) / 1024.0,
    }
    if recorder:
        result["dumps"] = [recorder.dump(), *tracer.load_worker_dumps(workdir)]
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main(argv: list[str]) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = load_ledger()["workloads"][name]
    if mode == "setup":
        setup(workload, seed)
    elif mode == "measure":
        seconds, traced, workdir, out = float(argv[3]), argv[4] == "1", argv[5], argv[6]
        passes = int(argv[7]) or None
        measure(workload, seed, seconds, traced, workdir, out, passes)
    else:
        raise SystemExit(f"unknown stage {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])

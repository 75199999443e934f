"""Span recorder and layer wrappers for the traced benchmark run.

Tracing lives entirely in the benchmark's own files: ``install`` replaces
the public entry point of every pipeline layer with a wrapper that records
a span (layer name, start, end, parent span, function id) and the counts
seen at that boundary.  Spans are kept in memory and written out once, at
the end of the run (or, in campaign worker processes, after each function,
since a worker may be hard-killed at any time).

A layer's self time is its spans' duration minus the part covered by its
child spans.  A call into a layer made from inside the same layer (for
example ``encode_bool`` recursing through a term) is not a new span.

Campaign workers are spawned processes; ``traced_validate`` is the
module-level callable passed as ``CampaignConfig.validate``, so every
worker installs the same wrappers before it validates a function.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

#: Environment variable naming the directory worker processes write their
#: spans to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

class Recorder:
    """In-memory spans plus boundary counters of one process."""

    def __init__(self):
        #: (name, start, end, parent index or -1, function id)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def open(self, name: str, function: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if function is None and parent >= 0:
            function = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, function])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def layer(self, name: str, function_of=None, after=None):
        """Decorator factory: wrap a callable as a span of layer ``name``.

        ``function_of(args)`` names the function the call works on;
        ``after(recorder, result, args)`` records counts at the boundary."""

        def wrap(inner):
            @functools.wraps(inner)
            def wrapper(*args, **kwargs):
                if self._depth[name]:
                    return inner(*args, **kwargs)
                self._depth[name] += 1
                index = self.open(name, function_of(args) if function_of else None)
                try:
                    result = inner(*args, **kwargs)
                finally:
                    self.close(index)
                    self._depth[name] -= 1
                if after is not None:
                    after(self, result, args)
                return result

            return wrapper

        return wrap

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


#: The recorder of this process (None until ``install``).
RECORDER: Recorder | None = None


def _patch(owner, attribute: str, wrapper_factory) -> None:
    setattr(owner, attribute, wrapper_factory(getattr(owner, attribute)))


def _function_arg(args) -> str | None:
    function = args[1]
    return getattr(function, "name", None)


def import_layers() -> None:
    """Import every traced layer and intern every bitvector sort.

    Untraced runs call this too.  Term hashes mix in the identity hash of
    their sort, and the order terms are interned in steers the SAT search;
    with address-space randomization off, a traced and an untraced process
    that import the same modules and create the same sorts before tracing
    allocates anything search identically.  Sorts are otherwise created on
    first use, at addresses the tracer's own allocations would shift."""
    import repro.campaign.supervisor  # noqa: F401
    import repro.isel.lowering  # noqa: F401
    import repro.isel.riscv  # noqa: F401
    import repro.tv.dedup  # noqa: F401
    import repro.tv.driver  # noqa: F401
    from repro.smt.terms import bv_sort

    for width in range(1, 513):
        bv_sort(width)


def install() -> Recorder:
    """Wrap every layer's public entry point; idempotent per process."""
    global RECORDER
    if RECORDER is not None:
        return RECORDER
    recorder = RECORDER = Recorder()

    import_layers()
    import repro.campaign.supervisor as supervisor
    import repro.isel.lowering as vx86_isel
    import repro.isel.riscv as riscv_isel
    import repro.tv.dedup as dedup
    import repro.tv.driver as driver
    from repro.campaign.journal import Journal
    from repro.keq import Keq
    from repro.smt.bitblast import BitBlaster
    from repro.smt.cache import QueryCache
    from repro.smt.sat import SatSolver
    from repro.smt.solver import Result, Solver, SolverSession
    from repro.targets import get_target
    from repro.tv.parallel import Worker
    from repro.workloads.corpus import CorpusSpec

    # repro.workloads
    _patch(CorpusSpec, "build_module", recorder.layer("workloads"))

    # repro.tv.dedup
    def after_dedup(rec, plan, args):
        rec.counts["dedup.classes"] += plan.classes
        rec.counts["dedup.replayed"] += plan.deduped

    dedup_wrap = recorder.layer("dedup", after=after_dedup)
    _patch(dedup, "plan_dedup", dedup_wrap)
    _patch(supervisor, "plan_dedup", dedup_wrap)

    # ISel, reached through Target.select_function on both targets.
    def after_isel(rec, result, args):
        machine, _ = result
        rec.counts["isel.machine_insns"] += sum(
            len(block.instructions) for block in machine.blocks.values()
        )

    isel_wrap = recorder.layer("isel", _function_arg, after_isel)
    _patch(vx86_isel, "select_function", isel_wrap)
    _patch(riscv_isel, "select_function", isel_wrap)
    get_target.cache_clear()  # rebuild Target records around the wrappers

    # repro.vcgen
    def after_vcgen(rec, points, args):
        rec.counts["vcgen.sync_points"] += len(points)
        rec.counts["vcgen.spec_size"] += points.spec_size()

    vcgen_wrap = recorder.layer("vcgen", _function_arg, after_vcgen)
    _patch(driver, "generate_sync_points", vcgen_wrap)
    _patch(dedup, "generate_sync_points", vcgen_wrap)

    # repro.keq
    def after_keq(rec, report, args):
        stats = report.stats
        rec.counts["keq.steps"] += stats.steps_left + stats.steps_right
        rec.counts["keq.points"] += stats.points_checked
        rec.counts["keq.pairs"] += stats.pairs_matched

    _patch(Keq, "check_equivalence", recorder.layer("keq", after=after_keq))

    # repro.smt.solver
    def after_solver(rec, result, args):
        if result is Result.UNKNOWN:
            rec.counts["solver.unknowns"] += 1

    solver_wrap = recorder.layer("solver", after=after_solver)
    _patch(Solver, "check_sat", solver_wrap)
    _patch(SolverSession, "check", recorder.layer("session", after=after_solver))

    # repro.smt.bitblast
    bitblast_wrap = recorder.layer("bitblast")
    _patch(BitBlaster, "assert_term", bitblast_wrap)
    _patch(BitBlaster, "encode_bool", bitblast_wrap)

    # repro.smt.sat: counters are deltas of the solver's own statistics.
    def traced_solve(inner):
        wrapped = recorder.layer("sat")(inner)

        @functools.wraps(inner)
        def solve(self, *args, **kwargs):
            stats = self.stats
            before = (stats.conflicts, stats.propagations, stats.decisions)
            try:
                return wrapped(self, *args, **kwargs)
            finally:
                recorder.counts["sat.conflicts"] += stats.conflicts - before[0]
                recorder.counts["sat.propagations"] += (
                    stats.propagations - before[1]
                )
                recorder.counts["sat.decisions"] += stats.decisions - before[2]

        return solve

    _patch(SatSolver, "solve", traced_solve)

    # repro.smt.cache
    def after_lookup(rec, result, args):
        if result is not None:
            rec.counts["cache.hits"] += 1

    _patch(QueryCache, "lookup", recorder.layer("cache", after=after_lookup))
    _patch(QueryCache, "store", recorder.layer("cache.store"))

    # repro.campaign and the tv.parallel workers it drives.
    _patch(supervisor, "prepare_campaign", recorder.layer("campaign.prepare"))
    _patch(supervisor, "merge_campaign", recorder.layer("campaign.merge"))
    _patch(Journal, "append", recorder.layer("journal"))

    def counted_init(inner):
        @functools.wraps(inner)
        def init(self, *args, **kwargs):
            recorder.counts["campaign.worker_spawns"] += 1
            return inner(self, *args, **kwargs)

        return init

    def counted_kill(inner):
        @functools.wraps(inner)
        def kill(self, *args, **kwargs):
            if self.overdue(time.perf_counter()):
                recorder.counts["campaign.hard_kills"] += 1
            return inner(self, *args, **kwargs)

        return kill

    _patch(Worker, "__init__", counted_init)
    _patch(Worker, "kill", counted_kill)
    return recorder


def traced_validate(module, name, options, cache, session_core=None):
    """``CampaignConfig.validate`` hook run inside campaign workers."""
    from repro.tv.driver import validate_function

    recorder = install()
    recorder.spans.clear()
    recorder.counts.clear()
    root = recorder.open("worker.validate", name)
    try:
        return validate_function(module, name, options, cache, session_core)
    finally:
        recorder.close(root)
        path = os.path.join(os.environ[TRACE_DIR_ENV], f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(recorder.dump()) + "\n")


def load_worker_dumps(directory: str) -> list[dict]:
    dumps = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("worker-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                dumps.extend(json.loads(line) for line in handle if line.strip())
    return dumps


def summarize(dumps: list[dict]) -> dict:
    """Per-layer self seconds, span counts and boundary counts, plus the
    solver calls that reached no SAT search, over every process's dump."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    solver_fast = 0
    for dump in dumps:
        spans = dump["spans"]
        counts.update(dump["counts"])
        covered = [0.0] * len(spans)
        reaches_sat = [False] * len(spans)
        # Children always follow their parent, so one reverse pass settles
        # both the covered time and the "has a sat descendant" flags.
        for index in range(len(spans) - 1, -1, -1):
            name, start, end, parent, _ = spans[index]
            if name == "sat":
                reaches_sat[index] = True
            if parent >= 0:
                covered[parent] += end - start
                reaches_sat[parent] = reaches_sat[parent] or reaches_sat[index]
        for index, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += (end - start) - covered[index]
            calls[name] += 1
            if name in ("solver", "session") and not reaches_sat[index]:
                solver_fast += 1
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "counts": dict(counts),
        "solver_fast": solver_fast,
    }

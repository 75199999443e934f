"""Solver façade used by KEQ (plays the role Z3 plays in the paper).

Queries are first run through the rewriting simplifier, then through a
fixed sequence of tiers; the first tier that decides the simplified goal
answers it (:meth:`Solver._try_fast_paths` holds tiers 1-6, shared by
:meth:`Solver.check_sat` and :meth:`SolverSession.check`):

1. **trivial** — the goal simplified to a constant (the common case for
   the equality-constraint checks KEQ emits, because synchronization-point
   constraints are applied by substitution);
2. **memo** — this solver decided the same interned goal before;
3. **cache** — the shared :class:`~repro.smt.cache.QueryCache` holds it;
4. **random witness** — one of a few fixed pseudo-random assignments
   satisfies it (:func:`_random_witness`);
5. **skeleton** — its boolean skeleton plus comparison trichotomy is
   propositionally UNSAT (:func:`_skeleton_unsat`);
6. **search** — a greedy local search over candidate values finds a
   satisfying assignment (:func:`_search_witness`);
7. **SAT** — everything else is bit-blasted and decided by the CDCL solver.

Tiers 4 and 6 only ever answer SAT, and only with an assignment under
which concrete evaluation makes the goal true; that assignment is served
as the model when one is requested.

The façade also implements the paper's *positive-form optimization*
(Section 3): for deterministic transition systems, proving ``φ1 ⇒ φ2`` via
unsatisfiability of ``φ1 ∧ Ψ2`` — where ``Ψ2`` is the disjunction of the
*sibling* path conditions of ``φ2`` — instead of ``φ1 ∧ ¬φ2``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # cache.py imports Result from here; avoid the cycle.
    from repro.smt.cache import QueryCache

from repro.smt import eval as concrete
from repro.smt import terms as t
from repro.smt.bitblast import BitBlaster
from repro.smt.sat import SatResult, SatSolver
from repro.smt.simplify import simplify
from repro.smt.terms import Term


class Result(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    @property
    def is_sat(self) -> bool:
        return self is Result.SAT

    @property
    def is_unsat(self) -> bool:
        return self is Result.UNSAT


@dataclass
class QueryStats:
    """Aggregate statistics across all queries issued through one Solver."""

    queries: int = 0
    fast_path: int = 0  # answered before bit-blasting (tiers 1-6 above)
    sat_calls: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    time_seconds: float = 0.0
    unknowns: int = 0
    #: queries answered through a :class:`SolverSession` (incremental path)
    incremental_checks: int = 0
    #: learned clauses already in the session solver when a check started —
    #: CDCL work inherited from earlier obligations of the same session
    clauses_reused: int = 0
    #: Tseitin encodings served from the session blaster's per-term cache
    encode_cache_hits: int = 0
    cache_hits: int = 0  # answered by the shared QueryCache
    cache_misses: int = 0
    #: memo/cache entries that held the answer but could not serve the query
    #: because a model was requested (``need_model=True``).  Not misses: the
    #: cache knew the result, the caller just needed more than the result.
    cache_hits_unused: int = 0
    #: answered by the local-search witness tier (also counted in fast_path)
    search_witnesses: int = 0
    per_query_conflicts: list[int] = field(default_factory=list)

    def merge(self, other: "QueryStats") -> None:
        """Fold another solver's counters into this one (batch aggregation)."""
        self.queries += other.queries
        self.fast_path += other.fast_path
        self.sat_calls += other.sat_calls
        self.conflicts += other.conflicts
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.time_seconds += other.time_seconds
        self.unknowns += other.unknowns
        self.incremental_checks += other.incremental_checks
        self.clauses_reused += other.clauses_reused
        self.encode_cache_hits += other.encode_cache_hits
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_hits_unused += other.cache_hits_unused
        self.search_witnesses += other.search_witnesses
        self.per_query_conflicts.extend(other.per_query_conflicts)


class Model:
    """A satisfying assignment, queried through the original terms."""

    def __init__(self, blaster: BitBlaster):
        self._blaster = blaster

    def eval_bv(self, term: Term) -> int:
        return self._blaster.model_bv(term)

    def eval_bool(self, term: Term) -> bool:
        return self._blaster.model_bool(term)


class _ZeroEnv(dict):
    """A total environment: unlisted variables read as 0 (False for booleans)."""

    def __contains__(self, key) -> bool:
        return True

    def __missing__(self, key) -> int:
        return 0


def _zero_select(array: str, offset: int, width: int) -> int:
    return 0


class AssignmentModel(Model):
    """A model backed by a concrete assignment instead of a SAT run.

    ``values`` maps variable names to values and ``reads`` maps
    ``(array, offset, width)`` to what that memory read returns; every
    variable and read not listed is 0 (False for booleans).  Terms are read
    through concrete evaluation.  The witness tiers hand out one of these,
    and a goal that simplifies to ``true`` gets the all-zero one (every
    assignment satisfies it), so ``check_sat(..., need_model=True)`` can
    always populate ``last_model`` on SAT, whichever tier answered.
    """

    def __init__(
        self,
        values: dict[str, int | bool] | None = None,
        reads: dict[tuple[str, int, int], int] | None = None,
    ):
        self.values = values or {}
        self.reads = reads or {}

    def _read(self, array: str, offset: int, width: int) -> int:
        return self.reads.get((array, offset, width), 0)

    def eval_bv(self, term: Term) -> int:
        return int(concrete.evaluate(term, _ZeroEnv(self.values), self._read))

    def eval_bool(self, term: Term) -> bool:
        return bool(concrete.evaluate(term, _ZeroEnv(self.values), self._read))


def _fingerprint(*parts) -> int:
    """A 64-bit process-independent fingerprint.

    ``hash()`` is randomized per interpreter (PYTHONHASHSEED), which would
    make witness search — and hence query outcomes and cache contents —
    differ between the batch driver's worker processes and the parent.
    """
    data = "\x1f".join(str(part) for part in parts).encode()
    return zlib.crc32(data) | (zlib.crc32(data[::-1]) << 32)


def _random_witness(goal: Term, attempts: int = 4) -> AssignmentModel | None:
    """Try a few deterministic pseudo-random assignments; return the first
    that satisfies ``goal`` (a sound SAT witness), or None.  Never returns
    a wrong answer — failure just falls through to the next tier."""
    variables = t.free_vars(goal)
    if len(variables) > 64:
        return None

    def select_handler(array: str, offset: int, width: int) -> int:
        value = _fingerprint(array, offset, seed) & t.mask(width)
        reads[(array, offset, width)] = value
        return value

    for seed in range(attempts):
        env: dict[str, int | bool] = {}
        reads: dict[tuple[str, int, int], int] = {}
        for var in variables:
            fingerprint = _fingerprint(var.name, seed)
            if var.sort is t.BOOL:
                env[var.name] = bool(fingerprint & 1)
            elif seed == 0:
                env[var.name] = 0
            elif seed == 1:
                env[var.name] = 1
            else:
                env[var.name] = fingerprint & t.mask(var.width)
        try:
            if concrete.evaluate(goal, env, select_handler) is True:
                return AssignmentModel(env, reads)
        except concrete.EvalError:
            continue  # a later assignment may avoid the failing path
    return None


#: candidate moves :func:`_search_witness` may score for one goal
SEARCH_MOVE_BUDGET = 400


def _search_witness(goal: Term) -> AssignmentModel | None:
    """Greedy local search for a satisfying assignment (tier 6).

    The search starts with every variable at 0 (False).  Each move sets one
    variable to the candidate value that makes the most top-level conjuncts
    true.  A boolean's only candidate is its negation; a bitvector's are 0,
    1, all ones, ``2^(w-1)``, ``2^(w-1)-1`` and every constant ``c`` of the
    goal with ``c ± 1``.  A move is scored by re-evaluating only the nodes
    above the moved variable, memory reads returning 0.  The search stops
    when every conjunct holds, when no move raises the count, or after
    :data:`SEARCH_MOVE_BUDGET` scored moves.

    Variables are visited in name order, candidates in value order, and the
    score is a count, so the answer is a pure function of the goal's
    structure and variable names, never of interning order.  Like
    :func:`_random_witness` it only ever answers SAT; None falls through.
    """
    conjuncts = goal.args if goal.op == "and" else (goal,)
    # Post-order over the DAG (every node after its arguments); nodes are
    # named by their position in it from here on.
    order: list[Term] = []
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(goal, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((arg, False) for arg in node.args)
    position = {node: index for index, node in enumerate(order)}
    arg_ids = [tuple(position[arg] for arg in node.args) for node in order]
    parents: list[list[int]] = [[] for _ in order]
    for index, ids in enumerate(arg_ids):
        for arg in ids:
            parents[arg].append(index)
    variables = sorted(
        (index for index, node in enumerate(order) if node.is_var()),
        key=lambda index: order[index].name,
    )
    names = [order[index].name for index in variables]
    if len(set(names)) != len(names):
        return None  # one name at two sorts: name order would not be total
    constants = {node.value for node in order if node.op == "bvconst"}
    conjunct_ids = {position[node] for node in conjuncts}
    plan = []
    for var in variables:
        above = {var}
        frontier = [var]
        while frontier:
            for parent in parents[frontier.pop()]:
                if parent not in above:
                    above.add(parent)
                    frontier.append(parent)
        cone = sorted(above)
        affected = [index for index in cone if index in conjunct_ids]
        plan.append(
            (order[var].name, cone, affected, _candidates(order[var], constants))
        )

    env: dict[str, int | bool] = {
        order[var].name: False if order[var].sort is t.BOOL else 0
        for var in variables
    }
    values: list[int | bool] = []

    def settle(cone: list[int]) -> list[tuple[int, int | bool]]:
        """Re-evaluate the nodes of ``cone`` (in post-order) that a changed
        argument reaches; returns ``(node, old value)`` for each change."""
        undo = []
        changed: set[int] = set()
        for index in cone:
            ids = arg_ids[index]
            if ids and changed.isdisjoint(ids):
                continue
            old = values[index]
            new = concrete.eval_node(
                order[index], [values[arg] for arg in ids], env, _zero_select
            )
            if new != old:
                values[index] = new
                changed.add(index)
                undo.append((index, old))
        return undo

    try:
        for node, ids in zip(order, arg_ids):
            args = [values[arg] for arg in ids]
            values.append(concrete.eval_node(node, args, env, _zero_select))
    except concrete.EvalError:
        return None
    total = len(conjunct_ids)
    score = sum(values[index] is True for index in conjunct_ids)
    budget = SEARCH_MOVE_BUDGET
    while score < total:
        best_score, best_move = score, None
        for name, cone, affected, candidates in plan:
            current = env[name]
            held = sum(values[index] is True for index in affected)
            for value in candidates or (not current,):
                if value == current:
                    continue
                if budget == 0:
                    return None
                budget -= 1
                env[name] = value
                undo = settle(cone)
                trial = score - held + sum(values[index] is True for index in affected)
                if trial == total:
                    return _confirmed(goal, env)
                if trial > best_score:
                    best_score, best_move = trial, (name, value, cone)
                for index, old in undo:
                    values[index] = old
            env[name] = current
        if best_move is None:
            return None
        name, value, cone = best_move
        env[name] = value
        settle(cone)
        score = best_score
    return _confirmed(goal, env)


def _candidates(var: Term, constants: set[int]) -> list[int] | None:
    """Sorted candidate values of a bitvector variable; None for a boolean
    (whose one candidate, its negation, depends on its current value)."""
    if var.sort is t.BOOL:
        return None
    width = var.width
    top = t.mask(width)
    half = 1 << (width - 1)
    values = {0, 1, top, half, half - 1}
    for constant in constants:
        values.update(((constant - 1) & top, constant & top, (constant + 1) & top))
    return sorted(values)


def _confirmed(goal: Term, env: dict[str, int | bool]) -> AssignmentModel | None:
    """The assignment as a model if a full evaluation makes ``goal`` true."""
    if concrete.evaluate(goal, env, _zero_select) is True:
        return AssignmentModel(env)
    return None


def _skeleton_unsat(goal: Term) -> bool:
    """Propositional-abstraction check (the DPLL(T) boolean skeleton).

    Theory atoms (comparisons, equalities, boolean variables) are replaced
    by fresh propositional variables — consistently, by term identity —
    and only the boolean skeleton is solved.  The abstraction
    over-approximates satisfiability, so skeleton-UNSAT implies UNSAT.
    Most of KEQ's implication queries (``pc1 ∧ Ψ2`` with shared branch
    atoms) die here without bit-blasting any arithmetic.
    """
    solver = SatSolver()
    true_var = solver.new_var()
    solver.add_clause([true_var])
    mapping: dict[Term, int] = {}

    def encode(node: Term) -> int:
        found = mapping.get(node)
        if found is not None:
            return found
        if node is t.TRUE:
            literal = true_var
        elif node is t.FALSE:
            literal = -true_var
        elif node.op == "not":
            literal = -encode(node.args[0])
        elif node.op in ("and", "or"):
            literals = [encode(arg) for arg in node.args]
            gate = solver.new_var()
            if node.op == "and":
                for lit in literals:
                    solver.add_clause([-gate, lit])
                solver.add_clause([gate] + [-lit for lit in literals])
            else:
                for lit in literals:
                    solver.add_clause([gate, -lit])
                solver.add_clause([-gate] + literals)
            literal = gate
        elif node.op == "xorb":
            a = encode(node.args[0])
            b = encode(node.args[1])
            gate = solver.new_var()
            solver.add_clause([-gate, a, b])
            solver.add_clause([-gate, -a, -b])
            solver.add_clause([gate, -a, b])
            solver.add_clause([gate, a, -b])
            literal = gate
        else:  # a theory atom: fresh unconstrained variable
            literal = solver.new_var()
        mapping[node] = literal
        return literal

    solver.add_clause([encode(goal)])
    return solver.solve(conflict_budget=20_000) is SatResult.UNSAT


def _comparison_lemmas(goal: Term) -> Term:
    """Trichotomy lemmas for comparison atoms over shared operand pairs.

    Bit-blasted CDCL rediscovers facts like ``x <s y, y <s x, x == y are
    mutually exclusive and exhaustive`` one bit at a time, at a cost of
    thousands of conflicts.  Injecting the (valid) trichotomy clauses over
    the atoms that already occur makes such queries propositionally easy;
    the bit-level encoding still guarantees soundness.
    """
    atoms: set[Term] = set()
    seen: set[Term] = set()
    stack = [goal]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.op in ("slt", "ult"):
            atoms.add(node)
        stack.extend(node.args)
    pairs: set[frozenset[Term]] = set()
    signedness: dict[frozenset[Term], set[str]] = {}
    for atom in atoms:
        lhs, rhs = atom.args
        key = frozenset((lhs, rhs))
        if len(key) < 2:
            continue
        pairs.add(key)
        signedness.setdefault(key, set()).add(atom.op)
    lemmas: list[Term] = []
    for key in pairs:
        x, y = sorted(key, key=lambda term: term.serial)
        equal = t.eq(x, y)
        for op in signedness[key]:
            builder = t.slt if op == "slt" else t.ult
            forward = builder(x, y)
            backward = builder(y, x)
            lemmas.append(t.or_(forward, backward, equal))
            lemmas.append(t.not_(t.and_(forward, backward)))
            lemmas.append(t.not_(t.and_(forward, equal)))
            lemmas.append(t.not_(t.and_(backward, equal)))
    return t.conj(lemmas)


def _ackermann_lemmas(goal: Term) -> Term:
    """Functional-consistency lemmas for uninterpreted ``select`` terms.

    For every pair of same-width reads from the same array, equal offsets
    must yield equal values.  This is the only fragment of the array theory
    KEQ's queries need (the memory model resolves store chains itself).

    Reads are grouped by (array, value width) — two reads of different
    widths cannot be equated — and offsets are compared as unsigned
    integers (zero-extended to a common width), matching the evaluation
    semantics where the select handler is keyed by the offset's numeric
    value.  Found by differential fuzzing: grouping by array name alone
    crashed on mixed-width offsets and missed congruences across widths.
    """
    selects: dict[tuple[str, int], list[Term]] = {}
    seen: set[Term] = set()
    stack = [goal]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.op == "select":
            selects.setdefault((node.attr[0], node.attr[1]), []).append(node)
        stack.extend(node.args)
    lemmas: list[Term] = []
    for group in selects.values():
        for i, first in enumerate(group):
            for second in group[i + 1 :]:
                off_a, off_b = first.args[0], second.args[0]
                width = max(off_a.width, off_b.width)
                lemmas.append(
                    t.implies(
                        t.eq(t.zext(off_a, width), t.zext(off_b, width)),
                        t.eq(first, second),
                    )
                )
    return t.conj(lemmas)


class Solver:
    """Stateless-per-query solver with shared statistics.

    ``conflict_budget`` bounds SAT search per query; exceeding it yields
    :data:`Result.UNKNOWN`, which KEQ surfaces as a (deterministic) timeout
    — the stand-in for the paper's 3-hour wall-clock limit.
    """

    def __init__(
        self,
        conflict_budget: int | None = 200_000,
        cache: "QueryCache | None" = None,
    ):
        self.conflict_budget = conflict_budget
        self.stats = QueryStats()
        self.last_model: Model | None = None
        #: simplified goal -> Result.  KEQ re-issues many identical queries
        #: (the same path-condition pair is checked once per candidate
        #: pairing); terms are interned so the key is O(1).
        self._memo: dict[Term, Result] = {}
        #: optional shared :class:`repro.smt.cache.QueryCache` — consulted
        #: after the per-solver memo, fed with every decided answer.
        self.cache = cache

    # -- core entry points -----------------------------------------------------

    def check_sat(
        self, formula: Term | Iterable[Term], need_model: bool = False
    ) -> Result:
        """Decide satisfiability of a formula (or conjunction of formulas).

        ``need_model=True`` guarantees ``last_model`` is populated on SAT
        (the memo and the shared cache hold no model, so a SAT answer from
        them is passed over; the witness tiers hand out their assignment).
        """
        if isinstance(formula, Term):
            goal = formula
        else:
            goal = t.conj(formula)
        started = time.perf_counter()
        self.stats.queries += 1
        self.last_model = None
        goal = simplify(goal)
        fast = self._try_fast_paths(goal, need_model, started)
        if fast is not None:
            return fast
        bare_goal = goal
        goal = t.and_(goal, _ackermann_lemmas(goal), _comparison_lemmas(goal))
        sat_solver = SatSolver()
        blaster = BitBlaster(sat_solver)
        blaster.assert_term(goal)
        self.stats.sat_calls += 1
        outcome = sat_solver.solve(conflict_budget=self.conflict_budget)
        self.stats.conflicts += sat_solver.stats.conflicts
        self.stats.decisions += sat_solver.stats.decisions
        self.stats.propagations += sat_solver.stats.propagations
        self.stats.per_query_conflicts.append(sat_solver.stats.conflicts)
        self.stats.time_seconds += time.perf_counter() - started
        # Minimal deciding budget: the CDCL loop gives up *at* the budget-th
        # conflict, so a run that decided after c conflicts needs c + 1.
        cost = sat_solver.stats.conflicts + 1
        if outcome is SatResult.SAT:
            self.last_model = Model(blaster)
            self._memo[bare_goal] = Result.SAT
            self._share(bare_goal, Result.SAT, cost)
            return Result.SAT
        if outcome is SatResult.UNSAT:
            self._memo[bare_goal] = Result.UNSAT
            self._share(bare_goal, Result.UNSAT, cost)
            return Result.UNSAT
        self.stats.unknowns += 1
        return Result.UNKNOWN

    def _try_fast_paths(
        self, goal: Term, need_model: bool, started: float
    ) -> Result | None:
        """Answer an already-simplified goal without bit-blasting, or None.

        Shared between :meth:`check_sat` and :meth:`SolverSession.check` so
        the fresh and incremental paths stay mutually sound: both consult the
        same memo/cache namespace (the simplified combined goal) and apply
        the same witness/skeleton shortcuts.  Updates stats and timing for
        every query it answers.
        """
        if goal is t.TRUE:
            if need_model:
                # The goal holds under every assignment; hand out an explicit
                # witness so callers can always read a model on SAT.
                self.last_model = AssignmentModel()
            return self._answered(Result.SAT, started)
        if goal is t.FALSE:
            return self._answered(Result.UNSAT, started)
        cached = self._memo.get(goal)
        if cached is not None and not (need_model and cached is Result.SAT):
            # Memo hit: no model is reconstructed (KEQ never reads models).
            return self._answered(cached, started)
        if self.cache is not None:
            if cached is not None:
                # The memo held the answer but a model was requested; the
                # shared cache cannot supply one either, so don't consult it
                # (and don't tally a miss — the result *was* cached).
                self.stats.cache_hits_unused += 1
            else:
                shared = self.cache.lookup(goal, self.conflict_budget)
                if shared is not None:
                    if not (need_model and shared is Result.SAT):
                        self._memo[goal] = shared
                        self.stats.cache_hits += 1
                        return self._answered(shared, started)
                    self.stats.cache_hits_unused += 1
                else:
                    self.stats.cache_misses += 1
        # A concrete assignment satisfies the formula: SAT without touching
        # the SAT solver.  This discharges most feasibility checks,
        # including multiplication-heavy ones that are expensive to
        # bit-blast.
        witness = _random_witness(goal)
        if witness is not None:
            return self._witnessed(goal, witness, need_model, started)
        # Boolean-skeleton check, strengthened with the comparison-theory
        # lemmas *at the atom level*: UNSATness that follows from branch
        # structure plus trichotomy never needs arithmetic bit-blasting.
        if _skeleton_unsat(t.and_(goal, _comparison_lemmas(goal))):
            self._memo[goal] = Result.UNSAT
            self._share(goal, Result.UNSAT, cost=0)
            return self._answered(Result.UNSAT, started)
        witness = _search_witness(goal)
        if witness is not None:
            self.stats.search_witnesses += 1
            return self._witnessed(goal, witness, need_model, started)
        return None

    def _answered(self, result: Result, started: float) -> Result:
        """Tally a query one of the fast-path tiers answered."""
        self.stats.fast_path += 1
        self.stats.time_seconds += time.perf_counter() - started
        return result

    def _witnessed(
        self,
        goal: Term,
        witness: AssignmentModel,
        need_model: bool,
        started: float,
    ) -> Result:
        """Answer SAT from a witness tier's satisfying assignment.

        The witness tiers are pure functions of the goal, so their answers
        may be shared at cost 0: an uncached run finds the same witness
        under any budget.
        """
        if need_model:
            self.last_model = witness
        self._memo[goal] = Result.SAT
        self._share(goal, Result.SAT, cost=0)
        return self._answered(Result.SAT, started)

    def _share(self, goal: Term, result: Result, cost: int) -> None:
        if self.cache is not None:
            self.cache.store(goal, result, cost)

    def is_valid(self, formula: Term) -> Result:
        """Validity: VALID iff the negation is unsatisfiable.

        Returns UNSAT when *valid* (mirroring the underlying query), SAT when
        a countermodel exists, UNKNOWN on budget exhaustion.  Use
        :meth:`prove` for a boolean-flavoured wrapper.
        """
        return self.check_sat(t.not_(formula))

    def prove(self, formula: Term) -> bool:
        """True iff ``formula`` is valid.  UNKNOWN counts as *not proven*."""
        return self.is_valid(formula).is_unsat

    def prove_implies(self, antecedent: Term, consequent: Term) -> bool:
        """Negative-form implication proof: UNSAT(antecedent ∧ ¬consequent)."""
        return self.check_sat(t.and_(antecedent, t.not_(consequent))).is_unsat

    def prove_implies_positive(
        self, antecedent: Term, sibling_conditions: Iterable[Term]
    ) -> bool:
        """Positive-form implication proof (paper, Section 3).

        For deterministic systems the sibling path conditions ``Ψ2`` of a
        successor partition ``¬φ2``, so ``φ1 ⇒ φ2`` iff ``φ1 ∧ Ψ2`` is
        unsatisfiable, avoiding the negation.
        """
        psi = t.disj(sibling_conditions)
        return self.check_sat(t.and_(antecedent, psi)).is_unsat

    def prove_equiv(self, left: Term, right: Term) -> bool:
        """True iff two boolean formulas are logically equivalent."""
        return self.prove(t.iff(left, right))

    # -- incremental sessions ----------------------------------------------------

    def session(self, assumptions: Iterable[Term] = ()) -> "SolverSession":
        """Open an incremental session sharing ``assumptions`` across checks.

        All goals checked through the session are decided *under* the
        assumption conjuncts; the SAT solver, Tseitin encodings, learned
        clauses, and VSIDS activity persist across checks, so obligations
        sharing a fat prefix (KEQ's per-sync-point queries) amortize both
        the bit-blasting and the search.  Usable as a context manager.
        """
        return SolverSession(self, assumptions)


#: per-process memo of canonical term printings used to order assumptions
_canonical_keys: dict[Term, str] = {}


def canonical_assumption_order(terms: Iterable[Term]) -> list[Term]:
    """Deduplicate and sort assumption terms into a canonical order.

    ``check(delta, assumptions=(a, b))`` and ``(b, a)`` denote the same
    query; ordering by the canonical *printing* (never by ``Term.serial``,
    which depends on per-process interning order) makes the conjunction —
    and hence the memo and on-disk cache keys — identical for both, in
    every process.
    """
    unique = list(dict.fromkeys(terms))
    if len(unique) <= 1:
        return unique

    def key(term: Term) -> str:
        found = _canonical_keys.get(term)
        if found is None:
            found = str(term)
            _canonical_keys[term] = found
        return found

    return sorted(unique, key=key)


class SolverSession:
    """Assumption-based incremental checking against one shared SAT solver.

    The session keeps one :class:`~repro.smt.sat.SatSolver` and one
    :class:`~repro.smt.bitblast.BitBlaster` alive across :meth:`check`
    calls.  The session's base ``assumptions`` hold in every check, so they
    are asserted once, at the root, when the blaster is created: their
    consequences are propagated once, not again on every check.  Per-check
    ``assumptions`` and the delta are encoded once each — their Tseitin gate
    literals double as MiniSat-style *indicator literals* — and every check
    solves under those literals as assumptions, so nothing checked here
    ever poisons the clause database: learned clauses are implied by the
    base, the gate definitions and valid lemmas alone.

    Soundness with the fresh path: each check first consults the same
    memo/cache/witness/skeleton fast paths as :meth:`Solver.check_sat`,
    keyed on the *simplified combined goal* (assumptions ∧ delta), and
    decided results are stored back under that same key — the cached and
    incremental paths answer from one namespace.

    ``last_core`` holds, after an UNSAT check, the assumption *terms* the
    refutation may have used: every base term (they are root clauses, so
    the SAT core cannot single them out; a superset of a core is still a
    core) plus the per-check terms in the SAT-level unsat core.
    """

    def __init__(self, solver: Solver, assumptions: Iterable[Term] = ()):
        self.solver = solver
        self._base: list[Term] = list(assumptions)
        #: created on the first check that reaches the SAT solver
        self._sat: SatSolver | None = None
        self._blaster: BitBlaster | None = None
        #: raw assumption term -> encoded indicator literal
        self._assume_lits: dict[Term, int] = {}
        #: valid lemma conjunctions already asserted permanently
        self._lemmas_asserted: set[Term] = set()
        self.last_core: list[Term] | None = None

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def _ensure_blaster(self) -> BitBlaster:
        if self._blaster is None:
            self._sat = SatSolver()
            self._blaster = BitBlaster(self._sat)
            for term in self._base:
                self._blaster.assert_term(simplify(term))
        return self._blaster

    def _assume_lit(self, term: Term) -> int:
        lit = self._assume_lits.get(term)
        if lit is None:
            assert self._blaster is not None
            lit = self._blaster.encode_bool(simplify(term))
            self._assume_lits[term] = lit
        return lit

    def check(
        self,
        delta: Term,
        assumptions: Iterable[Term] = (),
        need_model: bool = False,
    ) -> Result:
        """Decide SAT(base ∧ assumptions ∧ delta) incrementally.

        Semantically identical to
        ``solver.check_sat(t.conj([*base, *assumptions, delta]))`` — same
        result, same cache keys — but reuses the session's SAT state.  On
        SAT with ``need_model=True``, ``solver.last_model`` reads through
        the session blaster (valid until the next check).
        """
        solver = self.solver
        stats = solver.stats
        started = time.perf_counter()
        stats.queries += 1
        stats.incremental_checks += 1
        solver.last_model = None
        self.last_core = None
        # Canonical assumption order: permutations of the same assumption
        # set must produce one combined term (one memo/cache key) and one
        # SAT-level decision order.
        ordered = canonical_assumption_order([*self._base, *assumptions])
        combined = simplify(t.conj([*ordered, delta]))
        fast = solver._try_fast_paths(combined, need_model, started)
        if fast is not None:
            return fast
        blaster = self._ensure_blaster()
        sat_solver = self._sat
        assert sat_solver is not None
        sat_solver.reset_to_root()
        # Theory lemmas for the combined goal are *valid*, so they may be
        # asserted permanently — they can only help later checks.
        lemmas = t.and_(
            _ackermann_lemmas(combined), _comparison_lemmas(combined)
        )
        encode_hits_before = blaster.encode_hits
        if lemmas is not t.TRUE and lemmas not in self._lemmas_asserted:
            self._lemmas_asserted.add(lemmas)
            blaster.assert_term(lemmas)
        base = set(self._base)
        assume_lits = [
            self._assume_lit(term) for term in ordered if term not in base
        ]
        delta_lit = self._assume_lit(delta)
        stats.clauses_reused += sat_solver.stats.learned
        stats.encode_cache_hits += blaster.encode_hits - encode_hits_before
        conflicts_before = sat_solver.stats.conflicts
        decisions_before = sat_solver.stats.decisions
        propagations_before = sat_solver.stats.propagations
        stats.sat_calls += 1
        outcome = sat_solver.solve(
            assumptions=assume_lits + [delta_lit],
            conflict_budget=solver.conflict_budget,
        )
        conflicts_delta = sat_solver.stats.conflicts - conflicts_before
        stats.conflicts += conflicts_delta
        stats.decisions += sat_solver.stats.decisions - decisions_before
        stats.propagations += (
            sat_solver.stats.propagations - propagations_before
        )
        stats.per_query_conflicts.append(conflicts_delta)
        stats.time_seconds += time.perf_counter() - started
        # Session results feed the per-solver memo (this solver re-serves
        # them under the same budget) but never the shared QueryCache: the
        # deciding run leaned on clauses learned by earlier checks, so its
        # conflict count can undershoot what a fresh solver would need, and
        # a cache entry carrying that optimistic cost would let a cached
        # run decide under a small budget where an uncached run returns
        # UNKNOWN — breaking cached-vs-uncached outcome identity (see the
        # budget-monotonicity policy in cache.py).
        if outcome is SatResult.SAT:
            solver.last_model = Model(blaster)
            solver._memo[combined] = Result.SAT
            return Result.SAT
        if outcome is SatResult.UNSAT:
            core_lits = set(sat_solver.core or ())
            self.last_core = [
                term
                for term in dict.fromkeys([*ordered, delta])
                if term in base or self._assume_lits.get(term) in core_lits
            ]
            solver._memo[combined] = Result.UNSAT
            return Result.UNSAT
        stats.unknowns += 1
        return Result.UNKNOWN

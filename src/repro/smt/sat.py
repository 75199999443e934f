"""A CDCL SAT solver.

This is the decision procedure at the bottom of the reproduction's SMT stack
(the paper used Z3; see DESIGN.md Section 2).  Features:

- two-watched-literal unit propagation;
- first-UIP conflict analysis with clause learning and non-chronological
  backjumping;
- VSIDS-style branching activity with exponential decay (implemented via a
  lazily-cleaned binary heap, rebuilt whenever stale entries make it
  outgrow twice the variable count);
- Luby-sequence restarts;
- solving under assumptions (used by the solver façade to implement
  ``prove`` queries without re-encoding shared structure);
- *incremental* use à la MiniSat: clauses may be added between
  :meth:`SatSolver.solve` calls, and learned clauses, VSIDS activity, and
  watch lists all stay valid across calls — assumptions are enqueued as
  pseudo-decisions at successive levels, so everything a call learns is
  implied by the clause database alone and is safe to keep when a later
  call drops an assumption;
- final-conflict analysis: an UNSAT answer under assumptions leaves an
  *unsat core* (the subset of assumptions the refutation used) in
  :attr:`SatSolver.core`;
- a conflict budget so callers can emulate the paper's per-function
  timeouts deterministically.

Literals use the DIMACS convention: variables are positive integers and a
negated literal is the negated integer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

UNASSIGNED = 0
TRUE = 1
FALSE = -1


class SatResult(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # conflict budget exhausted


def luby(index: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    ``index`` is 0-based.  This is the classic MiniSat formulation: find the
    finite subsequence containing the index, then recurse into it.
    """
    size = 1
    seq = 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


@dataclass
class Stats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned: int = 0
    restarts: int = 0
    solve_calls: int = 0


#: conflicts before the first restart (scaled by the Luby sequence)
RESTART_BASE = 32
#: VSIDS activity decay per conflict
VAR_DECAY = 0.95


@dataclass
class _Clause:
    literals: list[int]
    learned: bool = False


class SatSolver:
    """CDCL solver over clauses added with :meth:`add_clause`."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[_Clause] = []
        # watches[lit] = clauses watching literal `lit` (encoded index below)
        self._watches: dict[int, list[_Clause]] = {}
        self._assign: list[int] = [UNASSIGNED]  # 1-indexed by variable
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._prop_head = 0
        self._activity: list[float] = [0.0]
        self._var_inc = 1.0
        self._heap: list[tuple[float, int]] = []
        self._polarity: list[bool] = [False]
        self._ok = True
        #: unit clauses received while the trail was not at the root level
        #: (e.g. a caller encoding a new goal right after a SAT answer);
        #: flushed at the next root visit so no constraint is ever lost.
        self._pending_units: list[int] = []
        #: after an UNSAT answer: the subset of the call's assumptions the
        #: refutation actually used (empty when the clause set itself is
        #: unsatisfiable).  None after SAT/UNKNOWN.
        self.core: list[int] | None = None
        self.stats = Stats()

    # -- problem construction ------------------------------------------------

    def new_var(self) -> int:
        self._num_vars += 1
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._polarity.append(False)
        heapq.heappush(self._heap, (0.0, self._num_vars))
        return self._num_vars

    def ensure_vars(self, count: int) -> None:
        while self._num_vars < count:
            self.new_var()

    def add_clause(self, literals: list[int]) -> None:
        """Add a clause; duplicate literals are removed, tautologies dropped.

        Safe to call between :meth:`solve` calls (incremental use): clauses
        are simplified against *root-level* assignments only, and a unit
        clause arriving while the trail is deep is parked in
        ``_pending_units`` rather than mis-assigned at the current level.
        """
        if not self._ok:
            return
        seen: set[int] = set()
        unique: list[int] = []
        for lit in literals:
            self.ensure_vars(abs(lit))
            if lit in seen:
                continue
            if -lit in seen:
                return  # tautology
            value = self._value(lit)
            if value != UNASSIGNED and self._level[abs(lit)] == 0:
                if value == TRUE:
                    return  # satisfied at the root forever
                continue  # root-falsified literal: drop it
            seen.add(lit)
            unique.append(lit)
        if not unique:
            self._ok = False
            return
        if len(unique) == 1:
            if self._trail_lim:
                self._pending_units.append(unique[0])
            elif not self._enqueue_root(unique[0]):
                self._ok = False
            return
        clause = _Clause(unique)
        self._clauses.append(clause)
        self._watch(clause, unique[0])
        self._watch(clause, unique[1])

    def reset_to_root(self) -> None:
        """Backtrack to decision level 0 and flush pending unit clauses.

        Incremental callers (the solver façade's sessions) invoke this
        before encoding new structure so fresh clauses are simplified
        against root-fixed literals only.
        """
        self._backtrack(0)
        self._flush_pending_units()

    def _store_learned(self, learned: list[int]) -> _Clause | None:
        """Record a learned clause in the database; units are parked so the
        next root visit asserts them.  Returns the clause, or None for a
        unit."""
        if len(learned) == 1:
            self._pending_units.append(learned[0])
            return None
        clause = _Clause(learned, learned=True)
        self._clauses.append(clause)
        self.stats.learned += 1
        self._watch(clause, learned[0])
        self._watch(clause, learned[1])
        return clause

    def _flush_pending_units(self) -> None:
        while self._pending_units:
            lit = self._pending_units.pop()
            if not self._enqueue_root(lit):
                self._ok = False
                return

    def _enqueue_root(self, lit: int) -> bool:
        """Assert a unit clause at decision level 0."""
        value = self._value(lit)
        if value == TRUE:
            return True
        if value == FALSE:
            return False
        self._assign_lit(lit, None)
        return True

    # -- assignment primitives ------------------------------------------------

    def _value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        if value == UNASSIGNED:
            return UNASSIGNED
        return value if lit > 0 else -value

    def _assign_lit(self, lit: int, reason: _Clause | None) -> None:
        var = abs(lit)
        self._assign[var] = TRUE if lit > 0 else FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._polarity[var] = lit > 0
        self._trail.append(lit)

    def _watch(self, clause: _Clause, lit: int) -> None:
        self._watches.setdefault(-lit, []).append(clause)

    # -- propagation ------------------------------------------------------------

    def _propagate(self) -> _Clause | None:
        """Unit propagation; returns a conflicting clause or None."""
        while self._prop_head < len(self._trail):
            lit = self._trail[self._prop_head]
            self._prop_head += 1
            self.stats.propagations += 1
            watchers = self._watches.get(lit)
            if not watchers:
                continue
            kept: list[_Clause] = []
            conflict: _Clause | None = None
            index = 0
            total = len(watchers)
            while index < total:
                clause = watchers[index]
                index += 1
                lits = clause.literals
                # Ensure the falsified literal is at position 1.
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._value(first) == TRUE:
                    kept.append(clause)
                    continue
                # Search a new literal to watch.
                moved = False
                for slot in range(2, len(lits)):
                    if self._value(lits[slot]) != FALSE:
                        lits[1], lits[slot] = lits[slot], lits[1]
                        self._watch(clause, lits[1])
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if self._value(first) == FALSE:
                    conflict = clause
                    kept.extend(watchers[index:total])
                    break
                self._assign_lit(first, clause)
            self._watches[lit] = kept
            if conflict is not None:
                return conflict
        return None

    # -- conflict analysis --------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100
        heapq.heappush(self._heap, (-self._activity[var], var))
        if len(self._heap) > 2 * self._num_vars:
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Rebuild the branching heap: one fresh entry per unassigned variable.

        Bumps and backtracks push a new entry instead of updating the old
        one, and stale entries only leave when :meth:`_pick_branch` pops
        them, so a session whose checks mostly end UNSAT would grow the
        heap without bound.  Every unassigned variable already has an entry
        holding its current activity and :meth:`_pick_branch` returns the
        unassigned variable of highest activity (ties to the lower index)
        either way, so the rebuild never changes a decision.  Assigned
        variables get their entry back when backtracking unassigns them.
        """
        activity = self._activity
        assign = self._assign
        self._heap = [
            (-activity[var], var)
            for var in range(1, self._num_vars + 1)
            if assign[var] == UNASSIGNED
        ]
        heapq.heapify(self._heap)

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP analysis: learned clause + backjump level."""
        current_level = len(self._trail_lim)
        learned: list[int] = [0]  # slot 0 holds the asserting literal
        seen: set[int] = set()
        counter = 0
        lit = 0
        reason: _Clause | None = conflict
        trail_index = len(self._trail) - 1
        while True:
            assert reason is not None, "conflict analysis reached a decision"
            for other in reason.literals:
                # Skip the literal this reason clause propagated (it is the
                # negation of `lit`, i.e. the trail literal being resolved).
                if other == -lit:
                    continue
                var = abs(other)
                if var in seen or self._level[var] == 0:
                    continue
                seen.add(var)
                self._bump_var(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(other)
            # Find the next seen literal on the trail.
            while abs(self._trail[trail_index]) not in seen:
                trail_index -= 1
            lit = -self._trail[trail_index]
            var = abs(lit)
            seen.discard(var)
            trail_index -= 1
            counter -= 1
            if counter == 0:
                learned[0] = lit
                break
            reason = self._reason[var]
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause.
        best = 1
        for slot in range(2, len(learned)):
            if self._level[abs(learned[slot])] > self._level[abs(learned[best])]:
                best = slot
        learned[1], learned[best] = learned[best], learned[1]
        return learned, self._level[abs(learned[1])]

    def _analyze_prefix(self, conflict: _Clause, assumed: set[int]) -> list[int]:
        """Resolve a prefix conflict into a learnable clause.

        First-UIP analysis does not apply inside the assumption prefix: a
        level there can hold several reason-less literals (the assumption
        itself plus parked learned units), so the resolution is run to the
        reason-less frontier instead.  Assumption literals are kept,
        negated, as clause literals; parked units are dropped — they are
        implied by the clause database, so resolving them away keeps the
        result database-implied and valid under any later assumptions.
        """
        seen = {
            abs(lit) for lit in conflict.literals if self._level[abs(lit)] > 0
        }
        learned: list[int] = []
        for trail_lit in reversed(self._trail):
            var = abs(trail_lit)
            if var not in seen:
                continue
            seen.discard(var)
            self._bump_var(var)
            reason = self._reason[var]
            if reason is None:
                if trail_lit in assumed:
                    learned.append(-trail_lit)
                continue
            for other in reason.literals:
                if other != trail_lit and self._level[abs(other)] > 0:
                    seen.add(abs(other))
        return learned

    def _analyze_final(self, conflict: _Clause, assumed: set[int]) -> list[int]:
        """Final-conflict analysis (MiniSat's ``analyzeFinal``).

        Resolves a conflict inside the assumption prefix back to the
        assumptions it depends on.  Reason-less literals that are *not*
        assumptions are root-implied learned units parked at an assumption
        level — implied by the clause database alone, hence not in the core.
        """
        seeds = [abs(lit) for lit in conflict.literals if self._level[abs(lit)] > 0]
        return self._trace_core(seeds, assumed)

    def _analyze_final_lit(self, lit: int, assumed: set[int]) -> list[int]:
        """Core for an assumption whose negation is already on the trail."""
        core = [lit] if lit in assumed else []
        if self._level[abs(lit)] == 0:
            return core
        return core + self._trace_core([abs(lit)], assumed)

    def _trace_core(self, seeds: list[int], assumed: set[int]) -> list[int]:
        seen = set(seeds)
        core: list[int] = []
        for trail_lit in reversed(self._trail):
            var = abs(trail_lit)
            if var not in seen:
                continue
            seen.discard(var)
            reason = self._reason[var]
            if reason is None:
                if trail_lit in assumed:
                    core.append(trail_lit)
                continue
            for other in reason.literals:
                if other != trail_lit and self._level[abs(other)] > 0:
                    seen.add(abs(other))
        core.reverse()  # assumption order, for deterministic reporting
        return core

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        boundary = self._trail_lim[level]
        for lit in reversed(self._trail[boundary:]):
            var = abs(lit)
            self._assign[var] = UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._prop_head = len(self._trail)
        if len(self._heap) > 2 * self._num_vars:
            self._compact_heap()

    # -- branching ------------------------------------------------------------------

    def _pick_branch(self) -> int:
        while self._heap:
            neg_activity, var = heapq.heappop(self._heap)
            if self._assign[var] != UNASSIGNED:
                continue
            if -neg_activity != self._activity[var]:
                # Stale entry; re-push with the fresh activity.
                heapq.heappush(self._heap, (-self._activity[var], var))
                continue
            return var if self._polarity[var] else -var
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == UNASSIGNED:
                return var if self._polarity[var] else -var
        return 0

    # -- main loop -------------------------------------------------------------------

    def solve(
        self,
        assumptions: list[int] | None = None,
        conflict_budget: int | None = None,
    ) -> SatResult:
        """Solve the clause set, optionally under assumptions.

        ``conflict_budget`` bounds the number of conflicts before giving up
        with :data:`SatResult.UNKNOWN` (deterministic timeout emulation).

        On UNSAT, :attr:`core` holds the subset of ``assumptions`` the
        refutation used (empty when the clause set alone is unsatisfiable);
        on SAT/UNKNOWN it is None.
        """
        self.stats.solve_calls += 1
        self.core = None
        assumptions = assumptions or []
        assumed = set(assumptions)
        if not self._ok:
            self.core = []
            return SatResult.UNSAT
        self._backtrack(0)
        self._flush_pending_units()
        if not self._ok:
            self.core = []
            return SatResult.UNSAT
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            self.core = []
            return SatResult.UNSAT
        budget_left = conflict_budget
        restart_index = 0
        restart_limit = RESTART_BASE * luby(restart_index)
        conflicts_since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if budget_left is not None:
                    budget_left -= 1
                    if budget_left <= 0:
                        self._backtrack(0)
                        return SatResult.UNKNOWN
                if len(self._trail_lim) == 0:
                    self.core = []
                    return SatResult.UNSAT
                if len(self._trail_lim) <= len(assumptions):
                    # Conflict inside the assumption prefix: the clause set
                    # refutes a subset of the assumptions.  Learn a clause
                    # anyway — the prefix analysis resolves the conflict
                    # down to reason-less literals, so the result is
                    # implied by the clause database alone and transfers
                    # to later solve calls under different assumptions.
                    # UNSAT-heavy incremental workloads would otherwise
                    # never accumulate reusable clauses.
                    prefix_clause = self._analyze_prefix(conflict, assumed)
                    if prefix_clause:
                        self._store_learned(prefix_clause)
                    self.core = self._analyze_final(conflict, assumed)
                    self._backtrack(0)
                    return SatResult.UNSAT
                learned, backjump = self._analyze(conflict)
                backjump = max(backjump, len(assumptions))
                self._backtrack(backjump)
                if len(learned) == 1:
                    # A unit learned clause is implied by the clause database
                    # alone (assumption literals would have survived the
                    # resolution).  When the trail is inside the assumption
                    # prefix the unit is parked so it is re-asserted at the
                    # next root visit and survives into later solve calls.
                    lit = learned[0]
                    if self._trail_lim:
                        self._pending_units.append(lit)
                    value = self._value(lit)
                    if value == FALSE:
                        self.core = self._analyze_final_lit(lit, assumed)
                        self._backtrack(0)
                        return SatResult.UNSAT
                    if value == UNASSIGNED:
                        self._assign_lit(lit, None)
                else:
                    clause = self._store_learned(learned)
                    assert clause is not None
                    self._assign_lit(learned[0], clause)
                self._var_inc /= VAR_DECAY
                continue
            if conflicts_since_restart >= restart_limit and len(
                self._trail_lim
            ) > len(assumptions):
                self.stats.restarts += 1
                restart_index += 1
                restart_limit = RESTART_BASE * luby(restart_index)
                conflicts_since_restart = 0
                self._backtrack(len(assumptions))
                continue
            # Apply pending assumptions as decisions.
            depth = len(self._trail_lim)
            if depth < len(assumptions):
                lit = assumptions[depth]
                value = self._value(lit)
                if value == FALSE:
                    # An earlier assignment (root fact, or a consequence of
                    # the assumptions already applied) falsifies this
                    # assumption: its negation's derivation is the core.
                    self.core = self._analyze_final_lit(lit, assumed)
                    self._backtrack(0)
                    return SatResult.UNSAT
                self._trail_lim.append(len(self._trail))
                if value == UNASSIGNED:
                    self._assign_lit(lit, None)
                continue
            branch = self._pick_branch()
            if branch == 0:
                return SatResult.SAT
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._assign_lit(branch, None)

    # -- models ------------------------------------------------------------------------

    def model_value(self, var: int) -> bool:
        """Value of a variable in the satisfying assignment (after SAT)."""
        value = self._assign[var]
        return value == TRUE

    def model(self) -> dict[int, bool]:
        return {
            var: self._assign[var] == TRUE for var in range(1, self._num_vars + 1)
        }

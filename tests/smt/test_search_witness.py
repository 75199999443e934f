"""The local-search witness tier (``repro.smt.solver._search_witness``).

It runs after the skeleton check and before bit-blasting, answers SAT only
with an assignment that concrete evaluation confirms, and is a pure
function of the goal's structure and variable names.
"""

from repro.fuzz.generator import GenConfig, TermGenerator
from repro.smt import Result, Solver, simplify, t
from repro.smt import solver as solver_mod
from repro.smt.eval import evaluate
from repro.smt.solver import AssignmentModel, QueryStats, _search_witness


def bv(name, width=32):
    return t.bv_var(name, width)


def const(value, width=32):
    return t.bv_const(value, width)


def holds(goal, witness):
    """Evaluate ``goal`` under the witness, independently of the model class:
    unlisted variables and memory reads are 0."""
    env = {}
    for var in t.free_vars(goal):
        default = False if var.sort is t.BOOL else 0
        env[var.name] = witness.values.get(var.name, default)

    def read(array, offset, width):
        return witness.reads.get((array, offset, width), 0)

    return evaluate(goal, env, read) is True


def gcc_like_shapes():
    """Session-check shapes from the gcc-like corpus that the random
    witness misses, plus a multiply whose only roots are multiples of 2^31."""
    x, y = bv("x"), bv("y")
    v0, v1, v2, v3, v8 = (bv(f"v{i}") for i in (0, 1, 2, 3, 8))
    v = bv("v")
    return [
        t.and_(t.slt(x, y), t.not_(t.or_(t.slt(y, x), t.eq(y, x)))),
        t.and_(
            t.not_(t.ult(const(0), v1)),
            t.not_(t.slt(const(16), v3)),
            t.slt(v2, t.mul(v0, v8)),
        ),
        t.and_(
            t.not_(t.ult(const(0), v1)),
            t.not_(t.slt(const(16), v3)),
            t.slt(v2, t.mul(v0, v8)),
            t.eq(v0, t.add(v3, const(1))),
        ),
        t.and_(t.eq(t.mul(v, const(62)), const(0)), t.ne(v, const(0))),
    ]


class TestSoundness:
    def test_every_assignment_satisfies_its_goal(self):
        """Property over the fuzz generator: a returned assignment always
        makes the goal it answers evaluate to True."""
        answered = 0
        for seed in range(6):
            generator = TermGenerator(seed, GenConfig(allow_select=seed % 2 == 1))
            for _ in range(60):
                formula = generator.formula()
                for goal in (formula, simplify(formula)):
                    if goal.is_const():
                        continue
                    witness = _search_witness(goal)
                    if witness is None:
                        continue
                    answered += 1
                    assert holds(goal, witness), goal
                    assert witness.eval_bool(goal) is True
        assert answered > 100  # the property is not vacuous

    def test_random_witness_assignment_satisfies_its_goal(self):
        answered = 0
        generator = TermGenerator(11, GenConfig(allow_select=True))
        for _ in range(150):
            goal = simplify(generator.formula())
            witness = solver_mod._random_witness(goal)
            if witness is None:
                continue
            answered += 1
            assert holds(goal, witness), goal
        assert answered > 20

    def test_unsat_goal_reaches_the_sat_solver(self):
        """x*x mod 4 is 0 or 1, so x*x == 3 is UNSAT; its skeleton (one
        atom) is satisfiable, so only bit-blasting can refute it."""
        x = bv("sq", 8)
        goal = t.and_(t.eq(t.mul(x, x), const(3, 8)), t.ult(x, const(100, 8)))
        assert _search_witness(simplify(goal)) is None
        solver = Solver()
        assert solver.check_sat(goal) is Result.UNSAT
        assert solver.stats.sat_calls == 1
        assert solver.stats.search_witnesses == 0

    def test_budget_bounds_the_search(self, monkeypatch):
        goal = gcc_like_shapes()[3]
        assert _search_witness(goal) is not None
        monkeypatch.setattr(solver_mod, "SEARCH_MOVE_BUDGET", 0)
        assert _search_witness(goal) is None


class TestGccLikeShapes:
    def test_answered_without_sat_search(self):
        for goal in gcc_like_shapes():
            assert _search_witness(simplify(goal)) is not None, goal
            solver = Solver()
            assert solver.check_sat(goal) is Result.SAT
            assert solver.stats.sat_calls == 0
            assert solver.stats.fast_path == 1

    def test_session_checks_answered_without_sat_search(self):
        x, y = bv("x"), bv("y")
        solver = Solver()
        with solver.session([t.slt(x, y)]) as session:
            delta = t.not_(t.or_(t.slt(y, x), t.eq(y, x)))
            assert session.check(delta) is Result.SAT
        assert solver.stats.sat_calls == 0

    def test_model_served_on_request(self):
        goal = gcc_like_shapes()[3]
        solver = Solver()
        assert solver.check_sat(goal, need_model=True) is Result.SAT
        assert solver.stats.sat_calls == 0
        assert solver.stats.search_witnesses == 1
        model = solver.last_model
        assert isinstance(model, AssignmentModel)
        assert model.eval_bool(goal) is True
        assert model.eval_bv(bv("v")) == 1 << 31


class TestDeterminism:
    @staticmethod
    def build(prefix, reverse):
        """One goal shape over ``prefix``-named variables, interned with the
        variables and the conjuncts in the given or the reverse order."""
        names = ["a", "b", "c", "p"]
        if reverse:
            names.reverse()
        made = {
            name: t.bool_var(prefix + name) if name == "p" else bv(prefix + name, 16)
            for name in names
        }
        a, b, c, p = made["a"], made["b"], made["c"], made["p"]
        conjuncts = [
            t.not_(t.eq(b, a)),
            t.slt(a, b),
            t.eq(c, t.add(a, const(1, 16))),
            t.or_(p, t.eq(a, const(7, 16))),
            t.not_(t.ult(const(300, 16), t.bvand(b, c))),
            # a tie between moving a and moving b: name order breaks it
            t.or_(t.eq(a, const(9, 16)), t.eq(b, const(9, 16))),
        ]
        if reverse:
            conjuncts.reverse()
        return t.and_(*conjuncts)

    def test_interning_order_does_not_change_the_assignment(self):
        forward = self.build("fwd_", reverse=False)
        backward = self.build("bwd_", reverse=True)
        # The builds differ as terms, not only in names: interning order
        # puts the operands of ``eq``/``bvand`` and the conjuncts in
        # different positions.
        unprefixed = lambda term: str(term).replace("fwd_", "").replace("bwd_", "")
        assert unprefixed(forward) != unprefixed(backward)
        first = _search_witness(forward)
        second = _search_witness(backward)
        assert first is not None and second is not None
        strip = lambda values: {name[4:]: value for name, value in values.items()}
        assert strip(first.values) == strip(second.values)
        for goal in (forward, backward):
            solver = Solver()
            assert solver.check_sat(goal) is Result.SAT
            assert solver.stats.search_witnesses == 1


def test_merge_folds_search_witnesses():
    left = QueryStats(search_witnesses=2)
    left.merge(QueryStats(search_witnesses=3))
    assert left.search_witnesses == 5

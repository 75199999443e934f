"""BitBlaster: circuit correctness and structural hashing.

The oracle fixes both operands of each width-4 operation through SAT
assumptions and reads the result bits back from the model; they must equal
concrete evaluation for every one of the 256 input pairs (division by zero
included).  The strash tests pin the sharing the structural-hash table
promises: commuted operands and repeated gates reuse existing literals.
"""

import pytest

from repro.smt import terms as t
from repro.smt.bitblast import BitBlaster
from repro.smt.eval import evaluate
from repro.smt.sat import SatResult

W = 4

BV_OPS = {
    "add": t.add,
    "sub": t.sub,
    "mul": t.mul,
    "udiv": t.udiv,
    "urem": t.urem,
    "sdiv": t.sdiv,
    "srem": t.srem,
    "bvand": t.bvand,
    "bvor": t.bvor,
    "bvxor": t.bvxor,
    "shl": t.shl,
    "lshr": t.lshr,
    "ashr": t.ashr,
}

BOOL_OPS = {"eq": t.eq, "ult": t.ult, "slt": t.slt}


def bv(name, width=W):
    return t.bv_var(name, width)


def _fix(bits, value):
    """Assumption literals pinning ``bits`` to ``value``."""
    return [lit if (value >> i) & 1 else -lit for i, lit in enumerate(bits)]


def _exhaustive(make):
    """(inputs, blasted result, evaluated result) for all 256 pairs."""
    x, y = bv("x"), bv("y")
    term = make(x, y)
    blaster = BitBlaster()
    bits_x = blaster.encode_bv(x)
    bits_y = blaster.encode_bv(y)
    if term.sort is t.BOOL:
        blaster.encode_bool(term)
        read = blaster.model_bool
    else:
        blaster.encode_bv(term)
        read = blaster.model_bv
    for a in range(1 << W):
        for b in range(1 << W):
            assumptions = _fix(bits_x, a) + _fix(bits_y, b)
            assert blaster.solver.solve(assumptions=assumptions) is SatResult.SAT
            yield (a, b), read(term), evaluate(term, {"x": a, "y": b})


class TestWidth4Oracle:
    @pytest.mark.parametrize("name", sorted(BV_OPS))
    def test_bitvector_op(self, name):
        for inputs, blasted, expected in _exhaustive(BV_OPS[name]):
            assert blasted == expected, (name, inputs)

    @pytest.mark.parametrize("name", sorted(BOOL_OPS))
    def test_predicate(self, name):
        for inputs, blasted, expected in _exhaustive(BOOL_OPS[name]):
            assert blasted == expected, (name, inputs)

    @pytest.mark.parametrize("name", ["udiv", "urem"])
    def test_divider_is_functional(self, name):
        """Fixed operands fix the quotient and remainder by propagation."""
        x, y = bv("x"), bv("y")
        blaster = BitBlaster()
        bits_x, bits_y = blaster.encode_bv(x), blaster.encode_bv(y)
        blaster.encode_bv(BV_OPS[name](x, y))
        sat = blaster.solver
        for a, b in ((11, 3), (7, 0), (0, 0), (15, 15)):
            decisions = sat.stats.decisions
            assumptions = _fix(bits_x, a) + _fix(bits_y, b)
            assert sat.solve(assumptions=assumptions) is SatResult.SAT
            assert sat.stats.conflicts == 0
            # One decision per assumption literal and none for the search.
            assert sat.stats.decisions - decisions <= 2 * W


class TestStructuralHashing:
    """The term layer already sorts commutative arguments, so these tests
    build equal circuits from *different* terms (or call the circuit
    helpers directly): only gate-level hashing can make them share."""

    def test_commuted_add_shares_bits(self):
        x, y = bv("x", 8), bv("y", 8)
        blaster = BitBlaster()
        bits_x, bits_y = blaster.encode_bv(x), blaster.encode_bv(y)
        assert blaster._add_bits(bits_x, bits_y) == blaster._add_bits(
            bits_y, bits_x
        )

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_mul_by_constant_shares_shift_add_bits(self, shift):
        """ISel's mul_decompose lowers x*C to (x<<k)+x; the two sides of
        the obligation must blast to the same literals."""
        x = bv("x", 8)
        product = t.mul(x, t.bv_const((1 << shift) + 1, 8))
        shift_add = t.add(t.shl(x, t.bv_const(shift, 8)), x)
        blaster = BitBlaster()
        assert blaster.encode_bv(product) == blaster.encode_bv(shift_add)

    def test_x_and_not_x_is_false(self):
        x = bv("x", 8)
        blaster = BitBlaster()
        bits = blaster.encode_bv(t.bvand(x, t.bvnot(x)))
        assert bits == [blaster.const_lit(False)] * 8

    def test_reencoding_an_equal_circuit_adds_no_variables(self):
        x, y = bv("x", 8), bv("y", 8)
        blaster = BitBlaster()
        blaster.encode_bool(t.ult(t.mul(x, t.bv_const(5, 8)), y))
        variables = blaster.solver._num_vars
        clauses = len(blaster.solver._clauses)
        blaster.encode_bool(t.ult(t.add(t.shl(x, t.bv_const(2, 8)), x), y))
        assert blaster.solver._num_vars == variables
        assert len(blaster.solver._clauses) == clauses

    def test_negations_move_out_of_xor(self):
        blaster = BitBlaster()
        a, b = blaster.bool_var_lit("a"), blaster.bool_var_lit("b")
        gate = blaster._xor_gate(a, b)
        assert blaster._xor_gate(-a, b) == -gate
        assert blaster._xor_gate(b, -a) == -gate
        assert blaster._xor_gate(-b, -a) == gate

    def test_negations_move_out_of_ite(self):
        blaster = BitBlaster()
        c, a, b = (blaster.bool_var_lit(name) for name in "cab")
        gate = blaster._mux_gate(c, a, b)
        assert blaster._mux_gate(-c, b, a) == gate
        assert blaster._mux_gate(c, -a, -b) == -gate

"""Tseitin bit-blasting of boolean/bitvector terms into CNF.

A :class:`BitBlaster` owns a :class:`~repro.smt.sat.SatSolver` and encodes
terms on demand, caching the encoding per term node so shared subterms (the
term layer is hash-consed) are encoded exactly once.  The cache also makes
the blaster *reusable across goals*: a solver session that checks many
obligations sharing a conjunct prefix bit-blasts the prefix once, and each
later goal only encodes its delta (``encode_hits``/``encode_misses`` count
the sharing).  Below the term cache, gates are structurally hashed, so
equal circuits built from different terms (``x * 3`` and ``(x << 1) + x``)
share their literals too.

Bitvectors become little-endian lists of SAT literals (``bits[0]`` is the
least significant bit).  Constant bits are represented as the literal of a
reserved always-true variable (or its negation), which keeps every code
path uniform.
"""

from __future__ import annotations

from repro.smt import terms as t
from repro.smt.sat import SatSolver
from repro.smt.terms import BOOL, Term

Bits = list[int]


class BitBlaster:
    def __init__(self, solver: SatSolver | None = None):
        self.solver = solver or SatSolver()
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._bool_cache: dict[Term, int] = {}
        self._bv_cache: dict[Term, Bits] = {}
        self._var_bits: dict[str, Bits] = {}
        self._bool_vars: dict[str, int] = {}
        #: structural-hash tables: normalized gate inputs -> gate literal
        self._and_table: dict[tuple[int, ...], int] = {}
        self._xor_table: dict[tuple[int, int], int] = {}
        self._ite_table: dict[tuple[int, int, int], int] = {}
        self.encode_hits = 0
        self.encode_misses = 0

    # -- small gate helpers ---------------------------------------------------
    #
    # Gates are structurally hashed: after normalization (constants dropped,
    # ``x & ~x`` folded, negations moved out of XOR/ITE) each gate is keyed
    # on its inputs, sorted for AND and XOR, and a gate already built on the
    # same key is returned instead of a fresh variable.  Commuted operands
    # therefore share one circuit.  A new gate's clauses keep the inputs in
    # the order the caller gave them: that order seeds the solver's watch
    # lists, and the search is sensitive to it.

    def const_lit(self, value: bool) -> int:
        return self._true if value else -self._true

    def _fresh(self) -> int:
        return self.solver.new_var()

    def _and_gate(self, literals: list[int]) -> int:
        true = self._true
        inputs: list[int] = []
        seen: set[int] = set()
        for lit in literals:
            if lit == true or lit in seen:
                continue
            if lit == -true or -lit in seen:
                return -true
            seen.add(lit)
            inputs.append(lit)
        if not inputs:
            return true
        if len(inputs) == 1:
            return inputs[0]
        key = tuple(sorted(inputs))
        gate = self._and_table.get(key)
        if gate is not None:
            return gate
        gate = self._and_table[key] = self._fresh()
        for lit in inputs:
            self.solver.add_clause([-gate, lit])
        self.solver.add_clause([gate] + [-lit for lit in inputs])
        return gate

    def _or_gate(self, literals: list[int]) -> int:
        return -self._and_gate([-lit for lit in literals])

    def _xor_gate(self, a: int, b: int) -> int:
        true = self._true
        flip = False
        if a < 0:
            a, flip = -a, not flip
        if b < 0:
            b, flip = -b, not flip
        if a == true:
            out = -b
        elif b == true:
            out = -a
        elif a == b:
            out = -true
        else:
            key = (a, b) if a < b else (b, a)
            out = self._xor_table.get(key)
            if out is None:
                out = self._xor_table[key] = self._fresh()
                self.solver.add_clause([-out, a, b])
                self.solver.add_clause([-out, -a, -b])
                self.solver.add_clause([out, -a, b])
                self.solver.add_clause([out, a, -b])
        return -out if flip else out

    def _iff_gate(self, a: int, b: int) -> int:
        return -self._xor_gate(a, b)

    def _mux_gate(self, cond: int, then: int, other: int) -> int:
        """out = cond ? then : other."""
        true = self._true
        if cond < 0:
            cond, then, other = -cond, other, then
        if cond == true:
            return then
        if then == other:
            return then
        if then == -other:
            return self._iff_gate(cond, then)
        if then == true or then == cond:
            return self._or_gate([cond, other])
        if then == -true or then == -cond:
            return self._and_gate([-cond, other])
        if other == true or other == -cond:
            return self._or_gate([-cond, then])
        if other == -true or other == cond:
            return self._and_gate([cond, then])
        flip = then < 0
        if flip:
            then, other = -then, -other
        key = (cond, then, other)
        gate = self._ite_table.get(key)
        if gate is None:
            gate = self._ite_table[key] = self._fresh()
            self.solver.add_clause([-cond, -then, gate])
            self.solver.add_clause([-cond, then, -gate])
            self.solver.add_clause([cond, -other, gate])
            self.solver.add_clause([cond, other, -gate])
        return -gate if flip else gate

    def _full_adder(self, a: int, b: int, carry: int) -> tuple[int, int]:
        """Returns (sum, carry_out)."""
        total = self._xor_gate(self._xor_gate(a, b), carry)
        carry_out = self._or_gate(
            [
                self._and_gate([a, b]),
                self._and_gate([a, carry]),
                self._and_gate([b, carry]),
            ]
        )
        return total, carry_out

    # -- bitvector circuits ----------------------------------------------------

    def _const_bits(self, value: int, width: int) -> Bits:
        return [self.const_lit(bool((value >> i) & 1)) for i in range(width)]

    def _add_bits(self, a: Bits, b: Bits) -> Bits:
        carry = -self._true
        out: Bits = []
        for bit_a, bit_b in zip(a, b):
            total, carry = self._full_adder(bit_a, bit_b, carry)
            out.append(total)
        return out

    def _neg_bits(self, a: Bits) -> Bits:
        inverted = [-bit for bit in a]
        one = self._const_bits(1, len(a))
        return self._add_bits(inverted, one)

    def _mul_bits(self, a: Bits, b: Bits) -> Bits:
        width = len(a)
        accumulator = self._const_bits(0, width)
        for shift in range(width):
            partial = [
                self._and_gate([a[i - shift], b[shift]]) if i >= shift else -self._true
                for i in range(width)
            ]
            accumulator = self._add_bits(accumulator, partial)
        return accumulator

    def _ult_bits(self, a: Bits, b: Bits) -> int:
        """a <u b as a single literal."""
        less = -self._true
        for bit_a, bit_b in zip(a, b):  # LSB to MSB
            bit_lt = self._and_gate([-bit_a, bit_b])
            bit_eq = self._iff_gate(bit_a, bit_b)
            less = self._or_gate([bit_lt, self._and_gate([bit_eq, less])])
        return less

    def _eq_bits(self, a: Bits, b: Bits) -> int:
        return self._and_gate(
            [self._iff_gate(bit_a, bit_b) for bit_a, bit_b in zip(a, b)]
        )

    def _shift_bits(self, a: Bits, amount: Bits, kind: str) -> Bits:
        """Barrel shifter; kind in {'shl','lshr','ashr'}."""
        width = len(a)
        fill = a[-1] if kind == "ashr" else -self._true
        current = list(a)
        stage = 0
        while (1 << stage) < width:
            shift_by = 1 << stage
            control = amount[stage]
            shifted: Bits = []
            for i in range(width):
                if kind == "shl":
                    source = current[i - shift_by] if i >= shift_by else -self._true
                else:
                    source = current[i + shift_by] if i + shift_by < width else fill
                shifted.append(self._mux_gate(control, source, current[i]))
            current = shifted
            stage += 1
        # If any higher bit of the shift amount is set, the shift is >= width.
        high_bits = amount[stage:]
        overflow = self._or_gate(high_bits) if high_bits else -self._true
        out_of_range_fill = fill if kind == "ashr" else -self._true
        return [self._mux_gate(overflow, out_of_range_fill, bit) for bit in current]

    # -- term encoders ------------------------------------------------------------

    def bool_var_lit(self, name: str) -> int:
        lit = self._bool_vars.get(name)
        if lit is None:
            lit = self._bool_vars[name] = self._fresh()
        return lit

    def bv_var_bits(self, name: str, width: int) -> Bits:
        bits = self._var_bits.get(name)
        if bits is None:
            bits = self._var_bits[name] = [self._fresh() for _ in range(width)]
        if len(bits) != width:
            raise ValueError(
                f"variable {name!r} used at widths {len(bits)} and {width}"
            )
        return bits

    def encode_bool(self, term: Term) -> int:
        """Encode a boolean term; returns its literal."""
        if term.sort is not BOOL:
            raise TypeError(f"expected boolean term, got {term!r}")
        cached = self._bool_cache.get(term)
        if cached is not None:
            self.encode_hits += 1
            return cached
        self.encode_misses += 1
        lit = self._encode_bool_uncached(term)
        self._bool_cache[term] = lit
        return lit

    def _encode_bool_uncached(self, term: Term) -> int:
        op = term.op
        if op == "boolconst":
            return self.const_lit(term.value)
        if op == "boolvar":
            return self.bool_var_lit(term.name)
        if op == "not":
            return -self.encode_bool(term.args[0])
        if op == "and":
            return self._and_gate([self.encode_bool(arg) for arg in term.args])
        if op == "or":
            return self._or_gate([self.encode_bool(arg) for arg in term.args])
        if op == "xorb":
            return self._xor_gate(
                self.encode_bool(term.args[0]), self.encode_bool(term.args[1])
            )
        if op == "eq":
            return self._eq_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
            )
        if op == "ult":
            return self._ult_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
            )
        if op == "slt":
            a = self.encode_bv(term.args[0])
            b = self.encode_bv(term.args[1])
            # Signed comparison == unsigned comparison with MSB flipped.
            return self._ult_bits(a[:-1] + [-a[-1]], b[:-1] + [-b[-1]])
        if op == "ite":
            return self._mux_gate(
                self.encode_bool(term.args[0]),
                self.encode_bool(term.args[1]),
                self.encode_bool(term.args[2]),
            )
        raise ValueError(f"cannot encode boolean operation {op!r}")

    def encode_bv(self, term: Term) -> Bits:
        """Encode a bitvector term; returns its little-endian literal list."""
        cached = self._bv_cache.get(term)
        if cached is not None:
            self.encode_hits += 1
            return cached
        self.encode_misses += 1
        bits = self._encode_bv_uncached(term)
        if len(bits) != term.width:
            raise AssertionError(
                f"encoding width mismatch for {term.op}: {len(bits)} != {term.width}"
            )
        self._bv_cache[term] = bits
        return bits

    def _encode_bv_uncached(self, term: Term) -> Bits:
        op = term.op
        width = term.width
        if op == "bvconst":
            return self._const_bits(term.value, width)
        if op == "bvvar":
            return self.bv_var_bits(term.name, width)
        if op == "add":
            return self._add_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
            )
        if op == "neg":
            return self._neg_bits(self.encode_bv(term.args[0]))
        if op == "mul":
            return self._mul_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
            )
        if op in ("udiv", "urem"):
            return self._encode_udiv_urem(term)
        if op in ("sdiv", "srem"):
            return self._encode_signed_div(term)
        if op == "bvand":
            return [
                self._and_gate([bit_a, bit_b])
                for bit_a, bit_b in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
                )
            ]
        if op == "bvor":
            return [
                self._or_gate([bit_a, bit_b])
                for bit_a, bit_b in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
                )
            ]
        if op == "bvxor":
            return [
                self._xor_gate(bit_a, bit_b)
                for bit_a, bit_b in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1])
                )
            ]
        if op == "bvnot":
            return [-bit for bit in self.encode_bv(term.args[0])]
        if op in ("shl", "lshr", "ashr"):
            return self._shift_bits(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1]), op
            )
        if op == "concat":
            high, low = term.args
            return self.encode_bv(low) + self.encode_bv(high)
        if op == "extract":
            high, low = term.attr
            return self.encode_bv(term.args[0])[low : high + 1]
        if op == "zext":
            inner = self.encode_bv(term.args[0])
            return inner + [-self._true] * (width - len(inner))
        if op == "sext":
            inner = self.encode_bv(term.args[0])
            return inner + [inner[-1]] * (width - len(inner))
        if op == "ite":
            cond = self.encode_bool(term.args[0])
            then = self.encode_bv(term.args[1])
            other = self.encode_bv(term.args[2])
            return [
                self._mux_gate(cond, bit_t, bit_o)
                for bit_t, bit_o in zip(then, other)
            ]
        if op == "select":
            # Uninterpreted: fresh bits per distinct select term.  Functional
            # consistency is supplied by the solver façade's Ackermann pass.
            return [self._fresh() for _ in range(width)]
        raise ValueError(f"cannot encode bitvector operation {op!r}")

    def _encode_udiv_urem(self, term: Term) -> Bits:
        """Encode quotient and remainder with a restoring divider.

        One compare-and-subtract stage per quotient bit, most significant
        first: shift the next dividend bit into the partial remainder,
        subtract the divisor, and keep the difference iff it did not
        borrow.  The circuit is functional, so fixed operands fix the result
        by propagation alone.  A zero divisor never borrows, which yields
        SMT-LIB's ``q = ~0``, ``r = a`` with no special case.

        Before the stage for dividend bit ``i`` the partial remainder is
        below ``a >> i``, so the stage only needs its low ``width - i``
        bits; a divisor with a set bit above them always borrows.
        """
        a, b = term.args
        width = term.width
        bits_a = self.encode_bv(a)
        bits_b = self.encode_bv(b)
        false = -self._true
        # high_set[k]: some divisor bit at position k or above is set.
        high_set = [false] * (width + 1)
        for index in reversed(range(width)):
            high_set[index] = self._or_gate([bits_b[index], high_set[index + 1]])
        remainder: Bits = []
        quotient = [false] * width
        for index in reversed(range(width)):
            # The significant bits of (remainder << 1) | a[index].
            shifted = [bits_a[index]] + remainder
            size = len(shifted)
            # shifted - b as shifted + ~b + 1; the carry out is "no borrow".
            carry = self._true
            difference: Bits = []
            for bit_s, bit_b in zip(shifted, bits_b):
                total, carry = self._full_adder(bit_s, -bit_b, carry)
                difference.append(total)
            no_borrow = self._and_gate([carry, -high_set[size]])
            quotient[index] = no_borrow
            remainder = [
                self._mux_gate(no_borrow, bit_d, bit_s)
                for bit_d, bit_s in zip(difference, shifted)
            ]
        self._bv_cache[t.Term("udiv", (a, b), (), t.bv_sort(width))] = quotient
        self._bv_cache[t.Term("urem", (a, b), (), t.bv_sort(width))] = remainder
        return quotient if term.op == "udiv" else remainder

    def _encode_signed_div(self, term: Term) -> Bits:
        """Rewrite sdiv/srem into sign-handled udiv/urem terms and encode."""
        a, b = term.args
        width = term.width
        zero_term = t.zero(width)
        neg_a = t.slt(a, zero_term)
        neg_b = t.slt(b, zero_term)
        abs_a = t.ite(neg_a, t.neg(a), a)
        abs_b = t.ite(neg_b, t.neg(b), b)
        if term.op == "sdiv":
            quotient = t.udiv(abs_a, abs_b)
            signed = t.ite(
                t.xor_bool(neg_a, neg_b), t.neg(quotient), quotient
            )
            # SMT-LIB: sdiv by zero is -1 when a >= 0, +1 when a < 0.
            by_zero = t.ite(neg_a, t.bv_const(1, width), t.ones(width))
            result = t.ite(t.eq(b, zero_term), by_zero, signed)
        else:
            remainder = t.urem(abs_a, abs_b)
            signed = t.ite(neg_a, t.neg(remainder), remainder)
            result = t.ite(t.eq(b, zero_term), a, signed)
        return self.encode_bv(result)

    # -- top-level assertion / model extraction -------------------------------------

    def assert_term(self, term: Term) -> None:
        self.solver.add_clause([self.encode_bool(term)])

    def literal_of(self, term: Term) -> int:
        return self.encode_bool(term)

    def model_bv(self, term: Term) -> int:
        """Read the value of an encoded bitvector from the SAT model."""
        bits = self.encode_bv(term)
        value = 0
        for index, lit in enumerate(bits):
            var = abs(lit)
            bit = self.solver.model_value(var)
            if lit < 0:
                bit = not bit
            if bit:
                value |= 1 << index
        return value

    def model_bool(self, term: Term) -> bool:
        lit = self.encode_bool(term)
        value = self.solver.model_value(abs(lit))
        return value if lit > 0 else not value

"""Template-compiled block bodies: exec-specialized block execution.

The tuple interpreter in :mod:`repro.vm.interpreter` pays a dispatch
ladder (tuple index + if/elif chain) per guest op.  This module removes
it by *generating Python source* for every :class:`LoweredBlock`:
operands are constant-folded into the text, registers become function
locals, trap guards are inlined with their exact messages and locations,
and PEP path-register adds / yieldpoint checks are baked in at their
exact positions.  The source is ``compile()``/``exec()``-ed once per
method and the run loop becomes block-level dispatch: call the block
closure, follow the returned successor closure.

Bit-identity contract
---------------------
Generated code must be *bit-identical* to the interpreter in every
observable: virtual cycles, path/edge profiles, emitted output, trap
messages and locations, fuel accounting (charged per block (re)entry,
exactly as the interpreter does), and fault-injection behavior
(yieldpoints call the same ``vm.dispatch_yieldpoint``, so every
``repro.resilience`` site fires unchanged).  Cost accounting comes in
two certified-equal shapes (DESIGN.md §15): when the method's
fixed-point certification passed (``cm.fold_q`` truthy), straight-line
cost chains fold to one scaled-integer constant per flush point — exact
because every charge lies on the 2**-20 grid where float addition never
rounds; otherwise (a genuinely dirty injected cost, which fails
certification) float adds are emitted per-op, in the same order, on a local
accumulator — never pre-summed, because float addition is
non-associative off the grid.  ``tests/test_blockjit.py`` proves the
contract across all bundled workloads.

Segments
--------
A block is split at ``OP_CALL`` boundaries into *segments*: one
generated function per (block, entry-ip) pair, named ``_f{bi}_{ip}``.
The interpreter re-charges fuel (``n - ip + 1``) every time control
(re)enters a block — including resumption after a callee returns — so a
per-segment fuel prologue reproduces its accounting exactly.  A segment
exits by returning the successor segment's closure (jump/branch), the
``_CALL`` sentinel (guest call pushed; the driver switches frames), or
``None`` (guest return; value in ``JitState.ret_value``).

The text is kept lean because ``compile()`` runs on every cold method
(DESIGN.md §9): the two cold paths — the armed yieldpoint
(:func:`_yield_slow`) and fuel exhaustion (:func:`_fuel_out`) — are
module functions called from one generated line each; a branch writes
its dirty registers back once, above the ``if``; and a segment writes
back only registers that some segment of the same method reloads from
``regs`` — every other store is dead (tracefast's whole-method function
reads a register only after writing it unless a segment reloads it).

Caching
-------
Generated source is attached to the :class:`CompiledMethod`
(``jit_source``) and rides along when the content-addressed
:mod:`repro.vm.codecache` persists compiled methods, so warm runs (and
engine-pool workers, which receive methods by pickle) skip codegen and
only re-``exec``.  Compiled code objects are additionally memoised
process-wide keyed by the source text itself (:func:`code_object`,
shared with tracefast).

Kill switch: ``REPRO_BLOCKJIT=0`` falls back to the tuple interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import FuelExhaustedError, VMError
from repro.util.flags import _env_enabled, pgo_layout_enabled
from repro.vm.costs import FOLD_SCALE
from repro.vm.interpreter import (
    OP_ALEN,
    OP_ALOAD,
    OP_ASTORE,
    OP_BIN,
    OP_BINI,
    OP_CALL,
    OP_CONST,
    OP_EMIT,
    OP_MOVE,
    OP_NEG,
    OP_NEWARR,
    OP_NOT,
    OP_PATHCOUNT,
    OP_PEPADD,
    OP_PEPINIT,
    OP_YIELD,
    T_BR,
    T_JMP,
    T_RET,
    _MAX_ARRAY,
    CompiledMethod,
    Frame,
    LoweredBlock,
    _trap,
)

ENV_DISABLE = "REPRO_BLOCKJIT"

#: Sentinel a segment returns after pushing a callee frame; the driver
#: switches to the new frame's entry segment.
_CALL = object()

#: Countdown-yieldpoint gate value while the flag is up: every armed
#: yieldpoint must reach the dispatcher until the burst drains; while
#: the flag is down the gate is exactly ``next_tick``.
_NEG_INF = float("-inf")

# Process-wide memo of compiled code objects, keyed by the generated
# source text itself (true content addressing: identical lowered bodies
# produce identical source).  ``compile()`` is about half the wall time
# of a one-shot profiling job on a small program, so a hit is worth
# having; the bound is crude (a full flush) because a miss only costs a
# recompile.
_CODE_OBJECTS: Dict[str, object] = {}
_CODE_OBJECTS_BOUND = 4096


def blockjit_enabled() -> bool:
    """True unless ``REPRO_BLOCKJIT`` disables the block engine."""
    return _env_enabled(ENV_DISABLE)


def code_object(source: str, filename: str):
    """The code object of generated ``source``, memoised process-wide."""
    code_obj = _CODE_OBJECTS.get(source)
    if code_obj is None:
        if len(_CODE_OBJECTS) >= _CODE_OBJECTS_BOUND:
            _CODE_OBJECTS.clear()
        code_obj = compile(source, filename, "exec")
        _CODE_OBJECTS[source] = code_obj
    return code_obj


# -- cold paths called from generated code ----------------------------------


def _yield_slow(vm, st, t: float, cm, path_reg: int, sample_point: bool) -> float:
    """The armed countdown yieldpoint (DESIGN.md §10).

    Runs the interpreter's tick/flag sequence against the VM attributes
    (``t`` is the ``vm.cycles`` value the caller just stored), then
    re-derives the gate.  After the once-per-tick method sample,
    dispatch reduces to the sampler call, saving a frame per armed
    yieldpoint.  Returns the handler cost that seeds the caller's
    ``_cyc``: ``0.0 + x`` exactly as the interpreter accumulates it.
    """
    if t >= vm.next_tick:
        vm.on_tick()
    if not vm.flag:
        st.gate = vm.next_tick
        return 0.0
    cyc = 0.0
    smp = vm.sampler
    if vm._tick_method_sampled and smp is not None:
        cyc += smp.on_yieldpoint(vm, cm, path_reg, sample_point)
    else:
        cyc += vm.dispatch_yieldpoint(cm, path_reg, sample_point)
    st.gate = _NEG_INF if vm.flag else vm.next_tick
    return cyc


def _fuel_out(vm, cyc: float, method, block: str, ip: int) -> None:
    """Fuel exhaustion at a block (re)entry, exactly as the interpreter
    raises it: flush the pending cycles, then abort."""
    vm.cycles += cyc
    raise FuelExhaustedError(
        "instruction budget exhausted",
        method=method,
        block=block,
        instruction_index=ip,
        cycles=vm.cycles,
    )


# -- codegen ----------------------------------------------------------------

_CMP_TEXT = {12: "<", 13: "<=", 14: ">", 15: ">=", 16: "=="}
_BIN_TEXT = {
    0: "+",
    1: "-",
    2: "*",
    3: "//",
    4: "%",
    5: "&",
    6: "|",
    7: "^",
    8: "<<",
    9: ">>",
}


def _cmp_text(kind: int) -> str:
    # The interpreter's comparison ladders treat any non-12..16 code as
    # "!=" in their else arm; mirror that exactly.
    return _CMP_TEXT.get(kind, "!=")


def _bin_expr(kind: int, a: str, b: str) -> str:
    sym = _BIN_TEXT.get(kind)
    if sym is not None:
        return f"{a} {sym} {b}"
    if kind == 10:
        return f"({a} if {a} < {b} else {b})"
    if kind == 11:
        return f"({a} if {a} > {b} else {b})"
    if 12 <= kind <= 17:
        return f"(1 if {a} {_cmp_text(kind)} {b} else 0)"
    raise VMError(f"unknown binop code {kind}")  # pragma: no cover


def _entry_ips(block: LoweredBlock) -> List[int]:
    """Segment entry points: block start plus every call-resume ip."""
    ips = [0]
    for j, op in enumerate(block.ops):
        if op[0] == OP_CALL:
            ips.append(j + 1)
    return ips


def _mask(counted) -> int:
    """Per-arm probe mask of a lowered ``count_arms`` field.

    Bit 0 counts the taken arm, bit 1 the not-taken arm.  Lowering
    emits ints (``interpreter._arm_mask``); a legacy boolean True still
    normalises to both arms.
    """
    if counted is True:
        return 3
    return int(counted or 0)


def counted_branches(cm: CompiledMethod) -> List[Tuple[str, object]]:
    """``(block label, origin)`` of every edge-instrumented branch, in
    block order.

    Codegen names the origins positionally (``_og0``, ``_og1``, ...) and
    the namespace binds them by the same index, so this one traversal is
    what keeps persisted sources and fresh namespaces in agreement.
    """
    return [
        (block.label, block.term[9])
        for block in cm.blocks.values()
        if block.term[0] == T_BR and block.term[10]
    ]


def _emit_countdown_yield(
    seg: "_Segment", path_reg: str, sample_point: bool
) -> None:
    """Emit the countdown yieldpoint (DESIGN.md §10), shared by tracefast.

    ``vm.cycles`` is stored every yieldpoint with the bit-identical
    value; one compare against ``st.gate`` (next_tick while the flag is
    down, -inf while it is up) guards the out-of-line slow path
    :func:`_yield_slow`, whose handler calls are what let samplers, the
    adaptive system, and resilience fault sites fire unchanged in
    compiled code.
    """
    expr = seg.cyc_expr()
    seg.pending = []
    seg.emit(f"_t = vm.cycles + {expr}")
    seg.emit("vm.cycles = _t")
    seg.emit(
        f"_cyc = _yield_slow(vm, st, _t, _cm, {path_reg}, {sample_point!r}) "
        "if _t >= st.gate else 0.0"
    )


class _Segment:
    """Accumulates one generated function: loads, body, dirty registers.

    ``fixed`` selects the fixed-point accounting shape (DESIGN.md §15):
    per-op cost constants collect in ``pending`` instead of emitting an
    eager ``_cyc += c`` each, and every point that observes the
    accumulator reads :meth:`cyc_expr` — one folded constant per chain.
    Certification (``CompiledMethod.fold_q``) guarantees the fold is
    bit-identical; with ``fixed`` off, ``pending`` stays empty and
    ``cyc_expr`` degenerates to the literal ``_cyc``, so every emission
    site can read it unconditionally.
    """

    def __init__(self) -> None:
        self.body: List[str] = []
        self.loads: List[int] = []  # first-use order, unique
        self._bound: set = set()  # registers with a live local
        self.dirty: set = set()  # locals that must be flushed on exit
        self.fixed = False
        self.pending: List[float] = []
        # (body index, dirty registers) of the one writeback a blockjit
        # segment makes on exit; see mark_writeback.
        self.writeback: Optional[Tuple[int, List[int]]] = None

    def rd(self, reg: int) -> str:
        if reg not in self._bound:
            self._bound.add(reg)
            self.loads.append(reg)
        return f"r{reg}"

    def wr(self, reg: int) -> str:
        self._bound.add(reg)
        self.dirty.add(reg)
        return f"r{reg}"

    def cyc_expr(self) -> str:
        """The value ``_cyc`` would hold if pending costs flushed now.

        Multi-constant chains fold to one constant computed in exact
        scaled-integer arithmetic: each ``c * FOLD_SCALE`` is an exact
        integer-valued product (certification), the int sum is exact,
        and the single closing division is a power-of-two scaling — so
        the folded constant equals the sequential float sum bit for bit.
        """
        pending = self.pending
        if not pending:
            return "_cyc"
        if len(pending) > 1:
            total = sum(int(c * FOLD_SCALE) for c in pending) / FOLD_SCALE
            return f"(_cyc + {total!r})"
        return f"(_cyc + {pending[0]!r})"

    def emit(self, line: str, depth: int = 1) -> None:
        # Trap guards pass the accumulator by the literal name ``_cyc``;
        # with costs pending, substitute the folded chain inline so the
        # cold trap path sees the exact flushed value without the hot
        # path ever flushing.
        if self.pending and "_trap(vm, _cyc, " in line:
            line = line.replace(
                "_trap(vm, _cyc, ", f"_trap(vm, {self.cyc_expr()}, ", 1
            )
        self.body.append("    " * depth + line)

    def cost(self, amount: float, depth: int = 1) -> None:
        # Zero adds are skipped: x + 0.0 == x bitwise for the
        # non-negative accumulator values that occur here.
        if amount != 0.0:
            if self.fixed:
                self.pending.append(amount)
            else:
                self.emit(f"_cyc += {amount!r}", depth)

    def writebacks(self, depth: int = 1) -> None:
        for reg in sorted(self.dirty):
            self.emit(f"regs[{reg}] = r{reg}", depth)

    def mark_writeback(self) -> None:
        """Reserve the segment's top-level writeback point here; the
        registers are filtered once the whole method's reload set is
        known (:meth:`_MethodCodegen.generate`)."""
        self.writeback = (len(self.body), sorted(self.dirty))


class _MethodCodegen:
    def __init__(self, cm: CompiledMethod) -> None:
        self.cm = cm
        self.blocks = list(cm.blocks.values())
        self.block_index = {block.label: bi for bi, block in enumerate(self.blocks)}
        # Edge-origin globals are named by *block order* (the traversal
        # of :func:`counted_branches`, which `_namespace` re-runs to bind
        # them), never by segment emission order — layout advice may
        # emit hot segments first, but ``_og{j}`` must keep meaning the
        # j-th counted branch of the method.  The tracefast backend
        # shares this map: its code execs into the same namespace.
        self._origin_names: Dict[str, str] = {
            label: f"_og{j}" for j, (label, _) in enumerate(counted_branches(cm))
        }
        # Fixed-point accounting verdict (DESIGN.md §15): decided at
        # lowering time and carried on the method, so lazily regenerated
        # sources (ensure_jit after a pickle round-trip) always match
        # the shape the method was certified for — codegen never
        # re-consults the flag.
        self._fixed = bool(cm.fold_q)

    # -- top level ----------------------------------------------------------

    def generate(self) -> str:
        # Profile-guided layout (DESIGN.md §14): emit hot blocks'
        # segments first.  Function *names* stay keyed by canonical
        # block index, so the namespace and entry table are untouched;
        # only the textual order (and thus code-object locality) moves.
        ordered = list(enumerate(self.blocks))
        advice = self.cm.pgo_layout
        if advice and pgo_layout_enabled():
            rank = {label: i for i, label in enumerate(advice)}
            ordered.sort(key=lambda pair: rank.get(pair[1].label, len(rank)))
        segments = [
            (bi, block, ip, self._gen_segment(bi, block, ip))
            for bi, block in ordered
            for ip in _entry_ips(block)
        ]
        # Writeback pruning: ``regs`` is read only by segment prologues
        # (tracefast's whole-method function reads a register only after
        # writing it, unless some segment reloads it too), so a store of
        # a register no segment of this method reloads is dead.
        reloaded = set()
        for _, _, _, seg in segments:
            reloaded.update(seg.loads)
        header = (
            "# Generated by repro.vm.blockjit — one function per "
            "(block, entry-ip) segment.\n"
            "# Injected globals: _pk, _cm, _Frame, _trap, _fuel_out, "
            "_yield_slow, _CALL, _blk*, _og*.\n"
        )
        return header + "\n".join(
            self._render_segment(bi, block, ip, seg, reloaded)
            for bi, block, ip, seg in segments
        )

    # -- segments -----------------------------------------------------------

    def _gen_segment(self, bi: int, block: LoweredBlock, ip: int) -> _Segment:
        ops = block.ops
        n = len(ops)
        seg = _Segment()
        seg.fixed = self._fixed
        j = ip
        ended = False
        while j < n:
            op = ops[j]
            if op[0] == OP_CALL:
                self._gen_call(seg, bi, block, j, op)
                ended = True
                break
            self._gen_op(seg, block.label, j, op)
            j += 1
        if not ended:
            self._gen_term(seg, block)
        return seg

    def _render_segment(
        self, bi: int, block: LoweredBlock, ip: int, seg: _Segment,
        reloaded: set,
    ) -> str:
        lines = [
            f"def _f{bi}_{ip}(vm, frame, regs, st):",
            # Fuel is charged on every block (re)entry, exactly like the
            # interpreter's `fuel -= n - ip + 1` at loop top.
            f"    _fuel = st.fuel - {len(block.ops) - ip + 1}",
            "    st.fuel = _fuel",
            f"    if _fuel < 0: _fuel_out(vm, st.cyc, _pk, {block.label!r}, {ip})",
            "    _cyc = st.cyc",
        ]
        lines.extend(f"    r{reg} = regs[{reg}]" for reg in seg.loads)
        body = seg.body
        if seg.writeback is None:
            lines.extend(body)
        else:
            at, dirty = seg.writeback
            lines.extend(body[:at])
            lines.extend(
                f"    regs[{reg}] = r{reg}" for reg in dirty if reg in reloaded
            )
            lines.extend(body[at:])
        return "\n".join(lines) + "\n"

    # -- ops ----------------------------------------------------------------

    def _gen_op(self, seg: _Segment, label: str, j: int, op: tuple) -> None:
        c = op[0]
        seg.cost(op[1])
        if c == OP_CONST:
            seg.emit(f"{seg.wr(op[2])} = {op[3]!r}")
        elif c == OP_MOVE:
            src = seg.rd(op[3])
            seg.emit(f"{seg.wr(op[2])} = {src}")
        elif c == OP_BINI:
            a = seg.rd(op[4])
            self._guards_imm(seg, op[2], op[5], label, j)
            seg.emit(f"{seg.wr(op[3])} = {_bin_expr(op[2], a, repr(op[5]))}")
        elif c == OP_BIN:
            a = seg.rd(op[4])
            b = seg.rd(op[5])
            self._guards_reg(seg, op[2], b, label, j)
            seg.emit(f"{seg.wr(op[3])} = {_bin_expr(op[2], a, b)}")
        elif c == OP_NEG:
            src = seg.rd(op[3])
            seg.emit(f"{seg.wr(op[2])} = -{src}")
        elif c == OP_NOT:
            src = seg.rd(op[3])
            seg.emit(f"{seg.wr(op[2])} = 0 if {src} else 1")
        elif c == OP_NEWARR:
            size = seg.rd(op[3])
            seg.emit(f"if {size} < 0 or {size} > {_MAX_ARRAY}:")
            seg.emit(
                f'_trap(vm, _cyc, _cm, f"bad array size {{{size}}}", '
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"{seg.wr(op[2])} = [0] * {size}")
        elif c == OP_ALOAD:
            arr = seg.rd(op[3])
            idx = seg.rd(op[4])
            seg.emit(f"if type({arr}) is not list:")
            seg.emit(
                f"_trap(vm, _cyc, _cm, 'aload from a non-array value', "
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"if {idx} < 0 or {idx} >= len({arr}):")
            seg.emit(
                f'_trap(vm, _cyc, _cm, f"array index {{{idx}}} out of range", '
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"{seg.wr(op[2])} = {arr}[{idx}]")
        elif c == OP_ASTORE:
            arr = seg.rd(op[2])
            idx = seg.rd(op[3])
            src = seg.rd(op[4])
            seg.emit(f"if type({arr}) is not list:")
            seg.emit(
                f"_trap(vm, _cyc, _cm, 'astore to a non-array value', "
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"if {idx} < 0 or {idx} >= len({arr}):")
            seg.emit(
                f'_trap(vm, _cyc, _cm, f"array index {{{idx}}} out of range", '
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"{arr}[{idx}] = {src}")
        elif c == OP_ALEN:
            arr = seg.rd(op[3])
            seg.emit(f"if type({arr}) is not list:")
            seg.emit(
                f"_trap(vm, _cyc, _cm, 'alen of a non-array value', "
                f"{label!r}, {j})",
                2,
            )
            seg.emit(f"{seg.wr(op[2])} = len({arr})")
        elif c == OP_EMIT:
            src = seg.rd(op[2])
            seg.emit(f"vm.output.append({src})")
        elif c == OP_PEPADD:
            seg.emit(f"st.path_reg += {op[2]!r}")
        elif c == OP_PEPINIT:
            seg.emit("st.path_reg = 0")
        elif c == OP_PATHCOUNT:
            seg.emit("vm.path_profile.record(_pk, st.path_reg)")
            seg.emit("vm.path_count_updates += 1")
        elif c == OP_YIELD:
            _emit_countdown_yield(seg, "st.path_reg", op[2])
        else:  # pragma: no cover - lowering emits only known codes
            raise VMError(f"blockjit cannot compile opcode {c}")

    def _guards_reg(
        self, seg: _Segment, kind: int, b: str, label: str, j: int
    ) -> None:
        if kind == 3 or kind == 4:
            msg = "division by zero" if kind == 3 else "modulo by zero"
            seg.emit(f"if {b} == 0:")
            seg.emit(f"_trap(vm, _cyc, _cm, {msg!r}, {label!r}, {j})", 2)
        elif kind == 8 or kind == 9:
            seg.emit(f"if {b} < 0 or {b} > 63:")
            seg.emit(
                f'_trap(vm, _cyc, _cm, f"bad shift amount {{{b}}}", '
                f"{label!r}, {j})",
                2,
            )

    def _guards_imm(
        self, seg: _Segment, kind: int, imm, label: str, j: int
    ) -> None:
        # Guards on a constant operand fold away entirely — or into an
        # unconditional trap with the exact interpreter message.
        if (kind == 3 or kind == 4) and imm == 0:
            msg = "division by zero" if kind == 3 else "modulo by zero"
            seg.emit(f"_trap(vm, _cyc, _cm, {msg!r}, {label!r}, {j})")
        elif (kind == 8 or kind == 9) and (imm < 0 or imm > 63):
            seg.emit(
                f"_trap(vm, _cyc, _cm, {f'bad shift amount {imm}'!r}, "
                f"{label!r}, {j})"
            )

    # -- calls and terminators ----------------------------------------------

    def _gen_call(
        self, seg: _Segment, bi: int, block: LoweredBlock, j: int, op: tuple
    ) -> None:
        seg.cost(op[1])
        name = op[3]
        seg.emit(f"_c = vm.code.get({name!r})")
        seg.emit("if _c is None:")
        seg.emit(
            f"_trap(vm, _cyc, _cm, {f'call to unknown method {name!r}'!r}, "
            f"{block.label!r}, {j})",
            2,
        )
        seg.emit(f"frame.block = _blk{bi}")
        seg.emit(f"frame.ip = {j + 1}")
        seg.emit("frame.path_reg = st.path_reg")
        seg.emit("_nf = _Frame(_c)")
        if op[4]:
            seg.emit("_nr = _nf.regs")
            for pos, src in enumerate(op[4]):
                arg = seg.rd(src)
                seg.emit(f"_nr[{pos}] = {arg}")
        if op[2] is not None:
            seg.emit(f"_nf.ret_dst = {op[2]}")
        seg.emit("_stk = vm.guest_stack")
        seg.emit("_stk.append(_nf)")
        seg.emit("if len(_stk) > vm.max_stack_depth:")
        seg.emit(
            f"_trap(vm, _cyc, _cm, 'guest stack overflow', "
            f"{block.label!r}, {j})",
            2,
        )
        seg.mark_writeback()
        seg.emit(f"st.cyc = {seg.cyc_expr()}")
        seg.pending = []
        seg.emit("return _CALL")

    def _succ_name(self, succ: LoweredBlock) -> str:
        return f"_f{self.block_index[succ.label]}_0"

    def _gen_term(self, seg: _Segment, block: LoweredBlock) -> None:
        term = block.term
        t = term[0]
        seg.cost(term[1])
        if t == T_RET:
            value = seg.rd(term[2]) if term[2] is not None else "0"
            # No register write-backs: the frame is dead.
            seg.emit(f"st.cyc = {seg.cyc_expr()}")
            seg.pending = []
            seg.emit(f"st.ret_value = {value}")
            seg.emit("return None")
        elif t == T_JMP:
            seg.mark_writeback()
            seg.emit(f"st.cyc = {seg.cyc_expr()}")
            seg.pending = []
            seg.emit(f"return {self._succ_name(term[2])}")
        elif t == T_BR:
            a = seg.rd(term[3])
            b = seg.rd(term[4])
            mask = _mask(term[10])
            origin = self._origin_names.get(block.label)
            # One writeback for both arms, above the ``if``.  Each arm
            # extends the shared pre-branch chain with its own
            # penalty/edge constants before folding at its exit store.
            seg.mark_writeback()
            shared = list(seg.pending)
            seg.emit(f"if {a} {_cmp_text(term[2])} {b}:")
            self._gen_arm(
                seg, True, term[7], term[8],
                origin if mask & 1 else None, term[11], term[5],
            )
            seg.pending = list(shared)
            seg.emit("else:")
            self._gen_arm(
                seg, False, term[7], term[8],
                origin if mask & 2 else None, term[11], term[6],
            )
            seg.pending = []
        else:  # pragma: no cover - lowering emits only known terminators
            raise VMError(f"blockjit cannot compile terminator {t}")

    def _gen_arm(
        self,
        seg: _Segment,
        taken: bool,
        layout_then: bool,
        penalty: float,
        origin: Optional[str],
        edge_cost: float,
        succ: LoweredBlock,
    ) -> None:
        if taken != layout_then:
            seg.cost(penalty, 2)
        if origin is not None:
            seg.emit(f"vm.edge_profile.record({origin}, {taken})", 2)
            seg.cost(edge_cost, 2)
        seg.emit(f"st.cyc = {seg.cyc_expr()}", 2)
        seg.emit(f"return {self._succ_name(succ)}", 2)


def generate_source(cm: CompiledMethod) -> str:
    """Generate the method's blockjit source (pure function of its blocks)."""
    return _MethodCodegen(cm).generate()


# -- compiling and binding --------------------------------------------------


def _namespace(cm: CompiledMethod) -> dict:
    ns: dict = {
        "_pk": cm.profile_key,
        "_cm": cm,
        "_Frame": Frame,
        "_trap": _trap,
        "_fuel_out": _fuel_out,
        "_yield_slow": _yield_slow,
        "_CALL": _CALL,
    }
    for bi, block in enumerate(cm.blocks.values()):
        ns[f"_blk{bi}"] = block
    for j, (_, origin) in enumerate(counted_branches(cm)):
        ns[f"_og{j}"] = origin
    return ns


def ensure_jit(cm: CompiledMethod) -> dict:
    """Return the method's segment table, generating/compiling on demand.

    ``jit_source`` survives pickling (codecache persistence, engine-pool
    workers); ``jit_entries`` holds per-process closures and is always
    rebuilt here.
    """
    entries = cm.jit_entries
    if entries is not None:
        return entries
    source = cm.jit_source
    if source is None:
        source = generate_source(cm)
        cm.jit_source = source
    ns = _namespace(cm)
    exec(code_object(source, "<blockjit>"), ns)
    entries = {}
    for bi, block in enumerate(cm.blocks.values()):
        for ip in _entry_ips(block):
            entries[(block.label, ip)] = ns[f"_f{bi}_{ip}"]
    cm.jit_entries = entries
    if cm.sb_source is not None:
        # A pickled superblock (codecache warm run, engine-pool worker)
        # rides along; revalidate + rebind it over the fresh entries.
        # Imported lazily: superblock builds on this module.
        from repro.vm.superblock import reinstall_persisted

        reinstall_persisted(cm, entries)
    return entries


# -- the driver -------------------------------------------------------------


class JitState:
    """Mutable scalars threaded through segment calls.

    Hot per-op traffic stays in segment-function locals; this object is
    only touched at segment boundaries (and at yieldpoints for
    ``path_reg``).
    """

    __slots__ = ("cyc", "fuel", "path_reg", "ret_value", "gate")

    def __init__(self, fuel: int) -> None:
        self.cyc = 0.0
        self.fuel = fuel
        self.path_reg = 0
        self.ret_value = 0
        # Countdown-yieldpoint trigger threshold (see the OP_YIELD
        # template in _MethodCodegen._gen_op).
        self.gate = _NEG_INF


def execute_blockjit(vm, fuel: int) -> int:
    """Block-dispatch twin of :func:`repro.vm.interpreter.execute`.

    Methods are jitted lazily at first entry — the adaptive system swaps
    recompiled methods into ``vm.code`` mid-run, and callee lookup stays
    dynamic, so a method may first be reached long after the run starts.
    """
    code = vm.code
    main_cm = code.get(vm.main)
    if main_cm is None:
        raise VMError(f"no compiled method for main {vm.main!r}")

    frame = Frame(main_cm)
    stack = [frame]
    # Expose the live stack so the yieldpoint handler can walk it (the
    # dynamic call graph sampling of paper section 4.1).
    vm.guest_stack = stack
    regs = frame.regs
    st = JitState(fuel)
    st.gate = _NEG_INF if vm.flag else vm.next_tick
    entries = main_cm.jit_entries
    if entries is None:
        entries = ensure_jit(main_cm)
    fn = entries[(main_cm.entry.label, 0)]
    call = _CALL

    while True:
        nxt = fn(vm, frame, regs, st)
        if nxt is not None:
            if nxt is call:
                # A callee frame was pushed by the segment.  Fresh
                # frames start at (entry, 0) with path_reg 0; a frame
                # materialised by a tracefast inline side exit resumes
                # at its recorded position with its rebuilt path state.
                frame = stack[-1]
                regs = frame.regs
                st.path_reg = frame.path_reg
                cm = frame.cm
                entries = cm.jit_entries
                if entries is None:
                    entries = ensure_jit(cm)
                fn = entries[(frame.block.label, frame.ip)]
            else:
                fn = nxt
            continue
        # Guest return.
        value = st.ret_value
        stack.pop()
        if not stack:
            vm.cycles += st.cyc
            return value
        dst = frame.ret_dst
        frame = stack[-1]
        regs = frame.regs
        st.path_reg = frame.path_reg
        if dst is not None:
            regs[dst] = value
        cm = frame.cm
        entries = cm.jit_entries
        if entries is None:  # pragma: no cover - jitted before it called
            entries = ensure_jit(cm)
        fn = entries[(frame.block.label, frame.ip)]

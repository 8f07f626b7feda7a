"""The trace tier: whole-method token-dispatch codegen.

The one codegen backend above blockjit (DESIGN.md §13).  Where plain
blockjit compiles one function per (block, entry-ip) segment —
reloading registers from ``frame.regs`` and re-reading
``st.cyc``/``st.fuel`` at every segment boundary — tracefast compiles
the *entire method* into ONE generated function ``_m``:

* every register the method touches is loaded into a local once at
  entry and written back only at real frame boundaries (guest calls);
  block-to-block transfers keep all state in locals — the per-segment
  load/writeback traffic and the trampoline round-trip disappear;
* control transfers between blocks become ``_e = token; continue``
  against a flat token ladder inside one ``while True`` — the driver
  trampoline is entered only for guest calls and returns;
* the dominant Ball-Larus loop trace selected by
  :mod:`repro.vm.superblock` is inlined as the ladder's first arm with
  its own inner ``while True``; side exits are just
  ``_e = token; break`` — no register writebacks, because the off-trace
  blocks live in the same function;
* straight-line costs are *batched*: per-op cost adds accumulate into
  one pending chain flushed at yieldpoints and control transfers.  When
  lowering certified the method on the fixed-point grid
  (``cm.fold_q``, DESIGN.md §15) each chain folds to one constant;
  otherwise it stays a left-associated textual chain
  ``_cyc = (_cyc + c1 + ... + ck)``, bit-identical to k sequential
  ``+=`` adds (cold paths — traps, fuel exhaustion — take the pending
  chain inline, so the hot path never flushes early);
* PEP path-register adds fold to a single integer add on a local
  ``_pr`` (exact: path registers are ints), stored to the frame only at
  calls; runs of immediate add/sub register arithmetic on one register
  constant-fold into a single add (exact for guest ints);
* per-entry thin wrappers ``_f{bi}_{ip}`` return ``_m(...)`` with the
  baked entry token, so the existing :func:`blockjit.execute_blockjit`
  driver, the segment tables, and in-flight plain-segment successor
  returns all keep working with zero driver changes.

Methods that stay warm without a dominant path get the same ``_m`` with
no trace arm (the warm ladder, ``WARM_PATH``); k-iteration traces
(DESIGN.md §16) are ordinary traces whose block list repeats the loop.

Bit-identity contract
---------------------
Identical to blockjit's: virtual cycles stay float-exact, path/edge
profiles, traps (messages + locations + cycle counts), fuel accounting
(charged per block (re)entry), emitted output, and fault-injection
ordering are unchanged.  ``tests/test_tracefast.py`` checks the default
pipeline against the tuple interpreter on every bundled workload and on
generated programs.

Persistence
-----------
The source, its path number and its fingerprint live in the
``sb_source``/``sb_path``/``sb_fingerprint`` slots that
:func:`repro.vm.superblock.reinstall_persisted` revalidates on warm
codecache loads.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import VMError
from repro.util.flags import (
    pgo_inline_enabled,
    pgo_layout_enabled,
    warmjit_enabled,
)
from repro.vm.blockjit import (
    _MethodCodegen,
    _Segment,
    _cmp_text,
    _emit_countdown_yield,
    _entry_ips,
    _mask,
    code_object,
    counted_branches,
    ensure_jit,
)
from repro.vm.interpreter import (
    OP_BINI,
    OP_CALL,
    OP_PATHCOUNT,
    OP_PEPADD,
    OP_PEPINIT,
    OP_YIELD,
    T_BR,
    T_JMP,
    T_RET,
    CompiledMethod,
    LoweredBlock,
)
from repro.vm.superblock import superblock_fingerprint, trace_blocks


#: Sentinel ``sb_path`` for the warm-method token ladder (DESIGN.md
#: §15): a whole-method ``_m`` compiled with *no* dominant trace arm —
#: plain ladder arms only, laid out in ``pgo_layout`` order.  Persisted
#: through the same ``sb_source``/``sb_path``/``sb_fingerprint`` slots
#: as real traces; :func:`repro.vm.superblock.trace_blocks` rejects it
#: (no Ball-Larus path numbered -1 exists).
WARM_PATH = -1


class _TfSeg(_Segment):
    """A :class:`blockjit._Segment` with deferred cost/PEP accumulation.

    ``pending`` holds per-op cost constants not yet flushed to ``_cyc``;
    ``pep`` holds folded path-register increments not yet applied to
    ``_pr``.  ``base`` shifts the emit indent so the blockjit op/guard
    emitters (which write at relative depth 1/2) can be reused inside
    arbitrarily nested ladder arms.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pep: int = 0
        self.base: int = 0

    def cyc_expr(self) -> str:
        """The value ``_cyc`` *would* hold if pending costs flushed now.

        Under fixed-point accounting (``fixed``; DESIGN.md §15) the base
        class folds every multi-term chain on the Q20 grid: lowering
        certified the whole cost universe, so ``_cyc`` is grid-valued
        everywhere.  Otherwise the chain stays textual and
        left-associated, so ``(_cyc + c1 + c2)`` performs bit-identical
        float adds to blockjit's eager ``_cyc += c1; _cyc += c2``.
        """
        if self.fixed or not self.pending:
            return super().cyc_expr()
        chain = " + ".join(repr(c) for c in self.pending)
        return f"(_cyc + {chain})"

    def emit(self, line: str, depth: int = 1) -> None:
        # Trap guards emitted by the shared blockjit emitters pass the
        # accumulator by the literal name ``_cyc``; substitute the
        # pending chain inline so the cold trap path sees the exact
        # flushed value without the hot path ever flushing.
        if "_trap(vm, _cyc, " in line:
            line = line.replace(
                "_trap(vm, _cyc, ", f"_trap(vm, {self.cyc_expr()}, ", 1
            )
        self.body.append("    " * (depth + self.base) + line)

    def cost(self, amount: float, depth: int = 1) -> None:
        if amount != 0.0:
            self.pending.append(amount)

    def flush_cyc(self, depth: int = 1) -> None:
        if self.pending:
            self.body.append(
                "    " * (depth + self.base) + f"_cyc = {self.cyc_expr()}"
            )
            self.pending = []

    def flush_pep(self, depth: int = 1) -> None:
        if self.pep:
            self.body.append(
                "    " * (depth + self.base) + f"_pr = _pr + {self.pep!r}"
            )
            self.pep = 0


# -- op emission ------------------------------------------------------------


def _fold_run(ops: tuple, j: int) -> Optional[Tuple[int, int]]:
    """Detect a chain of immediate add/sub ops on one register.

    Returns ``(net, end)`` when ``ops[j:end]`` is a run of >= 2
    ``OP_BINI`` +/- ops whose destination and source are the same
    register: the run collapses to one ``r = r + net`` (exact for guest
    ints; the intermediate values are unobservable — no guard, trap,
    yieldpoint, or other reader sits between them).  Per-op costs are
    still charged individually by the caller.
    """
    op = ops[j]
    if op[0] != OP_BINI or op[2] not in (0, 1) or op[3] != op[4]:
        return None
    reg = op[3]
    net = 0
    k = j
    n = len(ops)
    while k < n:
        o = ops[k]
        if o[0] != OP_BINI or o[2] not in (0, 1) or o[3] != reg or o[4] != reg:
            break
        net += o[5] if o[2] == 0 else -o[5]
        k += 1
    if k - j < 2:
        return None
    return net, k


def _emit_yield(seg: _TfSeg, op: tuple) -> None:
    """The blockjit countdown yieldpoint, against the tracefast locals.

    Pending costs fold into the flush expression (same association as
    the eager adds) and the pending PEP increment is applied first so
    the handler sees the exact interpreter path register.
    """
    seg.cost(op[1])
    seg.flush_pep()
    _emit_countdown_yield(seg, "_pr", op[2])


def _tf_op(cg: _MethodCodegen, seg: _TfSeg, label: str, j: int, op: tuple) -> None:
    c = op[0]
    if c == OP_PEPADD:
        # Deferred onto the _pr local; consecutive adds fold exactly
        # (ints).  Applied before anything that observes the register.
        seg.cost(op[1])
        seg.pep += op[2]
    elif c == OP_PEPINIT:
        # A reset kills any pending adds: `_pr += k; _pr = 0` == `_pr = 0`.
        seg.cost(op[1])
        seg.pep = 0
        seg.emit("_pr = 0")
    elif c == OP_PATHCOUNT:
        seg.cost(op[1])
        seg.flush_pep()
        seg.emit("vm.path_profile.record(_pk, _pr)")
        seg.emit("vm.path_count_updates += 1")
    elif c == OP_YIELD:
        _emit_yield(seg, op)
    else:
        # Registers, arithmetic, arrays, emit, traps: the blockjit
        # emitters are reused verbatim; _TfSeg redirects their cost adds
        # into the pending chain and rewrites trap accumulator args.
        cg._gen_op(seg, label, j, op)


def _gen_call_tf(
    cg: _MethodCodegen,
    seg: _TfSeg,
    bi: int,
    block: LoweredBlock,
    j: int,
    op: tuple,
    tokens: Dict[Tuple[str, int], int],
) -> None:
    """A guest call: the only point that re-crosses the driver.

    The *method-wide* dirty register set is written back (the callee's
    return resumes through a fresh ``_m`` entry that reloads every
    local), and the carried ``st`` scalars are stored.
    """
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
    seg.flush_pep()
    seg.emit("frame.path_reg = _pr")
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
    seg.writebacks()
    seg.flush_cyc()
    seg.emit("st.cyc = _cyc")
    seg.emit("st.fuel = _fuel")
    seg.emit("return _CALL")


# -- dominant-path callee inlining (DESIGN.md §14) --------------------------


def _inline_sites(cm: CompiledMethod) -> Dict[Tuple[str, int], int]:
    """(block label, op index) -> dense site index ``k``.

    Sorted, so the ``_icm{k}``/``_iog{k}_{m}`` namespace names are a
    deterministic function of the advice — :func:`_inline_namespace`
    re-runs the same enumeration to bind them."""
    advice = cm.pgo_inline
    if not advice:
        return {}
    return {site: k for k, site in enumerate(sorted(advice))}


def _site_token(k: int, callee: CompiledMethod) -> str:
    """Namespace token for one inline site: dense index + pinned callee
    version, e.g. ``0v3`` -> ``_icm0v3``.

    The version suffix exists for live regeneration: when the
    controller re-pins a plan after a callee recompile and regenerates
    the caller's trace, :func:`install_source` execs into the method's
    shared namespace — trace code already in flight keeps reading its
    own ``_icm…``/``_iog…`` bindings instead of silently picking up the
    new callee mid-invocation (which would mis-attribute samples and
    edge records to the wrong version)."""
    return f"{k}v{callee.version}"


def _inline_origin_names(callee: CompiledMethod, k) -> Dict[str, str]:
    """Callee block label -> positional ``_iog{k}_{m}`` namespace name
    (bound by :func:`_inline_namespace` from the same traversal)."""
    return {
        label: f"_iog{k}_{m}"
        for m, (label, _) in enumerate(counted_branches(callee))
    }


def _inline_namespace(cm: CompiledMethod) -> dict:
    """Extra globals the inline splices reference: the guard identity
    ``_icm{k}`` and the callee's edge-origin objects ``_iog{k}_{m}``.
    Bound whenever advice exists — harmless for sources generated with
    inlining off, and required for persisted sources that embed it."""
    ns: dict = {}
    advice = cm.pgo_inline
    if not advice:
        return ns
    for site, k in _inline_sites(cm).items():
        callee = advice[site].callee_cm
        t = _site_token(k, callee)
        ns[f"_icm{t}"] = callee
        for m, (_, origin) in enumerate(counted_branches(callee)):
            ns[f"_iog{t}_{m}"] = origin
    return ns


class _InlineSeg(_TfSeg):
    """A :class:`_TfSeg` whose emissions are renamed into an inlined
    callee's private tokens.

    The shared blockjit/tracefast emitters write against the caller's
    vocabulary — registers ``r{n}``, method object ``_cm``, profile key
    ``_pk``, path register ``_pr``.  Inside an inline splice those must
    resolve to the *callee*: registers become ``_i{k}r{n}`` locals
    (mirroring the fresh callee frame's regs array), ``_cm`` the guarded
    callee object ``_icm{k}``, ``_pk`` the callee's literal profile key,
    and ``_pr`` the private path register ``_ipr{k}``.  Renaming at
    emission (word-boundary substitution over each generated line) lets
    every shared emitter — ops, guards, yieldpoints, PEP, folding — be
    reused unchanged, which is what keeps the spliced body bit-identical
    to a real callee frame executing the same path.
    """

    def __init__(self, k, callee_pk) -> None:
        super().__init__()
        self._k = k
        # Applied in order; no replacement manufactures a later match
        # (``_icm0`` contains no standalone ``_pr`` etc.), and the
        # lambda keeps repr'd profile keys free of re-escape hazards.
        self._subs = [
            (re.compile(r"\b_cm\b"), f"_icm{k}"),
            (re.compile(r"\b_pk\b"), repr(callee_pk)),
            (re.compile(r"\b_pr\b"), f"_ipr{k}"),
        ]

    def rd(self, reg: int) -> str:
        if reg not in self._bound:
            self._bound.add(reg)
            self.loads.append(reg)
        return f"_i{self._k}r{reg}"

    def wr(self, reg: int) -> str:
        self._bound.add(reg)
        self.dirty.add(reg)
        return f"_i{self._k}r{reg}"

    def emit(self, line: str, depth: int = 1) -> None:
        for pat, repl in self._subs:
            line = pat.sub(lambda m, _r=repl: _r, line)
        super().emit(line, depth)

    def raw(self, line: str, depth: int = 1) -> None:
        """Emit without renaming: lines that must keep caller tokens, or
        that embed the callee's repr'd profile key literally."""
        self.body.append("    " * (depth + self.base) + line)

    def flush_pep(self, depth: int = 1) -> None:
        # The base class writes straight to the body; route through
        # emit so ``_pr`` renames to this site's private path register.
        if self.pep:
            self.emit(f"_pr = _pr + {self.pep!r}", depth)
            self.pep = 0


def _emit_inline_term(
    cg: _MethodCodegen,
    iseg: "_InlineSeg",
    outer: _TfSeg,
    block: LoweredBlock,
    origin_names: Dict[str, str],
    next_label: str,
    k,
) -> None:
    """A non-final terminator of the inlined path: fall through on-path,
    side-exit to the real callee frame off-path.

    The side exit materialises exactly the state a driver-run callee
    would have at this point — dirty registers written back to the
    pushed frame, its path register and resume (block, 0) set — and
    returns ``_CALL``: the generalised driver resumes the callee
    off-path, and its eventual return re-enters the caller through the
    normal call-resume arm.  Only the wall-clock win is lost.
    """
    term = block.term
    t = term[0]
    iseg.cost(term[1])
    if t == T_JMP:
        # Validated on-path fallthrough: the chain keeps flowing.
        return
    if t == T_BR:
        a = iseg.rd(term[3])
        b = iseg.rd(term[4])
        mask = _mask(term[10])
        origin = origin_names.get(block.label)
        cond = f"if {a} {_cmp_text(term[2])} {b}:"
        arms = [
            (True, term[7], term[8], term[11], term[5]),
            (False, term[7], term[8], term[11], term[6]),
        ]
    else:  # pragma: no cover - inline_path_blocks validated these
        raise VMError(f"tracefast cannot inline terminator {t}")

    shared = list(iseg.pending)
    shared_pep = iseg.pep
    both_on = all(succ.label == next_label for (_, _, _, _, succ) in arms)
    cont: Optional[Tuple[List[float], int]] = None
    iseg.emit(cond)
    for idx, (taken, layout_then, penalty, edge_cost, succ) in enumerate(arms):
        if idx == 1:
            iseg.emit("else:")
        iseg.pending = list(shared)
        iseg.pep = shared_pep
        start = len(iseg.body)
        extras: List[float] = []
        if taken != layout_then and penalty != 0.0:
            extras.append(penalty)
        if origin is not None and mask & (1 if taken else 2):
            iseg.emit(f"vm.edge_profile.record({origin}, {taken})", 2)
            if edge_cost != 0.0:
                extras.append(edge_cost)
        on_path = succ.label == next_label
        if on_path and not both_on:
            cont = (shared + extras, shared_pep)
            if len(iseg.body) == start:
                iseg.emit("pass", 2)
        elif on_path:
            iseg.pending.extend(extras)
            iseg.flush_cyc(2)
            iseg.flush_pep(2)
            if len(iseg.body) == start:
                iseg.emit("pass", 2)
        else:
            iseg.pending.extend(extras)
            iseg.flush_pep(2)
            iseg.emit("_nf.path_reg = _pr", 2)
            for reg in sorted(iseg.dirty):
                iseg.raw(f"_nr[{reg}] = _i{k}r{reg}", 2)
            iseg.raw(f"_nf.block = _icm{k}.blocks[{succ.label!r}]", 2)
            iseg.raw("_nf.ip = 0", 2)
            for reg in sorted(outer.dirty):
                iseg.raw(f"regs[{reg}] = r{reg}", 2)
            iseg.raw(f"st.cyc = {iseg.cyc_expr()}", 2)
            iseg.raw("st.fuel = _fuel", 2)
            iseg.raw("return _CALL", 2)
    if cont is not None:
        iseg.pending, iseg.pep = list(cont[0]), cont[1]
    else:
        iseg.pending = []
        iseg.pep = 0


def _emit_callee_path(
    cg: _MethodCodegen,
    iseg: "_InlineSeg",
    outer: _TfSeg,
    op: tuple,
    adv,
    k,
) -> None:
    """Emit the callee's dominant path body against inline-renamed
    locals.  Per-block fuel, op costs, guards, yieldpoints, PEP updates
    and edge records are all the shared emitters' output — exactly what
    a real callee frame would execute along this path."""
    callee = adv.callee_cm
    pk = callee.profile_key
    origin_names = _inline_origin_names(callee, k)
    blocks = [callee.blocks[lb] for lb in adv.labels]
    last_i = len(blocks) - 1
    for i, cblock in enumerate(blocks):
        ops = cblock.ops
        n = len(ops)
        label = cblock.label
        iseg.raw(f"_fuel = _fuel - {n + 1}")
        iseg.raw(
            f"if _fuel < 0: _fuel_out(vm, {iseg.cyc_expr()}, {pk!r}, "
            f"{label!r}, 0)"
        )
        j = 0
        while j < n:
            cop = ops[j]
            fold = _fold_run(ops, j)
            if fold is not None:
                net, kk = fold
                for jj in range(j, kk):
                    iseg.cost(ops[jj][1])
                a = iseg.rd(cop[3])
                iseg.emit(f"{iseg.wr(cop[3])} = {a} + {net!r}")
                j = kk
                continue
            _tf_op(cg, iseg, label, j, cop)
            j += 1
        if i == last_i:
            term = cblock.term
            # The path's validated T_RET: pop the callee frame and
            # deliver the return value straight into the caller's
            # destination local.  The caller's ``_pr`` was never touched
            # (the callee used ``_ipr{k}``), matching the driver's
            # path-register restore on a real return.
            iseg.cost(term[1])
            value = iseg.rd(term[2]) if term[2] is not None else "0"
            iseg.raw("_stk.pop()")
            if op[2] is not None:
                iseg.raw(f"{outer.wr(op[2])} = {value}")
            iseg.pep = 0
        else:
            _emit_inline_term(
                cg, iseg, outer, cblock, origin_names,
                blocks[i + 1].label, k,
            )


def _emit_inline_call(
    cg: _MethodCodegen,
    seg: _TfSeg,
    bi: int,
    block: LoweredBlock,
    j: int,
    op: tuple,
    adv,
    k: int,
) -> None:
    """Splice the advised callee's dominant path behind an identity guard.

    The call's observable prefix (cost, lookup, caller resume state) is
    shared by both arms.  The guard compares the looked-up method object
    against the advice's pinned callee ``_icm{k}``: a hit executes the
    callee's dominant Ball-Larus path entirely in this function's
    locals; a miss (callee recompiled/replaced, or advice unpickled in
    another process) falls into the verbatim normal-call tail.  Both
    arms push a real callee frame first, so stack walks (call-graph
    sampling), depth traps, and side exits observe exactly the
    interpreter's stack.
    """
    callee = adv.callee_cm
    k = _site_token(k, callee)
    name = op[3]
    seg.cost(op[1])
    seg.emit(f"_c = vm.code.get({name!r})")
    seg.emit(f"frame.block = _blk{bi}")
    seg.emit(f"frame.ip = {j + 1}")
    seg.flush_pep()
    seg.emit("frame.path_reg = _pr")
    shared = list(seg.pending)
    seg.emit(f"if _c is _icm{k}:")
    seg.base += 1
    # Frame push — caller context, identical to the normal tail's (the
    # regs alias is unconditional here: the splice binds callee locals
    # from it below).
    seg.emit("_nf = _Frame(_c)")
    seg.emit("_nr = _nf.regs")
    for pos, src in enumerate(op[4] or ()):
        seg.emit(f"_nr[{pos}] = {seg.rd(src)}")
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
    # Two passes per site, the same discipline generate_method_source
    # applies to the whole method: the probe discovers which callee
    # registers the path touches, the real pass emits against that full
    # pre-bound set.
    probe = _InlineSeg(k, callee.profile_key)
    probe.fixed = seg.fixed
    probe.base = seg.base
    probe.pending = list(seg.pending)
    _emit_callee_path(cg, probe, seg, op, adv, k)
    iseg = _InlineSeg(k, callee.profile_key)
    iseg.fixed = seg.fixed
    iseg.base = seg.base
    iseg.body = seg.body
    iseg.pending = list(seg.pending)
    touched = sorted(probe._bound | probe.dirty)
    iseg._bound = set(touched)
    iseg.dirty = set(probe.dirty)
    # Callee locals bound from the fresh frame: parameter slots carry
    # the stored arguments, everything else is Frame.__init__'s zeros.
    for reg in touched:
        iseg.raw(f"_i{k}r{reg} = _nr[{reg}]")
    iseg.emit("_pr = 0")
    _emit_callee_path(cg, iseg, seg, op, adv, k)
    seg.base -= 1
    # The guard-miss arm: the normal-call tail, byte for byte what
    # _gen_call_tf emits after the lookup (cost, lookup, and caller
    # resume stores already happened above, shared by both arms).
    seg.pending = list(shared)
    seg.emit("else:")
    seg.base += 1
    seg.emit("if _c is None:")
    seg.emit(
        f"_trap(vm, _cyc, _cm, {f'call to unknown method {name!r}'!r}, "
        f"{block.label!r}, {j})",
        2,
    )
    seg.emit("_nf = _Frame(_c)")
    if op[4]:
        seg.emit("_nr = _nf.regs")
        for pos, src in enumerate(op[4]):
            seg.emit(f"_nr[{pos}] = {seg.rd(src)}")
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
    seg.writebacks()
    seg.flush_cyc()
    seg.emit("st.cyc = _cyc")
    seg.emit("st.fuel = _fuel")
    seg.emit("return _CALL")
    seg.base -= 1
    # Rejoin — reachable from the guard arm only (the miss arm
    # returned).  Charging the caller block's remaining fuel here is
    # exactly the plain call-resume arm's ``n - ip + 1`` with
    # ``ip = j + 1``, so fuel accounting stays bit-identical.
    seg.pending = iseg.pending
    n = len(block.ops)
    seg.emit(f"_fuel = _fuel - {n - j}")
    seg.emit(
        f"if _fuel < 0: _fuel_out(vm, {seg.cyc_expr()}, _pk, "
        f"{block.label!r}, {j + 1})"
    )


# -- plain (off-trace) arms -------------------------------------------------


def _exit_arm_plain(
    cg: _MethodCodegen,
    seg: _TfSeg,
    taken: bool,
    layout_then: bool,
    penalty: float,
    origin: Optional[str],
    edge_cost: float,
    succ: LoweredBlock,
    tokens: Dict[Tuple[str, int], int],
) -> None:
    if taken != layout_then:
        seg.cost(penalty, 2)
    if origin is not None:
        seg.emit(f"vm.edge_profile.record({origin}, {taken})", 2)
        seg.cost(edge_cost, 2)
    seg.flush_cyc(2)
    seg.flush_pep(2)
    seg.emit(f"_e = {tokens[(succ.label, 0)]}", 2)
    seg.emit("continue", 2)


def _gen_term_plain(
    cg: _MethodCodegen,
    seg: _TfSeg,
    block: LoweredBlock,
    origin_names: Dict[str, str],
    tokens: Dict[Tuple[str, int], int],
) -> None:
    term = block.term
    t = term[0]
    seg.cost(term[1])
    if t == T_RET:
        value = seg.rd(term[2]) if term[2] is not None else "0"
        # No register write-backs: the frame is dead.  The path register
        # dies with it (the driver restores the caller's).
        seg.flush_cyc()
        seg.emit("st.cyc = _cyc")
        seg.emit("st.fuel = _fuel")
        seg.emit(f"st.ret_value = {value}")
        seg.emit("return None")
        seg.pep = 0
    elif t == T_JMP:
        seg.flush_cyc()
        seg.flush_pep()
        seg.emit(f"_e = {tokens[(term[2].label, 0)]}")
        seg.emit("continue")
    elif t == T_BR:
        a = seg.rd(term[3])
        b = seg.rd(term[4])
        mask = _mask(term[10])
        origin = origin_names.get(block.label)
        shared = list(seg.pending)
        shared_pep = seg.pep
        seg.emit(f"if {a} {_cmp_text(term[2])} {b}:")
        _exit_arm_plain(
            cg, seg, True, term[7], term[8],
            origin if mask & 1 else None, term[11], term[5], tokens,
        )
        seg.pending = list(shared)
        seg.pep = shared_pep
        seg.emit("else:")
        _exit_arm_plain(
            cg, seg, False, term[7], term[8],
            origin if mask & 2 else None, term[11], term[6], tokens,
        )
        seg.pending = []
        seg.pep = 0
    else:  # pragma: no cover - lowering emits only known terminators
        raise VMError(f"tracefast cannot compile terminator {t}")


def _emit_plain_block(
    cg: _MethodCodegen,
    seg: _TfSeg,
    bi: int,
    block: LoweredBlock,
    ip: int,
    tokens: Dict[Tuple[str, int], int],
    origin_names: Dict[str, str],
) -> None:
    ops = block.ops
    n = len(ops)
    label = block.label
    # Fuel is charged on every block (re)entry, exactly like the plain
    # segment prologue; the arm starts with an empty pending chain, so
    # `_cyc` holds exactly what `st.cyc` would at this boundary.
    seg.emit(f"_fuel = _fuel - {n - ip + 1}")
    seg.emit(f"if _fuel < 0: _fuel_out(vm, _cyc, _pk, {label!r}, {ip})")
    j = ip
    while j < n:
        op = ops[j]
        if op[0] == OP_CALL:
            _gen_call_tf(cg, seg, bi, block, j, op, tokens)
            return
        fold = _fold_run(ops, j)
        if fold is not None:
            net, k = fold
            for jj in range(j, k):
                seg.cost(ops[jj][1])
            a = seg.rd(op[3])
            seg.emit(f"{seg.wr(op[3])} = {a} + {net!r}")
            j = k
            continue
        _tf_op(cg, seg, label, j, op)
        j += 1
    _gen_term_plain(cg, seg, block, origin_names, tokens)


# -- the inlined trace ------------------------------------------------------


def _emit_trace_term_tf(
    cg: _MethodCodegen,
    seg: _TfSeg,
    block: LoweredBlock,
    origin_names: Dict[str, str],
    next_label: str,
    is_last: bool,
    tokens: Dict[Tuple[str, int], int],
) -> None:
    """A trace block's terminator: fall through on-trace, break off.

    On-trace fallthroughs keep the pending cost chain flowing across the
    block boundary (the batching win); side exits flush and hand the
    token to the outer ladder.
    """
    term = block.term
    t = term[0]
    seg.cost(term[1])
    if t == T_JMP:
        # Validated on-trace: a fallthrough, or the loop close.
        if is_last:
            seg.flush_cyc()
            seg.flush_pep()
            seg.emit("continue")
            seg.pending = []
            seg.pep = 0
        return
    if t == T_BR:
        a = seg.rd(term[3])
        b = seg.rd(term[4])
        mask = _mask(term[10])
        origin = origin_names.get(block.label)
        cond = f"if {a} {_cmp_text(term[2])} {b}:"
        arms = [
            (True, term[7], term[8], term[11], term[5]),
            (False, term[7], term[8], term[11], term[6]),
        ]
    else:  # pragma: no cover - trace_blocks validated the terminators
        raise VMError(f"tracefast cannot compile terminator {t}")

    shared = list(seg.pending)
    shared_pep = seg.pep
    both_on = all(succ.label == next_label for (_, _, _, _, succ) in arms)
    cont: Optional[Tuple[List[float], int]] = None
    seg.emit(cond)
    for idx, (taken, layout_then, penalty, edge_cost, succ) in enumerate(arms):
        if idx == 1:
            seg.emit("else:")
        seg.pending = list(shared)
        seg.pep = shared_pep
        start = len(seg.body)
        extras: List[float] = []
        if taken != layout_then and penalty != 0.0:
            extras.append(penalty)
        if origin is not None and mask & (1 if taken else 2):
            seg.emit(f"vm.edge_profile.record({origin}, {taken})", 2)
            if edge_cost != 0.0:
                extras.append(edge_cost)
        on_trace = succ.label == next_label
        if on_trace and not is_last and not both_on:
            # Fall through into the next trace block's code: the arm's
            # own cost constants simply extend the pending chain.
            cont = (shared + extras, shared_pep)
            if len(seg.body) == start:
                seg.emit("pass", 2)
        elif on_trace:
            # Loop close — or a rare both-arms-on-trace terminator,
            # where each arm must flush its own chain before the join.
            seg.pending.extend(extras)
            seg.flush_cyc(2)
            seg.flush_pep(2)
            if is_last:
                seg.emit("continue", 2)
            elif len(seg.body) == start:
                seg.emit("pass", 2)
        else:
            # Side exit: hand the token to the outer ladder.  No
            # writebacks — the off-trace arms live in this function.
            seg.pending.extend(extras)
            seg.flush_cyc(2)
            seg.flush_pep(2)
            seg.emit(f"_e = {tokens[(succ.label, 0)]}", 2)
            seg.emit("break", 2)
    if cont is not None:
        seg.pending, seg.pep = list(cont[0]), cont[1]
    else:
        seg.pending = []
        seg.pep = 0


def _emit_trace_tf(
    cg: _MethodCodegen,
    seg: _TfSeg,
    trace: List[LoweredBlock],
    tokens: Dict[Tuple[str, int], int],
    origin_names: Dict[str, str],
    inline_sites: Optional[Dict[Tuple[str, int], tuple]] = None,
) -> None:
    inline_sites = inline_sites or {}
    n_blocks = len(trace)
    for i, block in enumerate(trace):
        next_label = trace[(i + 1) % n_blocks].label
        is_last = i == n_blocks - 1
        ops = block.ops
        n = len(ops)
        label = block.label
        # Per-block fuel charge, exactly as the superblock emits it; the
        # exhaustion flush takes the pending chain inline.
        seg.emit(f"_fuel = _fuel - {n + 1}")
        seg.emit(
            f"if _fuel < 0: _fuel_out(vm, {seg.cyc_expr()}, _pk, {label!r}, 0)"
        )
        called = False
        j = 0
        while j < n:
            op = ops[j]
            if op[0] == OP_CALL:
                site = inline_sites.get((label, j))
                if site is not None:
                    # Dominant-path inlining (DESIGN.md §14): the trace
                    # continues straight through the spliced callee.
                    adv, k = site
                    _emit_inline_call(
                        cg, seg, cg.block_index[label], block, j, op,
                        adv, k,
                    )
                    j += 1
                    continue
                # A call leaves the trace through the driver; control
                # rejoins at the next arrival at the loop header.
                _gen_call_tf(cg, seg, cg.block_index[label], block, j, op, tokens)
                called = True
                break
            fold = _fold_run(ops, j)
            if fold is not None:
                net, k = fold
                for jj in range(j, k):
                    seg.cost(ops[jj][1])
                a = seg.rd(op[3])
                seg.emit(f"{seg.wr(op[3])} = {a} + {net!r}")
                j = k
                continue
            _tf_op(cg, seg, label, j, op)
            j += 1
        if called:
            return
        _emit_trace_term_tf(
            cg, seg, block, origin_names, next_label, is_last, tokens
        )


# -- whole-method assembly --------------------------------------------------


def _entries_list(cm: CompiledMethod) -> List[Tuple[int, LoweredBlock, int]]:
    out: List[Tuple[int, LoweredBlock, int]] = []
    for bi, block in enumerate(cm.blocks.values()):
        for ip in _entry_ips(block):
            out.append((bi, block, ip))
    return out


def entry_tokens(cm: CompiledMethod) -> Dict[Tuple[str, int], int]:
    """Dense entry tokens over the same (block, entry-ip) pairs blockjit
    segments use, in the same deterministic enumeration order."""
    return {
        (block.label, ip): t
        for t, (bi, block, ip) in enumerate(_entries_list(cm))
    }


def _warm_layout(cm: CompiledMethod) -> Dict[str, int]:
    """Static ladder rank for warm methods: natural-loop depth per label.

    A warm method has no dominant path (and usually no PGO layout
    advice), so the token ladder falls back to a static schedule:
    blocks in deeper loops are *tested* first.  Loop membership comes
    from natural loops over the lowered CFG — a successor edge jumping
    backwards in block order is a back edge (the builder lays headers
    out before their bodies), and the loop is the header plus everything
    that reaches the back-edge source without passing the header.  Pure
    emission order, wall-clock only: tokens and wrapper names stay
    canonical, exactly like the ``pgo_layout`` reorder.
    """
    order = list(cm.blocks)
    index = {label: i for i, label in enumerate(order)}
    succ: Dict[str, list] = {}
    for label, block in cm.blocks.items():
        term = block.term
        t = term[0]
        if t == T_JMP:
            succ[label] = [term[2].label]
        elif t == T_BR:
            succ[label] = [term[5].label, term[6].label]
        else:
            succ[label] = []
    pred: Dict[str, list] = {label: [] for label in order}
    for u, targets in succ.items():
        for v in targets:
            if v in pred:
                pred[v].append(u)
    depth = {label: 0 for label in order}
    for u in order:
        for h in succ[u]:
            if h not in index or index[h] > index[u]:
                continue
            loop = {h}
            stack = [u]
            while stack:
                x = stack.pop()
                if x in loop:
                    continue
                loop.add(x)
                stack.extend(pred.get(x, ()))
            for x in loop:
                depth[x] += 1
    return depth


def generate_method_source(
    cm: CompiledMethod, trace: Optional[List[LoweredBlock]]
) -> str:
    """Generate the whole-method tracefast source (a pure function of
    the lowered blocks, the trace order, the resolved PGO flags, the
    method's PGO advice, and the method's fold verdict —
    content-addressable exactly like blockjit sources: the superblock
    fingerprint hashes :func:`repro.vm.pgo.pgo_fingerprint` over the
    advice and resolved flags plus ``cm.fold_q``).

    Cost-chain handling is keyed on ``cm.fold_q`` (DESIGN.md §15):
    every chain folds when lowering certified the method on the grid,
    and chains stay textual when certification rejected it
    (``fold_q == 0``).

    ``trace=None`` emits the *warm ladder* (``WARM_PATH``): the same
    token-dispatch ``_m`` with no trace arm — every entry is a plain
    ladder arm, laid out in ``pgo_layout`` order.  Warm methods get the
    slotted-frame register promotion and chain batching without ever
    having formed a dominant Ball-Larus path."""
    entries_list = _entries_list(cm)
    tokens = entry_tokens(cm)
    head_label = trace[0].label if trace else None
    inline_sites: Dict[Tuple[str, int], tuple] = {}
    if cm.pgo_inline and pgo_inline_enabled():
        inline_sites = {
            site: (cm.pgo_inline[site], k)
            for site, k in _inline_sites(cm).items()
        }
    # Fixed-point accounting requires every constant the chains can
    # absorb to be certified — including *spliced callees'* lowered
    # costs, which carry their own fold verdicts.  An uncertified
    # callee (possible only under targeted cost mutation; the default
    # model certifies everything) demotes this source to textual chains.
    fixed = bool(cm.fold_q) and all(
        bool(adv.callee_cm.fold_q) for adv, _ in inline_sites.values()
    )
    plain_arms = [
        (bi, block, ip)
        for bi, block, ip in entries_list
        if not (block.label == head_label and ip == 0)
    ]
    if cm.pgo_layout and pgo_layout_enabled():
        # Profile-guided ladder layout (DESIGN.md §14): hot blocks' arms
        # are *tested* first.  Tokens and wrapper names stay canonical —
        # only the check order moves, so the flag is wall-clock-only by
        # construction (the stable sort keeps no-advice output
        # byte-identical to the canonical order).
        rank = {label: i for i, label in enumerate(cm.pgo_layout)}
        plain_arms.sort(key=lambda e: rank.get(e[1].label, len(rank)))
    elif trace is None:
        # Warm ladder with no layout advice: schedule statically, loop
        # blocks first (see _warm_layout) — every iteration of a warm
        # method's loop re-scans the ladder from the top, so the arms
        # it lands on most should be the first tested.
        depth = _warm_layout(cm)
        plain_arms.sort(key=lambda e: -depth.get(e[1].label, 0))

    def emit_body(seg: _TfSeg) -> None:
        cg = _MethodCodegen(cm)
        origin_names = cg._origin_names
        seg.fixed = fixed
        # The trace arm comes FIRST in the ladder: a side exit `break`
        # falls out of the inner loop into the remaining token checks,
        # so every plain arm must sit below it.
        if trace:
            seg.base = 1
            seg.emit(f"if _e == {tokens[(head_label, 0)]}:")
            seg.emit("while True:", 2)
            seg.base = 3
            _emit_trace_tf(cg, seg, trace, tokens, origin_names, inline_sites)
            seg.pending = []
            seg.pep = 0
        for bi, block, ip in plain_arms:
            seg.base = 1
            seg.emit(f"if _e == {tokens[(block.label, ip)]}:")
            seg.base = 2
            _emit_plain_block(cg, seg, bi, block, ip, tokens, origin_names)

    # Pass 1 discovers the registers the whole method touches/dirties;
    # pass 2 emits against the full pre-bound set so every call-exit
    # writeback covers everything any earlier block may have changed.
    probe = _TfSeg()
    emit_body(probe)
    touched = sorted(probe._bound | probe.dirty)
    seg = _TfSeg()
    seg._bound = set(touched)
    seg.dirty = set(probe.dirty)
    emit_body(seg)

    header = (
        "# Generated by repro.vm.tracefast — whole-method token dispatch "
        f"with the trace over blocks {[b.label for b in trace]!r} inlined."
        if trace
        else "# Generated by repro.vm.tracefast — whole-method token "
        "dispatch, warm ladder (no dominant trace)."
    )
    lines = [
        header,
        "def _m(vm, frame, regs, st, _e):",
        "    _fuel = st.fuel",
        "    _cyc = st.cyc",
        "    _pr = st.path_reg",
    ]
    for reg in touched:
        lines.append(f"    r{reg} = regs[{reg}]")
    lines.append("    while True:")
    lines.extend(seg.body)
    lines.append("")
    for bi, block, ip in entries_list:
        tok = tokens[(block.label, ip)]
        lines.append(f"def _f{bi}_{ip}(vm, frame, regs, st):")
        lines.append(f"    return _m(vm, frame, regs, st, {tok})")
    return "\n".join(lines) + "\n"


# -- installation -----------------------------------------------------------


def install_source(
    cm: CompiledMethod,
    source: str,
    trace: Optional[List[LoweredBlock]],
    entries: dict,
) -> None:
    """Exec ``source`` and rebind every entry to it.

    All ``_f{bi}_{ip}`` names in the method's shared namespace and all
    segment-table slots are retargeted at the whole-method wrappers, so
    plain-segment successor returns, driver lookups, and call resumes
    all enter ``_m`` — including from code already in flight.
    ``trace=None`` installs a warm ladder: ``sb_entry`` pins the
    method-entry wrapper (promotion marker and pickling-era null slot,
    same as a real trace's head entry).
    """
    ns = next(iter(entries.values())).__globals__
    # Inline splices reference per-site guard/origin globals beyond the
    # blockjit namespace.
    ns.update(_inline_namespace(cm))
    exec(code_object(source, "<tracefast>"), ns)
    for bi, block, ip in _entries_list(cm):
        entries[(block.label, ip)] = ns[f"_f{bi}_{ip}"]
    head = trace[0].label if trace else cm.entry.label
    cm.sb_entry = entries[(head, 0)]


def install_tracefast(cm: CompiledMethod, path_number: int) -> bool:
    """Compile + install the whole-method source for ``path_number``.

    The backend behind :func:`superblock.install_superblock`: first-wins,
    zero virtual cycles, no profile writes, safe mid-run.  The persisted
    artefacts live in the ``sb_source``/``sb_path``/``sb_fingerprint``
    slots.

    ``path_number == WARM_PATH`` installs the warm ladder (no trace
    arm).  First-wins is relaxed in exactly one direction: a real
    dominant trace may *upgrade* an installed warm ladder (the ladder
    was the consolation tier; the trace is strictly better), while a
    warm install never displaces anything.
    """
    def _settled() -> bool:
        if cm.sb_entry is None:
            return False
        # An installed warm ladder yields to a real trace request.
        return path_number == WARM_PATH or cm.sb_path != WARM_PATH

    if _settled():
        return True
    if path_number == WARM_PATH:
        if not warmjit_enabled() or cm.dag is None:
            return False
        trace = None
    else:
        trace = trace_blocks(cm, path_number)
        if trace is None:
            return False
    entries = ensure_jit(cm)
    if _settled():
        # ensure_jit re-installed a persisted source just now.
        return True
    fingerprint = superblock_fingerprint(cm, path_number)
    if (
        cm.sb_source is not None
        and cm.sb_path == path_number
        and cm.sb_fingerprint == fingerprint
    ):
        source = cm.sb_source
    else:
        source = generate_method_source(cm, trace)
    install_source(cm, source, trace, entries)
    cm.sb_source = source
    cm.sb_path = path_number
    cm.sb_fingerprint = fingerprint
    return True

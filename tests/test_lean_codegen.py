"""The lean generated-source shape (DESIGN.md §9) and its soundness.

Blockjit keeps the text it hands to ``compile()`` small: the armed
yieldpoint and fuel exhaustion are out-of-line calls, a branch writes
its registers back once above its ``if``, and a segment writes back only
the registers that some segment of the same method reloads (the
method's *reload set*).  These tests prove the pruning sound by
poisoning every other register after each blockjit segment returns —
any later read, by a blockjit segment or a tracefast prologue, fails —
and hold the out-of-line fuel exhaustion to the tuple interpreter at
every generated site.
"""

from __future__ import annotations

import re
import sys
import types

import pytest

from repro.errors import FuelExhaustedError
from repro.util import flags
from repro.vm import blockjit, tracefast
from repro.vm.blockjit import _entry_ips
from repro.vm.costs import CostModel
from repro.vm.interpreter import OP_CALL, T_BR
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import install_superblock, trace_blocks

from tests.compile_util import compile_simple
from tests.test_pgo import _inline_run, inline_candidate_program
from tests.test_superblock import hot_helper_program
from tests.test_tracefast import (
    _GEN_SEEDS,
    ALL_WORKLOADS,
    _generated,
    _generated_limits,
    _generated_outcome,
    _workload_checksum,
)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    # Fresh CompiledMethods for every run (a cached instance would arrive
    # already jitted, bypassing the poisoning hook), and the trace, PGO
    # and warm-ladder tiers pinned on whatever the environment says.
    monkeypatch.setenv("REPRO_CODECACHE", "0")
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    monkeypatch.setattr(flags, "PGO", True)
    monkeypatch.setattr(flags, "PGO_LAYOUT", None)
    monkeypatch.setattr(flags, "PGO_INLINE", None)
    monkeypatch.setattr(flags, "PGO_PROBES", None)
    monkeypatch.setattr(flags, "WARMJIT", True)


# -- reload-set poisoning ----------------------------------------------------


class _Poison:
    """A stale register value: every use raises."""

    __slots__ = ()

    def _use(self, *_args):
        raise AssertionError(
            "read a register outside its method's reload set"
        )


for _name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__and__",
    "__rand__", "__or__", "__ror__", "__xor__", "__rxor__", "__lshift__",
    "__rlshift__", "__rshift__", "__rrshift__", "__neg__", "__lt__",
    "__le__", "__gt__", "__ge__", "__eq__", "__ne__", "__bool__",
    "__index__", "__int__", "__float__", "__len__", "__getitem__",
    "__setitem__",
):
    setattr(_Poison, _name, _Poison._use)
_Poison.__hash__ = _Poison._use

POISON = _Poison()

_RELOAD = re.compile(r"^    r(\d+) = regs\[\1\]$", re.M)


def reload_set(cm) -> set:
    """Registers some blockjit segment of ``cm`` loads from ``regs``."""
    return {int(reg) for reg in _RELOAD.findall(cm.jit_source)}


class _PoisonHook:
    """Wraps every blockjit segment so that, after it returns, each
    register outside its method's reload set holds :data:`POISON`.

    ``promote`` (optional) is called with a method after its second
    poisoned segment return, so a tracefast prologue then reloads from
    a frame the blockjit segments already ran in.
    """

    def __init__(self, promote=None) -> None:
        self.promote = promote
        self.methods = []
        self.poisoned = 0
        self.promoted = 0

    def install(self, monkeypatch) -> None:
        original = blockjit.ensure_jit

        def ensure_jit(cm):
            fresh = cm.jit_entries is None
            entries = original(cm)
            if fresh:
                self._wrap(cm, entries)
            return entries

        monkeypatch.setattr(blockjit, "ensure_jit", ensure_jit)
        monkeypatch.setattr(tracefast, "ensure_jit", ensure_jit)

    def _wrap(self, cm, entries) -> None:
        self.methods.append(cm)
        dead = sorted(set(range(cm.num_regs)) - reload_set(cm))
        ns = next(iter(entries.values())).__globals__
        state = {"returns": 0}
        for bi, block in enumerate(cm.blocks.values()):
            for ip in _entry_ips(block):
                name = f"_f{bi}_{ip}"
                fn = ns[name]
                if fn.__code__.co_filename != "<blockjit>":
                    continue  # a revived tracefast wrapper
                wrapped = self._poisoning(cm, fn, dead, state)
                # Tracefast finds the method namespace through an
                # entry's globals, so the wrapper must live in it.
                wrapped = types.FunctionType(
                    wrapped.__code__, ns, name, None, wrapped.__closure__
                )
                ns[name] = wrapped
                entries[(block.label, ip)] = wrapped

    def _poisoning(self, cm, fn, dead, state):
        hook = self
        poison = POISON

        def segment(vm, frame, regs, st):
            nxt = fn(vm, frame, regs, st)
            for reg in dead:
                regs[reg] = poison
            hook.poisoned += len(dead)
            state["returns"] += 1
            if hook.promote is not None and state["returns"] == 2:
                if hook.promote(cm):
                    hook.promoted += 1
            return nxt

        return segment


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_pruned_writebacks_are_dead_on_every_workload(workload, monkeypatch):
    # The default adaptive pipeline (blockjit, then traces, warm ladders
    # and k-traces installed mid-run) with every unreloaded register
    # poisoned must still match the tuple interpreter bit for bit.
    hook = _PoisonHook()
    with monkeypatch.context() as patch:
        hook.install(patch)
        poisoned = _workload_checksum(workload)
    assert hook.poisoned > 0, "no register was ever poisoned — vacuous"
    _assert_lean(hook.methods)
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    assert poisoned == _workload_checksum(workload)


def _promote_first(cm, prefer_trace: bool) -> bool:
    if cm.dag is None or cm.sb_entry is not None:
        return False
    path = None
    if prefer_trace:
        path = next(
            (p for p in range(cm.dag.num_paths)
             if trace_blocks(cm, p) is not None),
            None,
        )
    return install_superblock(
        cm, tracefast.WARM_PATH if path is None else path
    )


@pytest.mark.parametrize("seed", _GEN_SEEDS)
def test_pruned_writebacks_survive_mid_run_promotion(seed, monkeypatch):
    # Generated programs: each method runs two poisoned blockjit
    # segments, then is promoted (a loop trace where one is eligible,
    # else the warm ladder), so tracefast prologues reload registers the
    # segments left poisoned.  Outcomes — completed digests, traps, fuel
    # aborts, and everything observed up to them — match the interpreter.
    program = _generated(seed)
    for fuel, depth in _generated_limits(program):
        oracle, _, _ = _generated_outcome(program, None, fuel, depth)
        for prefer_trace in (False, True):
            hook = _PoisonHook(
                promote=lambda cm, p=prefer_trace: _promote_first(cm, p)
            )
            with monkeypatch.context() as patch:
                hook.install(patch)
                outcome, _, _ = _generated_outcome(
                    program, "blockjit", fuel, depth
                )
            assert outcome == oracle, (seed, prefer_trace, fuel, depth)
            assert hook.poisoned > 0
            _assert_lean(hook.methods)


def test_mid_run_promotion_actually_happens(monkeypatch):
    # Guard against the test above comparing blockjit with itself: the
    # hook must install loop traces and warm ladders mid-run.
    installed = []
    for seed in _GEN_SEEDS:
        hook = _PoisonHook(promote=lambda cm: _promote_first(cm, True))
        with monkeypatch.context() as patch:
            hook.install(patch)
            _generated_outcome(_generated(seed), "blockjit")
        installed += [cm.sb_path for cm in hook.methods if cm.sb_entry]
        assert hook.promoted == len(
            [cm for cm in hook.methods if cm.sb_entry]
        )
    assert any(path >= 0 for path in installed)
    assert tracefast.WARM_PATH in installed


# -- source shape -------------------------------------------------------------


def _segment_bodies(cm):
    """``{(block, ip): lines}`` of every segment in ``cm.jit_source``."""
    blocks = list(cm.blocks.values())
    out = {}
    for chunk in cm.jit_source.split("\ndef ")[1:]:
        lines = chunk.splitlines()
        match = re.match(r"_f(\d+)_(\d+)\(", lines[0])
        bi, ip = int(match.group(1)), int(match.group(2))
        out[(blocks[bi], ip)] = lines[1:]
    return out


def _assert_lean(methods) -> int:
    """Check the lean shape; returns how many branch segments store."""
    assert methods
    storing = 0
    for cm in methods:
        for source in (cm.jit_source, cm.sb_source):
            if source is None:
                continue
            assert "raise _Fuel" not in source
            assert "vm.on_tick()" not in source
        for (block, ip), lines in _segment_bodies(cm).items():
            stores = [
                i for i, line in enumerate(lines)
                if line.lstrip().startswith("regs[")
            ]
            stored = [lines[i].split("]")[0] for i in stores]
            assert len(stored) == len(set(stored)), (block.label, ip)
            calls = any(op[0] == OP_CALL for op in block.ops[ip:])
            if block.term[0] != T_BR or calls:
                continue
            # The branch: every writeback sits above its ``if`` (the last
            # top-level ``if`` before the top-level ``else``), at the
            # segment's top level.
            else_at = lines.index("    else:")
            cond = max(
                i for i in range(else_at) if lines[i].startswith("    if ")
            )
            assert all(
                i < cond and lines[i].startswith("    regs[") for i in stores
            ), (block.label, ip)
            storing += bool(stores)
    return storing


def _suite_images():
    from repro.workloads.suite import benchmark_suite

    for workload in benchmark_suite():
        program = workload.build(0.1)
        yield compile_simple(program, mode="pep")


def test_branch_writes_back_once_above_its_if():
    methods = []
    for code in _suite_images():
        for cm in code.values():
            blockjit.ensure_jit(cm)
            methods.append(cm)
    # Non-vacuous: many branch segments do store registers.
    assert _assert_lean(methods) > 10


def test_unreloaded_registers_are_not_written_back():
    pruned = 0
    for code in _suite_images():
        for cm in code.values():
            source = blockjit.generate_source(cm)
            loaded = {int(r) for r in _RELOAD.findall(source)}
            stored = re.findall(r"regs\[(\d+)\] = r", source)
            assert {int(r) for r in stored} <= loaded, cm.profile_key
            pruned += cm.num_regs - len(loaded)
    assert pruned > 0


# -- fuel exhaustion at every out-of-line site --------------------------------


def _site(frame, ip: int) -> str:
    """Which generated fuel check called ``_fuel_out``."""
    code = frame.f_code
    if code.co_filename == "<blockjit>":
        return "blockjit prologue"
    assert code.co_name == "_m"
    lines = frame.f_globals["_cm"].sb_source.splitlines()
    at = frame.f_lineno - 1
    assert "_fuel_out(" in lines[at]
    indent = len(lines[at]) - len(lines[at].lstrip())
    while len(lines[at]) - len(lines[at].lstrip()) >= indent:
        at -= 1
    enclosing = lines[at].strip()
    if enclosing.startswith("if _e =="):
        return "tracefast plain arm" if ip == 0 else "call-resume rejoin"
    if enclosing == "while True:":
        return "trace block" if ip == 0 else "inline rejoin"
    assert enclosing.startswith("if _c is _icm"), enclosing
    return "inline callee block"


def _fuel_abort(code, main, fuel, use_blockjit):
    vm = VirtualMachine(code, main, costs=CostModel(), blockjit=use_blockjit)
    try:
        vm.run(fuel=fuel)
    except FuelExhaustedError as err:
        return (
            str(err), err.method, err.block, err.instruction_index,
            err.cycles, list(vm.output), sorted(vm.path_profile.items()),
            sorted((repr(b), c) for b, c in vm.edge_profile.items()),
        )
    return None


def _sweep_fuel(code, main, budgets, monkeypatch) -> set:
    """Abort ``code`` at every budget under blockjit and the interpreter;
    every abort must agree.  Returns the sites that raised."""
    sites = set()
    original = blockjit._fuel_out

    def recording(vm, cyc, method, block, ip):
        sites.add(_site(sys._getframe(1), ip))
        original(vm, cyc, method, block, ip)

    # Bound into each method namespace when it is first jitted.
    monkeypatch.setattr(blockjit, "_fuel_out", recording)
    for cm in code.values():
        cm.jit_entries = None
    for fuel in budgets:
        compiled = _fuel_abort(code, main, fuel, True)
        assert compiled is not None
        assert compiled == _fuel_abort(code, main, fuel, False), fuel
    return sites


def test_fuel_cut_parity_at_plain_and_call_resume_sites(monkeypatch):
    # main's loop on the trace tier calls a plain-blockjit helper: cuts
    # land in blockjit prologues, main's trace and plain arms, and its
    # call-resume arm.
    program = hot_helper_program(calls=40, inner=2)
    code = compile_simple(program, mode="pep")
    assert _promote_first(code["main"], prefer_trace=True)
    sites = _sweep_fuel(code, program.main, range(1, 160), monkeypatch)
    assert sites >= {
        "blockjit prologue", "tracefast plain arm", "call-resume rejoin",
        "trace block",
    }, sites


def test_fuel_cut_parity_at_inline_sites(monkeypatch):
    # outer's trace splices leaf's dominant path behind a guard: cuts
    # land in the trace, in the spliced callee's blocks, and at the
    # rejoin that charges the rest of the caller block.
    program = inline_candidate_program(calls=30, inner=36)
    system, _, _ = _inline_run(program, inline=True)
    code = dict(system.code)
    assert code["outer"].pgo_inline, "no inline advice — test is vacuous"
    sites = _sweep_fuel(code, program.main, range(300, 400), monkeypatch)
    assert sites >= {
        "trace block", "inline callee block", "inline rejoin",
    }, sites

"""Interpreter fast paths and the hot front-end shapes across tiers.

The const->bin and cmp->br shapes below are what the structured front
end emits most (every ``x op LIT`` and every ``if (expr)``).  They were
once superinstruction-fusion sites; fusion is gone (lowering is one op
per instruction), and the tests — names kept stable — now hold the
compiled tiers to the tuple interpreter on exactly those shapes: plain
blockjit, and the tracefast warm ladder on every method that has a
P-DAG.  Same outputs, same return values, same *exact* virtual cycles,
same path and edge profiles, same traps.  Further down, the compiled
tiers' countdown yieldpoint gate is held to the interpreter's plain
yieldpoint sequence.
"""

from __future__ import annotations

import pytest

from repro.bytecode.instructions import BinOp, BinOpImm, Br, Const, Emit, Ret
from repro.bytecode.method import Method, Program
from repro.errors import GuestTrapError
from repro.profiling.paths import PathProfile
from repro.sampling.arnold_grove import make_sampler
from repro.util import flags
from repro.vm import tracefast
from repro.vm.costs import CostModel
from repro.vm.interpreter import KIND_CODES, OP_BIN, OP_BINI, T_BR, lower_method
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import install_superblock
from repro.workloads.generator import GeneratorSpec, random_program

from tests.compile_util import compile_simple, run_program
from tests.helpers import call_program, counting_program

# (kind, const operand value, other operand value) — values chosen so no
# kind traps and every kind produces a distinguishable result.
_KIND_CASES = [
    ("add", 7, 5),
    ("sub", 7, 5),
    ("mul", 7, 5),
    ("div", 3, 17),
    ("mod", 3, 17),
    ("and", 6, 12),
    ("or", 6, 12),
    ("xor", 6, 12),
    ("shl", 2, 5),
    ("shr", 2, 40),
    ("min", 7, 5),
    ("max", 7, 5),
    ("lt", 7, 5),
    ("le", 5, 5),
    ("gt", 7, 5),
    ("ge", 5, 7),
    ("eq", 5, 5),
    ("ne", 7, 5),
]


def _run_tiers(program: Program, mode="pep", sampler_args=None,
               tick_interval=None, tier="opt2"):
    """Run on the interpreter, plain blockjit, and blockjit with every
    method that has a P-DAG promoted to the tracefast warm ladder.

    Returns the three ``(vm, result)`` pairs."""
    runs = []
    for engine in ("interp", "blockjit", "warm"):
        code = compile_simple(program, mode=mode, tier=tier)
        if engine == "warm":
            old = flags.WARMJIT
            flags.WARMJIT = True
            try:
                for cm in code.values():
                    if cm.dag is not None:
                        assert install_superblock(cm, tracefast.WARM_PATH)
            finally:
                flags.WARMJIT = old
        sampler = (
            make_sampler(*sampler_args) if sampler_args is not None else None
        )
        vm = VirtualMachine(
            code, program.main, costs=CostModel(),
            tick_interval=tick_interval, sampler=sampler,
            blockjit=engine != "interp",
        )
        runs.append((vm, vm.run()))
    return runs


def _assert_identical(*runs):
    vm_a, res_a = runs[0]
    for vm_b, res_b in runs[1:]:
        assert res_a.return_value == res_b.return_value
        assert vm_a.output == vm_b.output
        assert res_a.cycles == res_b.cycles  # exact, not approximate
        assert res_a.ticks == res_b.ticks
        assert res_a.samples_taken == res_b.samples_taken
        assert _path_dict(vm_a.path_profile) == _path_dict(vm_b.path_profile)
        assert _edge_dict(vm_a) == _edge_dict(vm_b)


def _path_dict(profile: PathProfile):
    return {
        (key, number): freq for key, number, freq in profile.items()
    }


def _edge_dict(vm):
    return {
        repr(branch): counts for branch, counts in vm.edge_profile.items()
    }


# -- const->bin shape --------------------------------------------------------


def _const_bin_method(kind: str, cval: int, other: int, const_on_left: bool,
                      alias_dst: bool = False) -> Program:
    """const r1, cval; bin kind, dst, ... with the const as one operand."""
    method = Method("main", num_params=0, num_regs=3)
    entry = method.new_block("entry")
    entry.append(Const(2, other))
    entry.append(Const(1, cval))
    dst = 1 if alias_dst else 0  # alias_dst: binop overwrites the const reg
    if const_on_left:
        entry.append(BinOp(kind, dst, 1, 2))
    else:
        entry.append(BinOp(kind, dst, 2, 1))
    entry.append(Emit(dst))
    entry.append(Emit(2))
    entry.terminator = Ret(dst)
    method.seal()
    program = Program("t", main="main")
    program.add(method)
    return program


@pytest.mark.parametrize("kind,cval,other", _KIND_CASES)
@pytest.mark.parametrize("const_on_left", [True, False])
def test_const_bin_fusion_every_kind(kind, cval, other, const_on_left):
    program = _const_bin_method(kind, cval, other, const_on_left)
    _assert_identical(*_run_tiers(program))


@pytest.mark.parametrize("kind", ["add", "sub", "xor", "lt", "eq"])
def test_const_bin_fusion_dst_aliases_const_reg(kind):
    # dst == const_dst: the binop result overwrites the const's register.
    program = _const_bin_method(kind, 7, 5, True, alias_dst=True)
    _assert_identical(*_run_tiers(program))


def test_const_bin_fusion_skips_const_feeding_both_operands():
    # bin dst, c, c with both operands the const register.
    method = Method("main", num_params=0, num_regs=2)
    entry = method.new_block("entry")
    entry.append(Const(1, 21))
    entry.append(BinOp("add", 0, 1, 1))
    entry.append(Emit(0))
    entry.terminator = Ret(0)
    method.seal()
    program = Program("t", main="main")
    program.add(method)
    runs = _run_tiers(program)
    _assert_identical(*runs)
    assert runs[0][0].output == [42]


def test_const_bin_fused_trap_is_identical():
    # Division by zero right after the const: same error, same location,
    # same cycle count on every engine.
    method = Method("main", num_params=0, num_regs=3)
    entry = method.new_block("entry")
    entry.append(Const(2, 5))
    entry.append(Const(1, 0))
    entry.append(BinOp("div", 0, 2, 1))  # 5 // 0: traps
    entry.terminator = Ret(0)
    method.seal()
    program = Program("t", main="main")
    program.add(method)
    errors = []
    for blockjit in (False, True):
        with pytest.raises(GuestTrapError) as info:
            run_program(program, blockjit=blockjit)
        err = info.value
        errors.append(
            (str(err), err.block, err.instruction_index, err.cycles)
        )
    assert errors[0] == errors[1]


# -- cmp->br shape -----------------------------------------------------------


def _cmp_br_method(kind: str, imm: bool) -> Program:
    """cmp t, a, b; const z, 0; br ne t, z — the front-end if() shape."""
    method = Method("main", num_params=0, num_regs=4)
    entry = method.new_block("entry")
    entry.append(Const(0, 7))
    entry.append(Const(1, 5))
    entry.append(Emit(0))
    if imm:
        entry.append(BinOpImm(kind, 2, 0, 5))
    else:
        entry.append(BinOp(kind, 2, 0, 1))
    entry.append(Const(3, 0))
    entry.terminator = Br("ne", 2, 3, "yes", "no")
    yes = method.new_block("yes")
    yes.append(Const(0, 1))
    yes.append(Emit(0))
    yes.terminator = Ret(0)
    no = method.new_block("no")
    no.append(Const(0, 2))
    no.append(Emit(0))
    no.terminator = Ret(0)
    method.seal()
    program = Program("t", main="main")
    program.add(method)
    return program


@pytest.mark.parametrize("kind", ["lt", "le", "gt", "ge", "eq", "ne"])
@pytest.mark.parametrize("imm", [True, False])
def test_cmp_br_fusion_every_comparison(kind, imm):
    program = _cmp_br_method(kind, imm)
    cm = lower_method(program.method("main").clone(), "opt2", CostModel())
    # One lowered op per instruction: the comparison stays an op and the
    # branch a plain T_BR.
    cmp_op = cm.blocks["entry"].ops[3]
    assert cmp_op[0] == (OP_BINI if imm else OP_BIN)
    assert cmp_op[2] == KIND_CODES[kind]
    assert cm.blocks["entry"].term[0] == T_BR
    _assert_identical(*_run_tiers(program))


@pytest.mark.parametrize("kind", ["lt", "le", "gt", "ge", "eq", "ne"])
def test_const_br_degenerate_fusion(kind):
    # const z, v; br k t, z — the front end's ``if (expr op LIT)`` shape.
    method = Method("main", num_params=0, num_regs=3)
    entry = method.new_block("entry")
    entry.append(Const(0, 6))
    entry.append(BinOpImm("mul", 1, 0, 7))
    entry.append(Const(2, 42))
    entry.terminator = Br(kind, 1, 2, "yes", "no")
    yes = method.new_block("yes")
    yes.append(Emit(1))
    yes.terminator = Ret(1)
    no = method.new_block("no")
    no.append(Emit(2))
    no.terminator = Ret(2)
    method.seal()
    program = Program("t", main="main")
    program.add(method)
    _assert_identical(*_run_tiers(program))


def test_const_br_fusion_skips_when_branch_lhs_is_const_reg():
    # br k z, z: both branch operands are the just-materialised const.
    method = Method("main", num_params=0, num_regs=2)
    entry = method.new_block("entry")
    entry.append(Const(1, 0))
    entry.terminator = Br("eq", 1, 1, "yes", "no")
    method.new_block("yes").terminator = Ret(1)
    method.new_block("no").terminator = Ret(1)
    method.seal()
    program = Program("t", main="main")
    program.add(method)
    _assert_identical(*_run_tiers(program))


def test_cmp_br_fusion_skips_when_cmp_result_register_reused():
    # br compares the const against the cmp result (operands swapped).
    method = Method("main", num_params=0, num_regs=4)
    entry = method.new_block("entry")
    entry.append(Const(0, 7))
    entry.append(BinOp("lt", 2, 0, 0))
    entry.append(Const(3, 0))
    entry.terminator = Br("ne", 3, 2, "yes", "no")  # operands swapped
    method.new_block("yes").terminator = Ret(0)
    method.new_block("no").terminator = Ret(0)
    method.seal()
    program = Program("t", main="main")
    program.add(method)
    _assert_identical(*_run_tiers(program))


# -- whole-program equivalence ----------------------------------------------


def test_fused_equivalence_counting_program_sampled():
    _assert_identical(*_run_tiers(
        counting_program(40), sampler_args=(4, 3), tick_interval=500.0
    ))


def test_fused_equivalence_call_program():
    _assert_identical(*_run_tiers(call_program(), mode="edges"))


@pytest.mark.parametrize("seed", range(8))
def test_fused_equivalence_random_programs(seed):
    # Property sweep: random structured programs exercise every opcode
    # the generator can emit (loops, calls, arrays, all binop kinds).
    program = random_program(
        seed, GeneratorSpec(n_helpers=2, work_budget=300)
    )
    _assert_identical(*_run_tiers(program))


@pytest.mark.parametrize("seed", range(4))
def test_fused_equivalence_random_programs_sampled(seed):
    program = random_program(
        seed + 100, GeneratorSpec(n_helpers=1, work_budget=200)
    )
    _assert_identical(*_run_tiers(
        program, sampler_args=(8, 5), tick_interval=400.0
    ))


def test_fused_equivalence_classic_and_full_instrumentation():
    program = counting_program(25)
    for mode in ("full-hash", "classic"):
        _assert_identical(*_run_tiers(program, mode=mode))


# -- countdown yieldpoint gate ----------------------------------------------
#
# The compiled tiers' OP_YIELD is a countdown gate: a single
# `total >= gate` compare stands in for the interpreter's two-step
# `cycles >= next_tick` / `flag` test (gate is -inf while the flag is
# up, next_tick otherwise).  The interpreter keeps the plain sequence as
# the reference, so these interpreter-vs-blockjit runs prove the gate
# is pure control flow: identical cycles, ticks, samples, and profiles.


def _run_interpreted(program, mode=None, sampler_args=None,
                     tick_interval=None, blockjit=False):
    sampler = make_sampler(*sampler_args) if sampler_args is not None else None
    code = compile_simple(program, mode=mode)
    vm = VirtualMachine(
        code, program.main, costs=CostModel(),
        tick_interval=tick_interval, sampler=sampler, blockjit=blockjit,
    )
    return vm, vm.run()


def _gate_pair(program, **kwargs):
    return (
        _run_interpreted(program, **kwargs),
        _run_interpreted(program, blockjit=True, **kwargs),
    )


def test_interpreter_gate_equivalence_sampled():
    program = counting_program(400)
    _assert_identical(*_gate_pair(
        program, mode="pep", sampler_args=(8, 3), tick_interval=300.0
    ))


def test_interpreter_gate_equivalence_unsampled_ticks():
    # Ticks without a sampler: the gate still has to fire on every tick
    # boundary (flag handling runs through dispatch_yieldpoint).
    program = counting_program(200)
    _assert_identical(*_gate_pair(program, tick_interval=150.0))


@pytest.mark.parametrize("seed", range(4))
def test_interpreter_gate_equivalence_random_programs(seed):
    program = random_program(
        seed + 200, GeneratorSpec(n_helpers=2, work_budget=250)
    )
    _assert_identical(*_gate_pair(
        program, mode="pep", sampler_args=(4, 5), tick_interval=200.0
    ))


def test_interpreter_gate_matches_blockjit_sampled():
    # Regular Arnold-Grove strides between every pair of samples, so the
    # gate flips between -inf and next_tick inside every burst.
    program = counting_program(400)
    _assert_identical(*_gate_pair(
        program, mode="pep", sampler_args=(16, 5, False), tick_interval=300.0
    ))


def test_baseline_tier_equivalence():
    # Baseline code multiplies every cost by its tier multiplier; every
    # engine must charge the multiplied sums exactly.
    _assert_identical(*_run_tiers(counting_program(15), tier="baseline"))

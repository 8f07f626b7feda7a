"""The tracefast trace tier: bit-identity and lifecycle (DESIGN.md §13).

Tracefast is the one codegen backend above blockjit: registers promoted
to locals across the whole method, token dispatch instead of the segment
trampoline, and straight-line cost chains batched (folded to one
constant when lowering certified the method on the fixed-point grid).
None of that may move a single bit: every test here pins return values,
outputs, exact virtual cycles, path/edge profiles, ticks, samples, traps,
fuel accounting and health records against plain blockjit and the tuple
interpreter — including under fault plans, codecache-style pickle
round-trips, every bundled workload, and generated programs with every
method force-promoted.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import FuelExhaustedError, GuestTrapError
from repro.persist import payload_checksum
from repro.resilience import FaultPlan, ResilienceManager
from repro.sampling.arnold_grove import make_sampler
from repro.util import flags
from repro.vm import blockjit, tracefast
from repro.vm.costs import FOLD_SHIFT, CostModel
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import (
    install_superblock,
    superblock_fingerprint,
    trace_blocks,
)
from repro.vm.tracefast import (
    entry_tokens,
    generate_method_source,
    install_tracefast,
)
from repro.workloads.generator import GeneratorSpec, random_program
from repro.workloads.suite import benchmark_suite

from tests.compile_util import compile_simple
from tests.test_superblock import (
    _adaptive_run,
    _digest,
    _installable_path,
    _pep_image,
    hot_helper_program,
)

ALL_WORKLOADS = [w.name for w in benchmark_suite()]


@pytest.fixture(autouse=True)
def _isolate_codecache(monkeypatch):
    # Same isolation as test_superblock: the content-addressed compile
    # cache shares CompiledMethod instances across AdaptiveSystems, so a
    # trace installed by one test would leak into the next.
    monkeypatch.setenv("REPRO_CODECACHE", "0")


# -- flag resolution ---------------------------------------------------------


def test_kill_switch_environment_resolution(monkeypatch):
    # The tier's own switch is REPRO_SUPERBLOCK (test_superblock); the
    # warm ladder it compiles for dominance-free methods has this one.
    monkeypatch.setattr(flags, "WARMJIT", None)
    monkeypatch.setenv(flags.WARMJIT_ENV, "0")
    assert flags.warmjit_enabled() is False
    monkeypatch.setenv(flags.WARMJIT_ENV, "1")
    assert flags.warmjit_enabled() is True
    monkeypatch.delenv(flags.WARMJIT_ENV)
    assert flags.warmjit_enabled() is True  # default on


# -- codegen: source shape, tokens, fold verdict -----------------------------


def _traced_cm():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    path = _installable_path(cm)
    assert path is not None
    return cm, path, trace_blocks(cm, path)


def test_generated_source_shape():
    cm, _, trace = _traced_cm()
    source = generate_method_source(cm, trace)
    # One whole-method function on a token ladder, plus thin wrappers
    # baking each entry token for the unchanged blockjit driver.
    assert "def _m(vm, frame, regs, st, _e):" in source
    assert "_fuel = st.fuel" in source
    assert "_cyc = st.cyc" in source
    assert "while True:" in source
    assert "if _e == " in source
    assert "def _f0_0(vm, frame, regs, st):" in source
    # Every (block, entry-ip) pair has a wrapper and a dense token.
    tokens = entry_tokens(cm)
    assert sorted(tokens.values()) == list(range(len(tokens)))


def test_entry_tokens_are_deterministic():
    cm_a, _, _ = _traced_cm()
    cm_b, _, _ = _traced_cm()
    remap = {  # same program compiled twice: same label/ip -> token map
        key: tok for key, tok in entry_tokens(cm_a).items()
    }
    assert remap == entry_tokens(cm_b)


def test_fold_only_with_certified_costs():
    cm, _, trace = _traced_cm()
    # The default model certifies on the Q20 grid: every chain folds.
    assert cm.fold_q == FOLD_SHIFT
    folded = generate_method_source(cm, trace)
    # A rejected verdict keeps textual chains (exact on any model).
    cm.fold_q = 0
    unfolded = generate_method_source(cm, trace)
    assert folded != unfolded
    # The fold collapses straight-line cost chains into one constant,
    # so the folded body performs strictly fewer runtime additions.
    assert folded.count(" + ") < unfolded.count(" + ")


# -- installation ------------------------------------------------------------


def test_install_tracefast_rebinds_every_entry():
    cm, path, trace = _traced_cm()
    assert install_tracefast(cm, path) is True
    assert cm.sb_entry is not None
    assert cm.sb_path == path
    assert cm.sb_source is not None
    assert "def _m(" in cm.sb_source
    assert cm.sb_fingerprint == superblock_fingerprint(cm, path)
    # Every entry (not just the trace head) routes into the
    # whole-method dispatcher via its token wrapper.
    for (label, ip), entry in cm.jit_entries.items():
        assert entry.__name__.startswith("_f")
    assert cm.jit_entries[(trace[0].label, 0)] is cm.sb_entry
    # First-wins: a second install (any path) is a no-op.
    assert install_tracefast(cm, path) is True


def test_install_superblock_front_door_selects_tracefast(monkeypatch):
    cm, path, _ = _traced_cm()
    # The front door dispatches through the module attribute, so a
    # wrapper bound there (profilers, tracing benchmarks) sees every
    # compile.
    calls = []
    real = tracefast.install_tracefast

    def spy(cm_arg, path_arg):
        calls.append(path_arg)
        return real(cm_arg, path_arg)

    monkeypatch.setattr(tracefast, "install_tracefast", spy)
    assert install_superblock(cm, path) is True
    assert calls == [path]
    assert "def _m(" in cm.sb_source


def test_install_tracefast_rejects_acyclic_path():
    cm, _, _ = _traced_cm()
    acyclic = next(
        p for p in range(cm.dag.num_paths) if trace_blocks(cm, p) is None
    )
    assert install_tracefast(cm, acyclic) is False
    assert cm.sb_entry is None


# -- static-image parity -----------------------------------------------------


def _run_image(program, install, use_blockjit=True, certified=True,
               sampler=(8, 3), tick_interval=500.0):
    code = _pep_image(program)
    if not certified:
        for cm in code.values():
            cm.fold_q = 0
    if install:
        cm = code["helper"]
        assert install_superblock(cm, _installable_path(cm))
    vm = VirtualMachine(
        code, program.main, costs=CostModel(),
        tick_interval=tick_interval, sampler=make_sampler(*sampler),
        blockjit=use_blockjit,
    )
    return vm, vm.run()


def test_static_image_parity_four_ways():
    program = hot_helper_program(calls=80, inner=30)
    trace_folded = _digest(*_run_image(program, install=True))
    trace_textual = _digest(
        *_run_image(program, install=True, certified=False)
    )
    plain_jit = _digest(*_run_image(program, install=False))
    interp = _digest(
        *_run_image(program, install=False, use_blockjit=False)
    )
    assert trace_folded == trace_textual == plain_jit == interp


def test_fuel_exhaustion_parity():
    program = hot_helper_program(calls=80, inner=30)
    seen = []
    for install in (True, False):
        code = _pep_image(program)
        if install:
            cm = code["helper"]
            assert install_superblock(cm, _installable_path(cm))
        vm = VirtualMachine(
            code, program.main, costs=CostModel(), blockjit=install
        )
        with pytest.raises(FuelExhaustedError) as info:
            vm.run(fuel=3000)
        err = info.value
        seen.append(
            (str(err), err.method, err.block, err.instruction_index,
             err.cycles)
        )
    assert seen[0] == seen[1]


# -- adaptive formation: engagement, faults ----------------------------------


def test_adaptive_tracefast_actually_engages():
    system, vm, _ = _adaptive_run(hot_helper_program(), superblock=True)
    assert system.superblock_log, "no trace formed — test is vacuous"
    name, _, _ = system.superblock_log[0]
    assert name == "helper"
    cm = system.code["helper"]
    assert cm.sb_entry is not None
    assert "def _m(" in cm.sb_source


def test_tracefast_compile_fault_degrades_to_plain_blockjit():
    program = hot_helper_program()
    plan = FaultPlan({"tracefast-compile": 1.0}, seed=11)
    res_mgr = ResilienceManager(plan=plan)
    system, vm, result = _adaptive_run(
        program, superblock=True, resilience=res_mgr
    )
    assert not system.superblock_log
    # The *trace* promotion degraded; the warm token ladder is a
    # separate tier with its own fault site and may still install
    # (bit-identical by construction, wall clock only).
    assert system.code["helper"].sb_path in (None, tracefast.WARM_PATH)
    degradations = [
        (policy, detail)
        for policy, detail in res_mgr.health.degradations
        if policy == "tracefast-degrade"
    ]
    assert degradations
    # Degrading to plain blockjit is bit-identical to formation simply
    # being off: an unconfigured site never advances any RNG.
    base_sys, base_vm, base_result = _adaptive_run(
        program, superblock=False, resilience=ResilienceManager(),
    )
    assert _digest(vm, result) == _digest(base_vm, base_result)


def test_tracefast_fault_plan_is_inert_when_disabled():
    # With formation switched off (REPRO_SUPERBLOCK=0) the
    # tracefast-compile site is never consulted: a plan that would fail
    # every compile leaves no health record and no digest change.
    program = hot_helper_program()
    plan = FaultPlan({"tracefast-compile": 1.0}, seed=11)
    faulted_mgr = ResilienceManager(plan=plan)
    faulted_sys, faulted_vm, faulted_res = _adaptive_run(
        program, superblock=False, resilience=faulted_mgr
    )
    assert not faulted_sys.superblock_log
    assert not [
        policy for policy, _ in faulted_mgr.health.degradations
        if policy == "tracefast-degrade"
    ]
    clean_sys, clean_vm, clean_res = _adaptive_run(
        program, superblock=False, resilience=ResilienceManager()
    )
    assert _digest(faulted_vm, faulted_res) == _digest(clean_vm, clean_res)


def test_other_fault_sites_are_bit_identical_across_backends(monkeypatch):
    # Sampling-layer faults fire identically on the trace tier, plain
    # blockjit, and the tuple interpreter.
    program = hot_helper_program()
    plan = {"sample": 0.2, "path-table": 0.1}
    digests = []
    for engine in ("trace", "blockjit", "interp"):
        if engine == "interp":
            monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
        system, vm, result = _adaptive_run(
            program, superblock=engine == "trace",
            resilience=ResilienceManager(plan=FaultPlan(plan, seed=5)),
        )
        if engine == "trace":
            assert system.superblock_log
        digests.append(_digest(vm, result))
    assert digests[0] == digests[1] == digests[2]


# -- persistence (codecache) -------------------------------------------------


def _engaged_cm():
    code = _pep_image(hot_helper_program())
    cm = code["helper"]
    assert install_superblock(cm, _installable_path(cm))
    assert "def _m(" in cm.sb_source
    return cm


def test_pickled_tracefast_revives_through_ensure_jit(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    cm = _engaged_cm()
    clone = pickle.loads(pickle.dumps(cm))
    # Callables never pickle; source + path + fingerprint ride along.
    assert clone.sb_entry is None
    assert clone.jit_entries is None
    assert clone.sb_source == cm.sb_source
    assert clone.sb_fingerprint == cm.sb_fingerprint
    entries = blockjit.ensure_jit(clone)
    assert clone.sb_entry is not None
    head = trace_blocks(clone, clone.sb_path)[0].label
    assert entries[(head, 0)] is clone.sb_entry


def test_flag_flip_invalidates_persisted_artifact(monkeypatch):
    # The fingerprint hashes the resolved PGO layout flag (the ladder's
    # arm order is baked into the source), so a source generated under
    # one setting can never be exec'd under the other: the flipped
    # process drops the artefact wholesale.
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    monkeypatch.setattr(flags, "PGO_LAYOUT", True)
    cm = _engaged_cm()
    clone = pickle.loads(pickle.dumps(cm))
    monkeypatch.setattr(flags, "PGO_LAYOUT", False)
    entries = blockjit.ensure_jit(clone)
    assert clone.sb_entry is None
    assert clone.sb_source is None
    assert clone.sb_path is None
    head = next(iter(clone.blocks))
    assert (head, 0) in entries  # plain entries still work


def test_pickle_roundtrip_run_parity():
    program = hot_helper_program(calls=80, inner=30)
    runs = []
    for roundtrip in (False, True):
        code = _pep_image(program)
        cm = code["helper"]
        install_superblock(cm, _installable_path(cm))
        if roundtrip:
            code = {
                name: pickle.loads(pickle.dumps(m))
                for name, m in code.items()
            }
        vm = VirtualMachine(
            code, program.main, costs=CostModel(), tick_interval=500.0,
            sampler=make_sampler(8, 3), blockjit=True,
        )
        runs.append(_digest(vm, vm.run()))
    assert runs[0] == runs[1]


# -- generated programs, every method force-promoted ------------------------


def _promote_every_method(code, prefer_trace: bool) -> dict:
    """Install a tracefast artefact on every method that accepts one.

    ``prefer_trace`` promotes each method to its first eligible loop
    trace and falls back to the warm ladder; otherwise every method gets
    the warm ladder.  Returns ``{"trace": n, "warm": n}``.  Only
    DAG-less (branch-free, uninstrumented) methods stay on plain
    blockjit — the tier has no artefact slot for them.
    """
    counts = {"trace": 0, "warm": 0}
    for cm in code.values():
        if cm.dag is None:
            assert install_superblock(cm, tracefast.WARM_PATH) is False
            continue
        path = None
        if prefer_trace:
            path = next(
                (p for p in range(cm.dag.num_paths)
                 if trace_blocks(cm, p) is not None),
                None,
            )
        if path is not None:
            assert install_superblock(cm, path)
            counts["trace"] += 1
        else:
            assert install_superblock(cm, tracefast.WARM_PATH)
            counts["warm"] += 1
        assert cm.sb_path == (tracefast.WARM_PATH if path is None else path)
    return counts


def _generated_outcome(program, promote, fuel=50_000_000, max_stack_depth=4000):
    """One run of ``program``: ``promote`` is None (tuple interpreter),
    ``"blockjit"`` (nothing promoted up front), ``"warm"`` or ``"trace"``
    (blockjit with every method promoted).

    Returns ``(outcome, cycles, counts)``: a completed run's digest, or
    the trap / fuel-abort signature plus everything observed up to it.
    """
    code = compile_simple(program, mode="pep")
    counts = None
    if promote in ("warm", "trace"):
        counts = _promote_every_method(code, prefer_trace=promote == "trace")
    vm = VirtualMachine(
        code, program.main, costs=CostModel(), tick_interval=300.0,
        sampler=make_sampler(8, 3), blockjit=promote is not None,
        max_stack_depth=max_stack_depth,
    )
    try:
        result = vm.run(fuel=fuel)
    except (GuestTrapError, FuelExhaustedError) as err:
        outcome = (
            type(err).__name__, str(err), err.method, err.block,
            err.instruction_index, err.cycles, list(vm.output),
            sorted(vm.path_profile.items()),
            sorted((repr(b), c) for b, c in vm.edge_profile.items()),
        )
        return outcome, err.cycles, counts
    return ("ok", _digest(vm, result)), result.cycles, counts


_GEN_SEEDS = range(300, 306)


def _generated(seed):
    return random_program(seed, GeneratorSpec(n_helpers=2, work_budget=400))


def _generated_limits(program):
    """(fuel, max stack depth) pairs: unbounded, fuel-starved about a
    third of the way in, and a stack too shallow for nested helper
    calls (a guest trap raised from inside generated code)."""
    _, cycles, _ = _generated_outcome(program, None)
    return ((50_000_000, 4000), (max(20, int(cycles) // 3), 4000),
            (50_000_000, 2))


@pytest.mark.parametrize("seed", _GEN_SEEDS)
def test_generated_programs_promoted_match_interpreter(seed, monkeypatch):
    # Every method of a generated program is force-promoted (warm ladder
    # everywhere, or a loop trace wherever one is eligible) and must
    # match the tuple interpreter in cycles, output, profiles, traps and
    # fuel aborts.
    monkeypatch.setattr(flags, "WARMJIT", True)
    program = _generated(seed)
    for fuel, depth in _generated_limits(program):
        oracle, _, _ = _generated_outcome(program, None, fuel, depth)
        for promote in ("warm", "trace"):
            outcome, _, counts = _generated_outcome(
                program, promote, fuel, depth
            )
            assert counts["warm"] + counts["trace"] > 0
            assert outcome == oracle, (seed, promote, fuel, depth)


def test_generated_programs_reach_traces_and_traps(monkeypatch):
    # Across those seeds the forced promotion must actually install loop
    # traces, and the limits must actually abort on fuel and trap on the
    # stack; otherwise the oracle comparison is vacuous for those paths.
    monkeypatch.setattr(flags, "WARMJIT", True)
    traces = 0
    kinds = set()
    for seed in _GEN_SEEDS:
        program = _generated(seed)
        code = compile_simple(program, mode="pep")
        traces += _promote_every_method(code, prefer_trace=True)["trace"]
        for fuel, depth in _generated_limits(program):
            kinds.add(_generated_outcome(program, None, fuel, depth)[0][0])
    assert traces > 0
    assert {"ok", "FuelExhaustedError", "GuestTrapError"} <= kinds


# -- whole-suite parity (all bundled workloads) ---------------------------


def _workload_checksum(workload: str) -> str:
    import repro.api as api

    suite = {w.name: w for w in benchmark_suite()}
    old_sb = flags.SUPERBLOCK
    flags.SUPERBLOCK = True
    try:
        program = suite[workload].build(0.3)
        report = api.profile_adaptive(
            program, samples=16, stride=3, ticks=100
        )
    finally:
        flags.SUPERBLOCK = old_sb
    return payload_checksum(
        {
            "paths": sorted(report.paths.items()),
            "edges": sorted((repr(b), c) for b, c in report.edges.items()),
            "output": list(report.result.output),
            "return_value": report.result.return_value,
            "cycles": report.result.cycles,
            "recompilations": report.result.recompilations,
            "compile_cycles": report.result.compile_cycles,
            "health": report.health.to_dict(),
        }
    )


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_digest_parity(workload, monkeypatch):
    # The default pipeline (blockjit, trace tier, warm ladders, k-traces)
    # against the tuple interpreter, which never promotes anything.
    default = _workload_checksum(workload)
    monkeypatch.setenv(blockjit.ENV_DISABLE, "0")
    interpreter = _workload_checksum(workload)
    assert default == interpreter

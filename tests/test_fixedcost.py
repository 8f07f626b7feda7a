"""Fixed-point cost folding and the warm token ladder (DESIGN.md §15).

Two PR-9 mechanisms under one contract — bit-identity with the
sequential interpreter:

* **Universal folding.**  ``lower_method`` certifies a method against
  the Q20 grid (``costs.fold_clean`` over ``chargeable_values()``) and
  stamps ``cm.fold_q``; generated code then folds every straight-line
  cost chain to one constant with *no* per-constant cleanliness gate.
  A rejected method (``fold_q == 0``) keeps textual chains, and the two
  shapes must agree to the bit.
* **Warm token ladder.**  A warm method with *no* dominant path still
  compiles into a whole-method ``_m`` dispatch (``WARM_PATH == -1``),
  promoted by the controller below superblock promotion.
  ``REPRO_WARMJIT=0`` is the kill switch; persisted warm artefacts
  survive it for a later enabled process.
"""

from __future__ import annotations

import pickle

import pytest

from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.bytecode.builder import ProgramBuilder
from repro.bytecode.method import Program
from repro.errors import FuelExhaustedError
from repro.persist import payload_checksum
from repro.resilience import FaultPlan, ResilienceManager
from repro.sampling.arnold_grove import SamplingConfig
from repro.util import flags
from repro.vm import blockjit, costs as costs_mod, tracefast
from repro.vm.costs import (
    FOLD_BOUND,
    FOLD_SHIFT,
    CostModel,
    fold_clean,
)
from repro.vm.runtime import VirtualMachine
from repro.vm.superblock import (
    find_dominant_path,
    install_superblock,
    trace_blocks,
)
from repro.workloads.suite import benchmark_suite

from tests.compile_util import compile_simple
from tests.test_superblock import _adaptive_run, _digest, hot_helper_program

ALL_WORKLOADS = [w.name for w in benchmark_suite()]


@pytest.fixture(autouse=True)
def _isolate(monkeypatch):
    # Shared codecache entries would leak fold verdicts and warm
    # artefacts across tests; and the CI kill-switch smoke exports
    # REPRO_WARMJIT=0 globally, so tests about the enabled warm tier pin
    # the override themselves.
    monkeypatch.setenv("REPRO_CODECACHE", "0")


def braided_helper_program(calls: int = 240, inner: int = 36) -> Program:
    """main repeatedly calls a helper whose loop splits three ways.

    The 3-way ladder on ``i % 3`` spreads path mass evenly (~1/3 each),
    so no path reaches the 0.5 dominance threshold and the helper never
    earns a trace superblock — it is the warm-ladder promotion target.
    (Two balanced arms would not do: ``find_dominant_path`` accepts a
    path at *exactly* the threshold, so a 50/50 split still dominates.)
    """
    pb = ProgramBuilder("braided")
    helper = pb.function("helper", ["n"])
    n = helper.p("n")
    acc = helper.local(0)

    def body(i):
        r = i % 3

        def arm_a():
            helper.assign(acc, acc + n)
            helper.assign(acc, acc + 1)

        def arm_b():
            helper.assign(acc, acc * 1)
            helper.assign(acc, acc + 2)

        def arm_c():
            helper.assign(acc, acc - 1)
            helper.assign(acc, acc + i)

        helper.if_(r.eq(0), arm_a,
                   lambda: helper.if_(r.eq(1), arm_b, arm_c))

    helper.for_range(0, inner, 1, body)
    helper.ret(acc)

    f = pb.function("main")
    total = f.local(0)
    f.for_range(0, calls, 1,
                lambda i: f.assign(total, total + f.call("helper", i)))
    f.emit(total)
    f.ret(total)
    return pb.build()


def _warm_run(program: Program, warm: bool, resilience=None,
              tick_interval: float = 600.0):
    """One adaptive run with warmjit pinned on/off.

    k-BLPP is pinned off: the braided kernel has no dominant 1-path by
    construction, but its periodic arms DO yield a dominant k-window, and
    the controller's k-fallback would upgrade the warm ladder to a
    multi-iteration trace — these tests exercise the warm tier itself.
    """
    old_wj, old_kb = flags.WARMJIT, flags.KBLPP
    flags.WARMJIT, flags.KBLPP = warm, False
    try:
        return _adaptive_run(
            program, superblock=True, resilience=resilience,
            tick_interval=tick_interval,
        )
    finally:
        flags.WARMJIT, flags.KBLPP = old_wj, old_kb


# -- the Q20 grid ------------------------------------------------------------


def test_fold_clean_grid():
    clean = [
        0.0, 0.5, 1.0, 3.0, -2.5,
        4710 / 4096,          # the recalibrated opt0 multiplier
        4301 / 4096,          # the recalibrated opt1 multiplier
        2.0 ** -FOLD_SHIFT,   # one grid step
        FOLD_BOUND,           # the magnitude bound, inclusive
    ]
    dirty = [
        1.15, 1.05, 0.1,          # the pre-recalibration decimals
        2.0 ** -(FOLD_SHIFT + 1),  # below grid resolution
        FOLD_BOUND * 2,
        float("inf"),
        float("nan"),
    ]
    assert all(fold_clean(v) for v in clean)
    assert not any(fold_clean(v) for v in dirty)


def test_default_model_is_entirely_on_grid():
    # Every chargeable value — per-op base costs under every tier
    # multiplier, plus every injected runtime charge — must sit on the
    # grid, or the default model could not certify anything.
    values = CostModel().chargeable_values()
    assert values  # non-vacuous
    assert all(fold_clean(v) for v in values)


@pytest.mark.parametrize("tier", ["baseline", "opt0", "opt1", "opt2"])
def test_every_workload_certifies_at_every_tier(tier, monkeypatch):
    monkeypatch.setattr(costs_mod, "FOLD_REJECTIONS", 0)
    for workload in benchmark_suite():
        program = workload.build(0.3)
        code = compile_simple(program, mode="pep", tier=tier)
        for name, cm in code.items():
            assert cm.fold_q == FOLD_SHIFT, (workload.name, name)
    assert costs_mod.FOLD_REJECTIONS == 0


def test_dirty_tier_multiplier_demotes_and_counts(monkeypatch):
    # Certification is cross-tier: carried st.cyc crosses method and
    # tier boundaries, so a dirty opt0 multiplier must demote even a
    # method compiled at opt2.
    monkeypatch.setattr(costs_mod, "FOLD_REJECTIONS", 0)
    dirty = CostModel()
    dirty.tier_multipliers = dict(dirty.tier_multipliers)
    dirty.tier_multipliers["opt0"] = 1.15
    code = compile_simple(hot_helper_program(), tier="opt2", costs=dirty)
    assert all(cm.fold_q == 0 for cm in code.values())
    assert costs_mod.FOLD_REJECTIONS == len(code)


def test_dirty_injected_charge_demotes(monkeypatch):
    # The lowered op stream is clean, but a handler could add this
    # charge mid-chain — rejection is the only sound verdict.
    monkeypatch.setattr(costs_mod, "FOLD_REJECTIONS", 0)
    dirty = CostModel()
    dirty.pep_pass_cost_per_instr = 0.1
    code = compile_simple(hot_helper_program(), costs=dirty)
    assert all(cm.fold_q == 0 for cm in code.values())
    assert costs_mod.FOLD_REJECTIONS == len(code)


def test_demoted_method_runs_bit_identically():
    # fold_q == 0 falls back to textual chains; the digest must not
    # move.  (The dirty multiplier itself changes cycles, so both runs
    # use the same dirty model and only the verdict differs.)
    program = hot_helper_program(calls=60, inner=24)
    digests = []
    for force_reject in (False, True):
        dirty = CostModel()
        if force_reject:
            dirty.tier_multipliers = dict(dirty.tier_multipliers)
            dirty.tier_multipliers["opt0"] = 1.15
        code = compile_simple(program, mode="pep", costs=dirty)
        vm = VirtualMachine(code, program.main, costs=dirty, blockjit=True)
        result = vm.run()
        digests.append((result.return_value, list(vm.output)))
    assert digests[0] == digests[1]


# -- fuel aborts mid-chain ---------------------------------------------------


@pytest.mark.parametrize("fuel", [777, 4321, 23456])
def test_fuel_abort_parity_across_folding(fuel):
    # Fuel exhaustion can land anywhere inside a folded chain; the trap
    # path must reconstruct the exact sequential cycle count.  The
    # abort signature (site + cycles) must agree across the
    # interpreter, blockjit, the trace tier, and both fold regimes: the
    # certified verdict (folded chains) and a rejected one (``fold_q``
    # forced to 0, textual chains — exact on any model).
    program = hot_helper_program(calls=40, inner=24)
    seen = set()
    for certified in (True, False):
        for engine in ("interp", "blockjit", "trace"):
            code = compile_simple(program, mode="pep")
            if not certified:
                for cm in code.values():
                    cm.fold_q = 0
            if engine == "trace":
                helper = code["helper"]
                path = next(
                    p for p in range(helper.dag.num_paths)
                    if trace_blocks(helper, p) is not None
                )
                assert install_superblock(helper, path)
            vm = VirtualMachine(
                code, program.main, costs=CostModel(),
                blockjit=engine != "interp",
            )
            with pytest.raises(FuelExhaustedError) as info:
                vm.run(fuel=fuel)
            err = info.value
            seen.add((str(err), err.method, err.block,
                      err.instruction_index, err.cycles))
    assert len(seen) == 1


# -- warm token ladder -------------------------------------------------------


def _warm_flags(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    monkeypatch.setattr(flags, "WARMJIT", True)


def _warm_cm(monkeypatch):
    _warm_flags(monkeypatch)
    code = compile_simple(braided_helper_program(), mode="pep")
    cm = code["helper"]
    assert install_superblock(cm, tracefast.WARM_PATH)
    return cm


def test_braided_helper_has_no_dominant_path(monkeypatch):
    _warm_flags(monkeypatch)
    program = braided_helper_program()
    system, vm, _ = _adaptive_run(program, superblock=True)
    counts: dict = {}
    for key, path, freq in vm.path_profile.items():
        if key.startswith("helper#"):
            counts[path] = counts.get(path, 0.0) + freq
    assert counts, "helper collected no path samples — test is vacuous"
    assert find_dominant_path(counts, 0.5, 1.0) is None


def test_warm_install_builds_token_ladder(monkeypatch):
    cm = _warm_cm(monkeypatch)
    assert cm.sb_path == tracefast.WARM_PATH
    assert cm.sb_entry is not None
    assert "def _m(" in cm.sb_source
    assert "warm ladder" in cm.sb_source
    # The ladder rebinds the *method entry* (there is no trace head).
    assert cm.jit_entries[(cm.entry.label, 0)] is cm.sb_entry


def test_warm_install_requires_warmjit_flag(monkeypatch):
    monkeypatch.setattr(flags, "SUPERBLOCK", True)
    monkeypatch.setattr(flags, "WARMJIT", False)
    code = compile_simple(braided_helper_program(), mode="pep")
    cm = code["helper"]
    assert install_superblock(cm, tracefast.WARM_PATH) is False
    assert cm.sb_entry is None


def test_real_trace_upgrades_warm_ladder(monkeypatch):
    # The one first-wins relaxation: a dominant-path trace displaces an
    # installed warm ladder; everything else stays first-wins.
    _warm_flags(monkeypatch)
    code = compile_simple(hot_helper_program(), mode="pep")
    cm = code["helper"]
    assert install_superblock(cm, tracefast.WARM_PATH)
    assert cm.sb_path == tracefast.WARM_PATH
    warm_entry = cm.sb_entry

    path = next(
        p for p in range(cm.dag.num_paths)
        if trace_blocks(cm, p) is not None
    )
    assert install_superblock(cm, path)
    assert cm.sb_path == path
    assert cm.sb_entry is not warm_entry

    # ... and the settled trace is NOT displaced back to warm.
    assert install_superblock(cm, tracefast.WARM_PATH)
    assert cm.sb_path == path


def test_warm_run_digest_parity_and_engagement(monkeypatch):
    program = braided_helper_program()
    on_sys, on_vm, on_res = _warm_run(program, warm=True)
    off_sys, off_vm, off_res = _warm_run(program, warm=False)
    assert on_sys.warmjit_log, "warm ladder never promoted — vacuous"
    assert on_sys.warmjit_log[0][0] == "helper"
    # Advice carries across recompiles: the *final* helper version
    # still holds the ladder.
    assert on_sys.code["helper"].sb_path == tracefast.WARM_PATH
    assert not off_sys.warmjit_log
    assert off_sys.code["helper"].sb_path is None
    assert _digest(on_vm, on_res) == _digest(off_vm, off_res)


def test_warm_pickle_revives_through_ensure_jit(monkeypatch):
    cm = _warm_cm(monkeypatch)
    clone = pickle.loads(pickle.dumps(cm))
    assert clone.sb_entry is None  # callables never pickle
    assert clone.sb_path == tracefast.WARM_PATH
    entries = blockjit.ensure_jit(clone)
    assert clone.sb_entry is not None
    assert entries[(clone.entry.label, 0)] is clone.sb_entry


def test_warm_kill_switch_keeps_persisted_artifacts(monkeypatch):
    cm = _warm_cm(monkeypatch)
    clone = pickle.loads(pickle.dumps(cm))
    monkeypatch.setattr(flags, "WARMJIT", False)
    blockjit.ensure_jit(clone)
    assert clone.sb_entry is None
    # Artefacts stay for a later enabled process: the fingerprint still
    # matches, only the switch is down.
    assert clone.sb_source is not None
    assert clone.sb_path == tracefast.WARM_PATH


def test_warm_stale_fingerprint_drops_cleanly(monkeypatch):
    cm = _warm_cm(monkeypatch)
    clone = pickle.loads(pickle.dumps(cm))
    clone.sb_fingerprint = (clone.sb_fingerprint or 0) ^ 1
    entries = blockjit.ensure_jit(clone)
    assert clone.sb_entry is None
    assert clone.sb_source is None
    assert clone.sb_path is None
    assert (clone.entry.label, 0) in entries


def test_warmjit_compile_fault_degrades(monkeypatch):
    program = braided_helper_program()
    plan = FaultPlan({"warmjit-compile": 1.0}, seed=11)
    res_mgr = ResilienceManager(plan=plan)
    system, vm, result = _warm_run(program, warm=True, resilience=res_mgr)
    assert not system.warmjit_log
    assert system.code["helper"].sb_path is None
    degradations = [
        (policy, detail)
        for policy, detail in res_mgr.health.degradations
        if policy == "warmjit-degrade"
    ]
    assert degradations
    # Degrading is bit-identical to the tier simply being off.
    base_sys, base_vm, base_res = _warm_run(
        program, warm=False, resilience=ResilienceManager()
    )
    assert _digest(vm, result) == _digest(base_vm, base_res)


# -- whole-suite kill-switch parity (all bundled workloads) ---------------


def _flag_checksum(workload: str, warmjit: bool, kblpp: bool) -> str:
    import repro.api as api

    suite = {w.name: w for w in benchmark_suite()}
    old = (flags.SUPERBLOCK, flags.WARMJIT, flags.KBLPP)
    flags.SUPERBLOCK, flags.WARMJIT, flags.KBLPP = True, warmjit, kblpp
    try:
        program = suite[workload].build(0.3)
        report = api.profile_adaptive(
            program, samples=16, stride=3, ticks=100
        )
    finally:
        flags.SUPERBLOCK, flags.WARMJIT, flags.KBLPP = old
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
def test_workload_digest_parity_every_flag_combo(workload):
    # The trace tier's two remaining promotion switches: the warm ladder
    # and the k-iteration trace fallback.
    combos = [(True, True), (False, True), (True, False), (False, False)]
    digests = {
        _flag_checksum(workload, warmjit=wj, kblpp=kb)
        for wj, kb in combos
    }
    assert len(digests) == 1

"""The virtual machine: code cache, timer, profiles, and run orchestration.

:class:`VirtualMachine` ties together the interpreter, the virtual timer
(which sets the thread-switch flag, paper section 4.1), a *sampler* (the
yieldpoint handler strategy — timer-based, Arnold-Grove, or none), and a
*method-sample listener* (the adaptive system's hotness input).

The timer is virtual: after every ``tick_interval`` virtual cycles, the
next executed yieldpoint observes ``cycles >= next_tick`` and calls
:meth:`on_tick`, which raises the flag exactly the way Jikes RVM's timer
interrupt handler does.  Yieldpoints executed while the flag is set invoke
the sampler, which charges (dilated) handler cycles and eventually clears
the flag — the set-don't-reset trick of Arnold-Grove sampling.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.errors import VMError
from repro.profiling.callgraph import CallGraphProfile
from repro.profiling.edges import EdgeProfile
from repro.profiling.paths import PathProfile
from repro.util.rng import DeterministicRng
from repro.vm.blockjit import blockjit_enabled, execute_blockjit
from repro.vm.costs import CostModel
from repro.vm.interpreter import CompiledMethod, execute

DEFAULT_FUEL = 500_000_000


class RunResult:
    """Snapshot of a finished run's outcome and accounting."""

    __slots__ = (
        "return_value",
        "cycles",
        "output",
        "ticks",
        "samples_taken",
        "strides_skipped",
        "path_count_updates",
        "compile_cycles",
        "recompilations",
        "health",
    )

    def __init__(
        self,
        return_value: int,
        cycles: float,
        output: List[int],
        ticks: int,
        samples_taken: int,
        strides_skipped: int,
        path_count_updates: int,
        compile_cycles: float,
        recompilations: int,
        health=None,
    ) -> None:
        self.return_value = return_value
        self.cycles = cycles
        self.output = output
        self.ticks = ticks
        self.samples_taken = samples_taken
        self.strides_skipped = strides_skipped
        self.path_count_updates = path_count_updates
        self.compile_cycles = compile_cycles
        self.recompilations = recompilations
        # HealthReport of the run's ResilienceManager, or None when the
        # run had no resilience layer attached.
        self.health = health

    def __repr__(self) -> str:
        return (
            f"<RunResult cycles={self.cycles:.0f} ticks={self.ticks} "
            f"samples={self.samples_taken}>"
        )


class VirtualMachine:
    """Executes a compiled program under a cost model and timer."""

    def __init__(
        self,
        code: Dict[str, CompiledMethod],
        main: str,
        costs: Optional[CostModel] = None,
        tick_interval: Optional[float] = None,
        sampler: Optional["SamplerLike"] = None,
        method_sample_listener: Optional[Callable[["VirtualMachine", str], float]] = None,
        max_stack_depth: int = 4000,
        tick_jitter: float = 0.0,
        jitter_seed: int = 0,
        resilience=None,
        blockjit: Optional[bool] = None,
    ) -> None:
        if main not in code:
            raise VMError(f"code cache has no main method {main!r}")
        self.code = code
        self.main = main
        self.costs = costs if costs is not None else CostModel()
        self.sampler = sampler
        self.method_sample_listener = method_sample_listener
        self.max_stack_depth = max_stack_depth
        # Fault-injection + graceful-degradation layer (see
        # repro.resilience); the sampler and adaptive controller consult
        # it, and its HealthReport travels on the RunResult.
        self.resilience = resilience
        # Engine selection: the template-compiled block engine
        # (repro.vm.blockjit) by default, the tuple interpreter when
        # disabled explicitly or via REPRO_BLOCKJIT=0.  Both engines are
        # bit-identical in every observable, so this only moves wall
        # clock (tests/test_blockjit.py proves it).
        self.use_blockjit = (
            blockjit_enabled() if blockjit is None else bool(blockjit)
        )

        # Profiles being collected during this run.
        self.edge_profile = EdgeProfile()
        self.path_profile = PathProfile()
        # Shadow k-iteration path table (DESIGN.md §16): windows of k
        # chained 1-path samples, recorded by the sampler when
        # REPRO_KBLPP is on.  Never enters digests and charges no
        # virtual cycles — it only steers trace formation, so the kill
        # switch is bit-identical by construction.
        self.kpath_profile = PathProfile()
        self.call_graph = CallGraphProfile()
        # (profile_key, path) -> array of edge-profile arm slots: the
        # sampler's drain replays a path's branch events as a batched
        # integer loop (DESIGN.md §10).  Per-VM, like the profiles the
        # slots index into.
        self.edge_slot_cache: Dict = {}
        # Pre-size dense path tables from each method's Ball-Larus path
        # count; methods compiled into the run later (adaptive
        # recompiles) are registered at their first drained sample.
        for _cm in code.values():
            if _cm.dag is not None:
                self.path_profile.ensure_dense(
                    _cm.profile_key, _cm.dag.num_paths
                )
        self.guest_stack: Optional[list] = None  # set by execute()

        # Timer state.  Jitter models the real timer's phase noise relative
        # to program progress — the source of run-to-run variation in the
        # paper's *adaptive* methodology (its replay methodology exists to
        # remove exactly this nondeterminism).
        self.tick_interval = tick_interval
        self.tick_jitter = tick_jitter
        self._jitter_rng = DeterministicRng(jitter_seed) if tick_jitter else None
        self.cycles = 0.0
        self.next_tick = tick_interval if tick_interval is not None else math.inf
        self.flag = False
        self.ticks = 0

        # Accounting.
        self.output: List[int] = []
        self.samples_taken = 0
        self.strides_skipped = 0
        self.path_count_updates = 0
        # (profile_key, path number) pairs whose expansion this VM has
        # already paid for.  First-expansion cost accounting is per-VM so
        # that virtual-cycle charges never depend on how warm the shared
        # (process-global) PathResolver memo happens to be.
        self.expanded_paths: set = set()
        self.compile_cycles = 0.0
        self.recompilations = 0
        self._tick_method_sampled = False

    # -- timer/yieldpoint plumbing (called from the interpreter) -----------

    def on_tick(self) -> None:
        """The virtual timer interrupt: raise the flag, notify the sampler."""
        while self.cycles >= self.next_tick:
            interval = self.tick_interval
            if self._jitter_rng is not None:
                offset = (self._jitter_rng.random() - 0.5) * 2 * self.tick_jitter
                interval = interval * (1.0 + offset)
            self.next_tick += interval
            self.ticks += 1
            self._tick_method_sampled = False
            if self.sampler is not None:
                self.sampler.on_tick(self)

    def dispatch_yieldpoint(
        self, cm: CompiledMethod, path_reg: int, is_sample_point: bool
    ) -> float:
        """Yieldpoint handler entry; returns the cycles it consumed."""
        cost = 0.0
        if not self._tick_method_sampled:
            # The adaptive system samples the executing method once per
            # tick (section 4.1): it examines the stack, updating the
            # dynamic call graph, and recompilation may happen here, with
            # its compile time charged to the run.
            self._tick_method_sampled = True
            cost += self.costs.scaled_handler(self.costs.handler_method_sample)
            stack = self.guest_stack
            caller = (
                stack[-2].cm.source_name
                if stack is not None and len(stack) >= 2
                else None
            )
            self.call_graph.record(caller, cm.source_name)
            if self.method_sample_listener is not None:
                cost += self.method_sample_listener(self, cm.source_name)
        if self.sampler is not None:
            cost += self.sampler.on_yieldpoint(self, cm, path_reg, is_sample_point)
        else:
            self.flag = False
        return cost

    # -- running --------------------------------------------------------------

    def run(self, fuel: int = DEFAULT_FUEL) -> RunResult:
        """Execute main to completion and return the result snapshot."""
        engine = execute_blockjit if self.use_blockjit else execute
        error: Optional[VMError] = None
        try:
            return_value = engine(self, fuel)
        except VMError as exc:
            error = exc
            raise
        finally:
            # Buffered samplers drain at tick boundaries; the tail of
            # the final burst drains here, so profiles observed after a
            # run (even one that trapped) are always complete.
            sampler = self.sampler
            if sampler is not None:
                flush = getattr(sampler, "flush", None)
                if flush is not None:
                    flush(self)
            self._drain_probe_plans(error)
        return RunResult(
            return_value=return_value,
            cycles=self.cycles,
            output=self.output,
            ticks=self.ticks,
            samples_taken=self.samples_taken,
            strides_skipped=self.strides_skipped,
            path_count_updates=self.path_count_updates,
            compile_cycles=self.compile_cycles,
            recompilations=self.recompilations,
            health=(
                self.resilience.health if self.resilience is not None else None
            ),
        )

    def _drain_probe_plans(self, error: Optional[VMError]) -> None:
        """Rebuild full edge counts for minimum-coverage methods.

        Methods instrumented with spanning-tree probe placement
        (DESIGN.md §14) recorded only the complement arms during the
        run; flow conservation recovers the rest once frames stuck
        mid-method (an aborted run's guest stack) are balanced in.
        Runs with no probe plans — every configuration except the
        one-shot edges mode under ``REPRO_PGO_PROBES`` — skip this.
        """
        plans = [cm for cm in self.code.values() if cm.probe_plan is not None]
        if not plans:
            return
        from repro.vm import pgo

        stuck = pgo.stuck_blocks(self, error)
        for cm in plans:
            pgo.reconstruct_probed_edges(
                cm.probe_plan, self.edge_profile, stuck.get(cm)
            )

    def charge_compile(self, cycles: float) -> float:
        """Record compile-time cycles; returns them for handler charging."""
        self.compile_cycles += cycles
        self.recompilations += 1
        return cycles


class SamplerLike:
    """Interface samplers implement (see :mod:`repro.sampling`)."""

    def on_tick(self, vm: VirtualMachine) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_yieldpoint(
        self,
        vm: VirtualMachine,
        cm: CompiledMethod,
        path_reg: int,
        is_sample_point: bool,
    ) -> float:  # pragma: no cover
        raise NotImplementedError

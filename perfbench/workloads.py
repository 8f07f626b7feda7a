"""The benchmark's three workloads.

Each workload has a fixed *pass*, a job list built from the run's seed:

``figures``
    The fig6 sweep under the replay methodology: 17 suite programs x 7
    configurations = 119 cells through ``ExperimentPool.run`` with two
    workers.  The seed shuffles cell order only; each cell keeps its
    index and cell seed, so its digest is seed-independent.
``adaptive``
    The fig11 runs: 17 programs x {stock, PEP(64,17)} x 3 jittered
    trials = 102 in-process ``AdaptiveSystem`` runs.  The seed sets the
    timer-jitter seeds.
``generated``
    240 distinct small programs from ``repro.workloads.generator``, each
    profiled by one ``api.profile`` call.  The seed picks the programs,
    40 from each of six bands of guest work; every pass profiles the
    same batch.

A run repeats whole passes until its time budget is spent.  The runner
empties the process-wide caches (compiled-method cache, compiled code
objects, path and k-path memos) with :func:`fresh_caches` before each
pass, so every pass does the same work as the first, no matter how many
passes fit or which ran before.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from perfbench import reference

SCALE = 1.0
FIGURES_WORKERS = 2
ADAPTIVE_TRIALS = 3
ADAPTIVE_TICK_JITTER = 0.2
# Virtual cycles per program at scale 1.0, divided by the program's
# tick target: the fig11 bench's timer.
NOMINAL_TICK = 200_000.0
# Guest work of random programs is heavy-tailed (a few run most of the
# cycles), so a pass drawn freely would hold a different amount of guest
# work on every seed.  Each pass instead takes the same number of
# programs from each half-decade band of baseline cycles (log10 bounds).
GENERATED_BANDS = (
    (1.5, 2.0), (2.0, 2.5), (2.5, 3.0), (3.0, 3.5), (3.5, 4.0), (4.0, 4.5)
)
GENERATED_PER_BAND = 40
# Guest instructions after which a candidate's reference run stops: it
# is then past the top band.
GENERATED_FUEL = 40_000


class Job:
    """One job's outcome: wall seconds, guest cycles, reference value."""

    __slots__ = ("key", "seconds", "cycles", "check", "error", "stats")

    def __init__(
        self,
        key: str,
        seconds: float,
        cycles: float = 0.0,
        check: Optional[str] = None,
        error: Optional[str] = None,
        stats: Optional[Dict] = None,
    ) -> None:
        self.key = key
        self.seconds = seconds
        self.cycles = cycles
        self.check = check
        self.error = error
        self.stats = stats or {}


def fresh_caches() -> None:
    """Empty the process-wide caches a previous pass may have filled.

    Compiled code is cyclic (a method's namespace refers back to it), so
    a collection frees what the caches held now rather than at whatever
    point the collector next runs, which would move peak memory.
    """
    import gc

    from repro.profiling.kpaths import clear_shared_schemas
    from repro.profiling.regenerate import clear_shared_memos
    from repro.vm import blockjit, codecache

    cache = codecache.active_cache()
    if cache is not None:
        cache.clear()
    clear_shared_memos()
    clear_shared_schemas()
    blockjit._CODE_OBJECTS.clear()
    gc.collect()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Figures:
    name = "figures"
    reference_seconds = 0.0  # its reference is a pinned file

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cells: List = []
        self.config_of: Dict[int, str] = {}

    def job_list(self) -> List:
        from repro.engine import make_sweep_cells
        from repro.harness.experiment import (
            BASE,
            INSTR_ONLY,
            config_to_spec,
            pep_config,
        )
        from repro.workloads.suite import benchmark_suite

        configs = [BASE, INSTR_ONLY] + [
            pep_config(samples, stride)
            for samples, stride in (
                (1, 1), (16, 17), (64, 17), (256, 17), (1024, 17)
            )
        ]
        cells = make_sweep_cells(
            [w.name for w in benchmark_suite()],
            [config_to_spec(c) for c in configs],
            scale=SCALE,
        )
        random.Random(f"figures:{self.seed}").shuffle(cells)
        return cells

    def setup(self) -> None:
        """Prepare every program in this process, before workers fork.

        Both replay images (plain and PEP-instrumented) are compiled and
        their block code generated here, so a cell's time is execution
        and sampling only, whichever worker runs it.
        """
        from repro.harness.experiment import prepare
        from repro.vm.blockjit import ensure_jit
        from repro.workloads.suite import benchmark_suite

        for workload in benchmark_suite():
            ctx = prepare(workload, scale=SCALE)
            for instrumentation in (None, "pep"):
                for cm in ctx.image(instrumentation).code.values():
                    ensure_jit(cm)
        self.cells = self.job_list()
        self.config_of = {
            cell.index: cell.config_spec["name"] for cell in self.cells
        }

    def run_pass(
        self, workers: int = FIGURES_WORKERS, tracer=None, probe=None
    ) -> List[Job]:
        """The sweep; a traced run names each cell's job in the engine.

        Cells run in worker processes, so ``probe`` cannot sample between
        them; the runner samples before and after the pass instead.
        """
        from repro.engine import ExperimentPool

        results = ExperimentPool(jobs=workers, retries=0).run(self.cells)
        jobs = []
        for result in results:
            key = f"{result.workload}|{result.config}"
            if result.ok:
                metrics = result.metrics
                jobs.append(Job(
                    key, result.duration, metrics["cycles"], metrics["digest"],
                    stats={"samples": metrics["samples_taken"]},
                ))
            else:
                jobs.append(Job(
                    key, result.duration,
                    error=f"{result.error_type}: {result.error}",
                ))
        return jobs

    def verify(self, jobs: List[Job]) -> List[Job]:
        """Completed jobs whose digest differs from the pinned one."""
        digests = reference.load_digests(self.name, SCALE)
        return [
            j for j in jobs if j.error is None and digests.get(j.key) != j.check
        ]


class Adaptive:
    name = "adaptive"
    reference_seconds = 0.0  # its reference is a pinned file

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.programs: Dict = {}
        self.jobs: List[tuple] = []

    def job_list(self) -> List[tuple]:
        """``(program, config name, trial, jitter seed)`` per job."""
        from repro.workloads.suite import benchmark_suite

        rng = random.Random(f"adaptive:{self.seed}")
        jobs = []
        for workload in benchmark_suite():
            for trial in range(ADAPTIVE_TRIALS):
                jitter_seed = rng.getrandbits(31)
                for config in ("stock", "pep"):
                    jobs.append((workload.name, config, trial, jitter_seed))
        return jobs

    def setup(self) -> None:
        import repro.adaptive.controller  # noqa: F401 - set-up, not job 1
        from repro.workloads.suite import benchmark_suite

        self.programs = {
            w.name: (w, w.build(SCALE)) for w in benchmark_suite()
        }
        self.jobs = self.job_list()

    def run_pass(self, workers: int = 1, tracer=None, probe=None) -> List[Job]:
        """All jobs in order; ``probe`` samples machine speed between jobs."""
        from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
        from repro.sampling.arnold_grove import SamplingConfig
        from repro.vm.costs import CostModel
        from repro.vm.superblock import is_kpath

        records = []
        for number, (name, config_name, trial, jitter_seed) in enumerate(
            self.jobs
        ):
            workload, program = self.programs[name]
            key = f"{name}|{config_name}|{trial}"
            if probe is not None:
                probe.between_jobs()
            if tracer is not None:
                tracer.job = number
            start = time.perf_counter()
            try:
                config = (
                    AdaptiveConfig(pep=SamplingConfig(64, 17))
                    if config_name == "pep"
                    else AdaptiveConfig()
                )
                system = AdaptiveSystem(
                    program, costs=CostModel(), config=config
                )
                vm = system.make_vm(
                    NOMINAL_TICK * SCALE / workload.ticks_target,
                    tick_jitter=ADAPTIVE_TICK_JITTER,
                    jitter_seed=jitter_seed,
                )
                result = vm.run()
            except Exception as exc:  # a failed job is counted, not fatal
                records.append(
                    Job(key, time.perf_counter() - start, error=_error(exc))
                )
                continue
            finally:
                if tracer is not None:
                    tracer.job = None
            seconds = time.perf_counter() - start
            paths = [entry[2] for entry in system.superblock_log]
            records.append(Job(
                key, seconds, result.cycles,
                reference.output_digest(vm.output, result.return_value),
                stats={
                    "recompilations": len(system.compile_log),
                    "trace_installs": sum(1 for p in paths if not is_kpath(p)),
                    "ktrace_installs": sum(1 for p in paths if is_kpath(p)),
                    "warm_installs": len(system.warmjit_log),
                },
            ))
        return records

    def verify(self, jobs: List[Job]) -> List[Job]:
        """Completed jobs whose output differs from their program's pinned one."""
        digests = reference.load_digests(self.name, SCALE)
        return [
            j for j in jobs
            if j.error is None and digests.get(j.key.split("|")[0]) != j.check
        ]


class Generated:
    name = "generated"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(f"generated:{seed}")
        self._used: set = set()
        self.batch: List = []
        # Reference output digest per drawn program, and the time the
        # reference runs took (not set-up time).
        self.expected: Dict[str, str] = {}
        self.reference_seconds = 0.0

    def next_seed(self) -> int:
        """The next program seed: distinct across the whole run."""
        while True:
            seed = self._rng.getrandbits(32)
            if seed not in self._used:
                self._used.add(seed)
                return seed

    def make_batch(self) -> None:
        """Draw the programs of a pass, band by band.

        Each candidate's reference run gives both its band and the
        output its profiled run must reproduce.
        """
        import math

        from repro.errors import FuelExhaustedError
        from repro.vm.costs import CostModel
        from repro.workloads import generator

        spec = generator.GeneratorSpec(n_helpers=3, work_budget=400)
        costs = CostModel()
        bands: Dict[tuple, List] = {band: [] for band in GENERATED_BANDS}
        while any(len(b) < GENERATED_PER_BAND for b in bands.values()):
            program = generator.random_program(self.next_seed(), spec)
            start = time.perf_counter()
            try:
                cycles, digest = reference.baseline_run(
                    program, costs, GENERATED_FUEL
                )
            except FuelExhaustedError:
                continue
            finally:
                self.reference_seconds += time.perf_counter() - start
            level = math.log10(max(cycles, 1.0))
            for (low, high), members in bands.items():
                if low <= level < high and len(members) < GENERATED_PER_BAND:
                    members.append(program)
                    self.expected[program.name] = digest
                    break
        self.batch = [p for members in bands.values() for p in members]
        self._rng.shuffle(self.batch)

    def setup(self) -> None:
        import repro.api  # noqa: F401 - set-up, not job 1

        self.make_batch()

    def run_pass(self, workers: int = 1, tracer=None, probe=None) -> List[Job]:
        """The batch in order; ``probe`` samples machine speed between jobs."""
        from repro import api

        records = []
        for number, program in enumerate(self.batch):
            if probe is not None:
                probe.between_jobs()
            if tracer is not None:
                tracer.job = number
            start = time.perf_counter()
            try:
                report = api.profile(program)
            except Exception as exc:  # a failed job is counted, not fatal
                job = Job(program.name, time.perf_counter() - start,
                          error=_error(exc))
            else:
                job = Job(
                    program.name,
                    time.perf_counter() - start,
                    report.base_cycles + report.result.cycles,
                    reference.output_digest(
                        report.result.output, report.result.return_value
                    ),
                )
            finally:
                if tracer is not None:
                    tracer.job = None
            records.append(job)
        return records

    def verify(self, jobs: List[Job]) -> List[Job]:
        """Completed jobs whose output differs from the tuple interpreter's."""
        return [
            j for j in jobs
            if j.error is None and self.expected.get(j.key) != j.check
        ]


WORKLOADS = {cls.name: cls for cls in (Figures, Adaptive, Generated)}

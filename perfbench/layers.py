"""Per-layer metrics: which entry points are traced, and what is derived.

Every metric is reported on every workload; a layer that a workload
bypasses reads 0 there.  Counts and ``*_us``/``*_ms`` totals are per
traced pass, averaged over the traced passes of the run (set-up for
``build.ms`` and ``replay.*``).  Which end-to-end
metric each one should move is in ``perfbench/interaction.json``.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

from perfbench.measure import median, slope
from perfbench.tracer import END, JOB, NAME, START, Tracer, self_times

#: name -> unit, in report order.
UNITS = {
    "exec.base_ns_per_vcycle": "ns",
    "exec.instr_ns_per_vcycle": "ns",
    "blockjit.compiles": "count",
    "blockjit.compile_us": "us",
    "blockjit.source_kb": "KiB",
    "sampler.samples": "count",
    "sampler.tick_us": "us",
    "sampler.sample_ns": "ns",
    "kblpp.windows": "count",
    "reconstruct.calls": "count",
    "reconstruct.us": "us",
    "optimize.calls": "count",
    "optimize.us": "us",
    "codecache.hits": "count",
    "codecache.misses": "count",
    "codecache.hit_ratio": "ratio",
    "codecache.fingerprint_us": "us",
    "replay.advice_ms": "ms",
    "replay.compile_ms": "ms",
    "controller.sample_us": "us",
    "controller.recompilations": "count",
    "controller.trace_installs": "count",
    "controller.warm_installs": "count",
    "controller.ktrace_installs": "count",
    "tracefast.compiles": "count",
    "tracefast.compile_us": "us",
    "tracefast.source_kb": "KiB",
    "pgo.inline_sites": "count",
    "engine.busy_frac": "ratio",
    "engine.idle_ms_per_cell": "ms",
    "persist.digest_ms": "ms",
    "build.ms": "ms",
    "health.degradations": "count",
    "trace.overhead_pct": "%",
}


def _record_run(span, _state, result, vm, *_args, **_kwargs) -> None:
    span.extend(
        (result.cycles, result.samples_taken, vm.kpath_profile.total_samples())
    )


def _record_jit(span, _state, _result, cm, *_args, **_kwargs) -> None:
    span.append(len(cm.jit_source or ""))


def _record_install(span, before, _result, cm, *_args, **_kwargs) -> None:
    if cm.sb_source is not None and cm.sb_source is not before:
        span.append(len(cm.sb_source))


def _record_cache(span, _state, result, *_args, **_kwargs) -> None:
    span.append(0 if result is None else 1)


def _record_advice(span, _state, result, *_args, **_kwargs) -> None:
    span.append(len(result or ()))


#: Modules that ``from``-import a traced function; loaded before
#: wrapping so that :meth:`Tracer.install` finds and rebinds those names.
_IMPORTERS = (
    "repro.api",
    "repro.engine.pool",
    "repro.engine.supervisor",
    "repro.harness.experiment",
    "repro.profiling.kpaths",
    "repro.vm.pgo",
    "repro.vm.superblock",
)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the metrics cover."""
    from repro import persist
    from repro.adaptive import optimizing, replay
    from repro.adaptive.controller import AdaptiveSystem
    from repro.engine import cells
    from repro.profiling import regenerate
    from repro.resilience.health import HealthReport
    from repro.sampling.arnold_grove import ArnoldGroveSampler
    from repro.vm import blockjit, codecache, pgo, tracefast
    from repro.vm.runtime import VirtualMachine
    from repro.workloads import generator
    from repro.workloads.suite import Workload

    for name in _IMPORTERS:
        importlib.import_module(name)
    tracer.install(Workload, "build", "build")
    tracer.install(generator, "random_program", "build")
    tracer.install(replay, "record_advice", "replay.advice")
    tracer.install(replay, "replay_compile", "replay.compile")
    tracer.install(
        blockjit, "ensure_jit", "blockjit.compile",
        when=lambda cm: cm.jit_entries is None, after=_record_jit,
    )
    tracer.install(
        tracefast, "install_tracefast", "tracefast.install",
        before=lambda cm, *a, **k: cm.sb_source, after=_record_install,
    )
    tracer.install(regenerate, "reconstruct_path", "reconstruct")
    tracer.install(optimizing, "optimize_method", "optimize")
    tracer.install(
        codecache.CompilationCache, "get", "codecache.get", after=_record_cache
    )
    tracer.install(codecache, "optimize_key", "codecache.fingerprint")
    tracer.install(codecache, "baseline_key", "codecache.fingerprint")
    tracer.install(
        pgo, "compute_inline_advice", "pgo.advice", after=_record_advice
    )
    tracer.install(ArnoldGroveSampler, "on_tick", "sampler.tick")
    tracer.install(AdaptiveSystem, "on_method_sample", "controller.sample")
    tracer.install(VirtualMachine, "run", "vm.run", after=_record_run)
    tracer.install(persist, "payload_checksum", "persist.digest")
    tracer.install(HealthReport, "record_degradation", "health.degradation")
    tracer.install(
        cells, "run_cell", "engine.cell", job_of=lambda spec: spec.index
    )


class LayerReport:
    """Collects the inputs of the per-layer metrics over one traced run."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.metrics: Dict[str, float] = {name: 0.0 for name in UNITS}

    def setup_done(self) -> None:
        """Read the set-up totals; call once set-up has finished."""
        totals = self.tracer.totals(job_spans=False)
        m = self.metrics
        m["build.ms"] = totals.get("build", [0, 0.0, 0.0])[1] * 1e3
        m["replay.advice_ms"] = totals.get("replay.advice", [0, 0.0, 0.0])[1] * 1e3
        m["replay.compile_ms"] = totals.get("replay.compile", [0, 0.0, 0.0])[1] * 1e3

    def traced_passes_done(self, jobs, passes: int) -> None:
        """Derive job-time metrics from the spans of ``passes`` traced passes."""
        m = self.metrics
        spans = self.tracer.spans
        totals = self.tracer.totals(job_spans=True)

        def calls(name: str) -> float:
            return totals.get(name, [0, 0.0, 0.0])[0]

        def self_us(name: str) -> float:
            return totals.get(name, [0, 0.0, 0.0])[2] * 1e6

        def job_spans(name: str) -> List[list]:
            return [s for s in spans if s[NAME] == name and s[JOB] is not None]

        jit = job_spans("blockjit.compile")
        installs = job_spans("tracefast.install")
        runs = job_spans("vm.run")
        digests = job_spans("persist.digest")
        lookups = job_spans("codecache.get")
        hits = sum(s[JOB + 1] for s in lookups)
        misses = len(lookups) - hits
        per_pass = {
            "blockjit.compiles": float(len(jit)),
            "blockjit.compile_us": self_us("blockjit.compile"),
            "blockjit.source_kb": sum(s[JOB + 1] for s in jit) / 1024.0,
            "sampler.samples": float(sum(s[JOB + 2] for s in runs)),
            "sampler.tick_us": totals.get("sampler.tick", [0, 0.0, 0.0])[1] * 1e6,
            "kblpp.windows": float(sum(s[JOB + 3] for s in runs)),
            "reconstruct.calls": calls("reconstruct"),
            "reconstruct.us": self_us("reconstruct"),
            "optimize.calls": calls("optimize"),
            "optimize.us": self_us("optimize"),
            "codecache.hits": float(hits),
            "codecache.misses": float(misses),
            "codecache.fingerprint_us": self_us("codecache.fingerprint"),
            "controller.sample_us": self_us("controller.sample"),
            "tracefast.compiles": float(sum(1 for s in installs if len(s) > JOB + 1)),
            "tracefast.compile_us": self_us("tracefast.install"),
            "tracefast.source_kb": sum(
                s[JOB + 1] for s in installs if len(s) > JOB + 1
            ) / 1024.0,
            "health.degradations": calls("health.degradation"),
            "pgo.inline_sites": float(
                sum(s[JOB + 1] for s in job_spans("pgo.advice"))
            ),
        }
        for stat, metric in (
            ("recompilations", "controller.recompilations"),
            ("trace_installs", "controller.trace_installs"),
            ("warm_installs", "controller.warm_installs"),
            ("ktrace_installs", "controller.ktrace_installs"),
        ):
            per_pass[metric] = float(sum(j.stats.get(stat, 0) for j in jobs))
        m.update({name: value / passes for name, value in per_pass.items()})
        m["codecache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["persist.digest_ms"] = (
            sum(s[END] - s[START] for s in digests) * 1e3 / len(digests)
            if digests else 0.0
        )

    def exec_cost(self, config_of: Dict[int, str]) -> None:
        """ns per virtual cycle of Base and instrumentation-only cells.

        Taken from the traced passes' ``vm.run`` self time: those cells
        have no sampler, and their code was generated during set-up, so
        no traced call sits inside their runs.
        """
        spans = self.tracer.spans
        selves = self_times(spans)
        for config, metric in (
            ("Base", "exec.base_ns_per_vcycle"),
            ("PEP instrumentation", "exec.instr_ns_per_vcycle"),
        ):
            seconds = cycles = 0.0
            for span, own in zip(spans, selves):
                if span[NAME] == "vm.run" and config_of.get(span[JOB]) == config:
                    seconds += own
                    cycles += span[JOB + 1]
            self.metrics[metric] = seconds * 1e9 / cycles if cycles else 0.0

    def engine(self, jobs, wall: float, workers: int) -> None:
        """Busy fraction and idle time of the untraced parallel pass."""
        busy = sum(j.seconds for j in jobs)
        capacity = workers * wall
        self.metrics["engine.busy_frac"] = busy / capacity
        self.metrics["engine.idle_ms_per_cell"] = (
            (capacity - busy) * 1e3 / len(jobs)
        )

    def sample_cost(self, jobs) -> None:
        """ns per sample: slope of cell time on samples, per program.

        Uses the untraced passes' PEP(N,17) cells, whose sample counts
        differ by up to 64x on the same program and image; the median
        over programs is reported.
        """
        by_program: Dict[str, List[tuple]] = {}
        for job in jobs:
            program, config = job.key.split("|")
            if config.startswith("PEP(") and config.endswith(",17)") and job.error is None:
                by_program.setdefault(program, []).append(
                    (job.stats["samples"], job.seconds)
                )
        slopes = [
            slope([p[0] for p in points], [p[1] for p in points])
            for points in by_program.values()
            if len({p[0] for p in points}) > 1
        ]
        self.metrics["sampler.sample_ns"] = median(slopes) * 1e9 if slopes else 0.0

    def overhead(self, untraced: float, traced: float) -> None:
        """Traced over untraced cost of the same passes, in percent."""
        self.metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0

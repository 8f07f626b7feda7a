"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up,
then whole passes of the workload's job list until ``--seconds`` have
passed, then the reference checks,
then three cold set-ups in fresh processes for ``setup_s``.  Times are
scaled to a reference machine speed by short speed probes timed between
jobs (see ``perfbench.measure.SpeedProbe``); the unscaled wall-clock
figures are printed too.

``--trace 1`` alternates two untraced and two traced passes of the same
jobs (``figures`` adds one parallel pass for the engine metrics) and
reports the per-layer metrics and the tracing overhead; ``figures``
traces with one in-process worker, so every call is visible.
Both modes time a fixed pure-Python calibration loop before and after.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a
traced run and a report of every run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: name -> unit of the end-to-end metrics, in report order.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "vcycles_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "adaptive", "generated"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the ready marker, exit")
    return parser.parse_args(argv)


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program sources at {src}; run from a checkout "
            "of the repository\n"
        )
        raise SystemExit(2)
    sys.path[:0] = [ROOT, src]
    import repro  # noqa: F401 - part of the timed set-up


def _run_pass(workload, tracer=None, workers=None, probe=None):
    """One pass from empty process-wide caches: ``(jobs, wall seconds)``.

    The wall time leaves out the time ``probe`` spent sampling.
    """
    from perfbench.workloads import fresh_caches

    fresh_caches()
    probing = probe.seconds if probe is not None else 0.0
    start = time.perf_counter()
    jobs = workload.run_pass(workers=workers, tracer=tracer, probe=probe)
    wall = time.perf_counter() - start
    if probe is not None:
        wall -= probe.seconds - probing
    return jobs, wall


def _failures(workload, jobs):
    """Jobs that raised or disagree with the reference."""
    return [j for j in jobs if j.error is not None] + workload.verify(jobs)


def _metrics(passes, scale: bool) -> dict:
    """End-to-end metrics of ``(jobs, wall, factor)`` passes.

    With ``scale`` every time is multiplied by its pass's speed factor,
    so the figures are those of the reference machine; without, they
    are plain wall-clock figures.
    """
    from perfbench.measure import geometric_mean, median, percentile

    rates, durations, cycle_rates = [], [], []
    for jobs, wall, factor in passes:
        factor = factor if scale else 1.0
        rates.append(sum(1 for j in jobs if j.error is None) / (wall * factor))
        durations += [j.seconds * factor * 1e3 for j in jobs]
        cycle_rates += [
            j.cycles / (j.seconds * factor) for j in jobs if j.error is None
        ]
    return {
        "jobs_per_s": median(rates),
        "vcycles_per_s": geometric_mean(cycle_rates),
        "job_ms_p50": percentile(durations, 0.5),
        "job_ms_p90": percentile(durations, 0.9),
    }


def measure(workload, seconds: float) -> dict:
    """The end-to-end metrics of whole passes filling ``seconds``.

    Each pass is bracketed by speed probes, and in-process workloads
    also probe between jobs; the median probe time of a pass gives the
    factor that scales its times to the reference machine.
    ``jobs_per_s`` is the median over passes, so a burst of machine load
    that slows one pass does not move it.  ``vcycles_per_s`` is the
    geometric mean over jobs of each job's guest cycles per second:
    guest work per program is heavy-tailed (a few ``generated``
    programs run most of the cycles), so a ratio of totals, or the
    median job, would measure which programs the seed drew rather than
    how fast they ran.
    """
    from perfbench.measure import EDGE_PROBES, SpeedProbe, peak_rss_mb
    from perfbench.workloads import FIGURES_WORKERS

    passes, wall = [], 0.0
    while not passes or wall < seconds:
        probe = SpeedProbe()
        probe.sample(EDGE_PROBES)
        pass_jobs, pass_wall = _run_pass(
            workload, workers=FIGURES_WORKERS, probe=probe
        )
        probe.sample(EDGE_PROBES)
        passes.append((pass_jobs, pass_wall, probe.factor()))
        wall += pass_wall
    metrics = _metrics(passes, scale=True)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "jobs": [j for pass_jobs, _, _ in passes for j in pass_jobs],
        "passes": len(passes),
        "pass_factors": [factor for _, _, factor in passes],
        "wall": wall,
        "wall_clock": _metrics(passes, scale=False),
        "metrics": metrics,
    }


def traced_run(workload) -> dict:
    """Per-layer metrics from traced passes, and the tracing overhead.

    Traced and untraced passes alternate untraced, traced, traced,
    untraced, all with one in-process worker, so a steady drift in
    machine speed cancels out of the overhead.  ``figures`` measures
    cost as the sum of cell durations, the others as pass wall time.
    ``figures`` first runs one parallel pass for the engine metrics.
    """
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import FIGURES_WORKERS

    tracer = Tracer()
    report = layers.LayerReport(tracer)
    layers.install(tracer)
    workload.setup()
    tracer.uninstall()
    report.setup_done()

    jobs = []
    if workload.name == "figures":
        parallel, parallel_wall = _run_pass(workload, workers=FIGURES_WORKERS)
        report.engine(parallel, parallel_wall, FIGURES_WORKERS)
        jobs += parallel
    runs = {False: [], True: []}
    cost = {False: 0.0, True: 0.0}
    for traced in (False, True, True, False):
        if traced:
            layers.install(tracer)
        pass_jobs, wall = _run_pass(
            workload, tracer=tracer if traced else None, workers=1
        )
        tracer.uninstall()
        runs[traced] += pass_jobs
        cost[traced] += (
            sum(j.seconds for j in pass_jobs)
            if workload.name == "figures" else wall
        )
        jobs += pass_jobs
    report.traced_passes_done(runs[True], passes=2)
    report.overhead(cost[False], cost[True])
    if workload.name == "figures":
        report.exec_cost(workload.config_of)
        report.sample_cost(runs[False])
    return {"jobs": jobs, "tracer": tracer, "metrics": report.metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench import measure as m
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](seed=args.seed)
    if args.setup_probe:
        workload.setup()
        print(m.SETUP_READY, workload.reference_seconds, flush=True)
        return 0

    calib_before = m.calibration_ms()
    if args.trace:
        from perfbench.layers import UNITS as units

        outcome = traced_run(workload)
    else:
        setup_start = time.perf_counter()
        workload.setup()
        in_process_setup = (
            time.perf_counter() - setup_start - workload.reference_seconds
        )
        outcome = measure(workload, args.seconds)
        units = END_TO_END
    jobs = outcome["jobs"]
    failures = _failures(workload, jobs)
    if not args.trace:
        probes = m.setup_probes(os.path.abspath(__file__), args.workload, args.seed)
        outcome["metrics"]["setup_s"] = m.median(probes)
    calib_after = m.calibration_ms()

    metrics = outcome["metrics"]
    attempted = len(jobs)
    failed = len(failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={attempted}" + (
              f" passes={outcome['passes']} timed={outcome['wall']:.2f}s "
              f"(p90 over {attempted} samples)" if not args.trace else ""))
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<28} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} jobs)")
    if not args.trace:
        print(f"  set-up: cold probes, scaled {', '.join(f'{p:.3f}' for p in probes)} s;"
              f" in-process {in_process_setup:.3f} s (wall clock)")
        print("  wall clock, unscaled: " + ", ".join(
            f"{name} {value:.6g}"
            for name, value in outcome["wall_clock"].items()))
        print("  speed factor per pass: " + " ".join(
            f"{f:.3f}" for f in outcome["pass_factors"]))
    print(f"  calibration loop: before {calib_before:.1f} ms, "
          f"after {calib_after:.1f} ms")
    for job in failures[:10]:
        print(f"  FAILED {job.key}: {job.error or 'differs from the reference'}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    if args.trace:
        outcome["tracer"].dump(stem + ".spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "metrics": metrics, "failures": [j.key for j in failures],
            "pass_factors": outcome.get("pass_factors"),
            "wall_clock": outcome.get("wall_clock"),
            "calibration_ms": {"before": calib_before, "after": calib_after},
        }, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

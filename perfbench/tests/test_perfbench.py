"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import reference, run  # noqa: E402
from perfbench.measure import REFERENCE_PROBE_MS, SpeedProbe, percentile  # noqa: E402
from perfbench.tracer import PARENT, Tracer, self_times  # noqa: E402
from perfbench.workloads import SCALE, Adaptive, Figures, Generated  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["job", 0.0, 10.0, -1, 0],
        ["optimize", 1.0, 4.0, 0, 0],
        ["fingerprint", 2.0, 3.0, 1, 0],
        ["compile", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nests_spans_and_tags_jobs():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda spec: inner(), job_of=lambda spec: spec)
    outer(7)
    inner()
    (o, i, alone) = tracer.spans
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert i[PARENT] == 0 and o[PARENT] == -1 and alone[PARENT] == -1
    assert o[4] == 7 and i[4] == 7 and alone[4] is None
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx((o[2] - o[1]) - (i[2] - i[1]))


def test_install_rebinds_from_imported_names_and_uninstall_restores():
    from repro.profiling import regenerate
    from repro.vm import pgo, superblock

    original = regenerate.reconstruct_path
    tracer = Tracer()
    tracer.install(regenerate, "reconstruct_path", "reconstruct")
    try:
        assert superblock.reconstruct_path is regenerate.reconstruct_path
        assert pgo.reconstruct_path.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert superblock.reconstruct_path is original
    assert regenerate.reconstruct_path is original


def test_p90_is_refused_with_fewer_than_ten_samples_beyond_it():
    assert percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)


def test_speed_factor_scales_times_to_the_reference_machine():
    probe = SpeedProbe()
    probe.samples = [2 * REFERENCE_PROBE_MS] * 3 + [9 * REFERENCE_PROBE_MS]
    assert probe.factor() == pytest.approx(0.5)

    # A pass on a machine running at half the reference speed: every
    # time halves when scaled, every rate doubles.
    from perfbench.workloads import Job

    jobs = [Job(f"j{i}", 0.002 * (i + 1), cycles=1000.0) for i in range(120)]
    wall = sum(j.seconds for j in jobs)
    plain = run._metrics([(jobs, wall, 0.5)], scale=False)
    scaled = run._metrics([(jobs, wall, 0.5)], scale=True)
    assert scaled["jobs_per_s"] == pytest.approx(2 * plain["jobs_per_s"])
    assert scaled["vcycles_per_s"] == pytest.approx(2 * plain["vcycles_per_s"])
    assert scaled["job_ms_p50"] == pytest.approx(plain["job_ms_p50"] / 2)
    assert scaled["job_ms_p90"] == pytest.approx(plain["job_ms_p90"] / 2)


def test_same_seed_gives_the_same_job_lists():
    def cells(seed):
        return [(c.index, c.workload, c.seed) for c in Figures(seed).job_list()]

    assert cells(3) == cells(3)
    assert Adaptive(3).job_list() == Adaptive(3).job_list()
    assert Adaptive(3).job_list() != Adaptive(4).job_list()

    def programs(seed):
        workload = Generated(seed)
        workload.make_batch()
        return [p.name for p in workload.batch]

    assert programs(3) == programs(3)
    assert programs(3) != programs(4)


@pytest.fixture(scope="module")
def figures():
    workload = Figures(seed=1)
    workload.setup()
    return workload


def _pingpong_pass(workload, seed):
    workload.cells = [
        c for c in Figures(seed).job_list() if c.workload == "pingpong"
    ]
    return workload.run_pass(workers=1)


def test_other_seed_reorders_figures_with_identical_digests(figures):
    first = [c.index for c in Figures(1).job_list()]
    second = [c.index for c in Figures(2).job_list()]
    assert first != second and sorted(first) == sorted(second)
    a = {j.key: j.check for j in _pingpong_pass(figures, 1)}
    b = {j.key: j.check for j in _pingpong_pass(figures, 2)}
    assert len(a) == 7 and a == b
    pinned = reference.load_digests("figures", SCALE)
    assert all(pinned[key] == digest for key, digest in a.items())


def test_corrupted_expected_digest_raises_error_rate(figures, monkeypatch):
    jobs = _pingpong_pass(figures, 1)
    assert run._failures(figures, jobs) == []

    expected = reference.load_expected("figures")
    corrupted = dict(expected, digests=dict(expected["digests"]))
    corrupted["digests"]["pingpong|Base"] = "0" * 64
    monkeypatch.setattr(reference, "load_expected", lambda name: corrupted)
    failures = run._failures(figures, jobs)
    assert [j.key for j in failures] == ["pingpong|Base"]
    assert len(failures) / len(jobs) > 0

"""The sampling datapath against pinned oracle values, and the flat tables.

There is one sampling datapath (DESIGN.md §10): countdown yieldpoints,
dense profile tables, and a run-length-encoded sample buffer that the
sampler's drain applies to the path and edge tables, in resilient runs
as in plain ones.  The values pinned below were recorded while the
retired sample-at-a-time datapath still existed, and both datapaths
produced them identically on the tuple interpreter and on blockjit: the
17-workload PEP(64,17) cells, and fault-plan runs (``api.profile`` and
``api.profile_adaptive``) that hit all three sampler fault sites plus
the K-strikes path disable.  The flat tables' dict-shaped API is
exercised directly at the end.
"""

import hashlib
import json

import pytest

from repro.bytecode.method import BranchRef
from repro.profiling.edges import EdgeProfile
from repro.profiling.paths import DENSE_PATH_CAP, PathProfile
from repro.workloads.suite import benchmark_suite

from tests.test_adaptive_system import hot_loop_program

ALL_WORKLOADS = [w.name for w in benchmark_suite()]

# -- pinned oracle values ----------------------------------------------------
#
# Cells: (digest, cycles, ticks, samples taken, strides skipped) of
# ``measure_cell(workload, 0.5, PEP(64,17), seed=7)``.  Fault runs: the
# HealthReport, path dict, and edge dict as 16-hex-digit SHA-256
# prefixes of their canonical JSON (see ``_canon``), plus the cycle
# count's repr and the program output.

PINNED_CELLS = {
    "antlr": (
        "4b08166fa7a0026737e1ad00224a3bd5a888e4e7b8f9fbc62c46e82db0eb5f63",
        148200.24389648438, 74, 4672, 558,
    ),
    "bloat": (
        "39712360540728e29e844cf875c608b0e254a7108f61568e77547c8663281957",
        141081.546875, 91, 658, 55,
    ),
    "compress": (
        "43ddb3a0af0a21236ceb41b002eb58f9ac32b2b634891c90347d4e0728c95887",
        106663.48681640625, 104, 1984, 227,
    ),
    "db": (
        "80eb455c9963197e80ecdef7912b0279068269bc5a4e4502ecba62d76f584ab7",
        177460.27282714844, 99, 3153, 392,
    ),
    "fop": (
        "f6f1b56ae34777e01568dd40041567bac1d7a9c6511b06a61a7974aa3f00ad16",
        142912.3515625, 74, 4682, 559,
    ),
    "jack": (
        "853918de850f0f33144e5c826ae32e6be1e9a49f1758f15abea6f651b8d0e2b0",
        93541.328125, 45, 512, 28,
    ),
    "javac": (
        "0aa5460f8d41ef2a59b02930137ed3c1ab96f42cc3487833cfebfac56c81c5b4",
        102163.53125, 92, 1453, 151,
    ),
    "jess": (
        "06efe7b5195c9d38e0d5c1238c871ecb81674cb2c68cf63c140ba1bd5f197c10",
        156160.734375, 86, 752, 66,
    ),
    "mpegaudio": (
        "f8a6d9b59a8c08406daed970a26fee655e93632dd1ebc8848bf96d202a850062",
        246898.90869140625, 96, 2045, 241,
    ),
    "mtrt": (
        "d74d784284f3fac720ab6360bf014bd5b50fcfad8a0dc9882abb41561ab27a47",
        135482.2890625, 86, 1934, 227,
    ),
    "pingpong": (
        "62eb7264c2164c09ad8151e1e72a877affbed4b936216d1a1a824bf77c180a3a",
        48920.529052734375, 75, 1593, 164,
    ),
    "pmd": (
        "0972363888ec2ff223d208483746765f6df2e97d0495968208df5e204e6a4f6d",
        95053.7421875, 76, 465, 28,
    ),
    "ps": (
        "6b580bb37a5185db295be14bf2193321c6d5313cd54393c972a247f3e00515c8",
        148430.42431640625, 91, 768, 77,
    ),
    "pseudojbb": (
        "450d7a003d2ff732ac68650fb96b6ec050bc4496388ff0fa8eecd301c74e9a66",
        111498.2890625, 117, 960, 112,
    ),
    "seesaw": (
        "1d9ae93f11ea414a4a12ad2ed99f211ef1b36832825df998f6a08aa644b08ab3",
        62738.94689941406, 74, 1608, 172,
    ),
    "xalan": (
        "f1ae7be6fb5133af97e8e0e723cd02bc315a1849539be05430a3ce49c7b72cff",
        113661.3203125, 92, 1835, 202,
    ),
    "zigzag": (
        "e518feeee3bbeec70bc83b1b958bc2e85d35c571127d552fda4c40ba118d6446",
        60411.54138183594, 74, 1664, 172,
    ),
}

PINNED_PROFILE = {
    "kstrikes": {
        "cycles": "130506.9296875",
        "output": [1600],
        "health": "5fea6c7278076bdd",
        "faults": {"path-reconstruct": 3},
        "path_disabled": ["main"],
        "paths": "22e152cab4ac2cfa",
        "edges": "c108c3b901a3168f",
    },
    "mixed": {
        "cycles": "130508.4921875",
        "output": [1600],
        "health": "70e35c0ec38365cc",
        "faults": {"path-reconstruct": 1, "path-table": 429, "sample": 545},
        "path_disabled": [],
        "paths": "aaba792bf5a4c13a",
        "edges": "747620bf3d64bc5f",
    },
}

PINNED_ADAPTIVE = {
    "compress/kstrikes": {
        "cycles": "402498.5",
        "output": [701447],
        "health": "2eafce70a26ff4db",
        "faults": {"path-reconstruct": 3},
        "path_disabled": ["compress_chunk"],
        "paths": "a814dbcddb5a58ef",
        "edges": "270e28e1cde521cb",
    },
    "compress/mixed": {
        "cycles": "402505.53125",
        "output": [701447],
        "health": "7825b283a7271edc",
        "faults": {"path-reconstruct": 2, "path-table": 122, "sample": 160},
        "path_disabled": [],
        "paths": "907c4ce4aec0e7ac",
        "edges": "11fb3566976fbd6e",
    },
    "db/kstrikes": {
        "cycles": "785620.0576171875",
        "output": [350527],
        "health": "0aa5c328340fbbfe",
        "faults": {"path-reconstruct": 6},
        "path_disabled": ["lookup", "db_chunk"],
        "paths": "af23f314ace48393",
        "edges": "f8eeee1f27db71b3",
    },
    "db/mixed": {
        "cycles": "780955.8493652344",
        "output": [350527],
        "health": "50895ac759d0f007",
        "faults": {"path-reconstruct": 8, "path-table": 238, "sample": 311},
        "path_disabled": ["db_chunk"],
        "paths": "976c8ef33c993e35",
        "edges": "ee1160eaf17f6101",
    },
    "jess/kstrikes": {
        "cycles": "699832.2670898438",
        "output": [539901],
        "health": "3b325ae50db3671e",
        "faults": {"path-reconstruct": 3},
        "path_disabled": ["jess_chunk"],
        "paths": "45c0f8baf35a4fd5",
        "edges": "fd7d3eebdf81a7c4",
    },
    "jess/mixed": {
        "cycles": "689828.6108398438",
        "output": [539901],
        "health": "e955aafba22a8eaf",
        "faults": {"path-reconstruct": 8, "path-table": 11, "sample": 8},
        "path_disabled": ["jess_chunk"],
        "paths": "3588d91458883b4c",
        "edges": "e2d88933dee20350",
    },
    "mtrt/kstrikes": {
        "cycles": "592740.3151855469",
        "output": [12824],
        "health": "d282367cb14b64a5",
        "faults": {"path-reconstruct": 8, "path-table": 3, "sample": 2},
        "path_disabled": ["mtrt_chunk", "trace"],
        "paths": "8e5fd539c62f45f0",
        "edges": "64a71dc2a899b5c0",
    },
    "mtrt/mixed": {
        "cycles": "579485.4141845703",
        "output": [12824],
        "health": "461dd2a1318b801d",
        "faults": {"path-reconstruct": 20, "path-table": 87, "sample": 124},
        "path_disabled": [],
        "paths": "f5c33f5ac88173a5",
        "edges": "ab7f66ccfc2b3e98",
    },
}

#: Fault plans as (rates, seed).  "kstrikes" fails most first
#: expansions, so three consecutive failures disable a method's path
#: profiling early; "mixed" spreads faults over all three sites.
FAULT_PLANS = {
    "mixed": ({"sample": 0.2, "path-reconstruct": 0.2, "path-table": 0.2}, 9),
    "kstrikes": (
        {"sample": 0.1, "path-reconstruct": 0.8, "path-table": 0.1}, 3
    ),
}

ADAPTIVE_WORKLOADS = ("compress", "db", "jess", "mtrt")


def _canon(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cell(workload: str, scale: float = 0.5):
    from repro.harness.experiment import (
        config_to_spec,
        measure_cell,
        pep_config,
    )

    spec = config_to_spec(pep_config(64, 17))
    metrics = measure_cell(workload, scale, spec, seed=7)
    return (
        metrics["digest"],
        metrics["cycles"],
        metrics["ticks"],
        metrics["samples_taken"],
        metrics["strides_skipped"],
    )


def _fault_summary(report) -> dict:
    from repro.persist import edge_profile_to_dict, path_profile_to_dict

    health = report.health.to_dict()
    return {
        "cycles": repr(report.result.cycles),
        "output": list(report.result.output),
        "health": _canon(health),
        "faults": health["faults"],
        "path_disabled": health["path_disabled"],
        "paths": _canon(path_profile_to_dict(report.paths)),
        "edges": _canon(edge_profile_to_dict(report.edges)),
    }


def _plan(name: str):
    from repro.resilience import FaultPlan

    rates, seed = FAULT_PLANS[name]
    return FaultPlan(rates, seed=seed)


def test_pins_cover_the_whole_suite():
    assert sorted(PINNED_CELLS) == sorted(ALL_WORKLOADS)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_datapath_parity(workload):
    """Every workload's PEP(64,17) cell matches its pinned values."""
    assert _cell(workload) == PINNED_CELLS[workload]


def _profile_summary(plan: str) -> dict:
    from repro import api

    report = api.profile(
        hot_loop_program(4000), samples=16, stride=5, ticks=150,
        fault_plan=_plan(plan),
    )
    return _fault_summary(report)


def test_fault_injection_parity():
    """A resilient ``api.profile`` run matches its pinned fault sequence,
    HealthReport, cycles, and profiles exactly."""
    assert _profile_summary("mixed") == PINNED_PROFILE["mixed"]


def test_kstrikes_path_disable_pins():
    """Path-disabled is decided before the ``sample`` site: once K
    strikes disable ``main``, its samples never reach the other sites."""
    assert _profile_summary("kstrikes") == PINNED_PROFILE["kstrikes"]


@pytest.mark.parametrize("workload", ADAPTIVE_WORKLOADS)
@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
def test_adaptive_fault_plan_pins(workload, plan):
    from repro import api
    from repro.workloads.suite import get_workload

    program = get_workload(workload).build(0.3)
    report = api.profile_adaptive(
        program, samples=16, stride=5, ticks=120, fault_plan=_plan(plan)
    )
    assert _fault_summary(report) == PINNED_ADAPTIVE[f"{workload}/{plan}"]


def test_fault_pins_exercise_every_sampler_site():
    """The pinned runs are not vacuous: together they fire all three
    sampler fault sites and disable path profiling by K strikes."""
    pinned = list(PINNED_PROFILE.values()) + list(PINNED_ADAPTIVE.values())
    fired = set()
    for summary in pinned:
        fired.update(site for site, n in summary["faults"].items() if n)
    assert {"sample", "path-reconstruct", "path-table"} <= fired
    assert any(summary["path_disabled"] for summary in pinned)


# -- one writer --------------------------------------------------------------


@pytest.mark.parametrize(
    "resilient", [False, True], ids=["plain", "resilient"]
)
def test_drain_is_the_only_profile_writer(resilient, monkeypatch):
    """During a sampled PEP run every update of ``vm.path_profile`` and
    ``vm.edge_profile`` comes from ``ArnoldGroveSampler._drain``, with or
    without resilience (the k-window shadow table is not watched)."""
    from repro import api
    from repro.sampling.arnold_grove import ArnoldGroveSampler
    from repro.vm.runtime import VirtualMachine

    watched = set()
    state = {"draining": False, "outside": 0, "inside": 0}

    def guarded(original):
        def wrapper(self, *args, **kwargs):
            if id(self) in watched:
                state["inside" if state["draining"] else "outside"] += 1
            return original(self, *args, **kwargs)

        return wrapper

    real_init = VirtualMachine.__init__
    real_drain = ArnoldGroveSampler._drain

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self.sampler is not None:
            watched.update((id(self.path_profile), id(self.edge_profile)))

    def drain(self, vm):
        state["draining"] = True
        try:
            real_drain(self, vm)
        finally:
            state["draining"] = False

    monkeypatch.setattr(VirtualMachine, "__init__", init)
    monkeypatch.setattr(ArnoldGroveSampler, "_drain", drain)
    monkeypatch.setattr(PathProfile, "record", guarded(PathProfile.record))
    for name in ("record", "record_slots"):
        monkeypatch.setattr(
            EdgeProfile, name, guarded(getattr(EdgeProfile, name))
        )
    report = api.profile(
        hot_loop_program(2000), samples=16, stride=5, ticks=100,
        fault_plan=_plan("mixed") if resilient else None,
    )
    assert report.result.samples_taken > 0
    assert state["inside"] > 0
    assert state["outside"] == 0


# -- flat path tables --------------------------------------------------------


def test_dense_path_table_matches_dict_semantics():
    dense = PathProfile()
    dense.ensure_dense("m#v1", 8)
    sparse = PathProfile()
    for path, count in [(0, 1.0), (3, 2.0), (0, 1.0), (7, 5.0)]:
        dense.record("m#v1", path, count)
        sparse.record("m#v1", path, count)
    assert sorted(dense.items()) == sorted(sparse.items())
    assert dense.frequency("m#v1", 0) == 2.0
    assert dense.method_paths("m#v1") == sparse.method_paths("m#v1")
    assert dense.total_samples() == sparse.total_samples()
    assert dense.distinct_paths() == sparse.distinct_paths()


def test_dense_table_is_lazy_and_respects_cap():
    profile = PathProfile()
    profile.ensure_dense("big#v1", DENSE_PATH_CAP + 1)  # stays sparse
    profile.ensure_dense("small#v1", 4)
    # Registration alone creates no method entries: an untouched method
    # must stay invisible to items()/digests.
    assert list(profile.items()) == []
    assert len(profile) == 0
    profile.record("small#v1", 2, 1.0)
    profile.record("big#v1", 123456, 1.0)
    assert profile.frequency("small#v1", 2) == 1.0
    assert profile.frequency("big#v1", 123456) == 1.0


def test_dense_table_demotes_on_irregular_counts():
    profile = PathProfile()
    profile.ensure_dense("m#v1", 4)
    profile.record("m#v1", 1, 1.0)
    profile.record("m#v1", 1, 0.5)  # non-integral -> dict fallback
    profile.record("m#v1", 99, 1.0)  # out of range for the dense size
    assert profile.frequency("m#v1", 1) == 1.5
    assert profile.frequency("m#v1", 99) == 1.0
    assert profile.total_samples() == 2.5


def test_merge_and_copy_across_representations():
    a = PathProfile()
    a.ensure_dense("m#v1", 4)
    a.record("m#v1", 1, 2.0)
    b = PathProfile()  # plain sparse profile
    b.record("m#v1", 1, 3.0)
    b.record("m#v1", 3, 1.0)
    a.merge(b)
    assert a.frequency("m#v1", 1) == 5.0
    assert a.frequency("m#v1", 3) == 1.0
    clone = a.copy()
    clone.record("m#v1", 1, 1.0)
    assert a.frequency("m#v1", 1) == 5.0  # copies do not alias
    clone.clear()
    assert clone.total_samples() == 0.0
    clone.record("m#v1", 2, 1.0)  # dense registration survives clear()
    assert clone.frequency("m#v1", 2) == 1.0


# -- flat edge tables --------------------------------------------------------


def test_edge_slot_recording_matches_record():
    events = [
        (BranchRef("m", 0), True),
        (BranchRef("m", 1), False),
        (BranchRef("m", 0), True),
        (BranchRef("n", 2), False),
    ]
    direct = EdgeProfile()
    slotted = EdgeProfile()
    for branch, taken in events:
        direct.record(branch, taken, 2.0)
    slots = [slotted.slot_for(branch, taken) for branch, taken in events]
    slotted.record_slots(slots, 2.0)
    assert dict(direct.items()) == dict(slotted.items())
    assert direct.total_executions() == slotted.total_executions()


def test_edge_profile_copy_flip_restrict_preserve_counts():
    profile = EdgeProfile()
    left, right = BranchRef("m", 0), BranchRef("m", 1)
    profile.record(left, True, 3.0)
    profile.record(left, False, 1.0)
    profile.record(right, True, 2.0)
    clone = profile.copy()
    clone.record(left, True, 1.0)
    assert profile.arm_count(left, True) == 3.0
    flipped = profile.flipped()
    assert flipped.arm_count(left, True) == 1.0
    assert flipped.arm_count(left, False) == 3.0
    restricted = profile.restricted_to([right])
    assert list(restricted.branches()) == [right]
    assert restricted.arm_count(right, True) == 2.0

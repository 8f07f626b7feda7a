"""Reference outputs the benchmark checks every job against.

``figures`` and ``adaptive`` compare against pinned files in
``perfbench/expected/``, produced by the tuple interpreter
(``REPRO_BLOCKJIT=0``, which also keeps the adaptive controller from
forming traces) rather than by the code generators under test.
Regenerate them with::

    python3 perfbench/reference.py

``generated`` programs are new on every seed, so each one is checked
against a tuple-interpreter run of its baseline-compiled code, made when
the program is drawn, outside the timed section.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")


def output_digest(output, return_value) -> str:
    """SHA-256 of a run's observable result (emitted values, return)."""
    canonical = json.dumps(
        {"output": list(output), "return_value": return_value},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def load_expected(workload: str) -> Dict:
    with open(expected_path(workload)) as fh:
        return json.load(fh)


def load_digests(workload: str, scale: float) -> Dict[str, str]:
    """The pinned digests, refusing a file made at another scale."""
    expected = load_expected(workload)
    if expected.get("scale") != scale:
        raise ValueError(
            f"{expected_path(workload)} was made at scale "
            f"{expected.get('scale')}, not {scale}; regenerate it"
        )
    return expected["digests"]


def baseline_run(program, costs, fuel: int) -> Tuple[float, str]:
    """``(cycles, output digest)`` of baseline code on the tuple interpreter.

    Raises :class:`~repro.errors.FuelExhaustedError` once ``fuel``
    guest instructions have run.
    """
    from repro.adaptive.baseline import compile_baseline
    from repro.vm.runtime import VirtualMachine

    code = {
        method.name: compile_baseline(method, costs)[0]
        for method in program.iter_methods()
    }
    vm = VirtualMachine(code, program.main, costs=costs, blockjit=False)
    result = vm.run(fuel=fuel)
    return result.cycles, output_digest(vm.output, result.return_value)


def _write(workload: str, data: Dict) -> None:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(expected_path(workload), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def regenerate() -> None:
    """Rewrite both expected files from tuple-interpreter runs."""
    os.environ["REPRO_BLOCKJIT"] = "0"
    from perfbench import workloads

    figures = workloads.Figures(seed=0)
    figures.setup()
    records = figures.run_pass(workers=1)
    failed = [r.key for r in records if r.error is not None]
    if failed:
        raise SystemExit(f"figures cells failed: {failed}")
    _write(
        "figures",
        {
            "scale": workloads.SCALE,
            "digests": {r.key: r.check for r in records},
        },
    )

    adaptive = workloads.Adaptive(seed=0)
    adaptive.setup()
    digests: Dict[str, str] = {}
    for record in adaptive.run_pass():
        if record.error is not None:
            raise SystemExit(f"adaptive job {record.key} failed: {record.error}")
        program = record.key.split("|")[0]
        previous = digests.setdefault(program, record.check)
        if previous != record.check:
            raise SystemExit(f"adaptive jobs of {program} disagree on output")
    _write("adaptive", {"scale": workloads.SCALE, "digests": digests})
    print(f"wrote {expected_path('figures')} and {expected_path('adaptive')}")


if __name__ == "__main__":
    ROOT = os.path.dirname(HERE)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    regenerate()

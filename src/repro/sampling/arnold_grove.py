"""Arnold-Grove sampling, regular and simplified (paper section 4.4).

Timer-based sampling takes one sample per timer tick, at whichever
yieldpoint happens to run first after the tick — too few samples, and
biased toward yieldpoints that align with the timer.  Arnold and Grove fix
both problems: on each tick they take SAMPLES samples at successive
yieldpoints (by leaving the flag set) and *stride*, skipping a rotating
number of yieldpoints, to break the alignment.

The paper's *simplified* variant strides only once per tick — before the
first sample — because in Jikes RVM skipping a sample costs almost as much
as taking one, so striding between every sample is a poor
overhead/accuracy trade-off.

``PEP(SAMPLES, STRIDE)`` from the paper maps to
``SamplingConfig(samples=SAMPLES, stride=STRIDE)``: e.g. PEP(1,1) is
timer-based sampling, PEP(64,17) skips 0-16 yieldpoints after a tick and
then samples 64 consecutive yieldpoints.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.errors import PathReconstructionError, ReproError
from repro.profiling.kpaths import shared_schema
from repro.resilience.manager import ResilienceManager
from repro.vm.interpreter import CompiledMethod
from repro.vm.runtime import VirtualMachine

_IDLE = 0
_STRIDING = 1
_SAMPLING = 2

#: Buffered samples are drained at tick boundaries, burst ends, and run
#: end; the cap only bounds memory if a single burst is pathologically
#: long (SAMPLES far above any tick's yieldpoint count).
_RING_CAP = 8192


class SamplingConfig:
    """A PEP(SAMPLES, STRIDE) sampling configuration."""

    __slots__ = ("samples", "stride", "simplified")

    def __init__(self, samples: int, stride: int, simplified: bool = True) -> None:
        if samples < 1:
            raise ReproError(f"SAMPLES must be >= 1, got {samples}")
        if stride < 1:
            raise ReproError(f"STRIDE must be >= 1, got {stride}")
        self.samples = samples
        self.stride = stride
        self.simplified = simplified

    @property
    def name(self) -> str:
        suffix = "" if self.simplified else ",AG"
        return f"PEP({self.samples},{self.stride}{suffix})"

    def __repr__(self) -> str:
        return f"<SamplingConfig {self.name}>"


class TimerMethodSampler:
    """Raise the flag each tick; take no path samples.

    Used by adaptive runs without PEP: the per-tick method sample (handled
    by the VM's dispatch) still occurs, which is all the adaptive
    controller needs.
    """

    def on_tick(self, vm: VirtualMachine) -> None:
        vm.flag = True

    def on_yieldpoint(
        self,
        vm: VirtualMachine,
        cm: CompiledMethod,
        path_reg: int,
        is_sample_point: bool,
    ) -> float:
        vm.flag = False
        return 0.0


class ArnoldGroveSampler:
    """The PEP yieldpoint handler: stride, sample, record, derive edges.

    Path samples are recorded only at *sample points* (header and exit
    yieldpoints — the locations where full Ball-Larus would run
    count[r]++); other yieldpoints still consume a sampling opportunity,
    as in Arnold-Grove's "successive yieldpoints".  Each recorded path is
    expanded to its branch events to update the edge profile, with the
    expansion memoised so only a path's first sample pays for it
    (section 4.3).

    One datapath (DESIGN.md §10): the yieldpoint only *admits* a sample
    into a run-length-encoded buffer, and :meth:`_drain` is the only
    code that writes the path and edge tables.  Resilient runs make
    their fault-site decisions at the yieldpoint, sample by sample, and
    buffer what they admit exactly like plain runs.
    """

    __slots__ = (
        "config",
        "record_paths",
        "_state",
        "_skip_left",
        "_samples_left",
        "_rotation",
        "_between",
        "_buf_cm",
        "_buf_path",
        "_buf_n",
        "_buf_last_cm",
        "_buf_last_path",
        "_c_sample",
        "_c_stride",
        "_c_expand",
        "k",
        "_kblpp",
        "_kschema",
        "_kwin",
        "_kwin_vm",
    )

    def __init__(
        self,
        config: SamplingConfig,
        record_paths: bool = True,
        k: Optional[int] = None,
    ) -> None:
        if k is not None and k < 1:
            raise ReproError(f"k-window length must be >= 1, got {k}")
        self.config = config
        self.record_paths = record_paths
        self._state = _IDLE
        self._skip_left = 0
        self._samples_left = 0
        self._rotation = 0
        self._between = not config.simplified and config.stride > 1
        # Run-length-encoded sample buffer: parallel lists of
        # (method, entry, repeat count), where the entry is the path
        # number, or its complement ``~path`` for an edges-only sample
        # (a resilient run's path-table fault).  Hot loops sample the
        # same path many times in a row, so most samples are a single
        # list-item increment.
        self._buf_cm: List[CompiledMethod] = []
        self._buf_path: List[int] = []
        self._buf_n: List[int] = []
        self._buf_last_cm: Optional[CompiledMethod] = None
        self._buf_last_path = -1
        # Dilated handler costs, refreshed from the VM's cost model at
        # every tick (a sample is only taken after a tick).
        self._c_sample = 0.0
        self._c_stride = 0.0
        self._c_expand = 0.0
        # k-iteration window state (DESIGN.md §16), kept only when the
        # owner asks for windows of length ``k`` — the adaptive
        # controller, the one reader of ``vm.kpath_profile``; every
        # other sampler (replay, api.profile) records none.  Per
        # CompiledMethod: the last < k sampled 1-paths plus the method's
        # k-schema and a one-entry window->number memo (the dominant
        # k-path repeats the identical window every iteration).  Windows
        # chain only *consecutive* samples, so anything that breaks
        # consecutiveness — burst end, striding, reset, a dropped or
        # failed sample, a VM switch — clears them.  Recording into
        # ``vm.kpath_profile`` charges no virtual cycles: the k-table is
        # a shadow structure outside every digest.
        self.k = k if record_paths else None
        self._kblpp = self.k is not None
        self._kschema: dict = {}
        self._kwin: dict = {}
        self._kwin_vm: Optional[VirtualMachine] = None

    def reset(self) -> None:
        """Restart the burst state machine (rotation included).

        Samples already buffered are *not* discarded: they were
        legitimately taken before the reset, and the next drain (tick,
        burst end, or :meth:`flush`) applies them.
        """
        self._state = _IDLE
        self._skip_left = 0
        self._samples_left = 0
        self._rotation = 0
        if self._kblpp:
            self._kclear()

    # -- SamplerLike ---------------------------------------------------------

    def on_tick(self, vm: VirtualMachine) -> None:
        vm.flag = True
        if self._buf_cm:
            self._drain(vm)
        costs = vm.costs
        self._c_sample = costs.scaled_handler(costs.handler_sample)
        self._c_stride = costs.scaled_handler(costs.handler_stride)
        self._c_expand = costs.scaled_handler(costs.handler_expand_first)
        if self._state != _IDLE:
            # The previous burst is still draining (very long bursts or
            # very short tick intervals); let it finish.
            return
        skip = self._rotation % self.config.stride
        self._rotation += 1
        self._samples_left = self.config.samples
        if skip > 0:
            self._state = _STRIDING
            self._skip_left = skip
        else:
            self._state = _SAMPLING

    def on_yieldpoint(
        self,
        vm: VirtualMachine,
        cm: CompiledMethod,
        path_reg: int,
        is_sample_point: bool,
    ) -> float:
        state = self._state
        if state == _SAMPLING:
            cost = self._c_sample
            vm.samples_taken += 1
            if is_sample_point and self.record_paths:
                if (
                    cm is self._buf_last_cm
                    and path_reg == self._buf_last_path
                ):
                    # Same (method, path) as the still-buffered previous
                    # sample of a plain run: that sample was already
                    # admitted and marked the expansion, so this one is
                    # a single run-length bump.
                    self._buf_n[-1] += 1
                    if self._kblpp:
                        self._kpush(vm, cm, path_reg)
                else:
                    cost += self._record(vm, cm, path_reg)
            left = self._samples_left - 1
            self._samples_left = left
            if left == 0:
                self._state = _IDLE
                vm.flag = False
                if self._kblpp:
                    self._kclear()
                if self._buf_cm:
                    self._drain(vm)
            elif self._between:
                # Regular Arnold-Grove: stride between every pair of samples.
                self._state = _STRIDING
                self._skip_left = self.config.stride - 1
                if self._kblpp:
                    self._kclear()
            return cost
        if state == _STRIDING:
            self._skip_left -= 1
            vm.strides_skipped += 1
            if self._skip_left == 0:
                self._state = _SAMPLING
            return self._c_stride
        # Flag raised by someone else (e.g. a method-only tick burst
        # already drained); nothing for us to do.
        vm.flag = False
        return 0.0

    def flush(self, vm: VirtualMachine) -> None:
        """Drain buffered samples into the VM's profiles (run end).

        :meth:`VirtualMachine.run` calls this after the engine returns
        (and on engine errors), so profiles observed after a run are
        complete.  Code that drives a sampler against several VMs by
        hand must flush before switching VMs.
        """
        if self._buf_cm:
            self._drain(vm)

    # -- internals ---------------------------------------------------------

    def _record(
        self, vm: VirtualMachine, cm: CompiledMethod, path_reg: int
    ) -> float:
        """Admit one path sample into the buffer; returns its extra cost.

        First-expansion accounting is per-VM (not per-memo): the shared
        resolver memo may already be warm from another run or compiled
        version, but *this* run still pays the one-time expansion cost
        exactly once per (method version, path).  The cost lands on the
        sample that triggers the expansion, even though the (memoised)
        expansion itself happens at the drain.
        """
        resolver = cm.resolver
        if resolver is None:
            # Method compiled without PEP (e.g. baseline tier): the
            # yieldpoint cannot deliver a path.
            return 0.0
        resilience = vm.resilience
        if resilience is not None:
            return self._record_resilient(vm, cm, path_reg, resilience)
        if not 0 <= path_reg < resolver.dag.num_paths:
            # Only in-range paths of a numbered DAG reconstruct; the
            # resolver raises the PathReconstructionError.
            resolver.branch_events(path_reg)
        cost = 0.0
        pkey = (cm.profile_key, path_reg)
        expanded = vm.expanded_paths
        if pkey not in expanded:
            expanded.add(pkey)
            cost = self._c_expand
        # Set before buffering: a drain at the ring cap clears them.
        self._buf_last_cm = cm
        self._buf_last_path = path_reg
        self._buffer(vm, cm, path_reg)
        if self._kblpp:
            self._kpush(vm, cm, path_reg)
        return cost

    def _record_resilient(
        self,
        vm: VirtualMachine,
        cm: CompiledMethod,
        path_reg: int,
        resilience: ResilienceManager,
    ) -> float:
        """:meth:`_record` for a run with a resilience layer.

        The fault sites and K-strikes accounting are order-sensitive, so
        every sample runs them here, in order: path-disabled, ``sample``,
        first expansion (``path-reconstruct``), ``path-table``.  Admitted
        samples never set the run-length shortcut in :meth:`on_yieldpoint`,
        which would skip these decisions.
        """
        source = cm.source_name
        if not resilience.path_profiling_enabled(source):
            # Degraded: the K-strikes policy turned PEP path profiling off
            # for this method; the sample is simply not recorded.
            if self._kblpp:
                self._kbreak(cm)
            return 0.0
        injector = resilience.injector
        if injector is not None and injector.should_fire(
            "sample", cm.profile_key
        ):
            # A corrupt sample is dropped at the handler boundary — the
            # profile sees nothing, the program never notices.
            resilience.drop_sample()
            if self._kblpp:
                self._kbreak(cm)
            return 0.0
        cost = 0.0
        pkey = (cm.profile_key, path_reg)
        expanded = vm.expanded_paths
        if pkey not in expanded:
            # The first expansion is where the reconstruction fault site
            # fires.  Failed expansions are not marked, so a retried
            # sample pays (and may fault) again.
            cost = self._c_expand
            try:
                cm.resolver.branch_events(path_reg, injector=injector)
            except PathReconstructionError as exc:
                # Drop the sample; K consecutive failures on one method
                # disable its path profiling (edge-only fallback).
                resilience.note_reconstruction_failure(source, exc)
                if self._kblpp:
                    self._kbreak(cm)
                return cost
            expanded.add(pkey)
        resilience.note_reconstruction_success(source)
        if injector is not None and injector.should_fire(
            "path-table", cm.profile_key
        ):
            # The path-table update faulted; the sample still feeds the
            # edge profile, so it is buffered edges-only.
            resilience.drop_sample()
            if self._kblpp:
                self._kbreak(cm)
            self._buffer(vm, cm, ~path_reg)
        else:
            self._buffer(vm, cm, path_reg)
            if self._kblpp:
                self._kpush(vm, cm, path_reg)
        return cost

    def _buffer(
        self, vm: VirtualMachine, cm: CompiledMethod, entry: int
    ) -> None:
        """Append one admitted sample entry, draining at the ring cap."""
        self._buf_cm.append(cm)
        self._buf_path.append(entry)
        self._buf_n.append(1)
        if len(self._buf_cm) >= _RING_CAP:
            self._drain(vm)

    def _kpush(
        self, vm: VirtualMachine, cm: CompiledMethod, path_reg: int
    ) -> None:
        """Chain a just-admitted 1-path sample into the k-window (§16).

        Called at the exact points where a sample is admitted for the
        path table — the RLE bump and the buffer appends — so windows
        chain sample for sample, independently of when the drain runs.
        A full window slides by one (overlapping windows: the k-path
        stream has one entry per iteration, like the 1-path stream) and
        records its k-number into the shadow table when the chain
        invariant holds.
        """
        if vm is not self._kwin_vm:
            self._kwin.clear()
            self._kwin_vm = vm
        schema = self._kschema.get(cm)
        if schema is None:
            if cm in self._kschema:
                return  # pinned infeasible (no DAG / path space too big)
            resolver = cm.resolver
            schema = shared_schema(
                resolver.dag if resolver is not None else None, self.k
            )
            self._kschema[cm] = schema
            if schema is None:
                return
        entry = self._kwin.get(cm)
        if entry is None:
            # Dense-or-demote exactly like the 1-path table: path spaces
            # beyond DENSE_PATH_CAP fall back to the sparse dict.
            vm.kpath_profile.ensure_dense(cm.profile_key, schema.num_kpaths)
            entry = [[], None, None]
            self._kwin[cm] = entry
        window = entry[0]
        window.append(path_reg)
        if len(window) < self.k:
            return
        win = tuple(window)
        del window[0]
        if win == entry[1]:
            kn = entry[2]
        else:
            kn = schema.window_number(win)
            entry[1] = win
            entry[2] = kn
        if kn is not None:
            vm.kpath_profile.record(cm.profile_key, kn)

    def _kbreak(self, cm: CompiledMethod) -> None:
        """Void one method's partial window (a sample was dropped)."""
        entry = self._kwin.get(cm)
        if entry is not None:
            del entry[0][:]

    def _kclear(self) -> None:
        """Void every partial window (burst end / striding / reset)."""
        for entry in self._kwin.values():
            del entry[0][:]

    def _drain(self, vm: VirtualMachine) -> None:
        """Apply buffered samples: aggregate, then batch-update tables.

        The only writer of ``vm.path_profile`` and ``vm.edge_profile``
        during a sampled run.  Sample order is preserved in aggregate:
        counters are integers, so ``+k`` equals k successive ``+1``s
        exactly, and first-occurrence iteration order reproduces the
        table insertion order of sample-at-a-time recording.
        """
        buf_cm = self._buf_cm
        buf_path = self._buf_path
        buf_n = self._buf_n
        agg: dict = {}
        agg_get = agg.get
        for i in range(len(buf_cm)):
            key = (buf_cm[i], buf_path[i])
            agg[key] = agg_get(key, 0) + buf_n[i]
        del buf_cm[:]
        del buf_path[:]
        del buf_n[:]
        self._buf_last_cm = None
        self._buf_last_path = -1
        path_profile = vm.path_profile
        edge_profile = vm.edge_profile
        slot_cache = vm.edge_slot_cache
        slot_cache_get = slot_cache.get
        record_slots = edge_profile.record_slots
        for (cm, entry), k in agg.items():
            profile_key = cm.profile_key
            path_reg = entry if entry >= 0 else ~entry
            count = float(k)
            ckey = (profile_key, path_reg)
            slots = slot_cache_get(ckey)
            if slots is None:
                resolver = cm.resolver
                path_profile.ensure_dense(profile_key, resolver.dag.num_paths)
                events = resolver.branch_events(path_reg)
                slot_for = edge_profile.slot_for
                slots = array(
                    "q", [slot_for(branch, taken) for branch, taken in events]
                )
                slot_cache[ckey] = slots
            if entry >= 0:
                path_profile.record(profile_key, path_reg, count)
            record_slots(slots, count)


def make_sampler(
    samples: int,
    stride: int,
    simplified: bool = True,
    record_paths: bool = True,
    k: Optional[int] = None,
) -> ArnoldGroveSampler:
    """Convenience constructor mirroring the paper's PEP(S,K) notation.

    ``k`` asks for k-iteration windows in ``vm.kpath_profile``
    (DESIGN.md §16); None, the default, records none.
    """
    return ArnoldGroveSampler(
        SamplingConfig(samples, stride, simplified=simplified),
        record_paths=record_paths,
        k=k,
    )


def sampler_for(config: Optional[SamplingConfig]):
    """Build a sampler from an optional config (None = no sampling)."""
    if config is None:
        return None
    return ArnoldGroveSampler(config)

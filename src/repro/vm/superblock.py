"""Path-guided trace selection: hot Ball-Larus paths become traces.

PEP exists to feed cheap, continuously collected path profiles to online
optimizers; this module is the reproduction's first real PGO client.
When a method's :class:`~repro.profiling.paths.PathProfile` shows a
*dominant* sampled path that is one full loop iteration — the path
enters through the loop header's split bottom (``DUMMY_ENTRY``) and
terminates back at the header (``DUMMY_EXIT``) — the path number is
expanded over the P-DAG into its block sequence (:func:`trace_blocks`)
and handed to the one trace backend, :mod:`repro.vm.tracefast`, which
compiles the whole method into a single function with that loop trace
inlined as its first arm (DESIGN.md §11/§13).  k-iteration paths
(DESIGN.md §16) expand the same way into multi-iteration traces.

Bit-identity contract
---------------------
A trace is an *alternative compilation of existing blocks*, never a
semantic change: virtual cycles stay float-exact, path/edge profiles,
traps, fuel and fault-injection ordering are unchanged, and formation
itself charges zero virtual cycles (it only moves wall clock, like
blockjit codegen).  ``REPRO_SUPERBLOCK=0`` is the kill switch;
``tests/test_superblock.py`` proves equality across all bundled
workloads.

Persistence
-----------
The generated source (``sb_source``), its path number (``sb_path``) and
a fingerprint (``sb_fingerprint``, :func:`superblock_fingerprint`) ride
pickled CompiledMethods through the codecache.  ``ensure_jit``
revalidates the fingerprint on warm loads (:func:`reinstall_persisted`),
so stale trace advice misses cleanly while the plain blockjit entries
still hit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cfg.dag import DUMMY_ENTRY, REAL, DUMMY_EXIT
from repro.errors import ReproError
from repro.profiling.regenerate import dag_fingerprint, reconstruct_path
from repro.util.flags import superblock_enabled
from repro.util.rng import content_hash
from repro.vm.interpreter import T_BR, T_JMP, CompiledMethod, LoweredBlock

#: Traces longer than this are not worth straight-lining (and generate
#: unboundedly large functions); fall back to plain blockjit.
MAX_TRACE_BLOCKS = 64

#: ``sb_path`` encoding for k-iteration traces (DESIGN.md §16): k-DAG
#: path number ``n`` is stored as ``KPATH_BASE - n``, keeping the whole
#: k space below the warm sentinel (``tracefast.WARM_PATH == -1``) and
#: disjoint from 1-path numbers (``>= 0``).
KPATH_BASE = -2


def encode_kpath(knumber: int) -> int:
    """Encode a k-DAG path number for the ``sb_path``/promotion plumbing."""
    return KPATH_BASE - knumber


def is_kpath(path_number: Optional[int]) -> bool:
    """True when an ``sb_path`` value names a k-iteration trace."""
    return path_number is not None and path_number <= KPATH_BASE


def decode_kpath(path_number: int) -> int:
    """Inverse of :func:`encode_kpath`."""
    return KPATH_BASE - path_number


# -- dominance --------------------------------------------------------------


def find_dominant_path(
    counts: Dict[int, float], threshold: float, min_samples: float
) -> Optional[int]:
    """The path holding >= ``threshold`` of the method's sampled mass.

    ``counts`` is ``PathProfile.method_paths(profile_key)``.  Ties break
    to the smallest path number so the answer is independent of dict
    iteration order.  Returns None when the method has fewer than
    ``min_samples`` samples or no path dominates.
    """
    if not counts:
        return None
    total = 0.0
    best = -1.0
    best_path = -1
    for path, freq in counts.items():
        total += freq
        if freq > best or (freq == best and path < best_path):
            best = freq
            best_path = path
    if total < min_samples or total <= 0.0:
        return None
    if best / total < threshold:
        return None
    return best_path


def find_dominant_kpath(
    counts: Dict[int, float], threshold: float, min_samples: float
) -> Optional[int]:
    """Dominance over the shadow k-path table (``vm.kpath_profile``).

    Same statistic as :func:`find_dominant_path` — the k-table is just
    another path-number histogram — but read it only as a *fallback*
    when no 1-path dominates: a bimodal loop alternating arms A,B has
    two ~50% 1-paths yet a single dominant 2-window (overlapping
    windows put AB and BA at ~half the window mass each, and the
    threshold is inclusive, so either rotation qualifies; both stitch
    the same cyclic trace).  Returns the raw k-DAG number; promotion
    encodes it with :func:`encode_kpath`.
    """
    return find_dominant_path(counts, threshold, min_samples)


# -- trace extraction -------------------------------------------------------


def trace_blocks(
    cm: CompiledMethod, path_number: int
) -> Optional[List[LoweredBlock]]:
    """Expand a path number into an executable loop trace, or None.

    Only *cyclic* paths qualify: the reconstructed edge sequence must
    enter through a split loop header's bottom (``DUMMY_ENTRY``) and
    exit back at that same header (``DUMMY_EXIT``), i.e. the path is one
    full iteration of the loop.  The returned block order starts at the
    header (``[top, bottom, ...]``) — the label control transfers to —
    with the final real edge closing the loop.  Every consecutive pair
    is validated against the lowered terminators so codegen can trust
    the chain.
    """
    dag = cm.dag
    if dag is None or not dag.split_map:
        return None
    if is_kpath(path_number):
        return _ktrace_blocks(cm, path_number)
    if not 0 <= path_number < dag.num_paths:
        return None
    try:
        edges = reconstruct_path(dag, path_number)
    except ReproError:
        return None
    if len(edges) < 3:
        return None
    first = edges[0]
    last = edges[-1]
    if first.kind != DUMMY_ENTRY or last.kind != DUMMY_EXIT:
        return None
    top = last.src
    bottom = first.dst
    if dag.split_map.get(top) != bottom:
        return None
    labels = [top, bottom]
    node = bottom
    for edge in edges[1:-1]:
        if edge.kind != REAL or edge.src != node:
            return None
        node = edge.dst
        if node != top:
            labels.append(node)
    if node != top:
        return None
    if len(labels) != len(set(labels)):
        return None
    return _validated_blocks(cm, labels)


def _ktrace_blocks(
    cm: CompiledMethod, path_number: int
) -> Optional[List[LoweredBlock]]:
    """Expand an encoded k-path into a multi-iteration loop trace (§16).

    The k-DAG path must be a *mono-header cyclic window*: enter through
    one header's bottom, carry back into that same header's bottom at
    every window boundary, and end at that header's top — i.e. ``k``
    consecutive iterations of one loop.  The stitched block order is the
    1-trace shape repeated per slot, ``[top, bottom, mids0..., top,
    bottom, mids1...]``, with the final arrival at the top closing the
    loop to position 0; labels legitimately repeat (that is the
    unrolling), so only the per-position terminator validation applies.
    Mid-trace top positions replay the header's full yieldpoint/PEP
    sequence — the loop back edge becomes an intra-trace fall-through
    while every observable stays bit-identical.
    """
    from repro.cfg.dag import CARRY
    from repro.cfg.kdag import split_klabel
    from repro.profiling.kpaths import shared_schema
    from repro.util.flags import kblpp_k

    dag = cm.dag
    schema = shared_schema(dag, kblpp_k())
    if schema is None:
        return None
    knumber = decode_kpath(path_number)
    if not 0 <= knumber < schema.num_kpaths:
        return None
    try:
        edges = reconstruct_path(schema.kdag, knumber)
    except ReproError:
        return None
    if len(edges) < 3:
        return None
    first = edges[0]
    last = edges[-1]
    if first.kind != DUMMY_ENTRY or last.kind != DUMMY_EXIT:
        return None
    top = split_klabel(last.src)[0]
    bottom = split_klabel(first.dst)[0]
    if dag.split_map.get(top) != bottom:
        return None
    labels = [top, bottom]
    node = first.dst
    carries = 0
    for edge in edges[1:-1]:
        if edge.src != node:
            return None
        node = edge.dst
        if edge.kind == REAL:
            base = split_klabel(node)[0]
            if base != top:
                labels.append(base)
        elif edge.kind == CARRY:
            # A carry at a different header means the window wanders
            # between loops — numerable, but not stitchable into one
            # cyclic trace.
            if (
                split_klabel(edge.src)[0] != top
                or split_klabel(node)[0] != bottom
            ):
                return None
            carries += 1
            labels.append(top)
            labels.append(bottom)
        else:
            return None
    if node != last.src or carries != schema.k - 1:
        return None
    return _validated_blocks(cm, labels)


def _validated_blocks(
    cm: CompiledMethod, labels: List[str]
) -> Optional[List[LoweredBlock]]:
    """Fetch the lowered blocks and validate every consecutive pair
    against the terminators (positional, so repeated labels are fine)."""
    if len(labels) > MAX_TRACE_BLOCKS:
        return None
    blocks: List[LoweredBlock] = []
    for label in labels:
        block = cm.blocks.get(label)
        if block is None:
            return None
        blocks.append(block)
    for i, block in enumerate(blocks):
        nxt = blocks[(i + 1) % len(blocks)].label
        term = block.term
        t = term[0]
        if t == T_JMP:
            ok = term[2].label == nxt
        elif t == T_BR:
            ok = term[5].label == nxt or term[6].label == nxt
        else:
            ok = False
        if not ok:
            return None
    return blocks


# -- fingerprint ------------------------------------------------------------


def superblock_fingerprint(cm: CompiledMethod, path_number: int) -> int:
    """Ties a trace artefact to this version's P-DAG and codegen flags."""
    from repro.util.flags import kblpp_k
    from repro.vm.pgo import pgo_fingerprint

    return content_hash(
        "superblock|"
        f"{dag_fingerprint(cm.dag)}|{path_number}|"
        # Format 6: the resolved PGO flags and the advice they shaped
        # (layout order, inline plans) are part of the generated source;
        # a flag flip or advice change must miss, never reuse.
        f"pgo{pgo_fingerprint(cm)}|"
        # Format 7: the fold verdict selects the tracefast chain shape
        # (folded vs textual), so sources from different verdicts must
        # never cross.  The warm ladder (path_number == -1) flows
        # through the path component naturally.
        f"fq{cm.fold_q}"
        # k-iteration traces (DESIGN.md §16) additionally pin the
        # resolved window length: their path number lives in the k-DAG's
        # space, so a REPRO_KBLPP_K change must miss (and drop the
        # artefact) instead of decoding the number in the wrong space.
        # Plain traces and warm ladders omit the component entirely,
        # keeping their fingerprints byte-stable across k changes.
        + (f"|kb{kblpp_k()}" if is_kpath(path_number) else "")
    )


# -- installation -----------------------------------------------------------


def install_superblock(cm: CompiledMethod, path_number: int) -> bool:
    """Compile + install the trace for ``path_number``; first-wins.

    Returns True when a trace artefact is installed (now or previously),
    False when the path is not an eligible loop trace.  Charges zero
    virtual cycles and touches no profiles: installation is observable
    only in wall clock.  Safe mid-run — the installed code is
    behaviorally identical to entering the head's plain segment.

    The promotion front door: the whole method is compiled through
    :func:`repro.vm.tracefast.install_tracefast` (called through the
    module so tracing wrappers see every compile).
    ``path_number == tracefast.WARM_PATH`` (-1) requests the warm token
    ladder.
    """
    from repro.vm import tracefast

    return tracefast.install_tracefast(cm, path_number)


def _drop_persisted(cm: CompiledMethod) -> None:
    cm.sb_source = None
    cm.sb_path = None
    cm.sb_fingerprint = None
    cm.sb_entry = None


def reinstall_persisted(cm: CompiledMethod, entries: dict) -> None:
    """Hook for :func:`blockjit.ensure_jit`: revive a pickled trace.

    Validates the stored fingerprint against the *current* DAG and
    codegen flags; on any mismatch or failure the stale artefacts are
    dropped (plain blockjit entries stay valid — a fresh dominance event
    may regenerate the trace) rather than risking a wrong install.
    A tier switched off (``REPRO_SUPERBLOCK``, ``REPRO_WARMJIT`` for
    warm ladders, ``REPRO_KBLPP`` for k-traces) keeps the artefacts
    untouched and installs nothing: a later enabled process revives
    them.
    """
    from repro.util.flags import kblpp_enabled, warmjit_enabled
    from repro.vm import tracefast

    if not superblock_enabled():
        return
    path = cm.sb_path
    if path == tracefast.WARM_PATH and not warmjit_enabled():
        return
    if is_kpath(path) and not kblpp_enabled():
        return
    try:
        if (
            path is None
            or cm.dag is None
            or cm.sb_source is None
            or cm.sb_fingerprint != superblock_fingerprint(cm, path)
        ):
            _drop_persisted(cm)
            return
        if path == tracefast.WARM_PATH:
            trace = None
        else:
            trace = trace_blocks(cm, path)
            if trace is None:
                _drop_persisted(cm)
                return
        tracefast.install_source(cm, cm.sb_source, trace, entries)
    except Exception:
        _drop_persisted(cm)

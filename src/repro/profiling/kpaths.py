"""k-path numbering schemas: windows of 1-paths to k-DAG numbers (§16).

The sampler sees a stream of 1-path numbers per method.  A window of
``k`` consecutive samples is a k-path exactly when the chain invariant
holds: each path after the first begins (via a dummy-entry edge) at the
bottom half of the header where its predecessor ended.  This module
turns such a window into the k-DAG path number *without walking the
k-DAG at sample time*: each 1-path's total contribution to every window
slot is precomputed once, so a window's number is just ``k`` additions.

The slot contribution C(p, j) sums the k-DAG values of path ``p``'s
edges under the ownership rule that makes the decomposition exact:

* a trailing dummy-exit edge at slot ``j < k-1`` maps to the *carry*
  edge ``top@j -> bottom@j+1`` — the window-internal transition is owned
  by the slot that ends at the sample point;
* the successor's leading dummy-entry edge is therefore dropped at
  every slot except 0 (the carry already covers the transition — the
  k-DAG simply has no dummy entries past slot 0);
* every other edge maps to its slot-``j`` copy.

Summing C(w_j, j) over a chained window then counts each k-DAG edge of
the concatenated path exactly once, so it *is* the Ball-Larus number of
that path (``tests/test_kblpp.py`` pins this against brute-force
enumeration of the k-DAG).

Schemas are shared process-wide per (method, 1-DAG fingerprint, k) —
the :mod:`repro.profiling.regenerate` memo idiom — because adaptive
recompilation bumps method versions without changing the P-DAG, and
unrolling + numbering the k-DAG is worth doing once, not per version.
The k-path table itself (``vm.kpath_profile``) is a shadow structure:
it charges no virtual cycles and never enters digests.  Windows are
chained only for a sampler built with a window length — the adaptive
controller's, whose k-path fallback is the table's one reader — so
replay runs and ``api.profile`` record none, and ``REPRO_KBLPP=0``
(the controller asks for no windows) yields bit-identical results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cfg.dag import CARRY, DUMMY_ENTRY, DUMMY_EXIT, PDag
from repro.cfg.kdag import KDag, build_k_dag, split_klabel
from repro.errors import CFGError, NumberingError, PathReconstructionError
from repro.profiling.ballarus import assign_ball_larus_values
from repro.profiling.regenerate import dag_fingerprint, reconstruct_path

#: Methods whose k-DAG has more paths than this get no schema at all:
#: the number space would be useless for dominance anyway (every sample
#: lands on its own number) and precomputing contributions over it
#: wastes memory.  Distinct from the dense-table cap (``DENSE_PATH_CAP``
#: in :mod:`repro.profiling.paths`), which only demotes the *counter
#: table* to a sparse dict.
KBLPP_MAX_PATHS = 1 << 20

#: Per-schema bound on cached per-path contribution entries.
DESCRIBE_BOUND = 4096

#: Bound on distinct (method, DAG, k) schemas kept process-wide.
_REGISTRY_BOUND = 256

#: Description of one 1-path for window chaining: the header bottom it
#: begins at (None when it begins at method entry), the header top it
#: ends at (None when it ends at a ret), and its per-slot contributions.
PathInfo = Tuple[Optional[str], Optional[str], Tuple[int, ...]]


class KPathSchema:
    """Window-to-k-number arithmetic for one (method P-DAG, k) pair."""

    __slots__ = (
        "dag",
        "kdag",
        "k",
        "num_kpaths",
        "_edge_index",
        "_info",
        "_kedge_inv",
        "_entry_value",
    )

    def __init__(self, dag: PDag, k: int) -> None:
        self.dag = dag
        self.k = k
        self.kdag: KDag = build_k_dag(dag, k)
        self.num_kpaths = assign_ball_larus_values(self.kdag)
        # reconstruct_path returns the dag's own DagEdge objects, so an
        # identity map recovers each edge's index into dag.edges (the
        # kedge_map key) without a linear scan per edge.
        self._edge_index: Dict[int, int] = {
            id(edge): index for index, edge in enumerate(dag.edges)
        }
        self._info: Dict[int, Optional[PathInfo]] = {}
        # Inverse correspondence for split_window: k-DAG edge -> its
        # (slot, 1-DAG edge) origin, plus each header bottom's
        # dummy-entry value (a carry edge subsumes the next slot's
        # dummy entry, whose value must be restored when decomposing).
        self._kedge_inv: Dict[int, Tuple[int, int]] = {
            id(kedge): key for key, kedge in self.kdag.kedge_map.items()
        }
        self._entry_value: Dict[str, int] = {
            edge.dst: edge.value
            for edge in dag.edges
            if edge.kind == DUMMY_ENTRY
        }

    def describe(self, path_number: int) -> Optional[PathInfo]:
        """(start bottom, end top, per-slot contributions) for a 1-path.

        Returns None for numbers outside the 1-DAG's path space (a
        sample recorded before a path-table fault demoted the method,
        say) — callers drop the window rather than raise.
        """
        info = self._info.get(path_number)
        if info is None and path_number not in self._info:
            info = self._describe(path_number)
            if len(self._info) >= DESCRIBE_BOUND:
                self._info.pop(next(iter(self._info)))
            self._info[path_number] = info
        return info

    def _describe(self, path_number: int) -> Optional[PathInfo]:
        try:
            edges = reconstruct_path(self.dag, path_number)
        except PathReconstructionError:
            return None
        if not edges:
            return None
        first, last = edges[0], edges[-1]
        start_link = first.dst if first.kind == DUMMY_ENTRY else None
        end_link = last.src if last.kind == DUMMY_EXIT else None
        kedge_map = self.kdag.kedge_map
        edge_index = self._edge_index
        contribs: List[int] = []
        for slot in range(self.k):
            total = 0
            for edge in edges:
                if edge.kind == DUMMY_ENTRY and slot != 0:
                    continue  # transition owned by slot-1's carry edge
                total += kedge_map[(slot, edge_index[id(edge)])].value
            contribs.append(total)
        return start_link, end_link, tuple(contribs)

    def window_number(self, window: Sequence[int]) -> Optional[int]:
        """The k-DAG number of a chained window, or None if unchainable.

        ``window`` is ``k`` consecutive 1-path samples, oldest first.
        Chaining requires every non-final path to end at a header top
        and every non-initial path to begin at that header's bottom;
        anything else (a ret mid-window, a method-entry path past slot
        0, an undescribable number) voids the window.
        """
        if len(window) != self.k:
            return None
        split_map = self.dag.split_map
        total = 0
        prev_end: Optional[str] = None
        for slot, path_number in enumerate(window):
            info = self.describe(path_number)
            if info is None:
                return None
            start_link, end_link, contribs = info
            if slot > 0 and (
                start_link is None
                or prev_end is None
                or split_map.get(prev_end) != start_link
            ):
                return None
            if slot < self.k - 1 and end_link is None:
                return None
            total += contribs[slot]
            prev_end = end_link
        return total


    def split_window(self, path_number: int) -> Optional[Tuple[int, ...]]:
        """The 1-path components of a k-window number, oldest first.

        Inverse of :meth:`window_number` for full-length windows (the
        round trip is pinned by the tests).  Windows a ``ret`` ended
        before slot ``k-1`` decompose to fewer than ``k`` components.
        Returns None for numbers outside the k-DAG's path space.
        """
        if path_number < 0 or path_number >= self.num_kpaths:
            return None
        try:
            kedges = reconstruct_path(self.kdag, path_number)
        except PathReconstructionError:
            return None
        sums = [0] * self.k
        last_slot = 0
        for kedge in kedges:
            key = self._kedge_inv.get(id(kedge))
            if key is None:
                return None
            slot, base_index = key
            sums[slot] += self.dag.edges[base_index].value
            if slot > last_slot:
                last_slot = slot
            if kedge.kind == CARRY:
                bottom = split_klabel(kedge.dst)[0]
                sums[slot + 1] += self._entry_value[bottom]
        return tuple(sums[: last_slot + 1])


_SCHEMAS: Dict[Tuple[str, int, int], Optional[KPathSchema]] = {}


def shared_schema(dag: Optional[PDag], k: int) -> Optional[KPathSchema]:
    """The process-wide schema for (dag, k), or None when infeasible.

    None is returned — and cached, so the unrolling cost is paid once —
    for unnumbered DAGs, k-path spaces beyond :data:`KBLPP_MAX_PATHS`,
    and DAGs the unrolling rejects (no PEP split map).  ``k == 1`` is
    served like any other k: its k-DAG is structurally the 1-DAG and
    the numbering coincides, which the tests exploit as a sanity pin.
    """
    if dag is None or dag.num_paths <= 0:
        return None
    key = (dag.method_name, dag_fingerprint(dag), k)
    if key in _SCHEMAS:
        schema = _SCHEMAS.pop(key)
        _SCHEMAS[key] = schema  # refresh recency
        return schema
    try:
        schema: Optional[KPathSchema] = KPathSchema(dag, k)
        if schema.num_kpaths > KBLPP_MAX_PATHS:
            schema = None
    except (CFGError, NumberingError):
        schema = None
    if len(_SCHEMAS) >= _REGISTRY_BOUND:
        _SCHEMAS.pop(next(iter(_SCHEMAS)))
    _SCHEMAS[key] = schema
    return schema


def clear_shared_schemas() -> None:
    """Drop every shared schema (tests; memory pressure)."""
    _SCHEMAS.clear()

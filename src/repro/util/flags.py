"""Process-wide feature flags resolved from the environment.

Each boolean flag here is a kill switch for one wall-clock optimisation
(superblock traces, profile-guided codegen, warm ladders, k-iteration
paths).  Every flag follows the same resolution idiom: an explicit
argument wins, then the module flag (tests may pin it), then the
environment variable, then the built-in default of *on*.  Environment
values are parsed by :func:`_env_enabled`, which also serves
``REPRO_BLOCKJIT`` and ``REPRO_CODECACHE``: a value that is neither a
true-ish nor a false-ish token is rejected with a
:class:`~repro.errors.ReproError` naming the variable, never guessed.

Every switch is bit-identical in every observable (profiles, virtual
cycles, fault-injection sequences), so flipping one only moves wall
clock.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ReproError

SUPERBLOCK_ENV = "REPRO_SUPERBLOCK"

#: Module override for path-guided superblock formation (DESIGN.md §11).
#: ``None`` means "consult the environment"; the same holds for every
#: module override below.
SUPERBLOCK: Optional[bool] = None

PGO_ENV = "REPRO_PGO"

#: Module override for the profile-guided optimization tier (DESIGN.md
#: §14): master switch over the three PGO transforms below.  All three
#: are bit-identical in every observable (``tests/test_pgo.py`` proves
#: it); ``REPRO_PGO=0`` reverts codegen to the PR-7 shapes byte for
#: byte.
PGO: Optional[bool] = None

PGO_LAYOUT_ENV = "REPRO_PGO_LAYOUT"

#: Module override for profile-guided code layout: order blockjit's
#: segment definitions and tracefast's token-ladder arms by observed
#: edge heat so the hot successor is the first-tested arm.
PGO_LAYOUT: Optional[bool] = None

PGO_INLINE_ENV = "REPRO_PGO_INLINE"

#: Module override for dominant-path callee inlining: splice a hot
#: monomorphic callee's dominant Ball-Larus path into the caller's
#: tracefast trace behind a guard that side-exits to the normal call.
PGO_INLINE: Optional[bool] = None

PGO_PROBES_ENV = "REPRO_PGO_PROBES"

#: Module override for minimum-coverage probe placement: instrument only
#: a spanning-tree complement of each method's CFG in the dedicated
#: edge-instrumentation mode and reconstruct the full edge profile at
#: drain time (Knuth / Ball-Larus minimum instrumentation).
PGO_PROBES: Optional[bool] = None

WARMJIT_ENV = "REPRO_WARMJIT"

#: Module override for warm-method whole-method codegen (DESIGN.md §15):
#: methods that stay warm without ever forming a dominant Ball-Larus
#: path are still compiled into a tracefast token-ladder ``_m`` function
#: (plain arms only, laid out in ``pgo_layout`` order), promoted by the
#: adaptive controller at a warm threshold below superblock promotion.
#: Pure wall-clock steering; ``REPRO_WARMJIT=0`` is the kill switch.
WARMJIT: Optional[bool] = None

KBLPP_ENV = "REPRO_KBLPP"

#: Module override for k-iteration Ball-Larus path profiling (DESIGN.md
#: §16): record paths spanning ``k`` consecutive loop iterations in a
#: shadow table alongside the 1-paths, and let the adaptive controller
#: promote a dominant k-path into a multi-iteration trace when no
#: dominant 1-path exists.  Pure wall-clock steering — the k-path table
#: never enters digests; ``REPRO_KBLPP=0`` is the kill switch.
KBLPP: Optional[bool] = None

KBLPP_K_ENV = "REPRO_KBLPP_K"

#: Module override for the window length ``k`` (iterations per k-path).
#: ``None`` means "consult the environment"; the built-in default is 2.
KBLPP_K: Optional[int] = None

#: Built-in default window length and the sanity bounds applied to the
#: environment override (a silly ``k`` would blow the path space long
#: before the dense-table cap could help).
KBLPP_K_DEFAULT = 2
KBLPP_K_MAX = 8


_TRUE_TOKENS = ("1", "on", "yes", "true")
_FALSE_TOKENS = ("0", "off", "no", "false")


def _env_enabled(name: str, default: bool = True) -> bool:
    """Parse the boolean environment flag ``name`` (unset/blank = default).

    Raises :class:`ReproError` naming the variable for any value that is
    neither a true-ish nor a false-ish token.
    """
    env = os.environ.get(name)
    if env is None or not env.strip():
        return default
    token = env.strip().lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    raise ReproError(
        f"{name}={env!r} is not a boolean; use one of "
        f"{', '.join(_TRUE_TOKENS + _FALSE_TOKENS)}"
    )


def superblock_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective superblock-formation setting.

    ``REPRO_SUPERBLOCK=0`` is the kill switch: the adaptive controller
    stops forming superblocks and persisted superblock sources are not
    re-installed.  Both settings are bit-identical in every observable
    (``tests/test_superblock.py`` proves it); the flag only moves wall
    clock.
    """
    if explicit is not None:
        return bool(explicit)
    if SUPERBLOCK is not None:
        return bool(SUPERBLOCK)
    return _env_enabled(SUPERBLOCK_ENV)


def pgo_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the PGO master switch.

    ``REPRO_PGO=0`` is the tier-wide kill switch: every generated
    artefact reverts to its PR-7 shape byte for byte.  The resolved
    value participates in codecache keys and superblock fingerprints
    through the three sub-flags below, never on its own.
    """
    if explicit is not None:
        return bool(explicit)
    if PGO is not None:
        return bool(PGO)
    return _env_enabled(PGO_ENV)


def pgo_layout_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective profile-guided-layout setting.

    The master switch gates every sub-flag: ``REPRO_PGO=0`` disables
    layout even when ``REPRO_PGO_LAYOUT=1``.  Persisted artefacts shaped
    by this flag (blockjit/tracefast sources in the codecache) embed the
    resolved value in their keys/fingerprints, so a flip drops stale
    advice wholesale instead of replaying it.
    """
    if not pgo_enabled():
        return False
    if explicit is not None:
        return bool(explicit)
    if PGO_LAYOUT is not None:
        return bool(PGO_LAYOUT)
    return _env_enabled(PGO_LAYOUT_ENV)


def pgo_inline_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective dominant-path-inlining setting (master
    switch gates it; see :func:`pgo_layout_enabled` for the key/
    fingerprint contract)."""
    if not pgo_enabled():
        return False
    if explicit is not None:
        return bool(explicit)
    if PGO_INLINE is not None:
        return bool(PGO_INLINE)
    return _env_enabled(PGO_INLINE_ENV)


def pgo_probes_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the effective minimum-coverage-probes setting (master
    switch gates it).  Applies only to the dedicated one-shot
    edge-instrumentation mode — baseline one-time instrumentation and
    the sweep configurations are untouched, which is what keeps every
    sweep digest bit-identical under the flip."""
    if not pgo_enabled():
        return False
    if explicit is not None:
        return bool(explicit)
    if PGO_PROBES is not None:
        return bool(PGO_PROBES)
    return _env_enabled(PGO_PROBES_ENV)


def warmjit_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the warm-method whole-method-codegen setting.

    ``REPRO_WARMJIT=0`` is the kill switch: the controller stops
    promoting warm methods and persisted warm ladders are not
    re-installed (the artefacts stay for a later enabled process, like
    the superblock kill switch).
    """
    if explicit is not None:
        return bool(explicit)
    if WARMJIT is not None:
        return bool(WARMJIT)
    return _env_enabled(WARMJIT_ENV)


def kblpp_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve the k-iteration path-profiling setting.

    Effective promotion further requires superblock formation, but the
    flag itself only gates the controller's k-path fallback.  Windows
    are chained only for the controller's sampler, which asks for them
    exactly when the fallback is on; replay runs and ``api.profile``
    never record them.  ``REPRO_KBLPP=0`` is the kill switch: the
    controller asks its sampler for no windows, never consults the
    k-table, and persisted k-path traces are kept but not re-installed
    (the warm-ladder idiom).  Digests are bit-identical either way —
    the k-table is a shadow structure that charges no virtual cycles.
    """
    if explicit is not None:
        return bool(explicit)
    if KBLPP is not None:
        return bool(KBLPP)
    return _env_enabled(KBLPP_ENV)


def kblpp_k(explicit: Optional[int] = None) -> int:
    """Resolve the effective window length ``k`` (clamped to sane bounds).

    Components that persist artefacts shaped by ``k`` (k-path trace
    fingerprints, codecache keys) must store this *resolved* value so a
    ``REPRO_KBLPP_K`` change drops stale k-traces instead of decoding a
    path number in the wrong path space.
    """
    if explicit is not None:
        value = int(explicit)
    elif KBLPP_K is not None:
        value = int(KBLPP_K)
    else:
        env = os.environ.get(KBLPP_K_ENV, "").strip()
        try:
            value = int(env) if env else KBLPP_K_DEFAULT
        except ValueError:
            raise ReproError(
                f"{KBLPP_K_ENV}={env!r} is not an integer"
            ) from None
    return max(1, min(KBLPP_K_MAX, value))


"""Environment parsing for every boolean ``REPRO_*`` kill switch.

Each switch is parsed by ``flags._env_enabled``: unset or blank means
the default (on), true-ish and false-ish tokens are accepted in any
case and with surrounding blanks, and anything else is rejected with a
``ReproError`` naming the variable rather than silently meaning *on*.
"""

import pytest

from repro.errors import ReproError
from repro.util import flags
from repro.vm import blockjit, codecache

#: env variable -> (module override to clear, resolver).
BOOLEAN_FLAGS = {
    "REPRO_BLOCKJIT": (None, blockjit.blockjit_enabled),
    "REPRO_CODECACHE": (None, lambda: codecache.active_cache() is not None),
    flags.SUPERBLOCK_ENV: ("SUPERBLOCK", flags.superblock_enabled),
    flags.PGO_ENV: ("PGO", flags.pgo_enabled),
    flags.PGO_LAYOUT_ENV: ("PGO_LAYOUT", flags.pgo_layout_enabled),
    flags.PGO_INLINE_ENV: ("PGO_INLINE", flags.pgo_inline_enabled),
    flags.PGO_PROBES_ENV: ("PGO_PROBES", flags.pgo_probes_enabled),
    flags.WARMJIT_ENV: ("WARMJIT", flags.warmjit_enabled),
    flags.KBLPP_ENV: ("KBLPP", flags.kblpp_enabled),
}

TOKENS = [
    (None, True),
    ("", True),
    ("1", True),
    (" on ", True),
    ("Yes", True),
    ("TRUE", True),
    ("0", False),
    ("off", False),
    (" NO", False),
    ("false", False),
]


@pytest.mark.parametrize("name", sorted(BOOLEAN_FLAGS))
def test_boolean_flag_parsing(name, monkeypatch):
    override, resolve = BOOLEAN_FLAGS[name]
    if override is not None:
        monkeypatch.setattr(flags, override, None)
    # The PGO sub-flags sit under the master switch; keep it at default.
    monkeypatch.setattr(flags, "PGO", None)
    monkeypatch.delenv(flags.PGO_ENV, raising=False)
    for raw, expected in TOKENS:
        if raw is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, raw)
        assert resolve() is expected, (name, raw)
    monkeypatch.setenv(name, "disable")
    with pytest.raises(ReproError, match=name):
        resolve()

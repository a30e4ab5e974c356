"""`tools/replay.py` replays hatd4 entry points by name; every name in its
table must still resolve, or a rename would drop a check without notice."""

import importlib
import importlib.util
from pathlib import Path

REPLAY = Path(__file__).resolve().parents[1] / "tools" / "replay.py"


def _replay():
    spec = importlib.util.spec_from_file_location("replay_tool", REPLAY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_replay_table_resolves():
    replay = _replay()
    missing = []
    for _layer, module, path, _key, _when in replay.TABLE:
        owner, attr = replay.resolve(importlib.import_module("hatd4." + module), path)
        if not callable(getattr(owner, attr, None)):
            missing.append("%s.%s" % (module, path))
    assert not missing

"""scripts/ladder.py against the recorded rung digests."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", SCRIPTS / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rung_has_a_recorded_digest():
    recorded = json.loads((SCRIPTS / "ladder_digests.json").read_text())
    assert sorted(recorded) == sorted(_ladder().all_rungs())
    assert all(len(d) == 16 and int(d, 16) >= 0 for d in recorded.values())


def test_exits_one_when_a_digest_moves(tmp_path, monkeypatch, capsys):
    ladder = _ladder()
    rungs = ["smith/dense28", "smith/dense30"]   # a few ms each
    assert ladder.main(rungs) == 0
    recorded = json.loads(ladder.DIGESTS.read_text())
    recorded["smith/dense30"] = "0" * 16
    del recorded["smith/dense28"]
    moved = tmp_path / "digests.json"
    moved.write_text(json.dumps(recorded))
    monkeypatch.setattr(ladder, "DIGESTS", moved)
    capsys.readouterr()
    assert ladder.main(rungs) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2
    assert err.splitlines() == [
        "digest moved: smith/dense28 None -> 7c618c549944ce66",
        "digest moved: smith/dense30 0000000000000000 -> 3d11c160939357e0"]

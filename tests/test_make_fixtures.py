"""``scripts/make_fixtures.py`` rebuilds the committed fixture corpus byte
for byte."""

import importlib.util
import sys
from pathlib import Path

import mindeg.socle

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(mindeg.socle.__file__).parent / "fixtures"


def test_make_fixtures_reproduces_the_committed_fixtures(tmp_path,
                                                         monkeypatch):
    # the script puts tests/ on sys.path and imports its groups module
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = str(tmp_path)
    script.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.iterdir()
                             if p.suffix in (".grp", ".json"))
    assert [name for name in written
            if (tmp_path / name).read_bytes()
            != (FIXTURES / name).read_bytes()] == []

"""Every script in ``examples/`` runs to completion as ``__main__``.

The examples are the README's runnable entry points; each one asserts
its own claims (verified output, recovered strikes), so running them is
a smoke test of the public API they use.  Results go to a per-test
cache so the tracked ``.repro_cache/`` is never read or written.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_examples_are_collected():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()

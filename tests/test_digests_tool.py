"""tools/digests.py: one distinct, reproducible sha256 per run of its grid."""
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location("digests", os.path.join(ROOT, "tools", "digests.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digests_cover_the_grid_and_repeat(capsys):
    tool = _tool()
    src = os.path.join(ROOT, "src")
    assert tool.main([src]) == 0
    first = capsys.readouterr().out.splitlines()
    # strategies x problems, one paired run, then one line per CLI grid run
    assert len(first) == 9 * 6 + 1 + len(tool.CLI_GRID)
    assert [line.split()[1] for line in first[-len(tool.CLI_GRID):]] == list(tool.CLI_GRID)
    assert len({line.split()[-1] for line in first}) == len(first)
    assert tool.main([src]) == 0
    assert capsys.readouterr().out.splitlines() == first


def test_digests_usage_error(tmp_path, capsys):
    assert _tool().main([str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err

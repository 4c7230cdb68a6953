"""tools/digests.py: one distinct, reproducible sha256 per run of its grid."""
import importlib.util
import os

import pytest

from fedrelax.config import resolve_config

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
    # strategies x problems, the paired runs, then one line per CLI grid run
    assert len(first) == 9 * 8 + len(tool.PAIRED) + len(tool.CLI_GRID)
    assert [line.split()[1] for line in first[-len(tool.CLI_GRID):]] == list(tool.CLI_GRID)
    assert len({line.split()[-1] for line in first}) == len(first)
    assert tool.main([src]) == 0
    assert capsys.readouterr().out.splitlines() == first


def test_digests_usage_error(tmp_path, capsys):
    assert _tool().main([str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err


def test_digests_fail_naming_a_refused_cli_run(monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(tool, "CLI_GRID", {
        **tool.CLI_GRID,
        "stability-checkpoints": ([["stability"]], {**tool.CLI_GRID["stability"][1], "checkpoint_every": 2}),
    })
    assert tool.main([os.path.join(ROOT, "src")]) == 1
    err = capsys.readouterr().err
    assert "'stability-checkpoints' exited 2" in err and "checkpoint_every" in err


@pytest.mark.parametrize("name", list(_tool().CLI_GRID))
def test_cli_grid_configs_re_resolve_to_themselves(name):
    argvs, raw = _tool().CLI_GRID[name]
    mode = argvs[0][0]
    cfg = resolve_config({k: v for k, v in raw.items() if v is not None}, mode=mode)
    echo = {k: v for k, v in cfg.items() if k != "schema_version"}
    assert resolve_config(echo, mode=mode) == cfg

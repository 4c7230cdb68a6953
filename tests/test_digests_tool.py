"""tools/digests.py: one distinct, reproducible sha256 per run of its grid."""
import importlib.util
import json
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
    # strategies x problems, the family-stacks line, the paired runs, then one line per CLI grid run
    grid = 9 * 9
    assert len(first) == grid + 1 + len(tool.PAIRED) + len(tool.CLI_GRID)
    assert first[grid].split()[:2] == ["quadratic", "family-stacks"]
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


def test_every_checkpoint_is_hashed_as_it_is_written(tmp_path):
    tool = _tool()
    fr = tool.load_modules(os.path.join(ROOT, "src"))

    class Collect:
        def __init__(self):
            self.chunks = []

        def update(self, b):
            self.chunks.append(b)

    fam = fr.quadratics.make_quadratic_family(4, 2, seed=0)
    hp = fr.core.HyperParams(eta=0.1, rounds=5, n_active=2, k_local=2)
    sink = Collect()
    save = fr.artifacts.save_checkpoint
    with tool.hashing_checkpoints(fr, sink):
        fr.core.run_experiment(fr.problems.QuadraticProblem(fam), fr.strategies.make_strategy("fedavg"),
                               hp, seed=0, checkpoint_every=2, checkpoint_path=tmp_path / "ck.json")
    assert fr.artifacts.save_checkpoint is save
    # rounds 2 and 4, then the last round; each file as it was before the next overwrote it
    assert [json.loads(c)["round"] for c in sink.chunks] == [2, 4, 5]
    assert sink.chunks[-1] == (tmp_path / "ck.json").read_bytes()

"""tools/bench_compare.py: one ABBA pair of the tiny benchmark shape, its table and its failures."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_compare.py"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def compare(parent: Path, change: Path, out: Path, pairs: int = 1) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(TOOL), str(parent), str(change), "--workload", "stability-paired",
           "--pairs", str(pairs), "--seconds", "0", "--shape", "tiny", "--out", str(out)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_one_tiny_pair_on_this_tree(tmp_path):
    out = tmp_path / "BENCH_tiny.json"
    proc = compare(ROOT, ROOT, out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["workload"] == "stability-paired" and report["shape"] == "tiny"
    assert report["order"] == ["parent", "change"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    assert report["src_lines"] == {"parent": lines, "change": lines}
    kinds = _tool().line_kinds(ROOT / "src" / "fedrelax")
    assert report["src_line_kinds"] == {"parent": kinds, "change": kinds} and sum(kinds.values()) == lines
    assert {"nproc", "python", "numpy", "blas", "blas_threads"} <= set(report["environment"])
    assert list(report["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    for metric in CONTRACT["end_to_end"]:
        row = report["metrics"][metric["name"]]
        assert (row["unit"], row["better"], row["bound"]) == (metric["unit"], metric["better"], metric["bound"])
        (before,), (after,) = row["parent"]["runs"], row["change"]["runs"]
        assert (row["parent"]["median"], row["change"]["median"]) == (before, after)
        assert (row["parent"]["min"], row["parent"]["max"]) == (before, before)
        assert (row["change"]["min"], row["change"]["max"]) == (after, after)
        assert row["parent"]["iqr"] == row["change"]["iqr"] == 0.0
        assert row["pairs_won"] == int(after < before if metric["better"] == "lower" else after > before)
    printed = {line.split()[0]: line for line in proc.stdout.splitlines() if line.split()[0] in report["metrics"]}
    for name, row in report["metrics"].items():
        assert f"parent [{row['parent']['min']:.6g}, {row['parent']['max']:.6g}]" in printed[name]
        assert f"change [{row['change']['min']:.6g}, {row['change']['max']:.6g}]" in printed[name]


def test_table_reads_the_direction_and_counts_pairs():
    contract = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
                               {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]}
    runs = {"parent": [{"run_s": 2.0, "rate": 5.0}, {"run_s": 4.0, "rate": 5.0}, {"run_s": 3.0, "rate": 1.0},
                       {"run_s": 1.0, "rate": 7.0}],
            "change": [{"run_s": 1.0, "rate": 6.0}, {"run_s": 4.0, "rate": 5.0}, {"run_s": 2.0, "rate": 0.5},
                       {"run_s": 1.5, "rate": 8.0}]}
    table = _tool().compare(runs, contract)
    assert table["run_s"]["pairs_won"] == 2 and table["rate"]["pairs_won"] == 2  # ties are not won
    assert table["run_s"]["parent"]["median"] == 2.5 and table["run_s"]["change"]["median"] == 1.75
    assert table["run_s"]["delta_pct"] == -30.0
    assert table["run_s"]["parent"]["iqr"] == 3.25 - 1.75
    assert (table["run_s"]["parent"]["min"], table["run_s"]["parent"]["max"]) == (1.0, 4.0)
    assert (table["rate"]["change"]["min"], table["rate"]["change"]["max"]) == (0.5, 8.0)


def test_two_modes_show_in_the_extremes_not_only_the_median():
    # peak RSS of one tree that lands near 80.7 or near 99.7 MB from run to run
    contract = {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}
    runs = {"parent": [{"peak_rss_mb": v} for v in (99.7, 99.6, 99.8, 80.7)],
            "change": [{"peak_rss_mb": v} for v in (80.6, 99.7, 80.8, 80.7)]}
    row = _tool().compare(runs, contract)["peak_rss_mb"]
    assert row["delta_pct"] < -10.0  # the medians alone read as a 19% drop
    assert (row["parent"]["min"], row["parent"]["max"]) == (80.7, 99.8)
    assert (row["change"]["min"], row["change"]["max"]) == (80.6, 99.7)  # both modes on both sides


def test_a_failed_run_exits_1_and_writes_nothing(tmp_path):
    broken = tmp_path / "broken"
    (broken / "bench").mkdir(parents=True)
    (broken / "bench" / "run.py").write_text("import sys\nsys.exit(1)\n", encoding="utf-8")
    out = tmp_path / "BENCH_tiny.json"
    proc = compare(broken, ROOT, out)
    assert proc.returncode == 1
    assert "pair 0: the parent run failed" in proc.stderr
    assert not out.exists()


def test_line_kinds_split_a_fixed_package(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text('''"""Module docstring,
on two lines."""

# a comment
x = 1  # a trailing comment is code


def f():
    """One line."""
    s = """not a docstring:
    a string on two lines"""
    return s
''', encoding="utf-8")
    (package / "b.py").write_text("class C:\n    '''Doc.'''\n\n    y = 2\n", encoding="utf-8")
    (package / "skipped.txt").write_text("# not Python\n", encoding="utf-8")
    assert _tool().line_kinds(package) == {"docstring": 4, "comment": 1, "blank": 4, "code": 7}

"""Packaging: the declared dependency floors cover the NumPy API the package calls, and
the package root re-exports nothing."""
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_floor_has_vecdot():
    # theory.estimate_problem_constants calls np.vecdot, which NumPy added in 2.0
    (floor,) = re.findall(r'"numpy>=(\d+(?:\.\d+)*)"', PYPROJECT.read_text())
    assert tuple(int(p) for p in floor.split(".")) >= (2, 0)
    assert hasattr(np, "vecdot")


def test_package_root_loads_no_module():
    # every name is imported from its module, so the root has nothing to load
    code = "import sys, fedrelax; print(sorted(m for m in sys.modules if m.startswith('fedrelax.')))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"

"""The declared dependency floors cover the NumPy API the package calls."""
import re
from pathlib import Path

import numpy as np

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_floor_has_vecdot():
    # theory.estimate_problem_constants calls np.vecdot, which NumPy added in 2.0
    (floor,) = re.findall(r'"numpy>=(\d+(?:\.\d+)*)"', PYPROJECT.read_text())
    assert tuple(int(p) for p in floor.split(".")) >= (2, 0)
    assert hasattr(np, "vecdot")

"""The quick demos print exactly their recorded output.

``tests/data/demo_<name>.txt`` holds each demo's stdout.  Demos 01-03 run here
(about 0.3 s each); the CI ``demos`` job diffs all five, including the slower
simulation demos 04 and 05.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crscombine

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["01_randomization_test", "02_local_power",
                                  "03_choosing_a_grouping"])
def test_demo_prints_its_recorded_output(name):
    env = dict(os.environ, PYTHONPATH=str(Path(crscombine.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out == (DATA / f"demo_{name.split('_', 1)[1]}.txt").read_text()

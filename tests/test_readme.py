import os
import re
import subprocess
import sys
from pathlib import Path

from qgrape import dynamics, fisher

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_runs_and_reaches_the_closed_form():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    optimized, closed_form = (float(line) for line in done.stdout.split()[:2])
    assert optimized >= 0.95 * closed_form


def test_code_built_config_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    block = next(b for b in blocks if "ScenarioConfig(" in b)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "noise = dephasing\nnoise.theta = 1.5707963267948966\n" in done.stdout


def test_listed_bounds_are_the_library_values():
    # each `module.NAME = value` of the README's bounds list is the constant's value
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"`(dynamics|fisher)\.([A-Z_]+) = ([0-9.e+-]+)`", readme)
    assert len(listed) == 8
    modules = {"dynamics": dynamics, "fisher": fisher}
    for module, name, value in listed:
        assert getattr(modules[module], name) == float(value), name

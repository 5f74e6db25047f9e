"""Rewrite the reference sweep outputs under ``tests/data/reference/``.

Run from the repository root::

    PYTHONPATH=src python tests/regenerate_reference.py

Each case is a config file under ``tests/data/`` and an ascent seed.  Its
tables and schedules go to ``tests/data/reference/<case>/``; the manifest,
which holds the wall clock and the library versions, is not kept.
``tests/test_reference_outputs.py`` reruns the same cases and compares their
cells with these files.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

from qgrape import experiments

DATA = Path(__file__).resolve().parent / "data"
REFERENCE = DATA / "reference"

# case -> (config file under DATA, ascent seed)
CASES = {
    "sweep_horizon_seed0": ("sweep_horizon.cfg", 0),
    "sweep_horizon_seed7": ("sweep_horizon.cfg", 7),
    "sweep_theta_seed0": ("sweep_theta.cfg", 0),
}


def write_case(case: str, out_dir: Path) -> list[Path]:
    """Run ``case``'s sweep and write its tables and schedules to ``out_dir``;
    returns the CSV files written."""
    config_file, seed = CASES[case]
    config = experiments.load_config(DATA / config_file)
    config = replace(config, ascent=replace(config.ascent, seed=seed))
    written = experiments.write_run(experiments.run_sweep(config), out_dir)
    (Path(out_dir) / "manifest.txt").unlink()
    return [path for path in written if path.suffix == ".csv"]


def main() -> int:
    for case in CASES:
        out = REFERENCE / case
        for stale in out.glob("*.csv"):
            stale.unlink()
        for path in write_case(case, out):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

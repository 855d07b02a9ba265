"""The demos run in-process against the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_energy_and_forces.py",
                                  pytest.param("02_train_on_morse.py",
                                               marks=pytest.mark.slow),
                                  "03_attention_vs_distance.py",
                                  "04_basis_families.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()

"""The walk-through demos run end to end, in-process, under the suite's
warnings-as-errors filter.  Demo 04, the full worked-example pipeline,
takes minutes and is left out."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_interval_arithmetic_and_newton.py",
    "02_validated_flow_and_jets.py",
    "03_splitting_certificates.py",
])
def test_demo_runs(name, capsys):
    ns = runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
    if "cert" in ns:
        assert ns["cert"].verified

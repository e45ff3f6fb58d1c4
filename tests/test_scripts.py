"""Smoke tests: each study script runs on a tiny problem and writes its CSV."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, outputs", [
    ("training_dynamics.py", ["--size", "12", "--pairs", "8", "--epochs", "3"],
     ["train_dynamics.csv"]),
    ("noise_sweep.py", ["--size", "12", "--pairs", "8", "--sigmas", "0.05", "0.2"],
     ["sweep_lambda.csv"]),
    ("operator_benchmark.py", ["--size", "12", "--pairs", "8"],
     ["deblurring/bench.csv", "inpainting/bench.csv", "projections/bench.csv"]),
])
def test_script_writes_csv(script, args, outputs, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [script, "--out", str(out)] + args)
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert "wrote" in capsys.readouterr().out
    for name in outputs:
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2, name

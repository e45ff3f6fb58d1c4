"""The compare functions of scripts/output_digest.py on files made in-process."""

import csv
import importlib.util
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from projcorr.config import ExperimentConfig
from projcorr.experiments import run_simulate, run_sweep_lambda
from projcorr.tensorio import write_nit1

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def make_outputs(root: Path) -> Path:
    """A tiny simulation and sweep under ``root``."""
    run_simulate(ExperimentConfig.from_dict({
        "operator": {"kind": "inpainting_mask", "height": 12, "width": 12, "seed": 7},
        "noise": {"sigma": 0.1},
        "dataset": {"count": 2, "seed": 3},
        "output_dir": str(root / "sim"),
    }))
    run_sweep_lambda(ExperimentConfig.from_dict({
        "experiment": "sweep_lambda",
        "operator": {"kind": "inpainting_mask", "height": 12, "width": 12, "seed": 7},
        "noise": {"sigmas": [0.05, 0.2]},
        "correction": {"lambda_grid": [0.0, 0.01]},
        "dataset": {"count": 4, "test_count": 2, "seed": 3},
        "output_dir": str(root / "sweep"),
    }))
    return root


@pytest.fixture
def twin(tmp_path):
    """The same outputs made twice, in ``parent`` and ``change``."""
    return make_outputs(tmp_path / "parent"), make_outputs(tmp_path / "change")


def rewrite_cell(path: Path, row: int, column: str, value: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_two_runs_give_the_same_digests(twin):
    parent, change = twin
    digests = digest.digests(parent)
    assert digests == digest.digests(change)
    assert "sim/manifest.json" in digests and "sweep/sweep_lambda.csv" in digests
    assert all(len(h) == 64 for h in digests.values())
    report = digest.compare(parent, change)
    assert {status for status, _, _ in report} == {"same"}
    assert [path for _, path, _ in report] == sorted(digests)


def test_perturbed_csv_cell_is_named_by_its_column(twin):
    parent, change = twin
    table = change / "sweep" / "sweep_lambda.csv"
    with open(table, newline="") as fh:
        old = float(list(csv.DictReader(fh))[0]["psnr"])
    rewrite_cell(table, 1, "psnr", repr(old * 1.5))
    moved = digest.csv_differences(parent / "sweep" / "sweep_lambda.csv", table)
    assert list(moved) == ["psnr"]
    assert moved["psnr"] == pytest.approx(1.0 / 3.0, rel=1e-5)
    changed = [r for r in digest.compare(parent, change) if r[0] != "same"]
    assert changed == [("changed", "sweep/sweep_lambda.csv",
                        f"psnr (max rel {moved['psnr']:.3g})")]


def test_non_numeric_cell_and_shape_changes(twin):
    parent, change = twin
    table = change / "sweep" / "sweep_lambda.csv"
    rewrite_cell(table, 2, "method", "other")
    moved = digest.csv_differences(parent / "sweep" / "sweep_lambda.csv", table)
    assert list(moved) == ["method"] and math.isnan(moved["method"])
    with open(table, "a") as fh:
        fh.write("extra\n")
    moved = digest.csv_differences(parent / "sweep" / "sweep_lambda.csv", table)
    assert list(moved) == ["(shape)"]


def test_changed_nit1_gives_its_largest_difference(twin):
    parent, change = twin
    truth = change / "sim" / "truth" / "img0001.nit1"
    image = digest.read_nit1(truth).astype(np.float64)
    image[3, 4, 0] += 0.25
    write_nit1(truth, image)
    report = dict((path, (status, detail)) for status, path, detail in
                  digest.compare(parent, change))
    assert report["sim/truth/img0001.nit1"] == ("changed", "max abs 0.25")
    write_nit1(truth, image[:6])
    assert digest.nit1_difference(parent / "sim" / "truth" / "img0001.nit1",
                                  truth) == math.inf


def test_missing_files_are_reported_by_side(twin):
    parent, change = twin
    (change / "sim" / "meas" / "img0000.nit1").unlink()
    shutil.copy(parent / "sim" / "manifest.json", change / "extra.json")
    changed = [r for r in digest.compare(parent, change) if r[0] != "same"]
    assert changed == [("missing", "extra.json", "in parent"),
                       ("missing", "sim/meas/img0000.nit1", "in change")]

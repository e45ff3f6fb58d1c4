#!/usr/bin/env python3
"""Digest the output files of one benchmark job, and say which ones a change moved.

Runs job 0 of a ``perfbench`` workload through ``perfbench/workloads.py``'s
own ``run_job``, so the files are the benchmark's, and prints one
``sha256  path`` line per file under the job directory, sorted by path::

    python3 scripts/output_digest.py --workload sweep_blur32 --seed 0
    python3 scripts/output_digest.py --workload pipeline_cs64 --parent HEAD~1

With ``--parent REV`` the same job also runs in a ``git archive`` copy of REV,
and each file is reported as ``same``, ``changed`` or ``missing`` on one
side.  A changed CSV names every column whose cells differ, with the largest
relative difference; a changed NIT1 file gives its largest absolute
difference.  The exit code is 1 when any file differs.

Each job runs in a fresh interpreter with BLAS on one thread, as the
benchmark runs it.  Standard library and NumPy only.
"""

import argparse
import csv
import hashlib
import io
import math
import os
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# run in a fresh interpreter: argv is tree, workload, seed, work directory
JOB = """
import sys
from pathlib import Path
tree, name, seed, workdir = sys.argv[1:]
sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
import workloads
workloads.WORKLOADS[name](int(seed), Path(workdir)).run_job(0)
"""


def run_job(tree: Path, workload: str, seed: int, workdir: Path) -> Path:
    """Job 0 of ``workload`` run from the sources in ``tree``; its job directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARIABLES})
    workdir.mkdir(parents=True)
    subprocess.run([sys.executable, "-c", JOB, str(tree), workload, str(seed), str(workdir)],
                   check=True, env=env, cwd=tree)
    return workdir / "job000"


def extract(rev: str, tree: Path) -> Path:
    """A ``git archive`` copy of ``rev`` of this repository, in ``tree``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def digests(root: Path) -> dict:
    """``{path relative to root: sha256 hex}`` for every file under ``root``."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def read_nit1(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    ndim = raw[5]
    shape = struct.unpack(f"<{ndim}I", raw[8:8 + 4 * ndim])
    return np.frombuffer(raw, dtype="<f4", offset=8 + 4 * ndim).reshape(shape)


def _relative(a: str, b: str) -> float:
    """Relative difference of two numeric cells; nan if either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.nan
    if x == y:
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def csv_differences(parent: Path, change: Path) -> dict:
    """``{column: largest relative difference}`` over the cells that differ.

    A non-numeric cell that differs counts as ``nan``; a different header or
    row count is reported under the key ``"(shape)"``.
    """
    with open(parent, newline="") as fh:
        old = list(csv.reader(fh))
    with open(change, newline="") as fh:
        new = list(csv.reader(fh))
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        return {"(shape)": math.nan}
    moved: dict = {}
    for old_row, new_row in zip(old[1:], new[1:]):
        for column, a, b in zip(old[0], old_row, new_row):
            if a != b:
                d = _relative(a, b)
                previous = moved.get(column, 0.0)
                moved[column] = d if math.isnan(d) or d > previous else previous
    return moved


def nit1_difference(parent: Path, change: Path) -> float:
    """Largest absolute difference of two NIT1 tensors; inf if their shapes differ."""
    a, b = read_nit1(parent), read_nit1(change)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a.astype(np.float64) - b), initial=0.0))


def compare(parent: Path, change: Path) -> list:
    """One ``(status, path, detail)`` per file under either root, sorted by path."""
    old, new = digests(parent), digests(change)
    report = []
    for path in sorted(set(old) | set(new)):
        if path not in new:
            report.append(("missing", path, "in change"))
        elif path not in old:
            report.append(("missing", path, "in parent"))
        elif old[path] == new[path]:
            report.append(("same", path, ""))
        elif path.endswith(".csv"):
            moved = csv_differences(parent / path, change / path)
            report.append(("changed", path, ", ".join(
                f"{column} (max rel {d:.3g})" for column, d in moved.items())))
        elif path.endswith(".nit1"):
            d = nit1_difference(parent / path, change / path)
            report.append(("changed", path, f"max abs {d:.3g}"))
        else:
            report.append(("changed", path, ""))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name in perfbench's WORKLOADS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--parent", help="git revision to compare the job's files with")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        tmp = Path(tmp)
        change = run_job(ROOT, args.workload, args.seed, tmp / "change")
        if args.parent is None:
            for path, digest in digests(change).items():
                print(f"{digest}  {path}")
            return 0
        tree = extract(args.parent, tmp / "tree")
        report = compare(run_job(tree, args.workload, args.seed, tmp / "parent"), change)
    for status, path, detail in report:
        print(f"{status:8s} {path}" + (f"  {detail}" if detail else ""))
    counts = {s: sum(1 for r in report if r[0] == s) for s in ("same", "changed", "missing")}
    print(f"{args.workload} seed {args.seed} vs {args.parent}: "
          + ", ".join(f"{n} {s}" for s, n in counts.items()))
    return 0 if counts["same"] == len(report) else 1


if __name__ == "__main__":
    sys.exit(main())

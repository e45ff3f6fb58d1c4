"""projcorr benchmark: three workloads timed end to end, and traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_blur32 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py        # every workload, each in a fresh process

One invocation is one run of one workload in one fresh process, so peak
memory and imports do not carry over between workloads.  The run builds the
workload from the seed (default 0), measures whole jobs for about
``--seconds`` seconds, checks every job's outputs against a NumPy reference
outside the timed part, and prints as its last line a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
go to a temporary directory under ``.perfbench/`` that is removed at exit.

Workloads (a job is run in a closed loop, one at a time):

* ``pipeline_cs64`` -- ``projcorr.cli.main`` for simulate, reconstruct,
  correct (exact, from the stored reconstructions) and evaluate on a 64x64
  random projection (m=1024, CG engine), 16 images, Tikhonov alpha 1e-2,
  noise 0.01.  Item: one image through all four stages.
* ``sweep_blur32`` -- ``run_sweep_lambda`` with its defaults on the 32x32
  blur: 5 noise levels x 9 weights x 8 test images.  Item: one (noise level,
  weight, test image) correction with its scoring; 360 per job.
* ``train_blur32`` -- ``run_train_dynamics`` on the acceptance-test
  criterion-8 configuration, learning rate 1.5/L.  Item: one epoch with its
  evaluation over 232 images; 100 per job.

End-to-end metrics (``--trace 0``): ``items_per_s`` (items per job over the
median job time), ``setup_s`` (fastest of the ``build_operator`` plus
``build_engine`` calls repeated for 0.25 s before every job and after the
last, outside the job clock), ``peak_rss_mb`` (``ru_maxrss`` of the run's
process at the end of the timed part, the builds between jobs included),
``psnr_db`` and ``success_ratio`` (1 - failed items / attempted items; an
item fails if its job raises or misses the reference).
``psnr_db`` is the mean PSNR of the corrected files (pipeline), the projected
PSNR at the best weight averaged over noise levels (sweep), and the projected
test PSNR at the last epoch (train; it sits at the rounding floor, ~222 dB).

Per-layer metrics (``--trace 1``): the run measures untraced jobs for half
the time and traced jobs for the other half; see ``spans.layer_metrics``.
Spans are written to ``.perfbench/spans-<workload>-seed<seed>.npz``.

BLAS and OpenMP run on one thread: the variables below are set before NumPy
loads.  The environment (versions, BLAS build, CPU, caches, threads) is
printed on a line starting with ``env``.

``projcorr bench`` (``run_bench``) is a PSNR/SSIM quality table, unrelated
to this benchmark.
"""

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARIABLES:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

try:
    import workloads  # noqa: E402
except ImportError as exc:
    print(f"error: cannot import projcorr from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

import numpy as np  # noqa: E402

import spans  # noqa: E402

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "psnr_db": "dB",
    "success_ratio": "ratio",
}
IMPORT_RUNS = 5
SETUP_SLICE_S = 0.25


class Phase:
    """Durations and outputs of the jobs run in one timed phase."""

    def __init__(self):
        self.durations = []
        self.outputs = []
        self.raised = 0


def measure(workload, seconds: float, first_job: int, tracer=None,
            setup_times=None) -> Phase:
    """Run jobs back to back; start another only if it should end within ``seconds``.

    ``seconds`` counts job time only.  With ``setup_times`` given, a slice of
    timed builds runs before every job and after the last one, outside the
    job clock, so that ``setup_s`` samples the whole run.
    """
    phase = Phase()
    while True:
        if setup_times is not None:
            setup_times.extend(time_builds(workload))
        if tracer is not None:
            tracer.job_id = len(phase.durations)
        t0 = time.perf_counter()
        try:
            phase.outputs.append(workload.run_job(first_job + len(phase.durations)))
        except Exception:
            traceback.print_exc()
            phase.raised += 1
        phase.durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.job_id = -1
        if sum(phase.durations) + statistics.median(phase.durations) > seconds:
            if setup_times is not None:
                setup_times.extend(time_builds(workload))
            return phase


def time_builds(workload, budget_s: float = SETUP_SLICE_S, min_reps: int = 2) -> list:
    """Durations of repeated operator plus engine constructions for ``budget_s``.

    ``setup_s`` is the fastest build over all slices of a run.  On a shared
    two-vCPU Xeon VM the speed of the machine drifts by up to 1.5x within
    seconds to minutes; the median of builds lasting 0.1 ms lands wherever
    the machine happened to be, the fastest build over slices spread across
    the run does not.
    """
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        workload.build()
        times.append(time.perf_counter() - t0)
    return times


def import_seconds(runs: int = IMPORT_RUNS) -> float:
    """Median time of ``import projcorr`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import projcorr; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def blas_threads():
    """Thread count NumPy's bundled OpenBLAS reports, or None if it is not found."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "threads": {var: os.environ[var] for var in THREAD_VARIABLES},
        "blas_threads": blas_threads(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        setup_times = []
        tracer = None
        if trace:
            phases = [measure(workload, seconds / 2, 0)]
            tracer = spans.Tracer()
            spans.install(tracer)
            workload.span = tracer.span
            phases.append(measure(workload, seconds / 2, len(phases[0].durations), tracer))
        else:
            phases = [measure(workload, seconds, 0, setup_times=setup_times)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        jobs = sum(len(p.durations) for p in phases)
        outputs = [out for p in phases for out in p.outputs]
        failed, psnr_db = workload.check(outputs)
        failed += workload.items_per_job * sum(p.raised for p in phases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = workload.items_per_job * jobs
    for phase in phases:
        print(f"{name}: job seconds " + " ".join(f"{d:.3f}" for d in phase.durations),
              file=sys.stderr)
    rates = [workload.items_per_job / statistics.median(p.durations) for p in phases]
    if trace:
        metrics = spans.layer_metrics(tracer, len(phases[1].durations))
        metrics["cli.import_s"] = (import_seconds(), "s")
        metrics["trace.overhead_ratio"] = (1.0 - rates[1] / rates[0], "ratio")
        tracer.save(SCRATCH / f"spans-{name}-seed{seed}.npz")
    else:
        metrics = {
            "items_per_s": rates[0],
            "setup_s": min(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "psnr_db": psnr_db,
            "success_ratio": 1.0 - failed / attempted,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return {
        "correct": failed == 0 and math.isfinite(psnr_db),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process; prints one metrics table."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with code {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="workload to run (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("env " + json.dumps(environment(), sort_keys=True))
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

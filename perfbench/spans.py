"""Span tracing for the benchmark's traced runs, installed from outside.

Every layer's public functions and methods are replaced in place by a wrapper
that records one span per call: name, start, end, parent span, job id and an
optional amount of work (elements transformed, bytes written, ...).  Spans
stay in memory in flat arrays and are summarised, and written to disk, after
the run.  Nothing under ``src/`` knows about the tracer.

A function imported by name into other modules (``ssim`` into
``projcorr.correction`` and ``projcorr.experiments``, ``make_engine`` into
``projcorr.config``, the ``RUNNERS`` table ...) is replaced in every
``projcorr.*`` namespace and module-level dict that holds it.  Methods are
replaced on the classes that define them; ``numpy.fft`` functions on
``numpy.fft``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)
CHOLESKY_SPANS = ("correction.cho_factor", "reconstructors.cho_factor", "noise.cho_factor")
EXPERIMENT_DRIVERS = (
    "run_simulate", "run_reconstruct", "run_correct", "run_evaluate",
    "run_sweep_lambda", "run_train_dynamics",
)
CLI_STAGES = ("simulate", "reconstruct", "correct", "evaluate")


class Tracer:
    """In-memory span store; ``job_id`` tags every span opened while it is set."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.errors: dict = {}  # span index -> exception class name
        self._stack = [-1]
        self.job_id = -1

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording a span per call; ``work(args, kwargs, result)`` sizes it."""
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name),
            parent=np.array(self.parent), job=np.array(self.job),
            start=np.array(self.start), end=np.array(self.end), work=np.array(self.work),
        )


def _projcorr_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "projcorr" or k.startswith("projcorr."))]


def _replace_everywhere(original, wrapper) -> None:
    for module in _projcorr_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper


def _wrap_function(tracer, module, attr, name, work=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(name, original, work))


def _wrap_methods(tracer, module, base, method, name, work=None) -> None:
    for cls in list(vars(module).values()):
        if isinstance(cls, type) and issubclass(cls, base) and method in cls.__dict__:
            setattr(cls, method, tracer.wrap(name, cls.__dict__[method], work))


def _array_size(args, kwargs, result):
    return float(np.size(args[0]))


def _cholesky_flops(args, kwargs, result):
    n = np.shape(args[0])[0]
    return n ** 3 / 3.0


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


def _positive_lambda(args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return 1.0 if config.lam > 0 else 0.0


def _history_mb(args, kwargs, result):
    total = sum(s.weights.nbytes + s.bias.nbytes for s in result.snapshots)
    return total / 2 ** 20


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of an imported ``projcorr`` and ``numpy.fft``."""
    from projcorr import (
        correction, experiments, metrics, noise, operators, pinv, reconstructors, tensorio,
    )

    for method in ("apply", "adjoint", "to_dense"):
        _wrap_methods(tracer, operators, operators.SensingOperator, method,
                      f"operators.{method}")
    for method in ("pinv_apply", "nullspace_projector_apply"):
        _wrap_methods(tracer, pinv, pinv.PinvEngine, method, f"pinv.{method}")
    _wrap_function(tracer, pinv, "make_engine", "pinv.make_engine")
    _wrap_function(tracer, pinv, "conjugate_gradient", "pinv.conjugate_gradient")

    _wrap_function(tracer, correction, "exact_correction", "correction.exact_correction")
    _wrap_function(tracer, correction, "regularized_correction",
                   "correction.regularized_correction", _positive_lambda)
    _wrap_function(tracer, correction, "lambda_grid_search", "correction.lambda_grid_search")

    reconstructors.TikhonovReconstructor.__init__ = tracer.wrap(
        "reconstructors.tikhonov_init", reconstructors.TikhonovReconstructor.__init__)
    _wrap_methods(tracer, reconstructors, reconstructors.Reconstructor, "reconstruct",
                  "reconstructors.reconstruct")
    _wrap_function(tracer, reconstructors, "fit_learned_linear",
                   "reconstructors.fit_learned_linear")
    _wrap_function(tracer, reconstructors, "train_epochs", "reconstructors.train_epochs",
                   _history_mb)

    for fn in ("ssim", "nullspace_consistency", "evaluate_reconstruction"):
        _wrap_function(tracer, metrics, fn, f"metrics.{fn}")
    noise.NoiseModel.inv_apply = tracer.wrap("noise.inv_apply", noise.NoiseModel.inv_apply)
    for fn in ("read_nit1", "write_nit1"):
        _wrap_function(tracer, tensorio, fn, f"tensorio.{fn}", _file_bytes)
    for fn in EXPERIMENT_DRIVERS:
        _wrap_function(tracer, experiments, fn, f"experiments.{fn}")

    # cho_factor is imported by name; each importing module gets its own span
    # name so factorizations made by the correction layer can be told apart.
    for module in (correction, reconstructors, noise):
        short = module.__name__.rsplit(".", 1)[-1]
        module.cho_factor = tracer.wrap(f"{short}.cho_factor", module.cho_factor,
                                        _cholesky_flops)
    for fn in FFT_FUNCTIONS:
        setattr(np.fft, fn, tracer.wrap("kernel.fft", getattr(np.fft, fn), _array_size))


def _inside(parent: np.ndarray, ancestor: np.ndarray) -> np.ndarray:
    """True where some proper ancestor of the span is flagged in ``ancestor``."""
    n = parent.size
    up = np.append(np.where(parent < 0, n, parent), n)
    flagged = np.append(ancestor, False)
    hit = np.zeros(n + 1, dtype=bool)
    cur = up.copy()
    while not np.all(cur == n):
        hit |= flagged[cur]
        cur = up[cur]
    return hit[:n]


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer metrics, each per traced job, as ``{name: (value, unit)}``.

    ``.calls`` counts spans, ``.self_s`` sums self time (duration minus the
    time covered by child spans) and ``.s`` sums the duration of the
    outermost span of that name.
    """
    name = np.array(tracer.name, dtype=np.int64)
    parent = np.array(tracer.parent, dtype=np.int64)
    dur = np.array(tracer.end) - np.array(tracer.start)
    work = np.array(tracer.work)
    counted = np.array(tracer.job) >= 0
    linked = parent >= 0
    self_time = dur - np.bincount(parent[linked], weights=dur[linked], minlength=dur.size)

    def spans(*names):
        ids = [tracer._ids[n] for n in names if n in tracer._ids]
        return np.isin(name, ids)

    def per_job(values, mask):
        return float(values[mask & counted].sum()) / jobs

    def calls(*names):
        return per_job(np.ones_like(dur), spans(*names))

    def self_s(n):
        return per_job(self_time, spans(n))

    def outer_s(n):
        mask = spans(n)
        return per_job(dur, mask & ~_inside(parent, mask))

    out = {}
    for layer in ("operators.apply", "operators.adjoint"):
        out[f"{layer}.calls"] = (calls(layer), "count/job")
        out[f"{layer}.self_s"] = (self_s(layer), "s/job")
    out["operators.to_dense.calls"] = (calls("operators.to_dense"), "count/job")
    out["operators.to_dense.s"] = (outer_s("operators.to_dense"), "s/job")
    out["pinv.make_engine.s"] = (outer_s("pinv.make_engine"), "s/job")
    solves = calls("pinv.pinv_apply")
    matvecs = spans("operators.apply", "operators.adjoint") & _inside(
        parent, spans("pinv.pinv_apply"))
    out["pinv.pinv_apply.calls"] = (solves, "count/job")
    out["pinv.pinv_apply.self_s"] = (self_s("pinv.pinv_apply"), "s/job")
    out["pinv.matvecs_per_solve"] = (
        per_job(np.ones_like(dur), matvecs) / solves if solves else 0.0, "count")
    out["pinv.nullspace_projector_apply.calls"] = (
        calls("pinv.nullspace_projector_apply"), "count/job")
    out["pinv.nullspace_projector_apply.self_s"] = (
        self_s("pinv.nullspace_projector_apply"), "s/job")
    cg = tracer._ids.get("pinv.conjugate_gradient")
    solver_errors = sum(1 for idx, exc in tracer.errors.items()
                        if exc == "SolverError" and name[idx] == cg and counted[idx])
    out["pinv.solver_errors"] = (solver_errors / jobs, "count/job")

    for layer in ("correction.exact_correction", "correction.regularized_correction"):
        out[f"{layer}.calls"] = (calls(layer), "count/job")
        out[f"{layer}.self_s"] = (self_s(layer), "s/job")
    out["correction.lambda_grid_search.s"] = (outer_s("correction.lambda_grid_search"), "s/job")
    factorizations = calls("correction.cho_factor")
    weighted = per_job(work, spans("correction.regularized_correction"))
    out["correction.factorizations"] = (factorizations, "count/job")
    out["correction.factor_reuse_ratio"] = (
        1.0 - factorizations / weighted if weighted else 0.0, "ratio")

    out["reconstructors.tikhonov_init.s"] = (outer_s("reconstructors.tikhonov_init"), "s/job")
    out["reconstructors.fit_learned_linear.calls"] = (
        calls("reconstructors.fit_learned_linear"), "count/job")
    out["reconstructors.fit_learned_linear.s"] = (
        outer_s("reconstructors.fit_learned_linear"), "s/job")
    out["reconstructors.reconstruct.calls"] = (calls("reconstructors.reconstruct"), "count/job")
    out["reconstructors.reconstruct.self_s"] = (self_s("reconstructors.reconstruct"), "s/job")
    out["reconstructors.train_epochs.s"] = (outer_s("reconstructors.train_epochs"), "s/job")
    history = work[spans("reconstructors.train_epochs") & counted]
    out["reconstructors.history_mb"] = (float(history.max()) if history.size else 0.0, "MB")

    for layer in ("metrics.ssim", "metrics.nullspace_consistency"):
        out[f"{layer}.calls"] = (calls(layer), "count/job")
        out[f"{layer}.self_s"] = (self_s(layer), "s/job")
    out["metrics.evaluate_reconstruction.self_s"] = (
        self_s("metrics.evaluate_reconstruction"), "s/job")
    out["noise.inv_apply.calls"] = (calls("noise.inv_apply"), "count/job")
    out["noise.inv_apply.self_s"] = (self_s("noise.inv_apply"), "s/job")

    for layer in ("tensorio.read_nit1", "tensorio.write_nit1"):
        out[f"{layer}.calls"] = (calls(layer), "count/job")
        out[f"{layer}.s"] = (outer_s(layer), "s/job")
    out["tensorio.bytes"] = (
        per_job(work, spans("tensorio.read_nit1", "tensorio.write_nit1")), "B/job")
    for driver in EXPERIMENT_DRIVERS:
        out[f"experiments.{driver}.self_s"] = (self_s(f"experiments.{driver}"), "s/job")
    for stage in CLI_STAGES:
        out[f"cli.stage_s.{stage}"] = (outer_s(f"cli.stage.{stage}"), "s/job")

    out["kernel.fft_calls"] = (calls("kernel.fft"), "count/job")
    out["kernel.fft_points"] = (per_job(work, spans("kernel.fft")), "count/job")
    out["kernel.cholesky_calls"] = (calls(*CHOLESKY_SPANS), "count/job")
    out["kernel.cholesky_s"] = (per_job(dur, spans(*CHOLESKY_SPANS)), "s/job")
    out["kernel.cholesky_flops"] = (per_job(work, spans(*CHOLESKY_SPANS)), "flop/job")
    return out

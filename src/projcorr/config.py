"""Experiment configuration: JSON-backed dataclasses and object builders.

A configuration file is a JSON object with the sections below; every CLI
flag overrides its JSON counterpart.  Unknown keys are rejected so typos
fail loudly.  See the README for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

from .errors import ParameterError
from .noise import NoiseModel
from .operators import (
    DenseOperator,
    Geometry,
    SensingOperator,
    make_gaussian_blur,
    make_inpainting_mask,
    make_random_projection,
)
from .pinv import DEFAULT_CG_TOL, DEFAULT_RCOND, PinvEngine, make_engine

EXPERIMENTS = (
    "simulate",
    "reconstruct",
    "correct",
    "evaluate",
    "train_dynamics",
    "sweep_lambda",
    "bench",
)

OPERATOR_KINDS = ("dense", "inpainting_mask", "gaussian_blur", "random_projection")


def _take(d: dict, cls_name: str, allowed: Sequence[str]) -> dict:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ParameterError(f"unknown {cls_name} keys: {sorted(unknown)}")
    return d


@dataclass
class OperatorSpec:
    kind: str = "gaussian_blur"
    height: Optional[int] = 32
    width: Optional[int] = 32
    channels: int = 1
    n: Optional[int] = None
    sigmas: List[float] = field(default_factory=lambda: [3.0, 0.15])
    truncation: float = 4.0
    keep_probability: float = 0.5
    share_channels: bool = True
    m: Optional[int] = None
    family: str = "rademacher"
    matrix_path: Optional[str] = None
    seed: int = 0
    pinv_method: str = "auto"
    rcond: float = DEFAULT_RCOND

    @staticmethod
    def from_dict(d: dict) -> "OperatorSpec":
        return OperatorSpec(**_take(dict(d), "operator", OperatorSpec.__dataclass_fields__))

    def geometry(self) -> Optional[Geometry]:
        if self.height is None or self.width is None:
            return None
        return Geometry(self.height, self.width, self.channels)


@dataclass
class NoiseSpec:
    # sigma None means "unspecified": noiseless for simulation, or inherited
    # from the manifest when correcting previously simulated measurements
    sigma: Optional[float] = None
    sigmas: List[float] = field(default_factory=lambda: [0.01, 0.05, 0.1, 0.2, 0.3])
    covariance_path: Optional[str] = None

    @staticmethod
    def from_dict(d: dict) -> "NoiseSpec":
        return NoiseSpec(**_take(dict(d), "noise", NoiseSpec.__dataclass_fields__))

    def sigma_or(self, default: float = 0.0) -> float:
        return self.sigma if self.sigma is not None else default

    def model(self, sigma: Optional[float] = None) -> NoiseModel:
        if self.covariance_path is not None:
            from .tensorio import read_nit1

            return NoiseModel.dense(read_nit1(self.covariance_path))
        return NoiseModel.from_sigma(self.sigma_or() if sigma is None else sigma)


@dataclass
class ReconstructorSpec:
    kind: str = "learned_linear"
    alpha: float = 1e-6
    epochs: int = 100
    learning_rate: Optional[float] = None
    source_dir: Optional[str] = None
    pattern: str = "recon_{image_id}.nit1"
    kinds: List[str] = field(default_factory=lambda: ["adjoint", "tikhonov", "learned_linear"])

    @staticmethod
    def from_dict(d: dict) -> "ReconstructorSpec":
        return ReconstructorSpec(
            **_take(dict(d), "reconstructor", ReconstructorSpec.__dataclass_fields__)
        )


@dataclass
class CorrectionSpec:
    mode: str = "exact"
    lam: float = 0.0
    lambda_grid: Optional[List[float]] = None
    cg_tol: float = DEFAULT_CG_TOL
    cg_max_iter: Optional[int] = None
    objective: str = "psnr"

    @staticmethod
    def from_dict(d: dict) -> "CorrectionSpec":
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        return CorrectionSpec(**_take(d, "correction", CorrectionSpec.__dataclass_fields__))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d


@dataclass
class DatasetSpec:
    type: str = "synthetic"
    name: str = "synthetic"
    count: int = 32
    test_count: int = 8
    seed: int = 1
    blobs: int = 6
    paths: List[str] = field(default_factory=list)
    manifest: Optional[str] = None
    reconstruction_dir: Optional[str] = None

    @staticmethod
    def from_dict(d: dict) -> "DatasetSpec":
        return DatasetSpec(**_take(dict(d), "dataset", DatasetSpec.__dataclass_fields__))


@dataclass
class ExperimentConfig:
    experiment: str = "simulate"
    operator: OperatorSpec = field(default_factory=OperatorSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    reconstructor: ReconstructorSpec = field(default_factory=ReconstructorSpec)
    correction: CorrectionSpec = field(default_factory=CorrectionSpec)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    output_dir: str = "out"
    base_seed: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ParameterError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = _take(dict(d), "config", ExperimentConfig.__dataclass_fields__)
        sections = {
            "operator": OperatorSpec,
            "noise": NoiseSpec,
            "reconstructor": ReconstructorSpec,
            "correction": CorrectionSpec,
            "dataset": DatasetSpec,
        }
        kwargs = {}
        for key, value in d.items():
            if key in sections and isinstance(value, dict):
                kwargs[key] = sections[key].from_dict(value)
            else:
                kwargs[key] = value
        return ExperimentConfig(**kwargs)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["correction"] = self.correction.to_dict()
        return d

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_operator(spec: OperatorSpec) -> SensingOperator:
    """Construct the forward operator described by a spec."""
    geometry = spec.geometry()
    if spec.kind == "gaussian_blur":
        if geometry is None:
            raise ParameterError("gaussian_blur needs height and width")
        return make_gaussian_blur(geometry, tuple(spec.sigmas), truncation=spec.truncation)
    if spec.kind == "inpainting_mask":
        if geometry is None:
            raise ParameterError("inpainting_mask needs height and width")
        return make_inpainting_mask(
            geometry, spec.keep_probability, spec.seed, share_channels=spec.share_channels
        )
    if spec.kind == "random_projection":
        n = geometry.size if geometry is not None else spec.n
        if n is None or spec.m is None:
            raise ParameterError("random_projection needs n (or geometry) and m")
        return make_random_projection(
            n, spec.m, spec.seed, family=spec.family, geometry=geometry
        )
    if spec.kind == "dense":
        if spec.matrix_path is None:
            raise ParameterError("dense operator needs matrix_path")
        from .tensorio import read_nit1

        matrix = read_nit1(spec.matrix_path)
        if matrix.ndim != 2:
            raise ParameterError(f"{spec.matrix_path}: dense operator file must be 2-D")
        return DenseOperator(matrix, geometry=geometry)
    raise ParameterError(f"unknown operator kind {spec.kind!r}; choose from {OPERATOR_KINDS}")


def build_engine(op: SensingOperator, spec: OperatorSpec,
                 correction: Optional[CorrectionSpec] = None) -> PinvEngine:
    cg_tol = correction.cg_tol if correction is not None else DEFAULT_CG_TOL
    cg_max_iter = correction.cg_max_iter if correction is not None else None
    return make_engine(
        op, method=spec.pinv_method, rcond=spec.rcond, cg_tol=cg_tol, cg_max_iter=cg_max_iter
    )


def operator_manifest(spec: OperatorSpec) -> dict:
    """Operator parameters recorded into simulation manifests for replay."""
    d = asdict(spec)
    return {k: v for k, v in d.items() if v is not None}

"""Run configuration: JSON documents resolved into grids and protocols."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .datasets import DatasetDescriptor
from .errors import UsageError
from .functions import is_finite_number, is_integer, is_number
from .kernels import BaseKernel, FunctionalKernel, transforms_from_dicts
from .selection import STEP_PENALTY_CAP, STEP_PENALTY_HIGH, CandidateGrid, step_penalty
from .solver import DEFAULT_TOL

__all__ = ["RunConfig", "load_config", "build_grid"]


@dataclass
class RunConfig:
    dataset: DatasetDescriptor | None
    grid: CandidateGrid
    protocol: dict = field(default_factory=dict)
    split: dict = field(default_factory=lambda: {"policy": "first_l"})
    seed: int = 0
    tol: float = DEFAULT_TOL


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, overrides)


def parse_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """The run a config document describes.

    A value of the wrong JSON type or a missing required field is a
    :class:`UsageError`, like every other invalid value.
    """
    try:
        return _run_config(doc, overrides or {})
    except (TypeError, ValueError, AttributeError, KeyError) as exc:
        raise UsageError(f"config is malformed: {type(exc).__name__}: {exc}") from exc


def _run_config(doc: dict, overrides: dict) -> RunConfig:
    grid_doc = dict(doc.get("grid", {}))
    for key in ("C", "sigma", "dimensions"):
        if overrides.get(key) is not None:
            if key == "sigma":
                # replace sigma lists of every gaussian kernel entry
                kernels = []
                for entry in grid_doc.get("kernels", []):
                    entry = dict(entry)
                    if entry.get("kind") == "gaussian":
                        entry["sigma"] = overrides["sigma"]
                    kernels.append(entry)
                grid_doc["kernels"] = kernels
            else:
                grid_doc[key] = overrides[key]
    dataset = None
    if "dataset" in doc:
        ds = doc["dataset"]
        dataset = DatasetDescriptor(
            path=ds["path"],
            format=ds.get("format", "csv_rows"),
            label_map=ds.get("label_map"),
            fat_threshold=ds.get("fat_threshold", 20.0),
            interval=None if ds.get("interval") is None else tuple(ds["interval"]),
            abscissae=None if ds.get("abscissae") is None else tuple(ds["abscissae"]),
        )
    seed = overrides.get("seed")
    if seed is None:
        seed = doc.get("seed", 0)
    split = doc.get("split", {"policy": "first_l"})
    if split.get("l") is not None:
        _check_integer(split["l"], "split.l")
    return RunConfig(
        dataset=dataset,
        grid=build_grid(grid_doc),
        protocol=_protocol(doc.get("protocol", {})),
        split=split,
        seed=_seed(seed),
        tol=_tol(doc.get("tol", DEFAULT_TOL)),
    )


def _seed(value) -> int:
    if not (is_number(value) and float(value).is_integer() and value >= 0):
        raise UsageError(f"seed must be a non-negative integer, got {value!r}")
    return int(value)


def _check_integer(value, name: str) -> None:
    if not is_integer(value):
        raise UsageError(f"{name} must be an integer, got {value!r}")


def _protocol(doc: dict) -> dict:
    """The protocol document with its null fields dropped, as absent ones."""
    doc = {key: value for key, value in doc.items() if value is not None}
    kind = doc.get("kind")
    if kind in ("fixed_split", "repeated_splits"):
        for key in ("train_size", "inner_l"):
            if key not in doc:
                raise UsageError(f"protocol {kind} needs {key}")
    for key in ("train_size", "inner_l", "count"):
        if key in doc:
            _check_integer(doc[key], f"protocol.{key}")
    return doc


def _tol(value) -> float:
    if not (is_number(value) and 0 < value < float("inf")):
        raise UsageError(f"tol must be a positive finite number, got {value!r}")
    return float(value)


def _expand_kernels(entries, transforms) -> list[FunctionalKernel]:
    kernels = []
    for entry in entries:
        kind = entry.get("kind")
        if kind == "linear":
            bases = [BaseKernel.linear()]
        elif kind == "gaussian":
            sigmas = entry.get("sigma", 1.0)
            if not isinstance(sigmas, (list, tuple)):
                sigmas = [sigmas]
            bases = [BaseKernel.gaussian(s) for s in sigmas]
        elif kind == "polynomial":
            degrees = entry.get("degree", 2)
            if not isinstance(degrees, (list, tuple)):
                degrees = [degrees]
            bases = [BaseKernel.polynomial(d) for d in degrees]
        else:
            raise UsageError(f"unknown kernel kind {kind!r} in grid")
        kernels.extend(
            FunctionalKernel(transforms=transforms, base=b) for b in bases
        )
    return kernels


def build_grid(doc: dict) -> CandidateGrid:
    """Resolve a grid document into an ordered :class:`CandidateGrid`."""
    transforms = transforms_from_dicts(doc.get("transforms", []))
    kernels = _expand_kernels(doc.get("kernels", []), transforms)
    C_values = doc.get("C", [])
    for C in C_values:
        if not is_finite_number(C):
            raise UsageError(f"C values must be finite numbers, got {C!r}")
    dimensions = doc.get("dimensions", [0])
    penalty_doc = doc.get("penalty", {"kind": "step"})
    if penalty_doc.get("kind") == "step":
        cap = penalty_doc.get("cap", STEP_PENALTY_CAP)
        high = penalty_doc.get("high", STEP_PENALTY_HIGH)
        for name, value in (("cap", cap), ("high", high)):
            if not is_number(value):
                raise UsageError(f"penalty {name} must be a number, got {value!r}")
        penalties = {d: step_penalty(d, cap, high) for d in dimensions}
        default = 0.0
    elif penalty_doc.get("kind") == "table":
        penalties = {int(k): v for k, v in penalty_doc.get("table", {}).items()}
        default = penalty_doc.get("default", 0.0)
    else:
        raise UsageError(f"unknown penalty kind {penalty_doc.get('kind')!r}")
    return CandidateGrid.from_axes(
        kernels, C_values, dimensions=dimensions,
        penalties=penalties, default_penalty=default,
        family=doc.get("basis", "fourier"),
        spline_degree=doc.get("spline_degree", 3),
    )

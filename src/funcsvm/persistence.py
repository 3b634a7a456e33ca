"""Model files and report files.

Model format: the four magic bytes ``FSVM``, one version byte, then a
UTF-8 JSON document holding the kernel, the grid, the prepared support
vectors, their coefficients ``alpha_i * y_i`` and the bias.  The support
vectors are rows of :func:`kernels.isometric_rows`: their dot product is
the L2 inner product.  Versions 1 and 2 stored them before that map; they
still load through it, and the metric, labels and alphas of version 1 are
not read.  Floats are serialized with ``repr``
round-tripping, so a loaded model reproduces decision values bit for
bit.  Reports are written as two JSON files: a deterministic payload and
a separate metadata file holding timestamps.

Every file the package writes (models, reports, predictions, synthetic
CSVs) goes through :func:`atomic_write_bytes`: the bytes go to a new file
beside the target, the old target is renamed aside, the new file is
renamed onto the freed name and the old one is unlinked.  A reader never
sees a partial file, though for an instant it may find none.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IntegrityError
from .functions import SamplingGrid
from .kernels import isometric_rows, kernel_from_dict, kernel_to_dict, prepare_rows
from .solver import SvmModel

__all__ = [
    "save_model", "load_model", "write_report", "atomic_write_bytes",
    "MODEL_MAGIC", "MODEL_VERSION",
]

MODEL_MAGIC = b"FSVM"
MODEL_VERSION = 3


def atomic_write_bytes(path, payload: bytes) -> None:
    """Replace the file at ``path`` with ``payload``; on failure, keep the old one.

    The target is renamed aside before the new file takes its name: on ext4
    (``auto_da_alloc``, the default) a rename over an existing file waits
    for the new file's data to reach the disk, a rename onto a free name
    does not.  A directory at ``path`` is never moved; the write fails with
    an ``OSError``.  No ``fsync`` is made.
    """
    path = Path(path)
    fd, tmp = _create_beside(path)
    aside = None
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        if path.is_file():
            aside = tmp + ".old"
            os.rename(path, aside)
        try:
            os.rename(tmp, path)
        except BaseException:
            if aside is not None:
                os.rename(aside, path)
            raise
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if aside is not None:
        os.unlink(aside)


def _create_beside(path: Path) -> tuple[int, str]:
    """A new, empty file in the directory of ``path``, opened for writing.

    ``os.open`` with mode 0o666 lets the umask set the permissions, as
    ``open`` would for the target itself (``mkstemp`` would give 0o600).
    """
    while True:
        tmp = f"{path}.{os.urandom(4).hex()}"
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            pass


def _dump_json(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(model: SvmModel, path: str) -> None:
    doc = {
        "kernel": kernel_to_dict(model.kernel),
        "grid": {
            "abscissae": model.grid.abscissae.tolist(),
            "weights": model.grid.weights.tolist(),
        },
        "support_vectors": model.support_vectors.tolist(),
        "support_coeffs": model.support_coeffs.tolist(),
        "bias": model.bias,
        "meta": model.meta,
    }
    atomic_write_bytes(path, MODEL_MAGIC + bytes([MODEL_VERSION]) + _dump_json(doc))


def load_model(path: str) -> SvmModel:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IntegrityError(f"cannot read model file {path}: {exc}") from exc
    if len(blob) < 5 or blob[:4] != MODEL_MAGIC:
        raise IntegrityError(f"{path} is not a model file (bad magic header)")
    version = blob[4]
    if version not in (1, 2, MODEL_VERSION):
        raise IntegrityError(f"unsupported model file version {version}")
    try:
        doc = json.loads(blob[5:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"model file {path} is corrupt or truncated: {exc}") from exc
    if not isinstance(doc, dict):
        raise IntegrityError(f"model file {path} does not hold a JSON object")
    try:
        model = _model_from_doc(doc, version)
    except KeyError as exc:
        raise IntegrityError(f"model file {path} is missing field {exc}") from exc
    except (ConfigurationError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise IntegrityError(f"model file {path} is inconsistent: {exc}") from exc
    return model


def _model_from_doc(doc: dict, version: int) -> SvmModel:
    """The model a parsed model file of ``version`` describes; ``ValueError``
    when its arrays disagree in shape."""
    kernel = kernel_from_dict(doc["kernel"])
    grid = SamplingGrid(
        np.asarray(doc["grid"]["abscissae"], dtype=float),
        np.asarray(doc["grid"]["weights"], dtype=float),
    )
    # Preparing no curve checks that every transform and the projection fit
    # the grid, for every version, and builds what the predictions use.
    width = prepare_rows(kernel, grid, np.empty((0, len(grid)))).shape[1]
    vectors = np.asarray(doc["support_vectors"], dtype=float)
    if vectors.size == 0:
        vectors = vectors.reshape(0, width)
    if vectors.ndim != 2 or vectors.shape[1] != width:
        raise ValueError(
            f"support vectors have shape {vectors.shape}, the kernel needs rows of {width}"
        )
    coeffs = np.asarray(doc["support_coeffs"], dtype=float)
    if coeffs.shape != (vectors.shape[0],):
        raise ValueError(
            f"support coeffs have shape {coeffs.shape}, "
            f"expected one per support vector ({vectors.shape[0]})"
        )
    bias = float(doc["bias"])
    if version < MODEL_VERSION:
        vectors = isometric_rows(kernel.projection, grid, vectors)
    if not all(np.isfinite(a).all() for a in (vectors, coeffs, bias)):
        raise ValueError("support data or bias hold a non-finite number")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta is not an object")
    return SvmModel(
        kernel=kernel,
        grid=grid,
        support_vectors=vectors,
        support_coeffs=coeffs,
        bias=bias,
        meta=meta,
    )


def write_report(payload: dict, path: str, meta: dict | None = None) -> None:
    """Write a deterministic payload file plus a sidecar metadata file."""
    atomic_write_bytes(path, _dump_json(payload) + b"\n")
    meta_doc = {"written_at": time.time()}
    if meta:
        meta_doc.update(meta)
    atomic_write_bytes(str(path) + ".meta.json", _dump_json(meta_doc) + b"\n")

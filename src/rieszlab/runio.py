"""Deterministic run artifacts: full-precision serialization and manifests.

Every float written by this package — CSV cells and JSON numbers alike —
is formatted with 17 significant digits (``%.17g``), enough to round-trip
an IEEE-754 double exactly.  Runs are therefore reproducible at the bit
level on one host and numpy build (numpy's SIMD array power and BLAS
round differently elsewhere): the same command with the same inputs
produces byte-identical CSV files, and the manifest's ``configHash`` (a
SHA-256 over the canonical JSON of all inputs, timestamp excluded)
identifies the run.

CSV schemas
-----------
- field dumps:       header ``r,u,v`` and one row per grid node;
- trajectory dumps:  header ``r,u,du,v,dv`` and one row per sample.
"""

from __future__ import annotations

import csv
import hashlib
import json
import json.encoder
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
import scipy

from .errors import ValidationError
from .grid import RadialGrid

FIELD_HEADER = ("r", "u", "v")
TRAJECTORY_HEADER = ("r", "u", "du", "v", "dv")

MANIFEST_NAME = "manifest.json"
FIELD_CSV_NAME = "solution.csv"
TRAJECTORY_CSV_NAME = "trajectory.csv"
REPORT_NAME = "report.json"
#: numpy's SIMD target, read once per process: its array ``**`` rounds by it.
_NUMPY_SIMD = np.show_config(mode="dicts")["SIMD Extensions"]


def format_float(value: float) -> str:
    """Render one float with 17 significant digits."""
    return "%.17g" % float(value)


def _plain(obj: Any) -> Any:
    """Recursively convert numpy containers/scalars to plain Python types."""
    if isinstance(obj, np.ndarray):
        return [_plain(x) for x in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


class _PrecisionEncoder(json.JSONEncoder):
    """JSON encoder whose float emission uses 17 significant digits."""

    def iterencode(self, o: Any, _one_shot: bool = False):
        markers: dict | None = {} if self.check_circular else None
        indent = self.indent
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent

        def floatstr(f: float) -> str:
            if f != f:
                return "NaN"
            if f == float("inf"):
                return "Infinity"
            if f == float("-inf"):
                return "-Infinity"
            return format_float(f)

        iterencode = json.encoder._make_iterencode(
            markers,
            self.default,
            json.encoder.encode_basestring_ascii,
            indent,
            floatstr,
            self.key_separator,
            self.item_separator,
            self.sort_keys,
            self.skipkeys,
            _one_shot,
        )
        return iterencode(o, 0)


def dumps_json(obj: Any, *, indent: int | None = 2, sort_keys: bool = False) -> str:
    """Serialize to JSON with full-precision floats."""
    separators = (",", ": ") if indent is not None else (",", ":")
    encoder = _PrecisionEncoder(indent=indent, sort_keys=sort_keys, separators=separators)
    return encoder.encode(_plain(obj))


def canonical_json(obj: Any) -> str:
    """Canonical form used for hashing: sorted keys, no whitespace."""
    return dumps_json(obj, indent=None, sort_keys=True)


def config_hash(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a run's inputs.

    The payload must contain everything that determines the outputs
    (command name, parameters, grid, solver settings) and nothing that
    does not (timestamps, host details).
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def write_json(path: Path | str, obj: Any) -> Path:
    path = Path(path)
    path.write_text(dumps_json(obj) + "\n", encoding="utf-8")
    return path


def grid_spec_of(grid: RadialGrid) -> dict[str, Any]:
    return {"rMin": float(grid.r_min), "rMax": float(grid.r_max), "count": int(grid.count)}


def _runtime_versions() -> dict[str, Any]:
    """Versions of rieszlab, Python, numpy and scipy, as the manifest
    records them, with numpy's SIMD baseline and the SIMD extensions it
    found (and did not find) on this CPU."""
    from . import __version__

    return {"rieszlab": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpySimd": {k: list(v) for k, v in _NUMPY_SIMD.items()}}


def make_manifest(
    command: str,
    params: Mapping[str, Any],
    *,
    grid_spec: Mapping[str, Any] | None = None,
    settings: Mapping[str, Any] | None = None,
    outputs: Sequence[str] = (),
) -> dict[str, Any]:
    """Reproducibility record written next to every run's outputs, as
    the ``manifest.json`` object :func:`read_manifest` gives back.

    ``configHash`` is derived from the command, parameters, grid and
    settings only; two manifests with equal hashes from one host and
    numpy build describe runs whose CSV outputs are byte-identical.  The
    timestamp and the ``versions`` (package, Python, numpy, scipy and
    numpy's SIMD target) are informational and excluded from the hash.
    """
    inputs = {"command": command, "params": _plain(params),
              "gridSpec": None if grid_spec is None else _plain(grid_spec),
              "settings": _plain(settings or {})}
    return {**inputs, "outputs": [str(o) for o in outputs],
            "configHash": config_hash(inputs),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "versions": _runtime_versions()}


def read_manifest(directory: Path | str) -> dict[str, Any]:
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise ValidationError(f"no {MANIFEST_NAME} found in {directory}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"malformed manifest {path}: expected an object")
    return data


def _write_rows(path: Path, header: Sequence[str], rows: np.ndarray) -> Path:
    # one format per row and one write: the bytes of a csv writer of
    # format_float cells, whose 17-digit floats never need quoting
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n"
                     + "".join([line % tuple(row) for row in rows.tolist()]))
    return path


def _read_rows(path: Path, header: Sequence[str]) -> np.ndarray:
    if not path.is_file():
        raise ValidationError(f"missing CSV file {path}")
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None or [c.strip() for c in first] != list(header):
            raise ValidationError(
                f"{path}: expected header {','.join(header)}, found {first!r}"
            )
        try:
            rows = [[float(cell) for cell in row] for row in reader if row]
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric cell ({exc})") from exc
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(header):
        raise ValidationError(f"{path}: expected {len(header)} columns, found {data.shape[1]}")
    return data


def write_field_csv(
    path: Path | str, radii: np.ndarray, u: np.ndarray, v: np.ndarray
) -> Path:
    radii = np.asarray(radii, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (radii.shape == u.shape == v.shape) or radii.ndim != 1:
        raise ValidationError("field CSV requires equal-length 1-d r, u, v arrays")
    return _write_rows(Path(path), FIELD_HEADER, np.column_stack([radii, u, v]))


def read_field_csv(path: Path | str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = _read_rows(Path(path), FIELD_HEADER)
    return data[:, 0], data[:, 1], data[:, 2]


def write_trajectory_csv(path: Path | str, samples: np.ndarray) -> Path:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != len(TRAJECTORY_HEADER):
        raise ValidationError("trajectory CSV requires an (m, 5) sample array")
    return _write_rows(Path(path), TRAJECTORY_HEADER, samples)


def read_trajectory_csv(path: Path | str) -> np.ndarray:
    return _read_rows(Path(path), TRAJECTORY_HEADER)

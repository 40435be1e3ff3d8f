"""Deterministic run artifacts: full-precision serialization and manifests.

Every float written by this package — CSV cells and JSON numbers alike —
is formatted with 17 significant digits (``%.17g``), enough to round-trip
an IEEE-754 double exactly.  Runs are therefore reproducible at the bit
level: the same command with the same inputs produces byte-identical CSV
files, and the manifest's ``configHash`` (a SHA-256 over the canonical
JSON of all inputs, timestamp excluded) identifies the run.

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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every run's outputs.

    ``config_hash`` is derived from the command, parameters, grid and
    settings only; two manifests with equal hashes describe runs whose
    CSV outputs are byte-identical.  The timestamp and the ``versions``
    of the package, Python, numpy and scipy are informational and
    excluded from the hash.
    """

    command: str
    params: Mapping[str, Any]
    grid_spec: Mapping[str, Any] | None
    settings: Mapping[str, Any]
    outputs: tuple[str, ...]
    config_hash: str
    timestamp: str
    versions: Mapping[str, str]

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "params": dict(self.params),
            "gridSpec": None if self.grid_spec is None else dict(self.grid_spec),
            "settings": dict(self.settings),
            "outputs": list(self.outputs),
            "configHash": self.config_hash,
            "timestamp": self.timestamp,
            "versions": dict(self.versions),
        }

    def write(self, directory: Path | str) -> Path:
        return write_json(Path(directory) / MANIFEST_NAME, self.to_dict())


def _runtime_versions() -> dict[str, str]:
    """Versions of rieszlab, Python, numpy and scipy, as the manifest
    records them: the ``__version__`` attributes and the running
    interpreter's version."""
    from . import __version__

    return {"rieszlab": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def make_manifest(
    command: str,
    params: Mapping[str, Any],
    *,
    grid_spec: Mapping[str, Any] | None = None,
    settings: Mapping[str, Any] | None = None,
    outputs: Sequence[str] = (),
) -> RunManifest:
    params = _plain(params)
    grid_spec = None if grid_spec is None else _plain(grid_spec)
    settings = _plain(settings or {})
    digest = config_hash(
        {"command": command, "params": params, "gridSpec": grid_spec, "settings": settings}
    )
    return RunManifest(
        command=command,
        params=params,
        grid_spec=grid_spec,
        settings=settings,
        outputs=tuple(str(o) for o in outputs),
        config_hash=digest,
        timestamp=datetime.now(timezone.utc).isoformat(),
        versions=_runtime_versions(),
    )


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
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(x) for x in row])
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

"""Field serialization: one record per site, row-major, CSV or JSON.

Layouts (bit-exact: floats are written with Python's shortest round-trip
repr, so save -> load reproduces every bit):

* Row order: site (i, j) maps to row i * n2 + j.
* CSV: first line is the metadata comment
      ``# sigmalab-field kind=<kind> n1=<n1> n2=<n2> K=<K>``
  followed by a column-header row and one data row per site.
* JSON: object with keys format ("sigmalab-field"), kind, n1, n2, K and
  data = list of per-site rows in the same column order as the CSV.

Column orders per kind:

* scalar       -- value
* map          -- u1 .. uK
* vectorspinor -- psi{a}_{c} for a = 1..K (slot), c = 1..4 (spinor component)
* gravitino    -- chi{e}_{c} for e = 1..2 (frame slot), c = 1..4
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

__all__ = ["save_field", "load_field", "site_shape", "FIELD_KINDS"]

FIELD_KINDS = ("scalar", "map", "vectorspinor", "gravitino")


def site_shape(kind: str, K) -> tuple:
    """Trailing per-site axes of a field of this kind."""
    return {"scalar": (), "map": (K,), "vectorspinor": (K, 4), "gravitino": (2, 4)}[kind]


def _field_dims(kind: str, array: np.ndarray) -> tuple[int, int, int]:
    if kind not in FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    K = {"scalar": 1, "gravitino": 0}.get(kind, array.shape[2] if array.ndim > 2 else -1)
    if array.ndim < 2 or array.shape[2:] != site_shape(kind, K):
        raise ValueError(f"{kind} field must be (n1, n2) + {site_shape(kind, 'K')}")
    return array.shape[0], array.shape[1], K


def _columns(kind: str, K: int) -> list[str]:
    if kind == "scalar":
        return ["value"]
    if kind == "map":
        return [f"u{a}" for a in range(1, K + 1)]
    if kind == "vectorspinor":
        return [f"psi{a}_{c}" for a in range(1, K + 1) for c in range(1, 5)]
    return [f"chi{e}_{c}" for e in range(1, 3) for c in range(1, 5)]


def save_field(path, array: np.ndarray, kind: str) -> None:
    """Write a field; the format follows the file extension (.csv or .json)."""
    path = Path(path)
    n1, n2, K = _field_dims(kind, array)
    flat = np.asarray(array, dtype=np.float64).reshape(n1 * n2, -1)
    if path.suffix == ".csv":
        with open(path, "w", newline="") as fh:
            fh.write(f"# sigmalab-field kind={kind} n1={n1} n2={n2} K={K}\n")
            writer = csv.writer(fh)
            writer.writerow(_columns(kind, K))
            for row in flat:
                writer.writerow([repr(float(v)) for v in row])
    elif path.suffix == ".json":
        payload = {
            "format": "sigmalab-field",
            "kind": kind,
            "n1": n1,
            "n2": n2,
            "K": K,
            "data": [[float(v) for v in row] for row in flat],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
    else:
        raise ValueError(f"unsupported field file extension: {path.suffix!r}")


def _count(path: Path, meta: dict, key: str) -> int:
    """A metadata count: a non-negative int (decimal text in a CSV header)."""
    value = meta[key]
    if path.suffix == ".csv" and value.isdecimal():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{path}: {key} must be a non-negative integer, got {meta[key]!r}")
    return value


def load_field(path) -> tuple[np.ndarray, str]:
    """Read a field file; returns (array, kind).

    Raises ValueError naming the key whose metadata or data does not fit.
    """
    path = Path(path)
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header = fh.readline().strip()
            if not header.startswith("# sigmalab-field "):
                raise ValueError(f"{path}: missing sigmalab-field header")
            meta = dict(item.split("=") for item in header.split()[2:])
            reader = csv.reader(fh)
            try:
                if next(reader, None) is None:
                    raise ValueError(f"{path}: missing column-name row")
                rows = [[float(v) for v in row] for row in reader]
            except csv.Error as exc:
                raise ValueError(f"{path}: unreadable CSV ({exc})") from None
    elif path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != "sigmalab-field":
            raise ValueError(f"{path}: not a sigmalab-field JSON file")
        if "data" not in payload:
            raise ValueError(f"{path}: missing data")
        meta = payload
        rows = payload["data"]
    else:
        raise ValueError(f"unsupported field file extension: {path.suffix!r}")

    missing = [key for key in ("kind", "n1", "n2", "K") if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing metadata {', '.join(missing)}")
    kind = meta["kind"]
    if not isinstance(kind, str) or kind not in FIELD_KINDS:
        raise ValueError(f"{path}: unknown field kind {kind!r}")
    n1, n2, K = (_count(path, meta, key) for key in ("n1", "n2", "K"))
    try:
        flat = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: data is not a table of numbers ({exc})") from None
    shape = (n1 * n2, len(_columns(kind, K)))
    if flat.shape != shape:
        raise ValueError(f"{path}: data must be {shape[0]} site rows of {shape[1]} "
                         f"columns, found shape {flat.shape}")
    return flat.reshape((n1, n2) + site_shape(kind, K)), kind

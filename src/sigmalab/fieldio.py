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

__all__ = ["save_field", "load_field", "FIELD_KINDS"]

FIELD_KINDS = ("scalar", "map", "vectorspinor", "gravitino")


def _field_dims(kind: str, array: np.ndarray) -> tuple[int, int, int]:
    n1, n2 = array.shape[0], array.shape[1]
    if kind == "scalar":
        if array.ndim != 2:
            raise ValueError("scalar field must be (n1, n2)")
        return n1, n2, 1
    if kind == "map":
        if array.ndim != 3:
            raise ValueError("map field must be (n1, n2, K)")
        return n1, n2, array.shape[2]
    if kind == "vectorspinor":
        if array.ndim != 4 or array.shape[3] != 4:
            raise ValueError("vector-spinor field must be (n1, n2, K, 4)")
        return n1, n2, array.shape[2]
    if kind == "gravitino":
        if array.ndim != 4 or array.shape[2:] != (2, 4):
            raise ValueError("gravitino field must be (n1, n2, 2, 4)")
        return n1, n2, 0
    raise ValueError(f"unknown field kind {kind!r}")


def _columns(kind: str, K: int) -> list[str]:
    if kind == "scalar":
        return ["value"]
    if kind == "map":
        return [f"u{a}" for a in range(1, K + 1)]
    if kind == "vectorspinor":
        return [f"psi{a}_{c}" for a in range(1, K + 1) for c in range(1, 5)]
    return [f"chi{e}_{c}" for e in range(1, 3) for c in range(1, 5)]


def _flatten(kind: str, array: np.ndarray) -> np.ndarray:
    n1, n2 = array.shape[0], array.shape[1]
    return np.asarray(array, dtype=np.float64).reshape(n1 * n2, -1)


def _unflatten(kind: str, flat: np.ndarray, n1: int, n2: int, K: int) -> np.ndarray:
    if kind == "scalar":
        return flat.reshape(n1, n2)
    if kind == "map":
        return flat.reshape(n1, n2, K)
    if kind == "vectorspinor":
        return flat.reshape(n1, n2, K, 4)
    return flat.reshape(n1, n2, 2, 4)


def save_field(path, array: np.ndarray, kind: str) -> None:
    """Write a field; the format follows the file extension (.csv or .json)."""
    path = Path(path)
    n1, n2, K = _field_dims(kind, array)
    flat = _flatten(kind, array)
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


def load_field(path) -> tuple[np.ndarray, str]:
    """Read a field file; returns (array, kind)."""
    path = Path(path)
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header = fh.readline().strip()
            if not header.startswith("# sigmalab-field "):
                raise ValueError(f"{path}: missing sigmalab-field header")
            meta = dict(item.split("=") for item in header.split()[2:])
            reader = csv.reader(fh)
            if next(reader, None) is None:
                raise ValueError(f"{path}: missing column-name row")
            flat = np.array([[float(v) for v in row] for row in reader])
    elif path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != "sigmalab-field":
            raise ValueError(f"{path}: not a sigmalab-field JSON file")
        if "data" not in payload:
            raise ValueError(f"{path}: missing data")
        meta = payload
        flat = np.array(payload["data"], dtype=np.float64)
    else:
        raise ValueError(f"unsupported field file extension: {path.suffix!r}")

    missing = [key for key in ("kind", "n1", "n2", "K") if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing metadata {', '.join(missing)}")
    kind = meta["kind"]
    n1, n2, K = int(meta["n1"]), int(meta["n2"]), int(meta["K"])
    if kind not in FIELD_KINDS:
        raise ValueError(f"{path}: unknown field kind {kind!r}")
    if flat.shape[0] != n1 * n2:
        raise ValueError(f"{path}: expected {n1 * n2} site rows, found {flat.shape[0]}")
    return _unflatten(kind, flat, n1, n2, K), kind

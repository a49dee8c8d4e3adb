"""File formats: loaders of matrices, ensembles (a net among them) and circuits.

JSON matrices are arrays of rows of [re, im] pairs; the optional binary
format is raw little-endian float64, row-major, re/im interleaved.
Loading an ensemble or a circuit rejects a matrix that is not unitary to
within `UNITARY_TOL`.  The commands only read these files;
the writers that build test files live in tests/helpers.py.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from prulab.ensembles import EnsembleSpec
from prulab.linalg import UNITARY_TOL, unitarity_error
from prulab.truncation import DiagonalOracleCircuit, DiagonalPhase


def matrix_from_json(rows: list, what: str) -> np.ndarray:
    """The complex matrix of a JSON array of rows of [re, im] pairs, or a
    ValueError naming `what` if it is not one or a row's length is not
    the number of rows, or naming the entry whose re or im is no number."""
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(isinstance(z, list) and len(z) == 2 for z in row)
            for row in rows)):
        raise ValueError(f"{what} must be an array of rows of [re, im] number pairs")
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ValueError(f"{what} must be square: row {i} has {len(row)} entries "
                             f"for {len(rows)} rows")
        for j, z in enumerate(row):
            _items(z, float, f"{what} row {i} entry {j} [re, im]")
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def load_matrix_bin(path: str | Path, dim: int) -> np.ndarray:
    flat = np.frombuffer(Path(path).read_bytes(), dtype="<f8")
    if flat.size != 2 * dim * dim:
        raise ValueError("binary matrix size does not match the declared dimension")
    return (flat[0::2] + 1j * flat[1::2]).reshape(dim, dim)


#: the JSON type named for each Python type a manifest value is checked
#: against; float stands for any JSON number
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number"}


#: the least integer float() overflows on: halfway from the largest float
#: to 2^1024, which rounds up
_FLOAT_END = 2**1024 - 2**970


def _expect(value, kind: type, what: str):
    """`value`, or a ValueError naming `what` if it is not of JSON type
    `kind`; true and false are neither integers nor numbers, and a number
    is one a float holds, not an integer past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        want = _JSON_TYPES[kind]
    elif kind is float and isinstance(value, int) and abs(value) >= _FLOAT_END:
        want = "a number within float range"
    else:
        return value
    got = json.dumps(value)
    got = got if len(got) <= 40 else got[:37] + "..."
    raise ValueError(f"{what} must be {want}, got {got}")


def _items(value, kind: type, what: str) -> list:
    """`value` if it is an array of items of JSON type `kind`, or a
    ValueError naming the array or its first other item."""
    for i, item in enumerate(_expect(value, list, what)):
        _expect(item, kind, f"{what} item {i}")
    return value


def _field(d: dict, key: str, what: str, kind: type):
    """d[key] if it is of JSON type `kind`, or a ValueError naming the
    missing key or the key path."""
    if key not in d:
        raise ValueError(f"{what} has no {key!r} entry")
    return _expect(d[key], kind, f"{what} {key}")


def _dim(d: dict, what: str) -> int:
    """d["dim"] if it is an integer of at least 1, or a ValueError naming
    the key path."""
    dim = _field(d, "dim", what, int)
    if dim < 1:
        raise ValueError(f"{what} dim must be at least 1, got {dim}")
    return dim


def _check_unitary(indexed, what: str) -> None:
    """Raise a ValueError naming the index of the first matrix in the
    (index, matrix) pairs ``indexed`` that is not unitary, with its
    `unitarity_error`."""
    for i, u in indexed:
        dev = unitarity_error(u)
        if not dev <= UNITARY_TOL:
            raise ValueError(f"{what} {i} is not unitary: max |U U^dag - I| is {dev:.3g}")


def _manifest_matrices(d: dict, dim: int, base: Path | None) -> list[np.ndarray]:
    """A manifest's inline `matrices`, or its binary `matrix_files` read
    relative to `base` (default: the working directory)."""
    if "matrices" in d:
        matrices = _expect(d["matrices"], list, "manifest matrices")
        return [matrix_from_json(m, f"manifest matrices item {i}") for i, m in enumerate(matrices)]
    if "matrix_files" in d:
        files = _items(d["matrix_files"], str, "manifest matrix_files")
        return [load_matrix_bin(Path(base or ".") / f, dim) for f in files]
    raise ValueError("manifest needs 'matrices' or 'matrix_files'")


def ensemble_from_json_dict(d: dict, base: Path | None = None) -> EnsembleSpec:
    _expect(d, dict, "ensemble manifest")
    dim = _dim(d, "ensemble manifest")
    us = _manifest_matrices(d, dim, base)
    weights = (np.array(_items(d["weights"], float, "ensemble manifest weights"))
               if "weights" in d else None)
    ens = EnsembleSpec(dim, us, weights)
    _check_unitary(enumerate(ens.unitaries), "ensemble element")
    return ens


def circuit_from_json_dict(d: dict) -> DiagonalOracleCircuit:
    _expect(d, dict, "circuit")
    n, m = (_field(d, key, "circuit", int) for key in ("n", "m"))
    if n < 0:
        raise ValueError(f"circuit n must be nonnegative, got {n}")
    oracles = [DiagonalPhase(m, np.array(_items(p, float, f"circuit oracles item {i}")))
               for i, p in enumerate(_field(d, "oracles", "circuit", list))]
    seq = []
    for i, item in enumerate(_field(d, "sequence", "circuit", list)):
        what = f"circuit sequence item {i}"
        if "fixed" in _expect(item, dict, what):
            seq.append(("fixed", matrix_from_json(item["fixed"], f"{what} fixed")))
        else:
            seq.append(("oracle", _field(item, "oracle", what, int)))
    circ = DiagonalOracleCircuit(n, m, oracles, seq)
    _check_unitary(((i, item[1]) for i, item in enumerate(seq) if item[0] == "fixed"),
                   "circuit sequence item")
    return circ


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())

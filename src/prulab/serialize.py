"""File formats: loaders of matrices, ensembles, nets and circuits.

JSON matrices are arrays of rows of [re, im] pairs; the optional binary
format is raw little-endian float64, row-major, re/im interleaved.
Loading an ensemble, a net or a circuit rejects a matrix that is not
unitary to within `UNITARY_TOL`.  The commands only read these files;
the writers that build test files live in tests/helpers.py.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from prulab.ensembles import EnsembleSpec
from prulab.linalg import is_unitary
from prulab.nets import NetSpec
from prulab.truncation import DiagonalOracleCircuit, DiagonalPhase


def _is_pair(z) -> bool:
    return isinstance(z, list) and len(z) == 2 and all(isinstance(v, (int, float)) for v in z)


def matrix_from_json(rows: list) -> np.ndarray:
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and all(map(_is_pair, row)) for row in rows)):
        raise ValueError("a JSON matrix must be an array of rows of [re, im] number pairs")
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def load_matrix_bin(path: str | Path, dim: int) -> np.ndarray:
    flat = np.frombuffer(Path(path).read_bytes(), dtype="<f8")
    if flat.size != 2 * dim * dim:
        raise ValueError("binary matrix size does not match the declared dimension")
    return (flat[0::2] + 1j * flat[1::2]).reshape(dim, dim)


def _field(d: dict, key: str, what: str):
    """d[key], or a ValueError naming the missing key."""
    if key not in d:
        raise ValueError(f"{what} has no {key!r} entry")
    return d[key]


def _check_unitary(indexed, what: str) -> None:
    """Raise a ValueError naming the index of the first square matrix in
    the (index, matrix) pairs ``indexed`` that is not unitary, with its
    max |U U^dag - I| entry."""
    for i, u in indexed:
        if not is_unitary(u):
            dev = np.max(np.abs(u @ u.conj().T - np.eye(len(u))))
            raise ValueError(f"{what} {i} is not unitary: max |U U^dag - I| is {dev:.3g}")


def _manifest_matrices(d: dict, dim: int, base: Path | None) -> list[np.ndarray]:
    """A manifest's inline `matrices`, or its binary `matrix_files` read
    relative to `base` (default: the working directory)."""
    if "matrices" in d:
        return [matrix_from_json(m) for m in d["matrices"]]
    if "matrix_files" in d:
        return [load_matrix_bin(Path(base or ".") / f, dim) for f in d["matrix_files"]]
    raise ValueError("manifest needs 'matrices' or 'matrix_files'")


def ensemble_from_json_dict(d: dict, base: Path | None = None) -> EnsembleSpec:
    dim = int(_field(d, "dim", "ensemble manifest"))
    us = _manifest_matrices(d, dim, base)
    weights = np.array(d["weights"]) if "weights" in d else None
    ens = EnsembleSpec(dim, us, weights, name=d.get("name", ""))
    _check_unitary(enumerate(ens.unitaries), "ensemble element")
    return ens


def net_from_json_dict(d: dict, base: Path | None = None) -> NetSpec:
    dim = int(_field(d, "dim", "net manifest"))
    net = NetSpec(dim, _manifest_matrices(d, dim, base))
    _check_unitary(enumerate(net.unitaries), "net element")
    return net


def circuit_from_json_dict(d: dict) -> DiagonalOracleCircuit:
    m = int(_field(d, "m", "circuit"))
    oracles = [DiagonalPhase(m, np.array(p, dtype=float))
               for p in _field(d, "oracles", "circuit")]
    seq = []
    for item in _field(d, "sequence", "circuit"):
        if "fixed" in item:
            seq.append(("fixed", matrix_from_json(item["fixed"])))
        else:
            seq.append(("oracle", int(_field(item, "oracle", "circuit sequence item"))))
    circ = DiagonalOracleCircuit(int(_field(d, "n", "circuit")), m, oracles, seq)
    _check_unitary(((i, item[1]) for i, item in enumerate(seq) if item[0] == "fixed"),
                   "circuit sequence item")
    return circ


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())

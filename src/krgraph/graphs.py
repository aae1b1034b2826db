"""Undirected weighted graphs, Laplacian algebra, random generators.

All adjacency matrices are dense, symmetric, nonnegative, with a zero
diagonal. Laplacians are L = D - A with D the diagonal degree matrix;
they are symmetric PSD with row sums zero.
"""

from __future__ import annotations

import csv
import json
import numbers
import sys
import typing
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigError, ConvergenceError, DataFormatError,
                     InvalidGraphError, KrgraphError)

_ROWSUM_TOL = 1e-10
_EIG_CLAMP = 1e-10


@dataclass(frozen=True)
class Graph:
    """Symmetric weighted adjacency over num_nodes nodes."""

    adjacency: np.ndarray
    num_nodes: int = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.adjacency, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InvalidGraphError(f"adjacency must be square, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise InvalidGraphError("adjacency has NaN or infinite entries")
        if not np.allclose(A, A.T, rtol=0, atol=1e-12 * max(1.0, np.abs(A).max())):
            raise InvalidGraphError("adjacency must be symmetric")
        if np.any(A < 0):
            raise InvalidGraphError("adjacency weights must be nonnegative")
        if np.any(np.diag(A) != 0):
            raise InvalidGraphError("adjacency diagonal must be zero")
        object.__setattr__(self, "adjacency", A)
        object.__setattr__(self, "num_nodes", A.shape[0])

    def degrees(self):
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class Laplacian:
    """Graph Laplacian matrix with validated invariants."""

    matrix: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.matrix, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise InvalidGraphError(f"Laplacian must be square, got shape {L.shape}")
        if not np.isfinite(L).all():
            raise InvalidGraphError("Laplacian has NaN or infinite entries")
        scale = np.linalg.norm(L, "fro")
        if not np.allclose(L, L.T, rtol=0, atol=1e-12 * max(1.0, scale)):
            raise InvalidGraphError("Laplacian must be symmetric")
        rowsums = L.sum(axis=1)
        if np.abs(rowsums).max(initial=0.0) > _ROWSUM_TOL * max(1.0, scale):
            raise InvalidGraphError("Laplacian row sums must be zero")
        off = L - np.diag(np.diag(L))
        if np.any(off > 1e-12 * max(1.0, scale)):
            raise InvalidGraphError("Laplacian off-diagonal entries must be <= 0")
        if np.any(np.diag(L) < -1e-12 * max(1.0, scale)):
            raise InvalidGraphError("Laplacian diagonal entries must be >= 0")
        object.__setattr__(self, "matrix", L)

    @property
    def num_nodes(self):
        return self.matrix.shape[0]

    def eigendecomposition(self):
        """Return (eigenvalues, eigenvectors), the null space's exactly 0;
        computed on the first call and kept, read-only, on the instance."""
        return self._eigenpairs

    @cached_property
    def _eigenpairs(self):
        lam, V = eigh_psd(self.matrix)
        # the null space (component indicators) must be exact: beta would
        # multiply a roundoff eigenvalue left there
        lam[lam <= _EIG_CLAMP * lam.max(initial=1.0)] = 0.0
        lam.flags.writeable = V.flags.writeable = False
        return lam, V


def eigh_psd(A):
    """Eigenpairs of a symmetric PSD matrix, roundoff negatives in [-1e-10, 0)
    set to 0; an eigensolver that does not converge is a ConvergenceError.
    numpy.linalg.eigh runs LAPACK's divide-and-conquer syevd on the lower
    triangle."""
    A = np.asarray(A, dtype=float)
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh of a {A.shape} matrix: {exc}") from exc
    vals[(vals < 0) & (vals >= -_EIG_CLAMP)] = 0.0
    return vals, vecs


def build_laplacian(g: Graph) -> Laplacian:
    """L = D - A with D the diagonal degree matrix."""
    return Laplacian(np.diag(g.degrees()) - g.adjacency)


def check_graph_param(model, M, param):
    """InvalidGraphError unless param fits the generator `model` on M nodes:
    an edge probability in [0, 1], or an attachment count in [1, M)."""
    if model == "erdos_renyi" and not 0 <= param <= 1:
        raise InvalidGraphError(
            f"edge probability must be in [0, 1], got {param}")
    if model == "barabasi_albert" and not 1 <= param < M:
        raise InvalidGraphError(
            f"need 1 <= m_attach < M, got m_attach={param}, M={M}")


def erdos_renyi(M: int, p: float, seed: int) -> Graph:
    """G(M, p): each unordered pair is a unit edge with probability p."""
    if M < 2:
        raise InvalidGraphError(f"need at least 2 nodes, got {M}")
    check_graph_param("erdos_renyi", M, p)
    rng = np.random.default_rng(seed)
    A = np.zeros((M, M))
    iu = np.triu_indices(M, 1)
    A[iu] = (rng.random(len(iu[0])) < p).astype(float)
    return Graph(A + A.T)


def barabasi_albert(M: int, m_attach: int, seed: int) -> Graph:
    """Preferential attachment starting from a clique on m_attach+1 nodes.

    Each new node attaches to m_attach distinct existing nodes chosen with
    probability proportional to current degree, so the final edge count is
    C(m_attach+1, 2) + m_attach * (M - m_attach - 1).
    """
    check_graph_param("barabasi_albert", M, m_attach)
    rng = np.random.default_rng(seed)
    A = np.zeros((M, M))
    init = m_attach + 1
    A[:init, :init] = 1.0 - np.eye(init)
    for new in range(init, M):
        deg = A[:new, :new].sum(axis=1)
        targets = []
        while len(targets) < m_attach:
            probs = deg / deg.sum()
            t = rng.choice(new, p=probs)
            if t not in targets:
                targets.append(t)
        for t in targets:
            A[new, t] = A[t, new] = 1.0
    return Graph(A)


def geodesic_adjacency(distances) -> Graph:
    """A(i,j) = exp(-d_ij^2 / sum_{i,j} d_ij^2) off-diagonal, 0 on it.

    The normalizer sums d_ij^2 over all ordered pairs (the zero diagonal
    contributes nothing).
    """
    D = np.asarray(distances, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise InvalidGraphError(f"distance matrix must be square, got {D.shape}")
    if not np.allclose(D, D.T, rtol=0, atol=1e-12 * max(1.0, np.abs(D).max())):
        raise InvalidGraphError("distance matrix must be symmetric")
    if np.any(D < 0):
        raise InvalidGraphError("distances must be nonnegative")
    if np.any(np.diag(D) != 0):
        raise InvalidGraphError("distance matrix diagonal must be zero")
    total = float(np.sum(D**2))
    if total == 0:
        raise InvalidGraphError("all distances are zero; adjacency undefined")
    A = np.exp(-(D**2) / total)
    np.fill_diagonal(A, 0.0)
    return Graph(A)


def spectral_rescale(L: Laplacian) -> Laplacian:
    """Divide by the spectral radius, L's largest eigenvalue since L is PSD,
    so that it becomes 1; L's cached eigendecomposition supplies it."""
    rho = float(L.eigendecomposition()[0][-1])
    if rho <= 0:
        raise InvalidGraphError("cannot rescale the zero Laplacian")
    return Laplacian(L.matrix / rho)


# ---------------------------------------------------------------------------
# I/O: every JSON and CSV file of the package is written and read here

def write_text(path, text):
    """Write text to path, UTF-8 without newline translation; an OSError
    opening it (a directory in its place, no permission) is a KrgraphError
    naming the file."""
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise KrgraphError(f"{path}: cannot write: {exc}") from exc
    with fh:
        fh.write(text)


def json_text(path, doc, pretty=False):
    """doc as one JSON document and a newline: indented with sorted keys
    if `pretty`, else on one line in insertion order. Strict JSON has no
    NaN or infinity, so such a number is a KrgraphError naming path, the
    file the text is for."""
    options = {"indent": 2, "sort_keys": True} if pretty else {}
    try:
        return json.dumps(doc, allow_nan=False, **options) + "\n"
    except ValueError as exc:
        raise KrgraphError(f"{path}: not written: {exc}") from exc


def save_json(path, doc, pretty=False):
    """Write doc as json_text gives it."""
    write_text(path, json_text(path, doc, pretty))


def save_json_lines(path, docs):
    """Write each doc as one line of JSON, in insertion order."""
    write_text(path, "".join(json_text(path, doc) for doc in docs))


def load_json(path):
    """The parsed JSON document; a missing, unreadable, non-UTF-8 or
    malformed file raises DataFormatError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        raise DataFormatError(f"{path}: cannot read JSON: {exc}") from exc


def read_object(cls, doc, path):
    """The frozen dataclass cls from the JSON object doc at key path `path`
    (each config, and a model file's kernel_spec and hyper), a ConfigError
    naming the key unless each key is a field, each field without a
    default is given, and each value fits its field's annotation."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {_quoted(doc)} is not an object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(doc.keys() - known.keys())
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key")
    for name, f in known.items():
        if name not in doc and f.default is MISSING:
            raise ConfigError(f"{path}.{name}: required key missing")
    hints = typing.get_type_hints(cls)
    return cls(**{key: _typed(hints[key], value, f"{path}.{key}")
                  for key, value in doc.items()})


# the JSON type of each scalar annotation, and the Python types that json
# reads it as; bools are no numbers
_SCALARS = {int: ("an integer", int), float: ("a number", (int, float)),
            str: ("a string", str)}
# a type error quotes at most this many characters of the value's JSON text
_QUOTE_MAX = 60


def _quoted(value):
    """value's JSON text, cut to _QUOTE_MAX characters and "..." if longer:
    a config or model file may hold a whole matrix where a number belongs."""
    text = json.dumps(value)
    return text if len(text) <= _QUOTE_MAX else text[:_QUOTE_MAX] + "..."


def _typed(hint, value, path):
    """value if it fits hint: a scalar, a dataclass, a Sequence of these, a
    float np.ndarray, or an Optional one, absent but never null. A number
    must be finite: json reads NaN and Infinity, and 1e400 as infinity."""
    if type(None) in typing.get_args(hint):
        hint, = set(typing.get_args(hint)) - {type(None)}
    if is_dataclass(hint):
        return read_object(hint, value, path)
    if hint is np.ndarray or typing.get_origin(hint) is Sequence:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: {_quoted(value)} is not a list")
        if hint is np.ndarray:  # its class checks the shape and finiteness
            _check_numbers(value, path)
            try:
                return np.array(value, dtype=float)
            except OverflowError:
                raise ConfigError(f"{path} holds an integer beyond the "
                                  "float range") from None
        item, = typing.get_args(hint)
        return [_typed(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    name, types = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path}: {_quoted(value)} is not {name}")
    if hint is not str and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} is not a finite number")
    return value


def _check_numbers(value, path):
    """A ConfigError naming the first entry of the JSON array value, nested
    to any depth, that is neither an array nor a number, as a float field
    would name it. A row of numbers passes on one set test, with no Python
    step per entry."""
    if {int, float}.issuperset(map(type, value)):  # type(True) is bool
        return
    for i, v in enumerate(value):
        if isinstance(v, list):
            _check_numbers(v, f"{path}[{i}]")
        else:
            _typed(float, v, f"{path}[{i}]")


def object_json(obj):
    """obj's JSON object, as read_object reads it back: its fields in
    field order, None left out, arrays as nested lists."""
    return {f.name: value.tolist() if isinstance(value, np.ndarray) else value
            for f in fields(obj)
            if (value := getattr(obj, f.name)) is not None}


def save_csv_rows(path, rows):
    """Write rows of strings as comma-separated lines ending in a newline;
    fields are written as given, never quoted."""
    write_text(path, "".join(",".join(row) + "\n" for row in rows))


def save_matrix_csv(path, mat):
    """Write a dense matrix as CSV, shortest round-trip decimals; a NaN or
    infinite entry is a KrgraphError, raised before the file is opened."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.isfinite(mat).all():
        raise KrgraphError(f"{path}: not written: it has NaN or infinite "
                           "entries")
    save_csv_rows(path, (map(repr, row) for row in mat.tolist()))


def load_matrix_csv(path, header=False):
    """Numeric CSV as a matrix; blank lines, and the first line if
    `header`, are skipped. Missing, non-numeric or non-finite values,
    ragged rows, and empty or unreadable files raise DataFormatError."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (header and lineno == 1):
                    continue
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise DataFormatError(
                        f"{path}: missing or non-numeric value on line "
                        f"{lineno}: {exc}")
                if not np.isfinite(rows[-1]).all():
                    raise DataFormatError(
                        f"{path}: non-finite number on line {lineno}")
                if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                    raise DataFormatError(f"{path}: ragged row on line {lineno}")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: cannot read matrix: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty matrix file")
    return np.array(rows)


def graph_to_edge_json(g: Graph) -> dict:
    i, j = np.nonzero(np.triu(g.adjacency, 1))
    edges = [list(edge) for edge in zip(i.tolist(), j.tolist(),
                                        g.adjacency[i, j].tolist())]
    return {"nodes": g.num_nodes, "edges": edges}


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def graph_from_edge_json(doc: dict) -> Graph:
    """Graph from {"nodes": M, "edges": [[i, j, weight], ...]}, 0-based i, j;
    of repeated edges between two nodes, the last sets their weight."""
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        raise DataFormatError('graph needs "nodes" and an "edges" list')
    M = doc.get("nodes")
    if not _is_int(M) or M < 1:
        raise DataFormatError(f'"nodes" must be a positive integer, got {M!r}')
    A = np.zeros((M, M))
    for edge in doc["edges"]:
        if not isinstance(edge, list) or len(edge) != 3:
            raise DataFormatError(f"edge {edge!r} is not [i, j, weight]")
        i, j, w = edge
        if not (_is_int(i) and _is_int(j) and 0 <= i < M and 0 <= j < M):
            raise DataFormatError(
                f"edge {edge!r}: endpoints must be integers in 0..{M - 1}")
        # false for NaN, infinities, and integers too large for a float
        if not (isinstance(w, numbers.Real) and not isinstance(w, bool)
                and abs(w) <= sys.float_info.max):
            raise DataFormatError(f"edge {edge!r}: weight must be a finite number")
        A[i, j] = A[j, i] = float(w)
    return Graph(A)


def save_graph_json(path, g: Graph):
    save_json(path, graph_to_edge_json(g))


def load_graph_json(path) -> Graph:
    doc = load_json(path)
    try:
        return graph_from_edge_json(doc)
    except KrgraphError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

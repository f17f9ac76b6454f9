"""JSON and CSV documents.

All floats serialize as shortest round-trip decimals (Python repr).
Readers reject NaN, infinities, ragged rows, and wrong shapes with
DocumentError; the infinite exponent of an ASF space is encoded as the
string "inf" since JSON has no infinity literal.
"""

import json
import math

import numpy as np

from .asf import ASF, PNormSpace
from .errors import DocumentError
from .frames import Frame
from .projections import AuerbachSystem

SWEEP_COLUMNS = (
    "d", "n", "p", "kind", "eps_target",
    "eps_measured_parseval", "eps_measured_equalnorm",
    "dist_sq", "certified", "rounds",
    "bound_hm", "bound_bc", "lower_ref",
)

FLOW_TRACE_COLUMNS = ("iter", "unit_defect_hs", "frame_potential",
                      "max_tangent_norm")


# kind -> (matrix keys in document order, whether the kind carries the
# exponent p, whether every matrix has exactly dim rows; otherwise the
# matrices only agree in their row counts)
_SCHEMA = {
    "hilbert_frame": (("vectors",), False, False),
    "asf": (("functionals", "vectors"), True, False),
    "projection": (("matrix",), False, True),
    "auerbach_system": (("basis_vectors", "dual_functionals"), True, True),
}


def _reject_constant(name):
    raise DocumentError(f"non-finite literal {name!r} is not allowed")


def _as_number(x, where):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DocumentError(f"{where} must be a number")
    v = float(x)
    if not math.isfinite(v):
        raise DocumentError(f"{where} must be finite")
    return v


def _as_rows(doc, key, dim, path):
    rows = doc.get(key)
    if not isinstance(rows, list) or not rows:
        raise DocumentError(
            f"{path}: {key!r} must be a list of at least 1 row(s)")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentError(f"{path}: {key}[{i}] must be a list")
        if len(row) != dim:
            raise DocumentError(
                f"{path}: {key}[{i}] has length {len(row)}, expected {dim}")
        out.append([_as_number(x, f"{path}: {key}[{i}][{j}]")
                    for j, x in enumerate(row)])
    return np.array(out, dtype=float)


def _read_doc(path, kind):
    """(dim, p, *matrices) of the kind document at path, checked against
    _SCHEMA; p is None for a kind without an exponent."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    if doc.get("kind") != kind:
        raise DocumentError(
            f"{path}: expected kind {kind!r}, got {doc.get('kind')!r}")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError(f"{path}: 'dim' must be a positive integer")
    keys, has_p, square = _SCHEMA[kind]
    p = None
    if has_p:
        p = doc.get("p")
        p = math.inf if p == "inf" else _as_number(p, f"{path}: 'p'")
        if p < 1.0:
            raise DocumentError(f"{path}: 'p' must be at least 1")
    mats = [_as_rows(doc, key, dim, path) for key in keys]
    counts = [len(m) for m in mats]
    want = [dim if square else counts[0]] * len(mats)
    if counts != want:
        raise DocumentError(
            f"{path}: {', '.join(keys)} have {counts} rows, expected {want}")
    return (dim, p, *mats)


def _doc_text(kind, dim, p, *matrices):
    """The kind document's JSON: kind, p (if the kind has it), dim, then
    the matrices under their _SCHEMA keys; the exponent infinity is the
    string "inf"."""
    keys, has_p, _ = _SCHEMA[kind]
    doc = {"kind": kind}
    if has_p:
        doc["p"] = "inf" if p == math.inf else float(p)
    doc["dim"] = dim
    for key, m in zip(keys, matrices):
        m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(m)):
            raise DocumentError("non-finite entries cannot be serialized")
        doc[key] = m.tolist()
    return json.dumps(doc, allow_nan=False, indent=2) + "\n"


def _write_text(text, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def frame_doc_text(frame):
    """The hilbert_frame document of frame, as write_frame_doc writes it."""
    return _doc_text("hilbert_frame", frame.dim, None, frame.vectors)


def write_frame_doc(frame, path):
    _write_text(frame_doc_text(frame), path)


def read_frame_doc(path):
    _, _, v = _read_doc(path, "hilbert_frame")
    return Frame(v)


def write_asf_doc(asf, path):
    _write_text(_doc_text("asf", asf.space.dim, asf.space.p,
                          asf.functionals, asf.vectors), path)


def read_asf_doc(path):
    d, p, f, v = _read_doc(path, "asf")
    return ASF(space=PNormSpace(dim=d, p=p), functionals=f, vectors=v)


def write_projection_doc(matrix, path):
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DocumentError("projection document needs a square matrix")
    _write_text(_doc_text("projection", int(m.shape[0]), None, m), path)


def read_projection_doc(path):
    """Returns the raw matrix; certification is the caller's decision."""
    return _read_doc(path, "projection")[2]


def write_auerbach_doc(sys, path):
    _write_text(_doc_text("auerbach_system", sys.space.dim, sys.space.p,
                          sys.basis_vectors, sys.dual_functionals), path)


def read_auerbach_doc(path):
    d, p, u, z = _read_doc(path, "auerbach_system")
    return AuerbachSystem(space=PNormSpace(dim=d, p=p),
                          basis_vectors=u, dual_functionals=z)


def _cell(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if not math.isfinite(v):
            raise DocumentError("non-finite value in CSV cell")
        return repr(v)
    return str(x)


def _csv_text(columns, rows):
    """The header line, then one line of _cell values per row."""
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_flow_trace_csv(trace, path):
    rows = zip(range(trace.final_index + 1), trace.unit_defect_hs,
               trace.frame_potential, trace.max_tangent_norm)
    _write_text(_csv_text(FLOW_TRACE_COLUMNS, rows), path)


def _sweep_cells(row):
    missing = [c for c in SWEEP_COLUMNS if c not in row]
    if missing:
        raise DocumentError(f"sweep row is missing columns {missing}")
    return [row[c] for c in SWEEP_COLUMNS]


def sweep_csv_text(rows):
    """rows: dicts keyed exactly by SWEEP_COLUMNS."""
    return _csv_text(SWEEP_COLUMNS, map(_sweep_cells, rows))


def write_sweep_csv(rows, path):
    _write_text(sweep_csv_text(rows), path)

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


def _reject_constant(name):
    raise DocumentError(f"non-finite literal {name!r} is not allowed")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    return doc


def _json_text(doc):
    return json.dumps(doc, allow_nan=False, indent=2) + "\n"


def _dump_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc))


def _require_kind(doc, kind, path):
    got = doc.get("kind")
    if got != kind:
        raise DocumentError(f"{path}: expected kind {kind!r}, got {got!r}")


def _as_number(x, where):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DocumentError(f"{where} must be a number")
    v = float(x)
    if not math.isfinite(v):
        raise DocumentError(f"{where} must be finite")
    return v


def _as_count(doc, key, path):
    v = doc.get(key)
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise DocumentError(f"{path}: {key!r} must be a positive integer")
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


def _matrix_to_lists(m):
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise DocumentError("non-finite entries cannot be serialized")
    return [[float(x) for x in row] for row in m]


def _encode_p(p):
    return "inf" if p == math.inf else float(p)


def _decode_p(raw, path):
    if raw == "inf":
        return math.inf
    v = _as_number(raw, f"{path}: 'p'")
    if v < 1.0:
        raise DocumentError(f"{path}: 'p' must be at least 1")
    return v


def frame_doc_text(frame):
    """The hilbert_frame document of frame, as write_frame_doc writes it."""
    return _json_text({"kind": "hilbert_frame", "dim": frame.dim,
                       "vectors": _matrix_to_lists(frame.vectors)})


def write_frame_doc(frame, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(frame_doc_text(frame))


def read_frame_doc(path):
    doc = _load_json(path)
    _require_kind(doc, "hilbert_frame", path)
    d = _as_count(doc, "dim", path)
    return Frame(_as_rows(doc, "vectors", d, path))


def write_asf_doc(asf, path):
    _dump_json({"kind": "asf", "p": _encode_p(asf.space.p),
                "dim": asf.space.dim,
                "functionals": _matrix_to_lists(asf.functionals),
                "vectors": _matrix_to_lists(asf.vectors)}, path)


def read_asf_doc(path):
    doc = _load_json(path)
    _require_kind(doc, "asf", path)
    d = _as_count(doc, "dim", path)
    p = _decode_p(doc.get("p"), path)
    f = _as_rows(doc, "functionals", d, path)
    v = _as_rows(doc, "vectors", d, path)
    if f.shape != v.shape:
        raise DocumentError(
            f"{path}: functionals {f.shape} and vectors {v.shape} disagree")
    return ASF(space=PNormSpace(dim=d, p=p), functionals=f, vectors=v)


def write_projection_doc(matrix, path):
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DocumentError("projection document needs a square matrix")
    _dump_json({"kind": "projection", "dim": int(m.shape[0]),
                "matrix": _matrix_to_lists(m)}, path)


def read_projection_doc(path):
    """Returns the raw matrix; certification is the caller's decision."""
    doc = _load_json(path)
    _require_kind(doc, "projection", path)
    d = _as_count(doc, "dim", path)
    m = _as_rows(doc, "matrix", d, path)
    if m.shape[0] != d:
        raise DocumentError(f"{path}: matrix has {m.shape[0]} rows, expected {d}")
    return m


def write_auerbach_doc(sys, path):
    _dump_json({"kind": "auerbach_system", "p": _encode_p(sys.space.p),
                "dim": sys.space.dim,
                "basis_vectors": _matrix_to_lists(sys.basis_vectors),
                "dual_functionals": _matrix_to_lists(sys.dual_functionals)},
               path)


def read_auerbach_doc(path):
    doc = _load_json(path)
    _require_kind(doc, "auerbach_system", path)
    d = _as_count(doc, "dim", path)
    p = _decode_p(doc.get("p"), path)
    u = _as_rows(doc, "basis_vectors", d, path)
    z = _as_rows(doc, "dual_functionals", d, path)
    if u.shape[0] != d or z.shape[0] != d:
        raise DocumentError(f"{path}: need exactly {d} rows on both sides")
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


def _write_csv(text, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_flow_trace_csv(trace, path):
    rows = zip(trace.iters, trace.unit_defect_hs, trace.frame_potential,
               trace.max_tangent_norm)
    _write_csv(_csv_text(FLOW_TRACE_COLUMNS, rows), path)


def _sweep_cells(row):
    missing = [c for c in SWEEP_COLUMNS if c not in row]
    if missing:
        raise DocumentError(f"sweep row is missing columns {missing}")
    return [row[c] for c in SWEEP_COLUMNS]


def sweep_csv_text(rows):
    """rows: dicts keyed exactly by SWEEP_COLUMNS (wall time never appears)."""
    return _csv_text(SWEEP_COLUMNS, map(_sweep_cells, rows))


def write_sweep_csv(rows, path):
    _write_csv(sweep_csv_text(rows), path)

"""JSON and CSV documents.

All floats serialize as shortest round-trip decimals (Python repr).
The JSON writer lays out the text itself, byte for byte what
json.dumps(doc, indent=2) gives, without the pure-Python encoder that
indent selects. The reader checks each matrix's row structure, converts
it with one np.array call and checks it finite once; only a matrix that
fails those checks is walked again, to name its first bad entry. Readers
reject NaN, infinities (an integer beyond float range among them),
booleans, ragged rows, and wrong shapes with DocumentError; the infinite
exponent of an ASF space is encoded as the string "inf" since JSON has
no infinity literal. A path that cannot be read or written is a
DocumentError too.

One writer, _write_text, writes every JSON and CSV document. It
overwrites an existing file in place and cuts it only when it was
longer, because truncating at open makes ext4 flush the file on close.
It does not fsync: after a crash a rewritten file holds the old bytes,
the new ones or a block-wise mix, where the old writer could leave it
empty; a torn document mostly reads back as a DocumentError.
"""

import itertools
import json
import math
import os

import numpy as np

from .asf import ASF, PNormSpace
from .errors import DocumentError
from .frames import Frame
from .projections import AuerbachSystem

SWEEP_COLUMNS = (
    "d", "n", "p", "kind", "eps_target",
    "eps_measured_parseval", "eps_measured_equalnorm",
    "dist_sq", "certified", "rounds",
    "bound_hm", "bound_bc",
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


# the types json.load gives a JSON number (bool, an int subclass, excluded)
_NUMBER_TYPES = frozenset((int, float))


def _as_number(x, where):
    if type(x) not in _NUMBER_TYPES:
        raise DocumentError(f"{where} must be a number")
    try:
        v = float(x)
    except OverflowError:
        raise DocumentError(f"{where} must be finite") from None
    if not math.isfinite(v):
        raise DocumentError(f"{where} must be finite")
    return v


def _as_rows(doc, key, dim, path):
    rows = doc.get(key)
    if not isinstance(rows, list) or not rows:
        raise DocumentError(
            f"{path}: {key!r} must be a list of at least 1 row(s)")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentError(f"{path}: {key}[{i}] must be a list")
        if len(row) != dim:
            raise DocumentError(
                f"{path}: {key}[{i}] has length {len(row)}, expected {dim}")
    entries = itertools.chain.from_iterable(rows)
    if _NUMBER_TYPES.issuperset(map(type, entries)):
        try:
            m = np.array(rows, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(m).all():
                return m
    # some entry is bad: the walk raises at the first one, by name
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            _as_number(x, f"{path}: {key}[{i}][{j}]")


def _read_doc(path, kind):
    """(dim, p, *matrices) of the kind document at path, checked against
    _SCHEMA; p is None for a kind without an exponent."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except DocumentError as exc:  # a NaN or Infinity literal
        raise DocumentError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, an integer literal past the digit
        # limit of int(), or bytes that are not UTF-8
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


def _matrix_text(rows):
    """rows, a non-empty list of non-empty lists of floats, as
    json.dumps(indent=2) lays out a list of lists one level below the
    top."""
    return "[\n    " + ",\n    ".join(
        "[\n      " + ",\n      ".join(map(repr, row)) + "\n    ]"
        for row in rows) + "\n  ]"


def _doc_text(kind, dim, p, *matrices):
    """The kind document's JSON, the bytes of json.dumps(doc, indent=2)
    plus a newline: kind, p (if the kind has it), dim, then the matrices
    under their _SCHEMA keys; the exponent infinity is the string "inf"."""
    keys, has_p, _ = _SCHEMA[kind]
    fields = [f'"kind": "{kind}"']
    if has_p:
        fields.append('"p": "inf"' if p == math.inf
                      else f'"p": {float(p)!r}')
    fields.append(f'"dim": {dim:d}')
    for key, m in zip(keys, matrices):
        m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(m)):
            raise DocumentError("non-finite entries cannot be serialized")
        fields.append(f'"{key}": {_matrix_text(m.tolist())}')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _write_text(text, path):
    """Write text's UTF-8 bytes to path over the old ones from offset 0,
    then cut the file to their length only when it was longer.

    open(path, "w") truncates at open, and ext4 then flushes the file on
    close (auto_da_alloc): about 110 us against 7 us in place for an
    800-byte rewrite. A rename over the old file is flushed the same way,
    and unlinking it first would unlink /dev/null and break hard links.
    In place, the inode and its links stay, a new file gets 0o666 less
    the umask, and /dev/null (size 0) is never truncated. Neither this
    writer nor open(path, "w") fsyncs: after a crash the old writer could
    leave an empty file, this one the old bytes, the new ones or a
    block-wise mix. A torn document reads back as a DocumentError (the
    CLI's one error: line), unless a block boundary splices two
    documents of the same layout into one that parses. Any OSError is a
    DocumentError naming path.
    """
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if os.fstat(fd).st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc


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
    # a 0 x 0 matrix would be a "dim": 0 document, which no reader takes
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DocumentError(
            "projection document needs a non-empty square matrix")
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
    # np.bool_ is no Python bool, and str() would spell it True/False
    if isinstance(x, (bool, np.bool_)):
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

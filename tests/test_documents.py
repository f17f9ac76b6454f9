import functools
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.asf import ASF, PNormSpace
from framelab.documents import (
    FLOW_TRACE_COLUMNS,
    SWEEP_COLUMNS,
    _SCHEMA,
    _doc_text,
    _read_doc,
    read_asf_doc,
    read_auerbach_doc,
    read_frame_doc,
    read_projection_doc,
    sweep_csv_text,
    write_asf_doc,
    write_auerbach_doc,
    write_flow_trace_csv,
    write_frame_doc,
    write_projection_doc,
    write_sweep_csv,
)
from framelab.errors import DocumentError
from framelab.flow import FlowTrace
from framelab.frames import Frame, generate
from framelab.projections import certify_projection
from conftest import auerbach_system, random_frame


class TestFrameDocs:
    def test_round_trip_bitwise(self, tmp_path, mb):
        path = tmp_path / "mb.json"
        write_frame_doc(mb, path)
        back = read_frame_doc(path)
        assert np.array_equal(back.vectors, mb.vectors)
        # a second write of the reloaded frame is byte identical
        other = tmp_path / "mb2.json"
        write_frame_doc(back, other)
        assert path.read_bytes() == other.read_bytes()

    def test_rejects_nan_literal(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "hilbert_frame", "dim": 1,'
                        ' "vectors": [[NaN]]}')
        with pytest.raises(DocumentError):
            read_frame_doc(path)

    def test_rejects_infinity_literal(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "hilbert_frame", "dim": 1,'
                        ' "vectors": [[Infinity]]}')
        with pytest.raises(DocumentError):
            read_frame_doc(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "hilbert_frame", "dim": 2,'
                        ' "vectors": [[1.0, 0.0], [1.0]]}')
        with pytest.raises(DocumentError):
            read_frame_doc(path)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "asf", "dim": 1, "vectors": [[1.0]]}')
        with pytest.raises(DocumentError):
            read_frame_doc(path)

    def test_rejects_bool_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "hilbert_frame", "dim": 1,'
                        ' "vectors": [[true]]}')
        with pytest.raises(DocumentError):
            read_frame_doc(path)

    def test_rejects_non_dict(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[1, 2, 3]')
        with pytest.raises(DocumentError):
            read_frame_doc(path)

    def test_rejects_string_dim(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "hilbert_frame", "dim": "2",'
                        ' "vectors": [[1.0, 0.0]]}')
        with pytest.raises(DocumentError):
            read_frame_doc(path)


class TestASFDocs:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        asf = ASF(space=PNormSpace(2, 1.5),
                  functionals=rng.standard_normal((3, 2)),
                  vectors=rng.standard_normal((3, 2)))
        path = tmp_path / "asf.json"
        write_asf_doc(asf, path)
        back = read_asf_doc(path)
        assert back.space == asf.space
        assert np.array_equal(back.vectors, asf.vectors)
        assert np.array_equal(back.functionals, asf.functionals)

    def test_infinite_exponent_encoding(self, tmp_path):
        asf = ASF(space=PNormSpace(2, math.inf),
                  functionals=np.eye(2), vectors=np.eye(2))
        path = tmp_path / "asf.json"
        write_asf_doc(asf, path)
        payload = json.loads(path.read_text())
        assert payload["p"] == "inf"
        assert read_asf_doc(path).space.p == math.inf


class TestProjectionDocs:
    def test_round_trip(self, tmp_path):
        proj = certify_projection(np.diag([1.0, 0.0]))
        path = tmp_path / "proj.json"
        write_projection_doc(proj.matrix, path)
        assert np.array_equal(read_projection_doc(path), proj.matrix)


class TestAuerbachDocs:
    def test_round_trip(self, tmp_path):
        sys = auerbach_system(np.eye(3), 1.5)
        path = tmp_path / "sys.json"
        write_auerbach_doc(sys, path)
        back = read_auerbach_doc(path)
        assert back.space == sys.space
        assert np.array_equal(back.basis_vectors, sys.basis_vectors)
        assert np.array_equal(back.dual_functionals, sys.dual_functionals)


# a positive magnitude in [1e-300, 1e300] with either sign, an integral
# value, or a signed zero
_ENTRIES = st.one_of(
    st.builds(lambda x, sign: sign * x, st.floats(1e-300, 1e300),
              st.sampled_from([1.0, -1.0])),
    st.integers(-10**17, 10**17).map(float),
    st.sampled_from([0.0, -0.0, 1e16, 1e22, -1e300, 5e-300]),
)


@st.composite
def _documents(draw, kind):
    """(dim, p, matrices) of a kind document: n <= 8 rows (dim rows for
    the square kinds) of dim <= 6 entries."""
    keys, has_p, square = _SCHEMA[kind]
    dim = draw(st.integers(1, 6))
    n = dim if square else draw(st.integers(1, 8))
    p = draw(st.sampled_from([1.0, 1.5, 3.0, math.inf])) if has_p else None
    mats = [np.array(draw(st.lists(
        st.lists(_ENTRIES, min_size=dim, max_size=dim),
        min_size=n, max_size=n))) for _ in keys]
    return dim, p, mats


class TestCodec:
    @pytest.mark.parametrize("kind", sorted(_SCHEMA))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_text_is_json_dumps_indent_2(self, tmp_path_factory, kind,
                                         data):
        dim, p, mats = data.draw(_documents(kind))
        keys, has_p, _ = _SCHEMA[kind]
        # json.dumps is the oracle only: the writer lays out its text itself
        doc = {"kind": kind}
        if has_p:
            doc["p"] = "inf" if p == math.inf else p
        doc["dim"] = dim
        doc.update((key, m.tolist()) for key, m in zip(keys, mats))
        text = _doc_text(kind, dim, p, *mats)
        assert text == json.dumps(doc, allow_nan=False, indent=2) + "\n"
        # and it reads back to the same bits, signed zeros included
        path = tmp_path_factory.getbasetemp() / f"{kind}.json"
        path.write_text(text)
        back = _read_doc(path, kind)
        assert back[:2] == (dim, p)
        for got, want in zip(back[2:], mats):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_integer_entries_read_as_float_of_the_literal(self, tmp_path):
        rows = [[0, -7], [2**53 + 1, -(2**64) - 3], [10**300 + 1, 3**600],
                [1, 0.5]]
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"kind": "hilbert_frame", "dim": 2,
                                    "vectors": rows}))
        got = read_frame_doc(path).vectors
        want = np.array([[float(x) for x in row] for row in rows])
        assert got.tobytes() == want.tobytes()

    def test_rejects_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "hilbert_frame", "dim": 1,'
                         b' "vectors": [[1.0]], "note": "\xe9"}')
        with pytest.raises(DocumentError, match="not valid JSON"):
            read_frame_doc(path)


_ASF_ROWS = '"dim": 1, "functionals": [[1.0]], "vectors": [[1.0]]'
# an integer literal beyond the float range, and one past the digit limit
# of int() (4300 digits by default)
_HUGE_INT = "1" + "0" * 400
_LONG_INT = "1" * 5000

# (function, document text or matrix to write, the rule's message)
REJECTED = [
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": [[1.0]]', "not valid JSON", id="truncated"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": [[1e999]]}', "must be finite", id="overflow"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": [[NaN]]}',
                 r"doc\.json: non-finite literal 'NaN' is not allowed",
                 id="nan-literal-names-file"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 2,'
                 ' "vectors": [[' + _HUGE_INT + ', 0], [0, 1], [1, 1]]}',
                 r"vectors\[0\]\[0\] must be finite", id="huge-int-entry"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": [[' + _LONG_INT + ']]}', "not valid JSON",
                 id="int-past-digit-limit"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": ' + "[" * 100000 + "]" * 100000 + '}',
                 "not valid JSON", id="nested-too-deep"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 2,'
                 ' "vectors": [[1.0, 0.0], [0.0, "1"]]}',
                 r"vectors\[1\]\[1\] must be a number", id="string-entry"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 2,'
                 ' "vectors": [[1, 0.5], [false, 2]]}',
                 r"vectors\[1\]\[0\] must be a number", id="bool-entry"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": []}', "at least 1 row", id="empty-rows"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1}',
                 "at least 1 row", id="missing-rows"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": [1.0]}', "must be a list", id="row-not-list"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 0,'
                 ' "vectors": [[1.0]]}', "positive integer", id="dim-zero"),
    pytest.param(read_asf_doc, '{"kind": "asf", "p": 0.5, ' + _ASF_ROWS
                 + '}', "at least 1", id="asf-p-below-1"),
    pytest.param(read_asf_doc, '{"kind": "asf", ' + _ASF_ROWS + '}',
                 "must be a number", id="asf-p-missing"),
    pytest.param(read_asf_doc, '{"kind": "asf", "p": "Infinity", '
                 + _ASF_ROWS + '}', "must be a number", id="asf-p-string"),
    pytest.param(read_asf_doc, '{"kind": "asf", "p": ' + _HUGE_INT + ', '
                 + _ASF_ROWS + '}', "'p' must be finite", id="asf-p-huge-int"),
    pytest.param(read_asf_doc, '{"kind": "asf", "p": 2.0, "dim": 1,'
                 ' "functionals": [[1.0]], "vectors": [[1e999]]}',
                 r"vectors\[0\]\[0\] must be finite",
                 id="asf-second-matrix-overflow"),
    pytest.param(read_asf_doc, '{"kind": "asf", "p": 2.0, "dim": 1,'
                 ' "functionals": [[1.0]], "vectors": [[1.0], [1.0]]}',
                 "functionals.*vectors", id="asf-row-counts"),
    pytest.param(read_projection_doc, '{"kind": "projection", "dim": 2,'
                 ' "matrix": [[1.0, 0.0]]}', "rows", id="projection-rows"),
    pytest.param(read_auerbach_doc, '{"kind": "auerbach_system", "p": 2.0,'
                 ' "dim": 2, "basis_vectors": [[1.0, 0.0]],'
                 ' "dual_functionals": [[1.0, 0.0]]}', "rows",
                 id="auerbach-both-short"),
    pytest.param(read_auerbach_doc, '{"kind": "auerbach_system", "p": 2.0,'
                 ' "dim": 2, "basis_vectors": [[1.0, 0.0], [0.0, 1.0]],'
                 ' "dual_functionals": [[1.0, 0.0]]}', "rows",
                 id="auerbach-one-short"),
    pytest.param(write_projection_doc, np.array([[np.inf, 0.0], [0.0, 1.0]]),
                 "non-finite", id="write-inf"),
    pytest.param(write_projection_doc, np.zeros((2, 3)), "square",
                 id="write-not-square"),
    # a 0 x 0 matrix would write "dim": 0, which every reader refuses
    pytest.param(write_projection_doc, np.zeros((0, 0)), "non-empty",
                 id="write-empty"),
]


@pytest.mark.parametrize("fn, arg, message", REJECTED)
def test_rejection_rules(tmp_path, fn, arg, message):
    path = tmp_path / "doc.json"
    with pytest.raises(DocumentError, match=message):
        if isinstance(arg, str):
            path.write_text(arg)
            fn(path)
        else:
            fn(arg, path)
    if not isinstance(arg, str):
        assert not path.exists()


class TestSweepCSV:
    def _row(self, **overrides):
        row = {
            "d": 2, "n": 3, "p": 2.0, "kind": "perturbed_enp",
            "eps_target": 0.1, "eps_measured_parseval": 0.05,
            "eps_measured_equalnorm": 0.04, "dist_sq": 0.001,
            "certified": True, "rounds": 7, "bound_hm": 8.0,
            "bound_bc": 9.0,
        }
        row.update(overrides)
        return row

    def test_header_order(self):
        text = sweep_csv_text([])
        assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS)

    def test_bool_and_float_encoding(self):
        text = sweep_csv_text([self._row()])
        line = text.splitlines()[1]
        cells = line.split(",")
        assert cells[SWEEP_COLUMNS.index("certified")] == "true"
        assert cells[SWEEP_COLUMNS.index("dist_sq")] == repr(0.001)

    def test_numpy_bools_are_lowercase(self):
        text = sweep_csv_text([self._row(certified=np.True_),
                               self._row(certified=np.False_)])
        assert [line.split(",")[SWEEP_COLUMNS.index("certified")]
                for line in text.splitlines()[1:]] == ["true", "false"]

    def test_missing_column_rejected(self):
        row = self._row()
        del row["bound_bc"]
        with pytest.raises(DocumentError):
            sweep_csv_text([row])

    def test_non_finite_rejected(self):
        with pytest.raises(DocumentError):
            sweep_csv_text([self._row(dist_sq=math.nan)])

    def test_write_matches_text(self, tmp_path):
        rows = [self._row(), self._row(d=3, certified=False)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        assert path.read_text() == sweep_csv_text(rows)

    def test_determinism_bytes(self, tmp_path):
        rows = [self._row(n=3 + i) for i in range(5)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(rows, a)
        write_sweep_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()


class TestFlowTraceCSV:
    def test_header_and_rows(self, tmp_path):
        trace = FlowTrace(unit_defect_hs=[0.5, 0.1],
                          frame_potential=[4.5, 4.51],
                          max_tangent_norm=[0.25, 0.05],
                          termination="max_iters", final_index=1,
                          displacement_hs=0.01)
        path = tmp_path / "trace.csv"
        write_flow_trace_csv(trace, path)
        assert path.read_bytes() == (",".join(FLOW_TRACE_COLUMNS)
                                     + "\n0,0.5,4.5,0.25\n1,0.1,4.51,0.05\n"
                                     ).encode()


_SWEEP_ROW = st.fixed_dictionaries({
    "d": st.integers(1, 99), "n": st.integers(1, 999),
    "p": st.sampled_from([1.5, 2.0, 3.0]),
    "kind": st.sampled_from(["perturbed_enp", "scaled_enp"]),
    "eps_target": _ENTRIES, "eps_measured_parseval": _ENTRIES,
    "eps_measured_equalnorm": _ENTRIES, "dist_sq": _ENTRIES,
    "certified": st.booleans(), "rounds": st.integers(0, 60),
    "bound_hm": _ENTRIES, "bound_bc": _ENTRIES,
})


@st.composite
def _written(draw):
    """(write, check) for one frame, ASF, projection or sweep CSV
    document: write(path) writes it, check(path) asserts that path reads
    back to it bit for bit."""
    kind = draw(st.sampled_from(["hilbert_frame", "asf", "projection",
                                 "sweep"]))
    if kind == "sweep":
        rows = draw(st.lists(_SWEEP_ROW, max_size=12))

        def check(path):
            assert path.read_text() == sweep_csv_text(rows)
        return functools.partial(write_sweep_csv, rows), check
    dim, p, mats = draw(_documents(kind))
    if kind == "hilbert_frame":
        write = functools.partial(write_frame_doc, Frame(mats[0]))
    elif kind == "asf":
        write = functools.partial(write_asf_doc,
                                  ASF(PNormSpace(dim, p), *mats))
    else:
        write = functools.partial(write_projection_doc, mats[0])

    def check(path):
        back = _read_doc(path, kind)
        assert back[:2] == (dim, p)
        for got, want in zip(back[2:], mats):
            assert got.tobytes() == want.tobytes()
    return write, check


class TestRewrite:
    """_write_text overwrites in place: a rewrite leaves the bytes a fresh
    write gives, on the same inode."""

    @settings(max_examples=60, deadline=None)
    @given(docs=st.lists(_written(), min_size=2, max_size=6))
    def test_rewrite_equals_fresh_write(self, tmp_path_factory, docs):
        base = tmp_path_factory.getbasetemp()
        path, fresh = base / "rewrite.doc", base / "fresh.doc"
        for write, check in docs:
            write(path)
            fresh.unlink(missing_ok=True)
            write(fresh)
            assert path.read_bytes() == fresh.read_bytes()
            check(path)

    def test_shrink_leaves_no_trailing_bytes(self, tmp_path):
        path, fresh = tmp_path / "f.json", tmp_path / "fresh.json"
        write_frame_doc(random_frame(0, 5, 10), path)
        long_size = path.stat().st_size
        small = generate("harmonic", 2, 3)
        write_frame_doc(small, path)
        write_frame_doc(small, fresh)
        assert path.stat().st_size < long_size
        assert path.read_bytes() == fresh.read_bytes()
        assert read_frame_doc(path).vectors.tobytes() == \
            small.vectors.tobytes()

    def test_inode_and_hard_link_kept(self, tmp_path, mb):
        path, link = tmp_path / "f.json", tmp_path / "link.json"
        write_frame_doc(random_frame(0, 5, 10), path)
        os.link(path, link)
        inode = path.stat().st_ino
        write_frame_doc(mb, path)
        assert path.stat().st_ino == inode
        assert link.read_bytes() == path.read_bytes()
        write_frame_doc(random_frame(1, 4, 9), path)
        assert path.stat().st_ino == inode
        assert link.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_is_open_w_mode(self, tmp_path, mb, umask):
        old = os.umask(umask)
        try:
            write_frame_doc(mb, tmp_path / "f.json")
            with open(tmp_path / "w.json", "w"):
                pass
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "f.json").stat().st_mode)
        assert mode == 0o666 & ~umask
        assert mode == stat.S_IMODE((tmp_path / "w.json").stat().st_mode)

    @pytest.mark.skipif(not os.path.exists(os.devnull),
                        reason="no null device")
    def test_null_device(self, mb):
        # a character device of size 0: never truncated, which would fail
        # with EINVAL
        write_frame_doc(mb, os.devnull)
        write_sweep_csv([], os.devnull)

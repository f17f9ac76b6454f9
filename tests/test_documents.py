import json
import math

import numpy as np
import pytest

from framelab.asf import ASF, PNormSpace
from framelab.documents import (
    FLOW_TRACE_COLUMNS,
    SWEEP_COLUMNS,
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
from framelab.projections import certify_projection
from conftest import auerbach_system


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


_ASF_ROWS = '"dim": 1, "functionals": [[1.0]], "vectors": [[1.0]]'

# (function, document text or matrix to write, the rule's message)
REJECTED = [
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": [[1.0]]', "not valid JSON", id="truncated"),
    pytest.param(read_frame_doc, '{"kind": "hilbert_frame", "dim": 1,'
                 ' "vectors": [[1e999]]}', "must be finite", id="overflow"),
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

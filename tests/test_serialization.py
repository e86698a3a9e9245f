import json
import math

import numpy as np
import pytest

from chronon_lab import cli, linalg
from chronon_lab.errors import InvalidState
from chronon_lab.linalg import frobenius
from chronon_lab.serialization import decode_matrix, decode_state, load_state
from chronon_lab.states import (
    BipartiteState,
    ClassicalQuantumState,
    CorrelationBasis,
    DensityMatrix,
    StateVector,
)

from conftest import bell_state, random_density, save_state
from test_golden import INPUTS


class TestMatrixEncoding:
    def test_round_trip(self, rng):
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        data = [[z.real, z.imag] for z in m.reshape(-1).tolist()]
        back = decode_matrix({"rows": 3, "cols": 2, "data": data})
        assert frobenius(back - m) == 0.0

    def test_wire_shape(self):
        back = decode_matrix({"rows": 1, "cols": 1, "data": [[1.0, 2.0]]})
        assert back.dtype == np.complex128
        assert back.tolist() == [[1.0 + 2.0j]]

    def test_row_major_order(self):
        data = [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
        back = decode_matrix({"rows": 2, "cols": 2, "data": data})
        assert back.tolist() == [[1, 2], [3, 4]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidState):
            decode_matrix({"rows": 2, "cols": 2, "data": [[1, 0]]})

    def test_malformed_rejected(self):
        with pytest.raises(InvalidState):
            decode_matrix({"rows": 2, "data": []})

    def test_dimension_cap_checked_before_entries(self, monkeypatch):
        # the entries are neither complete nor numbers: the cap must fire first
        monkeypatch.setattr(linalg, "MAX_DIM", 3)
        with pytest.raises(InvalidState, match="matrix dimension 4 is above the cap of 3"):
            decode_matrix({"rows": 4, "cols": 1, "data": [["x", "y"]]})

    def test_dimension_cap_on_a_golden_density(self, monkeypatch, capsys):
        # rank2.json holds a 4x4 joint density matrix
        monkeypatch.setattr(linalg, "MAX_DIM", 3)
        code = cli.run(["entropy", "--state", str(INPUTS / "rank2.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "matrix dimension 4 is above the cap of 3" in err
        monkeypatch.setattr(linalg, "MAX_DIM", 4)
        assert cli.run(["entropy", "--state", str(INPUTS / "rank2.json")]) == 0


class TestStateFiles:
    def test_state_vector_round_trip(self, tmp_path):
        psi = StateVector(np.array([1.0, 1.0j]) / math.sqrt(2))
        path = tmp_path / "psi.json"
        save_state(str(path), psi)
        back = load_state(str(path))
        assert isinstance(back, StateVector)
        assert frobenius(back.amplitudes.reshape(-1, 1) - psi.amplitudes.reshape(-1, 1)) == 0.0

    def test_density_round_trip(self, tmp_path, rng):
        rho = random_density(3, rng)
        path = tmp_path / "rho.json"
        save_state(str(path), rho)
        back = load_state(str(path))
        assert isinstance(back, DensityMatrix)
        assert frobenius(back.mat - rho.mat) == 0.0

    def test_cq_round_trip(self, tmp_path, rng):
        cq = ClassicalQuantumState(
            ((0.25, random_density(2, rng)), (0.75, random_density(2, rng)))
        )
        path = tmp_path / "cq.json"
        save_state(str(path), cq)
        back = load_state(str(path))
        assert isinstance(back, ClassicalQuantumState)
        assert [p for p, _ in back.branches] == [0.25, 0.75]

    def test_cq_dimension_cap(self, tmp_path, rng, monkeypatch):
        # four 2 x 2 branches embed to a joint of dimension 8
        cq = ClassicalQuantumState(tuple((0.25, random_density(2, rng)) for _ in range(4)))
        path = tmp_path / "cq.json"
        save_state(str(path), cq)
        monkeypatch.setattr(linalg, "MAX_DIM", 8)
        assert len(load_state(str(path)).branches) == 4
        monkeypatch.setattr(linalg, "MAX_DIM", 7)
        with pytest.raises(InvalidState, match="tensor product dimension 8 is above the cap of 7"):
            load_state(str(path))

    def test_bipartite_round_trip(self, tmp_path):
        bi = bell_state()
        path = tmp_path / "bi.json"
        save_state(str(path), bi)
        back = load_state(str(path))
        assert isinstance(back, BipartiteState)
        assert (back.dim_a, back.dim_b) == (2, 2)
        assert frobenius(back.joint.mat - bi.joint.mat) == 0.0

    def test_kind_discriminator_on_disk(self, tmp_path):
        path = tmp_path / "bi.json"
        save_state(str(path), bell_state())
        with open(path) as fh:
            raw = json.load(fh)
        assert raw["kind"] == "bipartite"
        assert raw["matrix"]["rows"] == 4

    def test_correlation_basis_decoding(self):
        col = {"rows": 2, "cols": 1, "data": [[1.0, 0.0], [0.0, 0.0]]}
        col2 = {"rows": 2, "cols": 1, "data": [[0.0, 0.0], [1.0, 0.0]]}
        obj = {"kind": "correlation_basis", "system": [col, col2], "apparatus": [col, col2]}
        basis = decode_state(obj)
        assert isinstance(basis, CorrelationBasis)
        assert len(basis.system_basis) == len(basis.apparatus_basis) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidState):
            decode_state({"kind": "mystery"})

    def test_invalid_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(InvalidState):
            load_state(str(path))

    def test_validation_applies_after_decode(self):
        # a decoded density matrix still has to be a density matrix
        obj = {
            "kind": "density",
            "matrix": {"rows": 2, "cols": 2,
                       "data": [[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9, 0.0]]},
        }
        with pytest.raises(InvalidState):
            decode_state(obj)

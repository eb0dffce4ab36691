"""Command-line interface: file formats, commands, exit codes."""

import json

import numpy as np
import pytest

from dsfmin import rmat_equal
from dsfmin.cli import dsf_to_json, main, parse_model, part_to_json
from dsfmin.errors import SchemaError

from conftest import ZERO, ex1_matrices, rmat


EX2_JSON = {
    "kind": "dsf_coeff",
    "Q": [[{"num": [0], "den": [1]}, {"num": [1], "den": [2, 1]}, {"num": [1], "den": [3, 1]}],
          [{"num": [1], "den": [1, 1]}, {"num": [0], "den": [1]}, {"num": [1], "den": [3, 1]}],
          [{"num": [1], "den": [1, 1]}, {"num": [1], "den": [2, 1]}, {"num": [0], "den": [1]}]],
    "P": [[{"num": [1], "den": [4, 1]}],
          [{"num": [1], "den": [4, 1]}],
          [{"num": [1], "den": [4, 1]}]],
}


def write_ex2(tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(EX2_JSON))
    return str(path)


def write_ex1(tmp_path):
    A, B, _ = ex1_matrices()
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps({"kind": "state_space",
                                "A": A.tolist(), "B": B.tolist(), "p": 3}))
    return str(path)


class TestParseModel:
    def test_ex2_dsf_coeff(self, tmp_path):
        model = parse_model(write_ex2(tmp_path))
        assert model.kind == "dsf_coeff"
        assert model.dsf.p == 3 and model.dsf.m == 1

    def test_state_space_identity_output_passthrough(self, tmp_path):
        A, B, _ = ex1_matrices()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "state_space", "A": A.tolist(),
                                    "B": B.tolist(),
                                    "C": np.hstack([np.eye(3), np.zeros((3, 2))]).tolist()}))
        model = parse_model(str(path))
        assert np.allclose(model.part.A11, A[:3, :3])
        assert np.allclose(model.part.A22, A[3:, 3:])

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "state_space",
                                    "A": [[1, 2], [3]], "B": [[1], [1]], "p": 1}))
        with pytest.raises(SchemaError):
            parse_model(str(path))

    def test_pole_residue_kind(self, tmp_path):
        path = tmp_path / "pr.json"
        path.write_text(json.dumps({
            "kind": "dsf_pole_residue",
            "poles": [-1.0, -2.0],
            "KQ": [[[0.0, -1.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]],
            "KP": [[[1.0], [0.0]], [[0.0], [1.0]]]}))
        model = parse_model(str(path))
        expect_q = rmat([[ZERO, ([-1], [1, 1])], [([-2], [2, 1]), ZERO]])
        assert rmat_equal(model.dsf.Q, expect_q)

    def test_non_numeric_tolerance_rejected(self, tmp_path):
        path = tmp_path / "bad_tol.json"
        path.write_text(json.dumps(dict(EX2_JSON, tolerances={"tol_eval": "tight"})))
        with pytest.raises(SchemaError):
            parse_model(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(SchemaError):
            parse_model(str(path))


class TestRoundTrips:
    def test_dsf_json_roundtrip(self, tmp_path, ex2_dsf):
        path = tmp_path / "out.json"
        path.write_text(json.dumps(dsf_to_json(ex2_dsf)))
        model = parse_model(str(path))
        assert rmat_equal(model.dsf.Q, ex2_dsf.Q)
        assert rmat_equal(model.dsf.P, ex2_dsf.P)

    def test_realization_json_roundtrip(self, tmp_path, ex1_partition):
        path = tmp_path / "out.json"
        path.write_text(json.dumps(part_to_json(ex1_partition)))
        model = parse_model(str(path))
        assert np.allclose(model.part.A11, ex1_partition.A11)
        assert np.allclose(model.part.A22, ex1_partition.A22)
        assert np.allclose(model.part.B2, ex1_partition.B2)


class TestMinrealCommand:
    def test_ex2_report_and_files(self, tmp_path, capsys):
        model = write_ex2(tmp_path)
        code = main(["minreal", model, "--enumerate-all",
                     "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "phi = 1" in out
        assert "minimal consistent order = 6 (hidden states: 3)" in out
        assert "mcmillan degree of G: 4" in out
        for pattern in ("diag{a, -1, -1}", "diag{-2, a, -2}",
                        "diag{-3, -3, a}", "diag{-4, -4, -4}"):
            assert pattern in out
        for k in range(1, 5):
            assert (tmp_path / f"realization_{k}.json").exists()

    def test_readme_example_mcmillan_degree(self, tmp_path, capsys):
        # G of the README example has complex poles; its degree is the order 5
        code = main(["minreal", write_ex1(tmp_path), "--out-dir", str(tmp_path)])
        assert code == 0
        assert "mcmillan degree of G: 5" in capsys.readouterr().out

    def test_byte_stable(self, tmp_path, capsys):
        model = write_ex2(tmp_path)
        runs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            out_dir.mkdir()
            main(["minreal", model, "--enumerate-all", "--out-dir", str(out_dir)])
            text = capsys.readouterr().out.replace(str(out_dir), "OUT")
            files = [(out_dir / f"realization_{k}.json").read_bytes()
                     for k in range(1, 5)]
            runs.append((text, files))
        assert runs[0] == runs[1]

    def test_complex_pole_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({
            "kind": "dsf_coeff",
            "Q": [[{"num": [0], "den": [1]}]],
            "P": [[{"num": [1], "den": [1, 0, 1]}]]}))
        assert main(["minreal", str(path)]) == 2
        assert "assumption violated" in capsys.readouterr().err

    def test_tol_pole_flag_validates_dsf_input(self, tmp_path, capsys):
        # P[0][0] = 1/((s+1)(s+1+5e-7)): two poles, apart at tol_pole 1e-8
        den = np.polynomial.polynomial.polyfromroots([-1.0, -1.0 - 5e-7])
        path = tmp_path / "close_poles.json"
        path.write_text(json.dumps({
            "kind": "dsf_coeff",
            "Q": [[{"num": [0], "den": [1]}]],
            "P": [[{"num": [1], "den": den.tolist()}]]}))
        assert main(["minreal", str(path), "--out-dir", str(tmp_path)]) == 2
        assert main(["minreal", str(path), "--tol-pole", "1e-8",
                     "--out-dir", str(tmp_path)]) == 0

    def test_missing_file_exits_3(self, capsys):
        assert main(["minreal", "/nonexistent/nowhere.json"]) == 3

    def test_schema_error_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["minreal", str(path)]) == 3

    def test_misshapen_residues_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad_pr.json"
        path.write_text(json.dumps({
            "kind": "dsf_pole_residue", "poles": [-1.0, -2.0],
            "KQ": [[[0.0, 0.0], [0.0, 0.0]]],
            "KP": [[[1.0], [0.0]], [[0.0], [1.0]]]}))
        assert main(["minreal", str(path)]) == 3


class TestExtractCommand:
    def test_ex1_limits_printed(self, tmp_path, capsys):
        model = write_ex1(tmp_path)
        out_path = tmp_path / "dsf.json"
        code = main(["extract", model, "-o", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "lim s*Q" in out and "lim s*P" in out
        reloaded = parse_model(str(out_path))
        assert reloaded.dsf.p == 3 and reloaded.dsf.m == 2

    def test_extract_requires_state_space(self, tmp_path, capsys):
        model = write_ex2(tmp_path)
        assert main(["extract", model, "-o", str(tmp_path / "x.json")]) == 3

    def test_roundtrip_consistent(self, tmp_path, capsys):
        from dsfmin import consistency_check
        model = write_ex1(tmp_path)
        out_path = tmp_path / "dsf.json"
        main(["extract", model, "-o", str(out_path)])
        capsys.readouterr()
        d = parse_model(str(out_path)).dsf
        part = parse_model(model).part
        assert consistency_check(part, d, 1e-6)


class TestVerifyCommand:
    def test_emitted_realization_verifies(self, tmp_path, capsys):
        model = write_ex2(tmp_path)
        main(["minreal", model, "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code = main(["verify", model, str(tmp_path / "realization_1.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent and minimal" in out

    def test_perturbed_realization_fails(self, tmp_path, capsys):
        model = write_ex2(tmp_path)
        main(["minreal", model, "--out-dir", str(tmp_path)])
        capsys.readouterr()
        raw = json.loads((tmp_path / "realization_1.json").read_text())
        raw["A"][4][4] += 0.25
        bad = tmp_path / "perturbed.json"
        bad.write_text(json.dumps(raw))
        code = main(["verify", model, str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "inconsistent" in out

    def test_file_tolerances_override_flags(self, tmp_path, capsys):
        path = tmp_path / "ex2_loose.json"
        path.write_text(json.dumps(dict(EX2_JSON, tolerances={"tol_eval": 1e-3})))
        main(["minreal", str(path), "--out-dir", str(tmp_path)])
        raw = json.loads((tmp_path / "realization_1.json").read_text())
        raw["B"][0][0] += 1e-6
        nudged = tmp_path / "nudged.json"
        nudged.write_text(json.dumps(raw))
        assert main(["verify", write_ex2(tmp_path), str(nudged)]) == 1
        assert main(["verify", str(path), str(nudged)]) == 0
        assert main(["verify", str(path), str(nudged), "--tol-eval", "1e-12"]) == 0

    def test_complex_hidden_poles_are_inconsistent(self, tmp_path, capsys):
        # hidden block: a 2x2 rotation with eigenvalues -1 +- 2i
        A = np.ones((5, 5))
        A[:3, :3] -= 2.0 * np.eye(3)
        A[3:, 3:] = [[-1.0, 2.0], [-2.0, -1.0]]
        path = tmp_path / "rotation.json"
        path.write_text(json.dumps({"kind": "state_space", "A": A.tolist(),
                                    "B": np.ones((5, 1)).tolist(), "p": 3}))
        code = main(["verify", write_ex2(tmp_path), str(path)])
        assert code == 1
        assert "inconsistent" in capsys.readouterr().out

    def test_realization_against_own_dsf(self, tmp_path, capsys):
        model = write_ex1(tmp_path)
        out_path = tmp_path / "dsf.json"
        main(["extract", model, "-o", str(out_path)])
        capsys.readouterr()
        code = main(["verify", str(out_path), model])
        assert code == 0


class TestGraphCommand:
    def test_ex2_realization_graph(self, tmp_path, capsys):
        model = write_ex2(tmp_path)
        main(["minreal", model, "--enumerate-all", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code = main(["graph", str(tmp_path / "realization_4.json"),
                     "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        kinds = [n["kind"] for n in out["nodes"]]
        assert kinds.count("measured") == 3
        assert kinds.count("hidden") == 3

    def test_ex1_dsf_level_edges(self, tmp_path, capsys):
        model = write_ex1(tmp_path)
        out_path = tmp_path / "dsf.json"
        main(["extract", model, "-o", str(out_path)])
        capsys.readouterr()
        main(["graph", str(out_path), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        measured_edges = {(e["from"], e["to"]) for e in out["edges"]
                          if e["from"].startswith("y")}
        assert measured_edges == {("y3", "y1"), ("y1", "y2"), ("y2", "y3")}

    def test_dot_output_marks_kinds(self, tmp_path, capsys):
        model = write_ex2(tmp_path)
        code = main(["graph", model])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")
        assert 'y1 [kind="measured"]' in out
        assert 'u1 [kind="input"]' in out

    def test_zero_q_has_no_measured_edges(self, tmp_path, capsys):
        path = tmp_path / "zq.json"
        path.write_text(json.dumps({
            "kind": "dsf_coeff",
            "Q": [[{"num": [0], "den": [1]}, {"num": [0], "den": [1]}],
                  [{"num": [0], "den": [1]}, {"num": [0], "den": [1]}]],
            "P": [[{"num": [1], "den": [1, 1]}], [{"num": [1], "den": [2, 1]}]]}))
        main(["graph", str(path), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert all(e["from"].startswith("u") for e in out["edges"])

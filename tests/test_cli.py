"""Command-line interface: file formats, commands, exit codes."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from dsfmin import cli, dsf_to_transfer, kalman_reduce, mcmillan_degree, rmat_equal
from dsfmin.cli import dsf_to_json, main, model_to_dsf, parse_model, part_to_json
from dsfmin.errors import SchemaError

from conftest import ZERO, ex1_matrices, random_pole_residue, rmat
from test_dsf import _long_rows, _relay_blocks


EX2_JSON = {
    "kind": "dsf_coeff",
    "Q": [[{"num": [0], "den": [1]}, {"num": [1], "den": [2, 1]}, {"num": [1], "den": [3, 1]}],
          [{"num": [1], "den": [1, 1]}, {"num": [0], "den": [1]}, {"num": [1], "den": [3, 1]}],
          [{"num": [1], "den": [1, 1]}, {"num": [1], "den": [2, 1]}, {"num": [0], "den": [1]}]],
    "P": [[{"num": [1], "den": [4, 1]}],
          [{"num": [1], "den": [4, 1]}],
          [{"num": [1], "den": [4, 1]}]],
}


# residue vectors (1, 1, 0) at -1 and (1, -1, 0) at -2: orthogonal, but
# their supports overlap, so no diagonal R removes both poles
CONFLICT_JSON = {
    "kind": "dsf_pole_residue", "poles": [-1.0, -2.0],
    "KQ": [[[0, 0, 1], [0, 0, 1], [0, 0, 0]], [[0, 0, 1], [0, 0, -1], [0, 0, 0]]],
    "KP": [[[1], [1], [0]], [[1], [-1], [0]]],
}

# the residue vector at -1 is (1, 1e-6): its supports at tol_orth 1e-8 and
# 1e-4 differ, and with them the search's answer
NEAR_DISJOINT_JSON = {
    "kind": "dsf_pole_residue", "poles": [-1.0, -2.0],
    "KQ": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
    "KP": [[[1], [1e-6]], [[0], [1]]],
}

# a pole 5e-10 from the origin: at the origin for tol_pole 1e-6, off it for 1e-12
NEAR_ORIGIN_JSON = {
    "kind": "dsf_pole_residue", "poles": [5e-10, -2.0],
    "KQ": [[[0, 0], [1, 0]], [[0, 1], [0, 0]]],
    "KP": [[[0], [1]], [[1], [0]]],
}


def ex1_state_space(**fields):
    A, B, _ = ex1_matrices()
    return {"kind": "state_space", "A": A.tolist(), "B": B.tolist(), **fields}


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

    def test_pole_listed_twice_merges(self, tmp_path):
        def model(poles, KQ, KP):
            path = tmp_path / f"pr_{len(poles)}.json"
            path.write_text(json.dumps({"kind": "dsf_pole_residue", "poles": poles,
                                        "KQ": KQ, "KP": KP}))
            return parse_model(str(path)).dsf

        twice = model([-1.0, -2.0, -1.0],
                      [[[0.0, -1.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]],
                       [[0.0, 3.0], [0.0, 0.0]]],
                      [[[1.0], [0.0]], [[0.0], [1.0]], [[0.5], [0.0]]])
        once = model([-1.0, -2.0],
                     [[[0.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]],
                     [[[1.5], [0.0]], [[0.0], [1.0]]])
        assert twice.poles == once.poles == [-2.0, -1.0]
        assert np.array_equal(twice.residues, once.residues)
        assert rmat_equal(twice.Q, once.Q) and rmat_equal(twice.P, once.P)

    def test_non_numeric_tolerance_rejected(self, tmp_path):
        path = tmp_path / "bad_tol.json"
        path.write_text(json.dumps(dict(EX2_JSON, tolerances={"tol_eval": "tight"})))
        with pytest.raises(SchemaError):
            parse_model(str(path))

    def test_tolerances_resolved_defaults_then_flags_then_file(self, tmp_path):
        path = tmp_path / "ex2_tols.json"
        path.write_text(json.dumps(dict(EX2_JSON, tolerances={"tol_pole": 1e-7,
                                                               "tol_eval": 1e-3})))
        flags = {"tol_pole": 1e-8, "tol_rank": 1e-9, "model": str(path)}
        model = parse_model(str(path), flags)
        assert model.tolerances == {"tol_pole": 1e-7, "tol_rank": 1e-9, "tol_orth": 1e-8,
                                    "tol_eval": 1e-3, "tol_root": 1e-8}
        assert model.dsf.tol_pole == 1e-7
        assert parse_model(write_ex2(tmp_path)).tolerances["tol_pole"] == 1e-6

    def test_state_space_permuted_output(self, tmp_path):
        # C = I_5[[1, 0, 2]] measures states 1, 0, 2: the p = 3 model with
        # measured states 0 and 1 swapped
        path = tmp_path / "permuted.json"
        path.write_text(json.dumps(ex1_state_space(C=np.eye(5)[[1, 0, 2]].tolist())))
        d = model_to_dsf(parse_model(str(path)))
        ref = model_to_dsf(parse_model(write_ex1(tmp_path)))
        perm = [1, 0, 2]
        assert rmat_equal(d.Q, ref.Q.submatrix(perm, perm))
        assert rmat_equal(d.P, ref.P.submatrix(perm, range(ref.m)))

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

    def test_relay_mcmillan_degree_is_staircase_order(self, tmp_path, capsys):
        # the report's degree, from the pipeline's modes, against the order
        # the staircase leaves of each model's own (A, B, [I 0])
        relay_blocks = _relay_blocks()
        rng = np.random.default_rng(5)
        sizes = [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4)]
        for k in range(20):
            p, h = sizes[k % len(sizes)]
            b = relay_blocks(rng, p, h, 2)
            path = tmp_path / f"relay_{k}.json"
            path.write_text(json.dumps({"kind": "state_space", "A": b.A.tolist(),
                                        "B": b.B.tolist(), "p": p}))
            assert main(["minreal", str(path), "--out-dir", str(tmp_path)]) == 0
            degree = kalman_reduce(b.A, b.B, np.eye(p, p + h))[0].shape[0]
            assert f"mcmillan degree of G: {degree}\n" in capsys.readouterr().out

    def test_readme_library_example(self, capsys):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines()[0] == "3 5"

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

    def test_fourteen_pole_draws_are_consistent(self, tmp_path, capsys):
        # the exact residues of the file reach the search: none is lost to
        # root finding on a degree-13 entry, and at l = 19 none of lim s[Q P]
        # is lost with a leading numerator coefficient below the chop floor
        for l in (14, 19):
            rng = np.random.default_rng(2026)
            path = tmp_path / f"pr{l}.json"
            for _ in range(30):
                poles, KQ, KP = random_pole_residue(rng, 4, 2, l)
                path.write_text(json.dumps({"kind": "dsf_pole_residue", "poles": poles.tolist(),
                                            "KQ": [K.tolist() for K in KQ],
                                            "KP": [K.tolist() for K in KP]}))
                assert parse_model(str(path)).dsf.residues is not None
                assert main(["minreal", str(path), "--out-dir", str(tmp_path)]) == 0
                report = capsys.readouterr().out
                assert "consistency: PASS" in report and "FAIL" not in report

    @pytest.mark.parametrize("poles", [[-1.0, -2.0], [0.0, -1.0]])
    def test_zero_at_real_midpoint_of_poles_passes(self, tmp_path, capsys, poles):
        # P = 1/(s-a) + 1/(s-b) vanishes at the midpoint of its poles, which
        # must not serve as the zero test's control point
        path = tmp_path / "midpoint_zero.json"
        path.write_text(json.dumps({"kind": "dsf_pole_residue", "poles": poles,
                                    "KQ": [[[0]], [[0]]], "KP": [[[1]], [[1]]]}))
        assert main(["minreal", str(path), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "consistency: PASS" in out
        assert "zero agreement at cancelled poles: PASS" in out

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


class TestMalformedInput:
    @pytest.mark.parametrize("command, data", [
        ("minreal", ex1_state_space(p="one")),
        ("minreal", ex1_state_space(p=1.7)),
        ("minreal", ex1_state_space(C=np.eye(6, 5).tolist())),
        ("minreal", {"kind": "dsf_coeff", "Q": [[{"num": [0], "den": [1]}]],
                     "P": [[{"num": [1], "den": [0]}]]}),
        # a realization with m = 1 against the ex1 model, which has m = 2
        ("verify", {"kind": "state_space", "A": (-np.eye(3)).tolist(),
                    "B": np.ones((3, 1)).tolist(), "p": 3}),
        ("minreal", {"kind": "dsf_pole_residue", "poles": [-1.0],
                     "KQ": [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]], "KP": [[[1.0], [0.0]]]}),
        ("minreal", {"kind": "dsf_pole_residue", "poles": [-1.0],
                     "KQ": [[[0.0, 1.0], [0.0, 0.0]]], "KP": [[[1.0], [0.0], [1.0]]]}),
        ("minreal", {"kind": "dsf_pole_residue", "poles": [-1.0],
                     "KQ": [[[1.0, 1.0], [0.0, 0.0]]], "KP": [[[1.0], [0.0]]]}),
        ("minreal", dict(EX2_JSON, Q=[[]])),
        ("minreal", dict(EX2_JSON, P=[[]])),
        # booleans and numeric strings are not numbers
        ("minreal", {"kind": "state_space", "A": [[True, 0], [0, -2]], "B": [[1], [0]], "p": 1}),
        ("minreal", {"kind": "dsf_pole_residue", "poles": ["-1"], "KQ": [[[0]]], "KP": [[[1]]]}),
        ("minreal", {"kind": "dsf_pole_residue", "poles": [-1], "KQ": [[[0]]], "KP": [[[True]]]}),
        ("minreal", dict(EX2_JSON, P=[[{"num": ["1"], "den": [4, 1]}]] * 3)),
        ("minreal", dict(EX2_JSON, tolerances={"tol_pole": True})),
        ("minreal", dict(EX2_JSON, tolerances={"tol_eval": "1e-3"})),
        ("minreal", {"kind": "state_space", "A": [[10 ** 400]], "B": [[1.0]], "p": 1}),
        # each schema rule of parse_model
        ("minreal", {"A": [[-1.0]], "B": [[1.0]], "p": 1}),
        ("minreal", ex1_state_space(p=3, tolerances=[1e-6])),
        ("minreal", {"kind": "state_space", "B": [[1.0]], "p": 1}),
        ("minreal", ex1_state_space(p=3, C=np.eye(2, 5).tolist())),
        ("minreal", ex1_state_space()),
        ("minreal", {"kind": "state_space", "A": [[-1.0, 0.0]], "B": [[1.0]], "p": 1}),
        ("minreal", {"kind": "dsf_coeff", "Q": EX2_JSON["Q"]}),
        ("minreal", {"kind": "dsf_pole_residue", "poles": [-1.0], "KQ": [[[0.0]]]}),
        ("minreal", {"kind": "dsf_pole_residue", "poles": [-1.0, -2.0], "KQ": [[[0.0]]],
                     "KP": [[[1.0]], [[1.0]]]}),
        ("minreal", {"kind": "dsf_pole_residue", "poles": [], "KQ": [], "KP": []}),
        ("minreal", {"kind": "state_space", "A": [-1.0, -2.0], "B": [[1.0], [0.0]], "p": 1}),
        ("minreal", dict(EX2_JSON, P=[[1.0]] * 3)),
        ("minreal", dict(EX2_JSON, Q=[row[:2] for row in EX2_JSON["Q"][:2]] + EX2_JSON["Q"][2:])),
    ], ids=["p_string", "p_fraction", "C_more_rows_than_states", "zero_denominator",
            "verify_shape_mismatch", "KQ_not_square", "KP_rows_differ", "KQ_diagonal",
            "Q_empty_row", "P_empty_row", "A_bool", "pole_string", "residue_bool",
            "num_string", "tolerance_bool", "tolerance_string", "int_beyond_float", "no_kind",
            "tolerances_not_mapping", "no_A", "p_disagrees_with_C", "no_C_nor_p",
            "A_not_square", "no_P", "no_KP", "KQ_count_differs", "no_poles", "grid_1d",
            "entry_not_object", "ragged_rows"])
    def test_exits_3_with_one_error_line(self, tmp_path, capsys, command, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        if command == "verify":
            argv = ["verify", write_ex1(tmp_path), str(path)]
        else:
            argv = ["minreal", str(path), "--out-dir", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _with(data, key, i, j, value):
    """A copy of ``data`` with ``data[key][i][j]`` set to ``value``."""
    grid = [list(row) for row in data[key]]
    grid[i][j] = value
    return dict(data, **{key: grid})


NAN, INF = float("nan"), float("inf")


class TestNonFiniteAndNonPositive:
    """Non-finite numbers and tolerances that are not positive are schema errors."""

    @pytest.mark.parametrize("data", [
        {"kind": "dsf_pole_residue", "poles": [NAN], "KQ": [[[0]]], "KP": [[[1]]]},
        _with(CONFLICT_JSON, "KP", 0, 1, [INF]),
        _with(ex1_state_space(p=3), "A", 0, 0, NAN),
        _with(ex1_state_space(p=3), "A", 2, 4, INF),
        _with(ex1_state_space(p=3), "B", 1, 1, -INF),
        _with(EX2_JSON, "P", 2, 0, {"num": [1], "den": [NAN, 1]}),
        dict(EX2_JSON, tolerances={"tol_eval": INF}),
    ], ids=["pole_nan", "residue_inf", "A_nan", "A_inf", "B_minus_inf",
            "coefficient_nan", "tolerance_inf"])
    def test_non_finite_number_exits_3(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))  # json writes NaN and Infinity, and reads them
        with pytest.raises(SchemaError):
            parse_model(str(path))
        assert main(["minreal", str(path), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [("tol_pole", -1), ("tol_eval", 0),
                                            ("tol_rank", -1e-8)])
    def test_non_positive_tolerance_exits_3(self, tmp_path, capsys, key, value):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(ex1_state_space(p=3, tolerances={key: value})))
        assert main(["minreal", str(path), "--out-dir", str(tmp_path)]) == 3
        assert f"{key} must be a positive finite number" in capsys.readouterr().err

    def test_non_positive_flag_exits_3(self, tmp_path, capsys):
        assert main(["minreal", write_ex1(tmp_path), "--tol-orth", "0",
                     "--out-dir", str(tmp_path)]) == 3


class TestNoInput:
    """A dsf_pole_residue file whose KP has no column states no input."""

    DATA = {"kind": "dsf_pole_residue", "poles": [-1.0], "KQ": [[[0, 1], [0, 0]]],
            "KP": [[[], []]]}

    @pytest.mark.parametrize("command", ["minreal", "graph"])
    def test_exits_3_naming_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "no_input.json"
        path.write_text(json.dumps(self.DATA))
        with pytest.raises(SchemaError, match="at least one input"):
            parse_model(str(path))
        argv = [command, str(path)]
        if command == "minreal":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


class TestSearchOptions:
    """One compatibility rule, an automatic shift and a fixed free value."""

    def test_overlapping_orthogonal_residues(self, tmp_path, capsys):
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(CONFLICT_JSON))
        assert main(["minreal", str(path), "--out-dir", str(tmp_path)]) == 0
        assert "minimal consistent order = 4 (hidden states: 1)" in capsys.readouterr().out
        assert main(["verify", str(path), str(tmp_path / "realization_1.json")]) == 0
        assert "verdict: consistent and minimal" in capsys.readouterr().out

    def test_support_rule_decides_cancellation(self, tmp_path, capsys):
        # at --tol-orth 1e-4 the 1e-6 component of the residue vector at -1
        # is off its support, so R* removes both poles: the realization has
        # the reported order 2 and fails consistency by that component
        path = tmp_path / "near_disjoint.json"
        path.write_text(json.dumps(NEAR_DISJOINT_JSON))
        code = main(["minreal", str(path), "--tol-orth", "1e-4", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "minimal consistent order = 2 (hidden states: 0)" in out
        assert "cancelled poles: -1, -2" in out and "consistency: FAIL" in out
        A = json.loads((tmp_path / "realization_1.json").read_text())["A"]
        assert np.shape(A) == (2, 2)

    @pytest.mark.parametrize("flags, order", [(["--tol-orth", "1e-4"], 2), ([], 3)])
    def test_verify_searches_at_its_tol_orth(self, tmp_path, capsys, flags, order):
        # verify's minimal order is its own search, at its own --tol-orth;
        # the order-2 realization that minreal writes at 1e-4 is inconsistent
        path = tmp_path / "near_disjoint.json"
        path.write_text(json.dumps(NEAR_DISJOINT_JSON))
        assert main(["minreal", str(path), "--tol-orth", "1e-4", "--out-dir", str(tmp_path)]) == 1
        capsys.readouterr()
        code = main(["verify", str(path), str(tmp_path / "realization_1.json"), *flags])
        out = capsys.readouterr().out
        assert code == 1
        assert f"realization order: 2; minimal consistent order: {order}" in out
        assert "verdict: inconsistent" in out

    def test_pole_near_origin_without_shift(self, tmp_path, capsys):
        # at --tol-pole 1e-12 the pole 5e-10 is off the origin, so no shift
        # is taken; the answer is the one the shifted search gives
        path = tmp_path / "near_origin.json"
        path.write_text(json.dumps(NEAR_ORIGIN_JSON))
        reports = []
        for options in ([], ["--tol-pole", "1e-12"]):
            assert main(["minreal", str(path), *options, "--out-dir", str(tmp_path)]) == 0
            reports.append(capsys.readouterr().out.splitlines())
        for report in reports:
            assert "minimal consistent order = 2 (hidden states: 0)" in report
            assert "  consistency: PASS" in report
            assert "  zero agreement at cancelled poles: PASS" in report
        answer = [[line for line in report if line.startswith(("max simultaneous", "minimal",
                                                              "realization 1: R*"))]
                  for report in reports]
        assert answer[0] == answer[1] and len(answer[0]) == 3

    def test_pole_near_origin_mcmillan_degree(self, tmp_path, capsys):
        # unshifted, the factor lam - 0 = 5e-10 must not make the pole's
        # state look unobservable to the report's staircase
        path = tmp_path / "near_origin.json"
        path.write_text(json.dumps(NEAR_ORIGIN_JSON))
        d = model_to_dsf(parse_model(str(path), {"tol_pole": 1e-12}))
        assert mcmillan_degree(dsf_to_transfer(d)) == 2
        for options in ([], ["--tol-pole", "1e-12"]):
            assert main(["minreal", str(path), *options, "--out-dir", str(tmp_path)]) == 0
            assert "mcmillan degree of G: 2" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("command, option", [
        ("minreal", ["--edge-rule", "orthogonal"]),
        ("minreal", ["--shift", "5"]),
        ("minreal", ["--free-value", "3"]),
        ("verify", ["--edge-rule", "orthogonal"]),
        ("verify", ["--shift", "auto"]),
    ], ids=["minreal-edge-rule", "minreal-shift", "minreal-free-value",
            "verify-edge-rule", "verify-shift"])
    def test_removed_options_rejected(self, capsys, command, option):
        files = ["model.json"] if command == "minreal" else ["model.json", "realization.json"]
        with pytest.raises(SystemExit) as exc:
            main([command, *files, *option])
        assert exc.value.code == 2


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

    def test_written_file_reads_back(self, tmp_path, capsys):
        # every row of [Q P] of the 2+18 system has 19 poles, where the roots
        # of monomial denominators would come back complex; [Q P] of the
        # other is identically zero, with no pole to carry p and m
        ss = _long_rows(np.random.default_rng(5), 2, 18, 2).assemble()
        models = {"rows19": (ss.A.tolist(), ss.B.tolist()),
                  "no_pole": ([[-1, 0], [0, -2]], [[0], [0]])}
        for name, (A, B) in models.items():
            model = tmp_path / f"{name}.json"
            model.write_text(json.dumps({"kind": "state_space", "A": A, "B": B, "p": 2}))
            out_path = tmp_path / f"{name}_dsf.json"
            assert main(["extract", str(model), "-o", str(out_path)]) == 0
            assert main(["minreal", str(out_path), "--out-dir", str(tmp_path)]) == 0
            assert "consistency: PASS" in capsys.readouterr().out


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

    def test_padded_realization_is_consistent_but_not_minimal(self, tmp_path, capsys):
        # a decoupled hidden state at -7 leaves [Q P] as it is and the order at 7
        model = write_ex2(tmp_path)
        main(["minreal", model, "--out-dir", str(tmp_path)])
        capsys.readouterr()
        raw = json.loads((tmp_path / "realization_1.json").read_text())
        n = len(raw["A"])
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = raw["A"]
        A[n, n] = -7.0
        padded = tmp_path / "padded.json"
        padded.write_text(json.dumps(dict(raw, A=A.tolist(), B=raw["B"] + [[0.0]],
                                          C=[row + [0.0] for row in raw["C"]])))
        assert main(["verify", model, str(padded)]) == 0
        out = capsys.readouterr().out
        assert "realization order: 7; minimal consistent order: 6" in out
        assert "verdict: consistent but not minimal" in out

    def test_structure_function_as_realization_exits_3(self, tmp_path, capsys):
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(CONFLICT_JSON))
        assert main(["verify", write_ex2(tmp_path), str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "expected a state_space realization" in err

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

    def test_weak_slow_link_beside_fast_poles(self, tmp_path, capsys):
        # P[0][0] = 1/(s+1e4) + 1/(s+2e4) has numerator 2s + 3e4 and
        # P[1][0] = 1e-5/(s+1): by residue both are links, although the
        # numerator coefficients differ by more than 1e9
        zero = {"num": [0], "den": [1]}
        models = {
            "pr.json": {"kind": "dsf_pole_residue", "poles": [-2e4, -1e4, -1.0],
                        "KQ": [[[0, 0], [0, 0]]] * 3,
                        "KP": [[[1.0], [0.0]], [[1.0], [0.0]], [[0.0], [1e-5]]]},
            "coeff.json": {"kind": "dsf_coeff", "Q": [[zero, zero], [zero, zero]],
                           "P": [[{"num": [3e4, 2], "den": [2e8, 3e4, 1]}],
                                 [{"num": [1e-5], "den": [1, 1]}]]}}
        for name, model in models.items():
            path = tmp_path / name
            path.write_text(json.dumps(model))
            assert main(["graph", str(path)]) == 0
            out = capsys.readouterr().out
            assert "u1 -> y1;" in out and "u1 -> y2;" in out


class TestParserReuse:
    def test_parser_built_once_and_keeps_no_state(self, tmp_path, capsys, monkeypatch):
        # --enumerate-all and --tol-orth 1e-4 each change this model's answer,
        # so a value left over from the first call would show in the second
        path = tmp_path / "near_disjoint.json"
        path.write_text(json.dumps(NEAR_DISJOINT_JSON))
        default = ["minreal", str(path), "--out-dir", str(tmp_path)]
        built = []

        def make_parser():
            built.append(1)
            return real_make_parser()

        real_make_parser = cli.make_parser
        monkeypatch.setattr(cli, "make_parser", make_parser)
        monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
        assert main(default) == 0
        first = capsys.readouterr().out
        monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
        assert main(["minreal", str(path), "--enumerate-all", "--tol-orth", "1e-4",
                     "--out-dir", str(tmp_path)]) == 1
        assert "realization 1:" in capsys.readouterr().out
        assert main(default) == 0
        assert capsys.readouterr().out == first
        assert "realization 1:" in first and "realization 2:" not in first
        assert built == [1, 1]

import json
import pathlib

import numpy as np
import pytest

from cpspectra import (
    AlgebraShape,
    CpMap,
    algebra_map,
    choi_rank,
    cli,
    compress,
    cpmap,
    friedland_value,
    matrix_from_json,
    matrix_to_json,
    spectra,
    spectral_radius_of,
)
from cpspectra.cli import main
from cpspectra.reference_maps import golden_ratio_map, trace_corner_map
from helpers import random_matrix, random_strictly_positive

GOLD = (1 + np.sqrt(5)) / 2
DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    write("golden.json", golden_ratio_map().to_json())
    write("corner.json", trace_corner_map().to_json())
    write("identity3.json", matrix_to_json(np.eye(3)))
    write("single_identity.json", {"matrices": [matrix_to_json(np.eye(2))]})
    write(
        "golden_pair.json",
        {
            "matrices": [
                matrix_to_json(np.array([[1, 1], [0, 1.0]])),
                matrix_to_json(np.array([[1, 0], [1, 1.0]])),
            ]
        },
    )
    write("choi.json", matrix_to_json(2 * np.eye(4)))
    write("balance.json", matrix_to_json(np.array([[1.0, 0, 0], [0, 0.5, 100.0], [0, 0, 0.5]])))
    write("first_kraus.json", matrix_to_json(np.asarray(golden_ratio_map().kraus[0])))
    write("broken.json", {"rows": 2})
    bad = tmp_path / "not_json.json"
    bad.write_text("{oops")
    paths["not_json.json"] = str(bad)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_outer_radius(capsys, files, monkeypatch):
    calls = []

    def counted(op, _original=spectra.spectral_radius_of):
        calls.append(op)
        return _original(op)

    monkeypatch.setattr(spectra, "spectral_radius_of", counted)
    monkeypatch.setattr(cli, "spectral_radius_of", counted)
    code, report = run(capsys, ["outer-radius", "--tuple", files["single_identity.json"]])
    assert code == 0
    assert report["values"]["value"] == pytest.approx(1.0)
    assert set(report) == {"command", "inputs_digest", "values", "residuals", "warnings", "elapsed"}
    # the outer radius is computed once; a second radius of the same map checks only rounding
    assert report["residuals"] == {}
    assert len(calls) == 1


def test_jsr_both_methods(capsys, files):
    code, brute = run(capsys, ["jsr", "--method", "brute", "--n", "12", "--tuple", files["golden_pair.json"]])
    assert code == 0
    assert brute["values"]["lower"] <= GOLD + 1e-9
    assert brute["values"]["upper"] >= GOLD - 1e-9
    code, tensor = run(capsys, ["jsr", "--method", "tensor", "--k", "2", "--tuple", files["golden_pair.json"]])
    assert code == 0
    assert tensor["values"]["lower"] <= GOLD <= tensor["values"]["upper"]


def test_friedland(capsys, files):
    code, report = run(
        capsys, ["friedland", "--map", files["golden.json"], "--w", files["identity3.json"]]
    )
    assert code == 0
    assert report["values"]["value"] >= report["values"]["radius"] - 1e-9


def test_witness(capsys, files):
    code, report = run(capsys, ["witness", "--map", files["corner.json"], "--s", "2.0"])
    assert code == 0
    w = matrix_from_json(report["values"]["witness"])
    assert np.abs(w - np.diag([3.0, 1.0])).max() < 1e-9
    assert report["residuals"]["equation"] < 1e-10


def test_balance(capsys, files):
    code, report = run(capsys, ["balance", "--matrix", files["balance.json"]])
    assert code == 0
    assert report["values"]["norm"] <= report["values"]["radius"] * (1 + 1e-6)


def test_choi_and_kraus(capsys, files):
    code, report = run(capsys, ["choi", "--map", files["corner.json"]])
    assert code == 0 and report["values"]["rank"] == 2
    code, report = run(capsys, ["kraus", "--choi", files["choi.json"]])
    assert code == 0
    assert len(report["values"]["kraus"]) == 4
    assert report["residuals"]["reassembly"] < 1e-9


@pytest.mark.parametrize("tol, rank", [("1e-9", 3), ("1e-4", 2)])
def test_choi_rank_comes_from_the_kraus_stack(capsys, monkeypatch, tmp_path, tol, rank):
    # a near-dependent Kraus triple: its rank is choi_rank's, cut on the 9 x 3 stack of the
    # vec A_i, and no SVD of the 9 x 9 Choi matrix is taken
    rng = np.random.default_rng(0)
    a, b, c = (random_matrix(rng, 3) for _ in range(3))
    tau = CpMap((a, b, a + b + 1e-3 * c), AlgebraShape.full(3))
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(tau.to_json()))
    shapes, real = [], np.linalg.svd

    def spy(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    code, report = run(capsys, ["--tol-rank", tol, "choi", "--map", str(path)])
    assert code == 0 and report["values"]["rank"] == rank == choi_rank(tau, float(tol))
    assert (9, 3) in shapes and (9, 9) not in shapes


def test_kraus_tol_rank_drops_small_eigenpairs(capsys, files, tmp_path):
    choi = tmp_path / "small_tail_choi.json"
    choi.write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.5, 1e-6, 0.25]))))
    _, default = run(capsys, ["kraus", "--choi", str(choi)])
    code, coarse = run(capsys, ["--tol-rank", "1e-3", "kraus", "--choi", str(choi)])
    assert code == 0
    assert len(default["values"]["kraus"]) == 4
    assert len(coarse["values"]["kraus"]) == 3


def test_coeff_space(capsys, files):
    code, report = run(capsys, ["coeff-space", "--map", files["corner.json"]])
    assert code == 0
    assert report["values"]["dimension"] == 2
    assert report["residuals"]["orthonormality"] < 1e-10


def test_member(capsys, files):
    code, report = run(
        capsys,
        ["member", "--map", files["golden.json"], "--matrix", files["first_kraus.json"]],
    )
    assert code == 0
    assert report["values"]["member"] is True and report["values"]["q"] >= 1.0


def test_member_tol_rank_reaches_the_coefficient_space(capsys, tmp_path):
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    tau = CpMap((a, 1e-2 * b), AlgebraShape.full(3))
    map_file, b_file = tmp_path / "weak_pair.json", tmp_path / "b.json"
    map_file.write_text(json.dumps(tau.to_json()))
    b_file.write_text(json.dumps(matrix_to_json(b)))
    argv = ["member", "--map", str(map_file), "--matrix", str(b_file)]
    code, default = run(capsys, argv)
    assert code == 0 and default["values"]["member"] is True
    code, coarse = run(capsys, ["--tol-rank", "1e-3"] + argv)
    assert code == 0 and coarse["values"]["member"] is False


def test_maximal_part_and_perron(capsys, files):
    code, report = run(capsys, ["maximal-part", "--map", files["golden.json"]])
    assert code == 0
    assert report["values"]["radius"] == pytest.approx(GOLD, abs=1e-9)
    assert report["values"]["degeneracy"] == 1 and report["values"]["idempotent"] is True
    code, report = run(capsys, ["perron", "--map", files["golden.json"]])
    assert code == 0
    ell = matrix_from_json(report["values"]["eigenvector"])
    assert np.abs(ell - np.diag([GOLD**2, GOLD**2, GOLD]) / np.sqrt(5)).max() < 1e-8


def test_irreducible_and_factorize(capsys, files):
    code, report = run(capsys, ["irreducible", "--map", files["golden.json"]])
    assert code == 0
    assert report["values"]["irreducible"] is True and report["values"]["dimension"] == 9
    code, report = run(capsys, ["factorize", "--map", files["golden.json"]])
    assert code == 0
    assert report["values"]["radius"] == pytest.approx(GOLD, abs=1e-9)
    assert report["residuals"]["state_trace"] < 1e-8


def test_algebra_dim(capsys, files):
    code, report = run(capsys, ["algebra-dim", "--tuple", files["golden_pair.json"], "--non-unital"])
    assert code == 0
    assert report["values"]["dimension"] == 4
    assert report["values"]["stabilization_index"] <= 4
    code, unital = run(capsys, ["algebra-dim", "--tuple", files["golden_pair.json"], "--unital"])
    assert unital["values"]["dimension"] == 4


def test_check_runs_clean(capsys):
    code, report = run(capsys, ["check"])
    assert code == 0
    assert report["values"]["failed"] == 0
    assert report["values"]["passed"] >= 8


def test_shape_flag_for_maps_without_embedded_shape(capsys, tmp_path, files):
    bare = {"kraus": json.loads(json.dumps(golden_ratio_map().to_json()))["kraus"]}
    path = tmp_path / "bare_map.json"
    path.write_text(json.dumps(bare))
    code, report = run(capsys, ["perron", "--map", str(path), "--shape", "2,1"])
    assert code == 0
    assert report["values"]["radius"] == pytest.approx(GOLD, abs=1e-9)
    # conflicting shape is a format error
    code, _ = run(capsys, ["perron", "--map", files["golden.json"], "--shape", "1,1,1"])
    assert code == 3


def test_cpmap_json_round_trip():
    from cpspectra import CpMap

    tau = golden_ratio_map()
    back = CpMap.from_json(json.loads(json.dumps(tau.to_json())))
    assert back.shape == tau.shape
    for a, b in zip(back.kraus, tau.kraus):
        assert np.array_equal(a, b)


def test_timing_flag(capsys, files):
    _, silent = run(capsys, ["perron", "--map", files["golden.json"]])
    assert silent["elapsed"] == 0.0
    _, timed = run(capsys, ["--timing", "perron", "--map", files["golden.json"]])
    assert timed["elapsed"] > 0.0


def test_reports_are_byte_stable(capsys, files):
    code1 = main(["perron", "--map", files["golden.json"]])
    out1 = capsys.readouterr().out
    code2 = main(["perron", "--map", files["golden.json"]])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_var_is_lower_precedence(capsys, files, monkeypatch):
    monkeypatch.setenv("CPSPECTRA_SEED", "7")
    _, env_report = run(capsys, ["irreducible", "--map", files["golden.json"]])
    _, flag_report = run(capsys, ["--seed", "7", "irreducible", "--map", files["golden.json"]])
    assert env_report["inputs_digest"] == flag_report["inputs_digest"]
    _, override = run(capsys, ["--seed", "9", "irreducible", "--map", files["golden.json"]])
    assert override["inputs_digest"] != env_report["inputs_digest"]


def test_malformed_env_value_falls_back_with_a_warning(capsys, monkeypatch):
    _, default = run(capsys, ["check"])
    monkeypatch.setenv("CPSPECTRA_TOL_RANK", "abc")
    code, report = run(capsys, ["check"])
    assert code == 0
    assert report["values"] == default["values"]
    assert report["inputs_digest"] == default["inputs_digest"]
    assert default["warnings"] == []
    assert report["warnings"] == ["malformed CPSPECTRA_TOL_RANK='abc' ignored; using 1e-09"]


def test_exit_code_malformed_json(capsys, files):
    code, report = run(capsys, ["choi", "--map", files["not_json.json"]])
    assert code == 3 and report["error"]["code"] == "format"
    code, report = run(capsys, ["choi", "--map", files["broken.json"]])
    assert code == 3


@pytest.mark.parametrize(
    "command, text",
    [
        ("map", '{"kraus": [{"rows": 1, "cols": 2, "data": [[null, 0], [1, 0]]}]}'),
        ("map", '{"kraus": [{"rows": 1, "cols": 2, "data": [["a", 0], [1, 0]]}]}'),
        ("map", '{"kraus": [{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}]}'),
        ("map", '{"kraus": [{"rows": 1.9, "cols": 1, "data": [[1, 0]]}]}'),
        ("map", '{"kraus": [{"rows": 1, "cols": 1, "data": [[1' + "0" * 5000 + ', 0]]}]}'),
        ("map", '{"shape": {"blocks": ["x"]}, "kraus": [{"rows": 1, "cols": 1, "data": [[1, 0]]}]}'),
        ("map", '{"shape": {"blocks": 2}, "kraus": [{"rows": 1, "cols": 1, "data": [[1, 0]]}]}'),
        ("map", '{"shape": {"blocks": [1.5, 1.7]}, "kraus": [' + json.dumps(matrix_to_json(np.eye(2))) + "]}"),
        ("tuple", '{"matrices": [{"rows": 1, "cols": 1, "data": [[true, 0]]}]}'),
        ("map", '{"kraus": 2}'),
    ],
    ids=["null", "string", "400-digit", "fractional-rows", "5000-digit", "string-block", "blocks-number",
         "fractional-blocks", "bool", "kraus-number"],
)
def test_malformed_json_numbers_exit_3(capsys, tmp_path, command, text):
    # a malformed number is a format error, never a traceback or a silent truncation
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = {"map": ["choi", "--map", str(path)], "tuple": ["outer-radius", "--tuple", str(path)]}[command]
    code, report = run(capsys, argv)
    assert code == 3 and report["error"]["code"] == "format", report


def test_exit_code_wrong_side(capsys, files, tmp_path):
    # a matrix of another side than the map's is a format error for every command
    wrong = tmp_path / "ones2.json"
    wrong.write_text(json.dumps(matrix_to_json(np.ones((2, 2)))))
    for argv in (["member", "--matrix", str(wrong)], ["friedland", "--w", str(wrong)]):
        code, report = run(capsys, [argv[0], "--map", files["golden.json"], *argv[1:]])
        assert code == 3 and report["error"] == {
            "code": "format",
            "message": "input of shape (2, 2) does not match the map's side 3",
        }


def test_exit_code_precondition(capsys, files):
    # witness below the spectral radius is a precondition violation
    code, report = run(capsys, ["witness", "--map", files["corner.json"], "--s", "0.5"])
    assert code == 2 and report["error"]["code"] == "precondition"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "--map", str(DATA / "trace_corner_map.json"), "--s", "nan"], "requires s > r"),
        (["witness", "--map", str(DATA / "trace_corner_map.json"), "--s", "inf"], "requires a finite s"),
        (["balance", "--matrix", str(DATA / "interior_jordan.json"), "--epsilon=-1"], "epsilon"),
        (["balance", "--matrix", str(DATA / "interior_jordan.json"), "--epsilon=0"], "epsilon"),
        (["balance", "--matrix", str(DATA / "interior_jordan.json"), "--epsilon=nan"], "epsilon"),
    ],
    ids=["witness-s-nan", "witness-s-inf", "balance-epsilon-negative", "balance-epsilon-zero", "balance-epsilon-nan"],
)
def test_bad_command_value_is_a_precondition_error(capsys, argv, message):
    code, report = run(capsys, argv)
    assert code == 2
    assert set(report) == {"command", "error"}
    assert report["error"]["code"] == "precondition"
    assert message in report["error"]["message"]


def test_ill_conditioned_tensor_bound_is_a_typed_error(capsys, tmp_path):
    # the non-normal singleton whose unchecked k = 20 bounds missed its JSR
    a = random_matrix(np.random.default_rng(5), 2)
    (tmp_path / "tuple.json").write_text(json.dumps({"matrices": [matrix_to_json(a)]}))
    code, report = run(capsys, ["jsr", "--method", "tensor", "--k", "20", "--tuple", str(tmp_path / "tuple.json")])
    assert code == 2
    assert report["error"]["code"] == "precondition"
    assert "ill-conditioned at k = 20" in report["error"]["message"]


def test_friedland_and_witness_take_the_kraus_route_from_side_16(capsys, monkeypatch, tmp_path):
    rng = np.random.default_rng(16)
    tau = CpMap(tuple(random_matrix(rng, 16) for _ in range(2)), AlgebraShape.full(16))
    w = random_strictly_positive(rng, 16)
    s = 1.5 * float(np.linalg.norm(tau(np.eye(16)), 2))
    dense = algebra_map(tau)
    radius, value = spectral_radius_of(dense), friedland_value(dense, w)
    (tmp_path / "map.json").write_text(json.dumps(tau.to_json()))
    (tmp_path / "w.json").write_text(json.dumps(matrix_to_json(w)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the CLI built the m^2 x m^2 superoperator")

    monkeypatch.setattr(cpmap, "superop_of", forbidden)
    code, report = run(capsys, ["friedland", "--map", str(tmp_path / "map.json"), "--w", str(tmp_path / "w.json")])
    assert code == 0
    assert report["values"]["radius"] == pytest.approx(radius, rel=1e-12)
    assert report["values"]["value"] == pytest.approx(value, rel=1e-12)
    code, report = run(capsys, ["witness", "--map", str(tmp_path / "map.json"), "--s", repr(s)])
    assert code == 0
    witness = matrix_from_json(report["values"]["witness"])
    assert np.linalg.norm(tau(witness) - s * (witness - np.eye(16))) < 1e-10
    assert report["residuals"]["equation"] < 1e-10


def test_irreducible_overflow_exits_2(capsys, tmp_path):
    # Kraus norms of 1e160 overflow the superoperator: a convergence failure, not malformed input
    rng = np.random.default_rng(0)
    tau = CpMap(tuple(1e160 * random_matrix(rng, 3) for _ in range(2)), AlgebraShape.full(3))
    (tmp_path / "map.json").write_text(json.dumps(tau.to_json()))
    code, report = run(capsys, ["irreducible", "--map", str(tmp_path / "map.json")])
    assert code == 2
    assert report["error"]["code"] == "precondition"
    assert "overflow" in report["error"]["message"]


def test_balance_scaling_overflow_exits_2(capsys, tmp_path):
    # the interior scaling of balance_similarity overflows on this matrix: exit 2, not 3
    a = np.random.default_rng(2).normal(size=(16, 16))
    (tmp_path / "a.json").write_text(json.dumps(matrix_to_json(a)))
    code, report = run(capsys, ["balance", "--matrix", str(tmp_path / "a.json")])
    assert code == 2
    assert report["error"]["code"] == "precondition"
    assert "float range" in report["error"]["message"]


def test_jsr_brute_and_friedland_overflow_exit_2(capsys, tmp_path):
    # word products and phi(w) of 1e160-scaled operators overflow: exit 2, not malformed input (3)
    rng = np.random.default_rng(0)
    pair = [1e160 * random_matrix(rng, 3) for _ in range(2)]
    (tmp_path / "tuple.json").write_text(json.dumps({"matrices": [matrix_to_json(a) for a in pair]}))
    (tmp_path / "map.json").write_text(json.dumps(CpMap(tuple(pair), AlgebraShape.full(3)).to_json()))
    (tmp_path / "w.json").write_text(json.dumps(matrix_to_json(np.eye(3))))
    for argv in (
        ["jsr", "--method", "brute", "--n", "4", "--tuple", str(tmp_path / "tuple.json")],
        ["friedland", "--map", str(tmp_path / "map.json"), "--w", str(tmp_path / "w.json")],
    ):
        code, report = run(capsys, argv)
        assert code == 2, argv
        assert report["error"]["code"] == "precondition"
        assert "overflow" in report["error"]["message"]


def test_witness_residual_is_that_of_the_compressed_map(capsys, tmp_path):
    # off-block Kraus entries make tau(E(w)) differ from tau(w) once w leaks
    rng = np.random.default_rng(17)
    tau = CpMap(tuple(random_matrix(rng, 4) for _ in range(2)), AlgebraShape((2, 2)))
    dense = algebra_map(tau)
    s = 2.0 * spectral_radius_of(dense)
    (tmp_path / "map.json").write_text(json.dumps(tau.to_json()))
    code, report = run(capsys, ["witness", "--map", str(tmp_path / "map.json"), "--s", repr(s)])
    assert code == 0
    witness = matrix_from_json(report["values"]["witness"])
    assert np.linalg.norm(witness - compress(witness, tau.shape)) > 1e-3
    expected = float(np.linalg.norm(dense(witness) - s * (witness - np.eye(4))))
    assert report["residuals"]["equation"] == pytest.approx(expected, abs=1e-14)
    assert report["residuals"]["equation"] < 1e-10


def test_exit_code_budget(capsys, files):
    code, report = run(
        capsys,
        ["--budget", "100", "jsr", "--method", "brute", "--n", "20", "--tuple", files["golden_pair.json"]],
    )
    assert code == 4 and report["error"]["code"] == "budget"


@pytest.mark.parametrize(
    "env, argv",
    [
        ({}, ["--tol-rank", "-1", "check"]),
        ({"CPSPECTRA_TOL_RANK": "-1"}, ["check"]),
        ({}, ["--seed", "-1", "irreducible", "--map", str(DATA / "double_trace_map.json")]),
        ({}, ["--tol-psd", "nan", "check"]),
    ],
    ids=["tol-rank-flag", "tol-rank-env", "seed-flag", "tol-psd-nan"],
)
def test_bad_global_flag_is_a_precondition_error(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, report = run(capsys, argv)
    assert code == 2
    assert set(report) == {"command", "error"}
    assert report["error"]["code"] == "precondition"


def test_check_passes_tol_rank_to_every_call(capsys, monkeypatch):
    names = ("perron_vector", "maximal_part", "maximal_factorization", "irreducible_cp", "maximal_ideal_check")
    seen = {name: [] for name in names}

    def spy(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            seen[name].append(kwargs.get("rank_tol"))
            return real(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(cli, name, spy(name))
    code, report = run(capsys, ["--tol-rank", "1e-7", "check"])
    assert code == 0 and report["values"]["failed"] == 0
    assert seen == {
        "perron_vector": [1e-7],
        "maximal_part": [1e-7, 1e-7],
        "maximal_factorization": [1e-7],
        "irreducible_cp": [1e-7],
        "maximal_ideal_check": [1e-7],
    }


def test_digest_covers_the_shape_flag(capsys, tmp_path):
    # a map file with no shape: --shape chooses the algebra, so it is part of the input
    rng = np.random.default_rng(0)
    kraus = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"kraus": [matrix_to_json(a) for a in kraus]}))
    reports = {
        shape: run(capsys, ["perron", "--map", str(path)] + (["--shape", shape] if shape else []))[1]
        for shape in (None, "3", "2,1", " 2, 1")
    }
    assert reports["3"]["values"]["radius"] == pytest.approx(7.003663859966538, rel=1e-10)
    assert reports["2,1"]["values"]["radius"] == pytest.approx(8.138225203754843, rel=1e-10)
    digests = {shape: report["inputs_digest"] for shape, report in reports.items()}
    assert len({digests[None], digests["3"], digests["2,1"]}) == 3
    assert digests["2,1"] == digests[" 2, 1"]  # the parsed blocks, not the flag's text


def test_digest_covers_the_epsilon_flag(capsys):
    argv = ["balance", "--matrix", str(DATA / "interior_jordan.json")]
    reports = [run(capsys, argv + extra)[1] for extra in ([], ["--epsilon", "1"], ["--epsilon", "0.001"])]
    assert reports[1]["values"]["p"] != reports[2]["values"]["p"]
    assert len({report["inputs_digest"] for report in reports}) == 3


@pytest.mark.parametrize(
    "flag, env_value, default, argv, env_exit",
    [
        ("--tol-rank", "1e-3", "1e-09", ["kraus", "--choi", "{tmp}/small_tail_choi.json"], 0),
        ("--tol-psd", "-1", "1e-09", ["perron", "--map", str(DATA / "golden_ratio_map.json")], 2),
        ("--tol-conv", "0.1", "1e-10", ["witness", "--map", str(DATA / "trace_corner_map.json"), "--s", "1.5"], 2),
        ("--budget", "10", "1000000", ["jsr", "--method", "brute", "--tuple", str(DATA / "golden_pair.json")], 4),
        ("--seed", "7", "0", ["irreducible", "--map", str(DATA / "golden_ratio_map.json")], 0),
    ],
    ids=["tol-rank", "tol-psd", "tol-conv", "budget", "seed"],
)
def test_global_env_var_sets_the_default_and_its_flag_overrides_it(
    capsys, monkeypatch, tmp_path, flag, env_value, default, argv, env_exit
):
    # --tol-rank is CPSPECTRA_TOL_RANK: the variable acts as the flag with its value, and the flag beats it
    (tmp_path / "small_tail_choi.json").write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.5, 1e-6, 0.25]))))
    argv = [arg.format(tmp=tmp_path) for arg in argv]

    def printed(args):
        code = main(args)
        return code, capsys.readouterr().out

    plain = printed(argv)
    monkeypatch.setenv("CPSPECTRA_" + flag[2:].replace("-", "_").upper(), env_value)
    from_env = printed(argv)
    overridden = printed([flag, default] + argv)
    monkeypatch.undo()
    assert from_env[0] == env_exit
    assert from_env == printed([flag, env_value] + argv)
    assert from_env != plain
    assert overridden == plain


def test_unital_and_non_unital_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["algebra-dim", "--tuple", str(DATA / "golden_pair.json"), "--unital", "--non-unital"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err

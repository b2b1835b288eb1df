import json

from frobkit import GF, QQ, Mat, Poly, companion, unit_col, unit_row
from frobkit.cli import main
from frobkit.formats import render_matrix, render_triple
from frobkit.triples import Triple


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_charpoly_identity_over_q(tmp_path, capsys):
    path = write(tmp_path, "i3.mat", render_matrix(Mat.identity(QQ, 3)))
    assert main(["charpoly", path]) == 0
    assert capsys.readouterr().out.strip() == "x^3-3x^2+3x-1"


def test_charpoly_companion_file(tmp_path, capsys):
    c = companion(Poly(GF(3), [1, 0, 1]))
    path = write(tmp_path, "c.mat", render_matrix(c))
    assert main(["charpoly", path]) == 0
    assert capsys.readouterr().out.strip() == "x^2+1"


def test_charpoly_json(tmp_path, capsys):
    path = write(tmp_path, "m.mat", render_matrix(Mat.diag(GF(3), [1, 2])))
    assert main(["charpoly", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "frobkit/1"
    assert payload["algorithms_agree"] is True
    assert payload["text"] == "x^2+2"


def test_charpoly_malformed_file(tmp_path, capsys):
    path = write(tmp_path, "bad.mat", "3 2 2\n1 1\n")
    assert main(["charpoly", path]) == 2


def test_charpoly_missing_file():
    assert main(["charpoly", "/nonexistent/nope.mat"]) == 2


def test_rcf_identity(tmp_path, capsys):
    path = write(tmp_path, "i2.mat", render_matrix(Mat.identity(GF(3), 2)))
    assert main(["rcf", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "frobenius-form"
    assert payload["invariant_factors_text"] == ["x+2", "x+2"]
    assert payload["verified"] is True


def test_rcf_elementary_diag(tmp_path, capsys):
    path = write(tmp_path, "d.mat", render_matrix(Mat.diag(GF(3), [1, 2])))
    assert main(["rcf", path, "--elementary"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "elementary-divisor-form"
    assert [(b["irreducible_text"], b["exponent"]) for b in payload["blocks"]] == [
        ("x+1", 1),
        ("x+2", 1),
    ]


def test_rcf_elementary_refuses_rationals(tmp_path):
    path = write(tmp_path, "q.mat", render_matrix(Mat.identity(QQ, 2)))
    assert main(["rcf", path, "--elementary"]) == 2


def test_rcf_random_f5(tmp_path, capsys):
    import random

    from frobkit.verify import random_matrix

    rng = random.Random(12)
    a = random_matrix(GF(5), 4, rng)
    path = write(tmp_path, "r.mat", render_matrix(a))
    assert main(["rcf", path]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def triple_path(tmp_path, a, v, phi, name="t.triple"):
    return write(tmp_path, name, render_triple(Triple(a, v, phi)))


def test_classify_member_triple(tmp_path, capsys):
    F = GF(3)
    e21 = Mat(F, [[0, 0], [1, 0]])
    path = triple_path(tmp_path, e21, unit_col(F, 2, 1), unit_row(F, 2, 0))
    assert main(["classify-triple", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["moment_vanishing"]["vanishes"] is True
    assert payload["commutator_range"]["member"] is True
    assert payload["commutator_range"]["witness"] is not None
    assert payload["equivalence"]["consistent"] is True
    assert payload["charpoly"] == "x^2"


def test_classify_nonmember_triple(tmp_path, capsys):
    F = GF(3)
    e21 = Mat(F, [[0, 0], [1, 0]])
    path = triple_path(tmp_path, e21, unit_col(F, 2, 0), unit_row(F, 2, 1))
    assert main(["classify-triple", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["moment_vanishing"]["vanishes"] is False
    assert payload["moment_vanishing"]["witness_index"] == 1
    assert payload["commutator_range"]["member"] is False
    assert payload["moments"] == ["0", "1", "0", "0"]  # 2n moments reported


def test_classify_zero_vector(tmp_path, capsys):
    F = GF(3)
    e21 = Mat(F, [[0, 0], [1, 0]])
    path = triple_path(tmp_path, e21, Mat.zeros(F, 2, 1), unit_row(F, 2, 1))
    assert main(["classify-triple", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["moment_vanishing"]["vanishes"] is True
    assert payload["commutator_range"]["member"] is True


def test_verify_small_config(capsys):
    code = main(
        [
            "verify", "--seed", "5", "--trials", "3", "--n-max", "3",
            "--samples", "30", "--equivariance-samples", "20",
            "--rational-matrices", "5", "--quiet-timings",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS (8/8 suites)" in out


def test_verify_selected_suites(capsys):
    code = main(
        ["verify", "--suites", "census,filtration", "--quiet-timings"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] census" in out and "[PASS] filtration" in out
    assert "update" not in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suites", "nope"]) == 2


def test_verify_mutation_fails_with_counterexample(capsys):
    code = main(
        [
            "verify", "--suites", "update", "--mutate", "ck_update",
            "--trials", "2", "--n-max", "2", "--json", "--quiet-timings",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False
    suite = payload["suites"][0]
    assert suite["name"] == "update" and suite["passed"] is False
    ce = suite["counterexample"]
    assert ce["triple"]["kind"] == "triple"
    assert ce["updated_coefficients"] != ce["direct_hessenberg"]


def test_verify_rejects_field_q(capsys):
    assert main(["verify", "--fields", "Q"]) == 2


def test_orbit_stats_x_squared(capsys):
    code = main(["orbit-stats", "--field", "3", "0,0,1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("  [")]
    assert len(lines) == 2
    assert "class_size=1" in lines[0] and "orbit_dim=0" in lines[0]
    assert "class_size=8" in lines[1] and "orbit_dim=2" in lines[1]


def test_orbit_stats_shifted_fiber(capsys):
    # (x-1)^2 over GF(3) mirrors the x^2 fiber via translation by I
    code = main(["orbit-stats", "--field", "3", "1,1,1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    sizes = sorted(c["class_size"] for c in payload["classes"])
    assert sizes == [1, 8]


def test_orbit_stats_irreducible_quadratic(capsys):
    code = main(["orbit-stats", "--field", "3", "1,0,1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["classes"]) == 1
    row = payload["classes"][0]
    assert row["centralizer_dim"] == 2
    # |GL_2(F_3)| = 48, centralizer of a cyclic irreducible is GF(9)^x of order 8
    assert row["class_size"] == 48 // 8


def test_orbit_stats_nonmonic(capsys):
    assert main(["orbit-stats", "--field", "3", "1,2"]) == 2


def test_orbit_stats_sizes_exact_for_every_n(capsys):
    # nilpotent classes add up to q^(n^2 - n) (Fine-Herstein)
    code = main(["orbit-stats", "--field", "3", "0,0,0,1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["counted"] is True
    assert len(payload["classes"]) == 3  # partitions of 3
    assert sum(c["class_size"] for c in payload["classes"]) == 3**6
    code = main(["orbit-stats", "--field", "9", "0,0,0,0,0,0,1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["counted"] is True
    assert len(payload["classes"]) == 11  # partitions of 6
    assert sum(c["class_size"] for c in payload["classes"]) == 9**30
    for flag in ("--count-bound", "--seed"):
        assert main(["orbit-stats", "--field", "3", "0,1", flag, "10"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0


def test_seed_env_var(monkeypatch, capsys):
    monkeypatch.setenv("FROBKIT_SEED", "123")
    code = main(["verify", "--suites", "census", "--json", "--quiet-timings"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123


def test_verify_accepts_caret_field_syntax(capsys):
    code = main(
        [
            "verify", "--fields", "3,3^2", "--suites", "update",
            "--trials", "2", "--n-max", "2", "--json", "--quiet-timings",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["fields"] == [[3, 1], [3, 2]]


def test_orbit_stats_degenerate_constant(capsys):
    # the 0x0 matrix is the single class with charpoly 1
    code = main(["orbit-stats", "--field", "3", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["classes"] == [
        {
            "invariant_factors": [],
            "centralizer_dim": 0,
            "orbit_dim": 0,
            "class_size": 1,
        }
    ]

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bowforge
from bowforge import bowfile, cli, monad
from bowforge.bowdata import ExactnessResult
from bowforge.cli import main
from bowforge.errors import ParseError, RankIndeterminate, ShapeMismatch
from bowforge.export import export_bow_complex
from bowforge.generator import canonical_examples, degenerate_example, generate
from bowforge.monad import MonadStack, PointReport, ScanReport, SurfacePoint
from bowforge.orthosymplectic import PairingDatum
from bowforge.topology import TopologicalData

from _suites import suite_topology

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ["u1-single-nut", "u1-charge", "u2-basic", "so2-mirror", "sp1-mirror"]


@pytest.fixture(scope="module")
def canon():
    return {e.name: e for e in canonical_examples()}


# ------------------------------------------------------------ serialization

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip_byte_identical(name):
    raw = (FIXTURES / f"{name}.json").read_bytes()
    assert bowfile.serialize(bowfile.parse(raw)) == raw


def test_fixtures_match_canonical_examples(canon):
    for name in FIXTURE_NAMES:
        ex = canon[name]
        built = bowfile.serialize(
            bowfile.BowFile(
                topo=ex.topo,
                datum=ex.datum,
                pairing=ex.pairing,
                metadata={"name": name, "provenance": "canonical example"},
            )
        )
        assert built == (FIXTURES / f"{name}.json").read_bytes(), name


def test_complex_scalar_parse():
    doc = json.loads((FIXTURES / "u2-basic.json").read_text())
    doc["topology"]["z"] = [[1.0, -2.0]]
    parsed = bowfile.parse(json.dumps(doc))
    assert parsed.topo.z == (1.0 - 2.0j,)


def test_float_formatting_17_digits():
    raw = (FIXTURES / "u1-single-nut.json").read_text()
    assert "2.9999999999999999e-01" in raw  # lambda = 0.3 in canonical form


def test_shape_error_names_field():
    doc = json.loads((FIXTURES / "u2-basic.json").read_text())
    # dims demand A[1] to be 1x2; hand it a 2x2 block instead
    doc["bow"]["A"][1] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(ShapeMismatch, match=r"A\[1\]"):
        bowfile.parse(json.dumps(doc))


def test_syntax_error_reports_location():
    with pytest.raises(ParseError, match=r"line 2, column"):
        bowfile.parse('{\n  "format": oops\n}')


def test_non_finite_floats_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        bowfile.canonical_dumps({"x": float("nan")})


def test_empty_matrix_record():
    raw = (FIXTURES / "u1-single-nut.json").read_text()
    doc = json.loads(raw)
    assert doc["bow"]["A"][0] == {"rows": 0, "cols": 1}
    parsed = bowfile.parse(raw)
    assert parsed.datum.A[0].shape == (0, 1)


def test_pairing_round_trip(canon):
    parsed = bowfile.parse((FIXTURES / "sp1-mirror.json").read_bytes())
    assert parsed.pairing is not None
    assert parsed.pairing.flavor == "Sp" and parsed.pairing.f == (1, -1)
    np.testing.assert_array_equal(parsed.pairing.K[1], canon["sp1-mirror"].pairing.K[1])


def pairing_file(ex, K, f=(1, 1), transpose=False):
    pairing = PairingDatum(flavor="SO", K=K, f=f, transpose_convention=transpose)
    return bowfile.serialize(bowfile.BowFile(topo=ex.topo, datum=ex.datum, pairing=pairing))


def test_pairing_shapes_checked_in_declared_orientation(canon):
    ex = canon["u2-basic"]  # d = (2, 2, 1): K_0 is 2 x 1 and K_2 is 1 x 2
    K = [np.ones((2, 1)), np.eye(2), np.ones((1, 2))]
    flipped = [k.T for k in K]
    assert not bowfile.parse(pairing_file(ex, K)).pairing.transpose_convention
    assert bowfile.parse(pairing_file(ex, flipped, transpose=True)).pairing.transpose_convention
    with pytest.raises(ShapeMismatch, match=r"pairing: K\[0\] has shape \(1, 2\), expected"):
        bowfile.parse(pairing_file(ex, flipped))
    with pytest.raises(ShapeMismatch, match=r"pairing: K must have n\+1=3 blocks, got 2"):
        bowfile.parse(pairing_file(ex, K[:2]))
    with pytest.raises(ShapeMismatch, match=r"pairing: f must have n=2 signs, got 1"):
        bowfile.parse(pairing_file(ex, K, f=(1,)))


# ----------------------------------------------------------------- exporter

def test_export_u1_single_nut_golden(canon):
    doc = export_bow_complex(canon["u1-single-nut"].datum)
    assert [(i["segment"], i["rank"]) for i in doc["intervals"]] == [("p", 0), ("p", 1)]
    z = canon["u1-single-nut"].topo.z[0]
    assert doc["intervals"][1]["endomorphism"] == [[[z.real, z.imag]]]
    assert doc["ranks"] == {"d": [1, 0], "dn": [0, 1]}
    assert len(doc["lambda_points"]) == 1 and len(doc["p_points"]) == 1
    assert doc["lambda_points"][0]["rank_change"] == "decrease"


def test_export_u2_structure(canon):
    doc = export_bow_complex(canon["u2-basic"].datum)
    assert doc["ranks"] == {"d": [2, 2, 1], "dn": [1, 2]}
    assert [i["rank"] for i in doc["intervals"]] == [2, 1, 2]  # d_1, dn_0, dn_1
    assert [p["rank_change"] for p in doc["lambda_points"]] == ["fundamental", "decrease"]
    # p point evenly spaced inside the wrap-around interval
    lam = doc["circle"]["lambda_points"]
    p = doc["circle"]["p_points"][0]
    assert lam[-1] - 1.0 < p < lam[0]
    assert p == pytest.approx((lam[-1] - 1.0 + lam[0]) / 2)


def test_export_empty_charges_well_formed():
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=0, z=(0.0,))
    doc = export_bow_complex(generate(t, seed=0))
    assert all(i["rank"] == 0 for i in doc["intervals"])
    bowfile.canonical_dumps(doc)  # serializes cleanly


def test_export_document_is_canonical(canon):
    doc = export_bow_complex(canon["u2-basic"].datum)
    text = bowfile.canonical_dumps(doc)
    assert bowfile.canonical_dumps(json.loads(text)) == text


# ---------------------------------------------------------------------- CLI

def fixture(name):
    return str(FIXTURES / f"{name}.json")


def test_cli_validate_pass_and_fail(tmp_path, capsys):
    assert main(["validate", fixture("u2-basic"), "--format", "machine"]) == 0
    doc = json.loads(json.dumps(json.loads((FIXTURES / "u2-basic.json").read_text())))
    doc["bow"]["beta"][0][0][0][0] += 0.01  # break a relation
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", str(broken)]) == 1
    capsys.readouterr()


def test_cli_structural_errors_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    assert main(["validate", str(bad)]) == 2
    # shape mismatch is structural
    doc = json.loads((FIXTURES / "u2-basic.json").read_text())
    doc["bow"]["A"][0] = [[[1.0, 0.0]]]
    shaped = tmp_path / "shaped.json"
    shaped.write_text(json.dumps(doc))
    assert main(["validate", str(shaped)]) == 2
    capsys.readouterr()


def test_cli_dims_machine_output(capsys):
    assert main(["dims", fixture("u2-topology"), "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"d": [2, 2, 1], "dn": [1, 2], "c1": [1], "c2": 1, "flag_degrees": [0, 1]}


def test_cli_dims_invalid_topology_exit_1(tmp_path, capsys):
    doc = json.loads((FIXTURES / "u2-topology.json").read_text())
    doc["topology"]["m"] = [0, 2]  # breaks charge balance
    bad = tmp_path / "bad-topo.json"
    bad.write_text(json.dumps(doc))
    assert main(["dims", str(bad)]) == 1
    capsys.readouterr()


def test_cli_gen_validate_roundtrip(tmp_path, capsys):
    out = tmp_path / "generated.json"
    assert main(["gen", fixture("u2-topology"), "--seed", "5", "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    assert main(["exactness", str(out)]) == 0
    assert main(["invariants", str(out)]) == 0
    raw = out.read_bytes()
    assert bowfile.serialize(bowfile.parse(raw)) == raw
    capsys.readouterr()


def test_cli_gen_retries_exhausted_names_last_failure(tmp_path, capsys, monkeypatch):
    from bowforge import generator

    monkeypatch.setattr(generator, "_run_checks", lambda datum: "relations failed: injected")
    out = tmp_path / "generated.json"
    assert main(["gen", fixture("u2-topology"), "--seed", "5", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"validation failure: generation failed after {generator.ATTEMPTS} attempts: "
        "relations failed: injected\n"
    )


def test_cli_exactness_degenerate_exit_1(tmp_path, capsys):
    t, d = degenerate_example()
    path = tmp_path / "degenerate.json"
    path.write_bytes(bowfile.serialize(bowfile.BowFile(topo=t, datum=d)))
    assert main(["validate", str(path)]) == 0  # relations do hold
    assert main(["exactness", str(path)]) == 1
    capsys.readouterr()


def test_cli_fiber(capsys):
    assert main(["fiber", fixture("u2-basic"), "--xi", "1.0", "--eta", "2.1+0.4j",
                 "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 2 and doc["locally_free"] is True
    assert main(["fiber", fixture("u2-basic"), "--xi", "0", "--eta", "1.0"]) == 2
    assert "error: xi must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "xi, eta",
    [("nan", "1"), ("1", "nan"), ("inf", "1"), ("1", "inf"), ("1e-320", "1"),
     ("1+nanj", "1"), ("1", "2-infj"), ("1e-320j", "1")],
    ids=["xi-nan", "eta-nan", "xi-inf", "eta-inf", "psi-overflow",
         "xi-complex-nan", "eta-complex-inf", "psi-overflow-imaginary"],
)
def test_cli_fiber_non_finite_point_exit_2(capsys, xi, eta):
    # a subnormal xi makes psi = prod(eta - z_i) / xi overflow
    assert main(["fiber", fixture("u2-basic"), "--xi", xi, "--eta", eta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: xi, eta and psi = prod(eta - z_i) / xi must be finite")


def test_cli_fiber_indeterminate_exit_1(capsys, monkeypatch):
    def straddle(monad, j):
        raise RankIndeterminate("singular value straddles the cutoff")

    monkeypatch.setattr(MonadStack, "fiber_rank", straddle)
    assert main(["fiber", fixture("u2-basic"), "--xi", "1.0", "--eta", "2.1+0.4j"]) == 1
    assert capsys.readouterr().err == "indeterminate: singular value straddles the cutoff\n"


@pytest.mark.parametrize("method", ["fiber_rank", "locally_free"])
def test_cli_fiber_indeterminate_explains_itself(capsys, monkeypatch, method):
    args = ["fiber", fixture("u2-basic"), "--xi", "1.0", "--eta", "2.1+0.4j", "--format", "machine"]
    assert main(args) == 0
    normal = json.loads(capsys.readouterr().out)

    def straddle(monad, j):
        raise RankIndeterminate("singular value straddles the cutoff")

    monkeypatch.setattr(MonadStack, method, straddle)
    assert main(args) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc == {
        **normal,
        "rank": None,
        "locally_free": None,
        "reason": "singular value straddles the cutoff",
    }
    assert captured.err == "indeterminate: singular value straddles the cutoff\n"
    assert main(args[:-2]) == 1
    human = capsys.readouterr().out
    assert "rank: None\n" in human and "reason: singular value straddles the cutoff\n" in human


def test_cli_scan(capsys):
    assert main(["scan", fixture("u2-basic"), "--n", "10", "--seed", "1",
                 "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass" and doc["failures"] == 0


def test_cli_scan_negative_count_exit_2(capsys):
    assert main(["scan", fixture("u2-basic"), "--n", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "number of random points must be >= 0" in captured.err
    assert main(["scan", fixture("u2-basic"), "--n", "0", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["points"] > 0  # the structured points only


def document_verdict(out, fmt):
    if fmt == "machine":
        return json.loads(out)["verdict"]
    return re.search(r"^verdict: (\w+)$", out, re.MULTILINE).group(1)


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize(
    "statuses, verdict",
    [
        (("pass", "pass"), "pass"),
        (("pass", "indeterminate"), "indeterminate"),
        (("fail", "indeterminate"), "fail"),
    ],
)
def test_cli_exactness_verdict_has_three_states(statuses, verdict, fmt, capsys, monkeypatch):
    results = [ExactnessResult(i, status) for i, status in enumerate(statuses)]
    monkeypatch.setattr(cli, "check_exactness_all", lambda datum: results)
    code = main(["exactness", fixture("u2-basic"), "--format", fmt])
    assert document_verdict(capsys.readouterr().out, fmt) == verdict
    assert code == (0 if verdict == "pass" else 1)


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize(
    "points, verdict",
    [
        ((("ok", 2),), "pass"),
        ((("ok", 2), ("indeterminate", None)), "indeterminate"),
        ((("fail", 2), ("indeterminate", None)), "fail"),
        ((("ok", 1), ("indeterminate", None)), "fail"),  # a determinate rank off n = 2
    ],
)
def test_cli_scan_verdict_has_three_states(points, verdict, fmt, capsys, monkeypatch):
    x = SurfacePoint(1.0, 1.0, 0.5)
    report = ScanReport(
        points=tuple(
            PointReport(x, "random", rank, None if rank is None else status == "ok", status)
            for status, rank in points
        ),
        expected_rank=2,
    )
    monkeypatch.setattr(monad, "scan_local_freeness", lambda datum, config: report)
    code = main(["scan", fixture("u2-basic"), "--format", fmt])
    assert document_verdict(capsys.readouterr().out, fmt) == verdict
    assert code == (0 if verdict == "pass" else 1)


def test_cli_pairing(capsys):
    assert main(["pairing", fixture("so2-mirror")]) == 0
    assert main(["pairing", fixture("sp1-mirror")]) == 0
    assert main(["pairing", fixture("u2-basic")]) == 2  # no embedded pairing
    capsys.readouterr()


def test_cli_export_bow(tmp_path, capsys):
    out = tmp_path / "complex.json"
    assert main(["export-bow", fixture("u1-single-nut"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "bowforge.bowcomplex"
    capsys.readouterr()


def test_cli_tolerance_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BOWFORGE_TOL", "1e-30")
    # residuals ~1e-16 exceed an absurdly tight tolerance
    assert main(["validate", fixture("u2-basic")]) == 1
    monkeypatch.setenv("BOWFORGE_TOL", "1e-9")
    assert main(["validate", fixture("u2-basic")]) == 0
    monkeypatch.setenv("BOWFORGE_TOL", "abc")
    assert main(["validate", fixture("u2-basic")]) == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err
    # a tolerance that is not finite and positive passes or fails everything
    for bad in ("inf", "nan", "0", "-1"):
        monkeypatch.setenv("BOWFORGE_TOL", bad)
        assert main(["validate", fixture("u2-basic")]) == 2, bad
        monkeypatch.delenv("BOWFORGE_TOL")
        for cmd in ("validate", "invariants", "pairing", "export-bow"):
            args = [cmd, fixture("so2-mirror"), "--tol", bad]
            if cmd == "export-bow":
                args += ["-o", str(tmp_path / "complex.json")]
            assert main(args) == 2, (cmd, bad)
        assert "finite and positive" in capsys.readouterr().err


def edited_fixture(name, keys, value, tmp_path):
    """A copy of a fixture with the entry at `keys` replaced by `value`."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # json writes NaN / Infinity
    return bad


bow_commands = pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["exactness"],
        ["invariants"],
        ["scan", "--n", "2"],
        ["fiber", "--xi", "1.0", "--eta", "2.1+0.4j"],
        ["export-bow", "-o", "complex.json"],
    ],
    ids=lambda c: c[0],
)


NON_FINITE_FIELDS = {  # field path in the error -> (keys into the document, value)
    "bow.beta[1][0][0][0]": (("bow", "beta", 1, 0, 0, 0), float("nan")),
    "topology.z[0][0]": (("topology", "z", 0, 0), float("inf")),
    "topology.ell": (("topology", "ell"), float("-inf")),
    "topology.lambda[0]": (("topology", "lambda", 0), float("nan")),
}


@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
@bow_commands
def test_cli_non_finite_numbers_exit_2(field, command, tmp_path, capsys, monkeypatch):
    bad = edited_fixture("u2-basic", *NON_FINITE_FIELDS[field], tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([command[0], str(bad), *command[1:]]) == 2
    assert f"{field}: non-finite number" in capsys.readouterr().err


MALFORMED_NUMBER_FIELDS = {  # field path in the error -> (fixture, keys into the document)
    "topology.n": ("u2-basic", ("topology", "n")),
    "topology.k": ("u2-basic", ("topology", "k")),
    "topology.m[0]": ("u2-basic", ("topology", "m", 0)),
    "topology.nd[0]": ("u2-basic", ("topology", "nd", 0)),
    "topology.m0": ("u2-basic", ("topology", "m0")),
    "bow.A[0].rows": ("u1-single-nut", ("bow", "A", 0, "rows")),
    "bow.A[0].cols": ("u1-single-nut", ("bow", "A", 0, "cols")),
    "pairing.f[0]": ("sp1-mirror", ("pairing", "f", 0)),
}


@pytest.mark.parametrize("field", MALFORMED_NUMBER_FIELDS)
@pytest.mark.parametrize(
    "value", [float("inf"), [1], 1.5, "1", True], ids=["Infinity", "list", "real", "string", "bool"]
)
@bow_commands
def test_cli_malformed_numbers_exit_2(field, value, command, tmp_path, capsys, monkeypatch):
    bad = edited_fixture(*MALFORMED_NUMBER_FIELDS[field], value, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([command[0], str(bad), *command[1:]]) == 2
    assert f"{field}: expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("m", float("inf")), ("lambda", "0.5"), ("z", 1.0), ("ell", [1.0]), ("ell", "1.0"),
     ("ell", True)],
    ids=["m", "lambda", "z", "ell", "ell-string", "ell-bool"],
)
def test_cli_malformed_arrays_and_reals_exit_2(field, value, tmp_path, capsys):
    bad = edited_fixture("u2-basic", ("topology", field), value, tmp_path)
    assert main(["validate", str(bad)]) == 2
    assert f"topology.{field}: expected" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(bowforge.__file__).resolve().parents[1])
    probe = "import sys, bowforge.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_tol_only_on_commands_that_read_it(capsys):
    for cmd in ("dims", "exactness", "scan"):
        assert main([cmd, fixture("u2-basic"), "--tol", "1e-8"]) == 2
    for cmd in ("validate", "invariants"):
        assert main([cmd, fixture("u2-basic"), "--tol", "1e-8"]) == 0
    capsys.readouterr()


def test_cli_deterministic_output(capsys):
    assert main(["scan", fixture("u2-basic"), "--n", "5", "--seed", "9",
                 "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["scan", fixture("u2-basic"), "--n", "5", "--seed", "9",
                 "--format", "machine"]) == 0
    assert capsys.readouterr().out == first

import hashlib
import json
from importlib import resources

import jsonschema
import pytest

from _oracles import T42, brute_point_count
import bifill.analysis
import bifill.bounds
import bifill.cli
import bifill.filling
from bifill.analysis import is_abs_irreducible
from bifill.bipoly import parse_bipoly
from bifill.cli import main
from bifill.errors import Infeasible
from bifill.families import construct
from bifill.gf import parse_field_spec


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def validate(doc, command):
    ref = resources.files("bifill") / "schemas" / f"{command}.schema.json"
    jsonschema.validate(doc, json.loads(ref.read_text()))


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    validate(doc, doc["command"])
    return code, doc, err


# -- construct -------------------------------------------------------------------

def test_construct_json(capsys):
    code, doc, err = run_json(capsys, "construct", "--q", "2", "--json")
    assert code == 0
    assert doc["polynomial"] == T42
    assert doc["filling"] is True
    assert doc["smooth"] == "Smooth"
    assert doc["irreducible"] is True
    assert doc["points"] == 9
    assert "elapsed" in err


def test_construct_human(capsys):
    code, out, _ = run(capsys, "construct", "--q", "3")
    assert code == 0
    assert "bi-degree (4,4) over GF(3)" in out
    assert "filling: true" in out


def test_construct_transposed(capsys):
    code, doc, _ = run_json(capsys, "construct", "--q", "2", "--transposed", "--json")
    assert code == 0
    assert doc["bidegree"] == [3, 4]


def test_construct_usage_error(capsys):
    code, _, err = run(capsys, "construct", "--q", "6", "--json")
    assert code == 2
    assert "bifill:" in err


# -- verify ----------------------------------------------------------------------

def test_verify_expectations_met(capsys):
    code, doc, _ = run_json(
        capsys,
        "verify", "--q", "2", "--poly", T42, "--json",
        "--expect-filling", "--expect-smooth", "--expect-irreducible",
        "--expect-points", "9",
    )
    assert code == 0
    assert doc["unmet"] == []
    assert doc["attained"] is True


def test_verify_unmet_expectation_fails(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "--q", "2", "--poly", T42, "--json",
        "--expect-points", "10",
    )
    assert code == 1
    assert doc["unmet"] == ["points"]


def test_verify_reports_without_judging(capsys):
    code, doc, _ = run_json(capsys, "verify", "--q", "2", "--poly", "X0*Y0", "--json")
    assert code == 0
    assert doc["filling"] is False
    assert doc["smooth"] == "Singular"
    assert doc["witness"] is not None


def test_verify_parse_error(capsys):
    code, _, err = run(capsys, "verify", "--q", "2", "--poly", "X0*Y0 ++ X1", "--json")
    assert code == 2
    assert "bifill:" in err


# -- decompose -------------------------------------------------------------------

def test_decompose_json(capsys):
    code, doc, _ = run_json(capsys, "decompose", "--q", "2", "--poly", T42, "--json")
    assert code == 0
    assert doc["recombines"] is True
    K = parse_field_spec("q=2")
    F = parse_bipoly(doc["f"], K) * parse_bipoly(doc["kx"], K) + parse_bipoly(
        doc["g"], K
    ) * parse_bipoly(doc["ky"], K)
    assert F == parse_bipoly(T42, K)


def test_decompose_poly_from_file(capsys, tmp_path):
    p = tmp_path / "curve.txt"
    p.write_text(T42 + "\n")
    code, doc, _ = run_json(capsys, "decompose", "--q", "2", "--poly", f"@{p}", "--json")
    assert code == 0
    assert doc["recombines"] is True


def test_decompose_non_filling_is_an_outcome_error(capsys):
    code, _, err = run(capsys, "decompose", "--q", "2", "--poly", "X0^3*Y0^3", "--json")
    assert code == 1
    assert "bifill:" in err


# -- census and scan -------------------------------------------------------------

def test_census_json(capsys):
    code, doc, _ = run_json(capsys, "census", "--q", "2", "--bidegree", "3,3", "--json")
    assert code == 0
    assert doc["candidates_scanned"] == 127
    assert doc["n_irreducible"] == 0


def test_census_byte_identity(capsys):
    _, out1, _ = run(capsys, "census", "--q", "2", "--bidegree", "3,3", "--json")
    _, out2, _ = run(capsys, "census", "--q", "2", "--bidegree", "3,3", "--json")
    assert out1 == out2


def test_scan_json(capsys):
    code, doc, _ = run_json(capsys, "scan", "--q", "2", "--max", "4,4", "--json")
    assert code == 0
    hits = {(c["a"], c["b"]) for c in doc["cells"] if c["exists"]}
    assert hits == {(4, 3), (3, 4), (4, 4)}


# -- bound, count, field-info ----------------------------------------------------

def test_bound_json(capsys):
    code, doc, _ = run_json(capsys, "bound", "--q", "2", "--r", "3", "--d", "7", "--json")
    assert code == 0
    assert doc["floor"] == 9
    assert doc["quotient"] == "105/11"


def test_bound_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "bound", "--q", "6", "--r", "3", "--d", "7")
    assert code == 2
    assert "bifill:" in err


def test_count_matches_brute_oracle(capsys):
    K = parse_field_spec("q=2")
    F = parse_bipoly(T42, K)
    code, doc, _ = run_json(
        capsys, "count", "--q", "2", "--poly", T42, "--ext", "2", "--json"
    )
    assert code == 0
    assert doc["points"] == brute_point_count(F, 2)


def test_field_info_json(capsys):
    code, doc, _ = run_json(capsys, "field-info", "--q", "9", "--json")
    assert code == 0
    assert doc["field"]["order"] == 9
    assert doc["field"]["modulus"] == [1, 0, 1]
    assert len(doc["elements"]) == 9


def test_field_info_by_spec(capsys):
    _, doc1, _ = run_json(capsys, "field-info", "--q", "9", "--json")
    _, doc2, _ = run_json(capsys, "field-info", "--field", "p=3,e=2", "--json")
    assert doc1["field"] == doc2["field"]


# -- byte identity ---------------------------------------------------------------

# SHA-256 of each command's --json stdout. The output is a fixed point: any
# change to a verdict, a count, an index or the formatting changes a digest.
CONSTRUCT_Q4 = (
    "X0^5*Y0^4*Y1 + X0^5*Y0*Y1^4 + X0^4*X1*Y0^5 + X0^4*X1*Y0*Y1^4"
    " + [0,1]*X0^4*X1*Y1^5 + X0*X1^4*Y0^5 + X0*X1^4*Y0^4*Y1"
    " + [0,1]*X0*X1^4*Y1^5 + [1,1]*X1^5*Y0^4*Y1 + [1,1]*X1^5*Y0*Y1^4"
)
CONSTRUCT_Q3 = (
    "X0^4*Y0^3*Y1 + 2*X0^4*Y0*Y1^3 + X0^3*X1*Y0^4 + X0^3*X1*Y1^4"
    " + 2*X0*X1^3*Y0^4 + X0*X1^3*Y0^3*Y1 + 2*X0*X1^3*Y0*Y1^3"
    " + 2*X0*X1^3*Y1^4 + 2*X1^4*Y0^3*Y1 + X1^4*Y0*Y1^3"
)
SINGULAR_GF4_PAIR = "X0^2*Y0 + X0*X1*Y0 + X1^2*Y0"
PINNED_JSON = {
    "census-q2-43": (
        ("census", "--q", "2", "--bidegree", "4,3", "--smooth"),
        "5a9d48325dae2eb15640a85e61af4b1dff50b290d13be14ecb2254659392b3cd"),
    "census-q2-34": (
        ("census", "--q", "2", "--bidegree", "3,4", "--smooth"),
        "e77b1dcd085e2e5d4274ab01a41d276adc71e035cded5d9f63b8a1c47a9d14d7"),
    "scan-q2-44": (
        ("scan", "--q", "2", "--max", "4,4"),
        "7cc3bd6d84f322ca0ed7e5a0bf5c4c830155f47669a67f32ab65359221b15b4e"),
    "construct-q2": (
        ("construct", "--q", "2"),
        "c8b6a90a9d87eeccff46a382e94b2448e2b7e3ce7ec594e2877378dba53f4106"),
    "construct-q3": (
        ("construct", "--q", "3"),
        "dfe69f06982bc1a005171f8a483413b9dccfa43aa0dbf81549e3b392f5658e04"),
    "construct-q4-transposed": (
        ("construct", "--q", "4", "--transposed"),
        "9143c8aba5f9204a04ca3ca1297d2bd8277505be02b66bda3530173a1277dbc5"),
    "count-T42-ext4": (
        ("count", "--q", "2", "--poly", T42, "--ext", "4"),
        "51bf10a8e31d60a0b3ff7fa43a077612a8007d60e6f809f7e34a8df0c291459d"),
    "decompose-T42": (
        ("decompose", "--q", "2", "--poly", T42),
        "86e8fda2783dc20d0f77fbc014dedaaf1e5f818a44db5f989279a71c88d98f37"),
    # outside characteristic 2, where a sign slip in the splitting shows
    "decompose-construct3": (
        ("decompose", "--q", "3", "--poly", CONSTRUCT_Q3),
        "ac637571c348f4e82d8cdc5617e1773b7f6d82e72a3e2e0251f40fab8b7b0eee"),
    "decompose-construct4": (
        ("decompose", "--q", "4", "--poly", CONSTRUCT_Q4),
        "ee4a763c7b6affbedea0c3fe5c08183d263b9e75c4e2b1efdefea3de94b4d7c3"),
    "verify-T42": (
        ("verify", "--q", "2", "--poly", T42),
        "1c0d5f99a3ab41f7c347bd97d25e58d3c0299a507d0f210c55f0338b37ac5a47"),
    "field-info-q9": (
        ("field-info", "--q", "9"),
        "1802bd761b67757b5f9f9548ef5c2cf5cc13d5e3b00532ade2d8e725d9acb722"),
    "field-info-p3e2-noncanonical": (
        ("field-info", "--field", "p=3,e=2,mod=[2,1,1]"),
        "7eacfacc630286e23f0e5866fc949a5601615750553defe0a8d264769a9afe3f"),
    "construct-q9": (
        ("construct", "--q", "9"),
        "7886f7b1972e87db8564f84c6b59b63850761de1e699c1d397e8e1ee84d0563f"),
    "count-construct4-ext2": (
        ("count", "--q", "4", "--poly", CONSTRUCT_Q4, "--ext", "2"),
        "2c3e777480557759953b6ce0b506f9caa5ad8801ea9657994490c0416b99ad6e"),
    "construct-q7": (
        ("construct", "--q", "7"),
        "33e013d03b42d8151461db2ed83df9572c72873eb4ab30826e5f1feffa5ef6c5"),
    # construct(2) is T42; the benchmark's larger count over GF(2)
    "count-construct2-ext10": (
        ("count", "--q", "2", "--poly", T42, "--ext", "10"),
        "3ba8767cb923fc154b1165fcb03dcbbea42fdd88a7413c43dad52129bcbeea61"),
    "count-construct3-ext6": (
        ("count", "--q", "3", "--poly", CONSTRUCT_Q3, "--ext", "6"),
        "ed2483e7e9831443e97a652a76cf8e0611cd7e9584f3956b9266ecebba9ad683"),
    # irreducibility by method B: a Singular form and a Smooth (2,0) one
    "verify-X0Y0": (
        ("verify", "--q", "2", "--poly", "X0*Y0"),
        "f8e1d8a71eb5673556a8011e74fa0b853298b86abceadb980447b73be028fb81"),
    "verify-conic-20": (
        ("verify", "--q", "2", "--poly", "X0^2 + X0*X1 + X1^2"),
        "1497229eafcfa10763c3067fba416fe76f13dc3db3a8f94ff68792439ade02b5"),
    # resultants in GF(81) built over GF(9) under a non-canonical modulus
    "verify-construct3-p3e2-noncanonical": (
        ("verify", "--field", "p=3,e=2,mod=[2,1,1]", "--poly", CONSTRUCT_Q3),
        "948975452e04170e114863457259f71df7a820cb1ffc45e0e52364ec91f76ed8"),
    # Singular at two conjugate points over GF(4): a degree-2 witness modulus
    "verify-singular-gf4-pair": (
        ("verify", "--q", "2", "--poly", SINGULAR_GF4_PAIR),
        "094a46bd7a52f43f2a5b6044583542a394e5a51c539dcc7db9b2ee99df523e2d"),
}


@pytest.mark.parametrize("argv,digest", PINNED_JSON.values(), ids=PINNED_JSON.keys())
def test_json_output_is_pinned(capsys, argv, digest):
    _, out, _ = run(capsys, *argv, "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_singular_witness_lies_over_gf4(capsys):
    _, doc, _ = run_json(capsys, "verify", "--q", "2", "--poly", SINGULAR_GF4_PAIR, "--json")
    assert doc["smooth"] == "Singular"
    assert len(doc["witness"]["modulus"]) - 1 == 2


# -- the battery certifies once --------------------------------------------------

def _form(spec):
    # an int q names construct(q); text is a form over GF(2), or over GF(q)
    # when given as (q, text)
    if isinstance(spec, int):
        return construct(spec)
    q, text = spec if isinstance(spec, tuple) else (2, spec)
    return parse_bipoly(text, parse_field_spec(f"q={q}"))


# KX*KY over GF(5): not smooth, and method B is over budget
KXKY_GF5 = (5, "X0^5*X1*Y0^5*Y1 + 4*X0^5*X1*Y0*Y1^5 + 4*X0*X1^5*Y0^5*Y1 + X0*X1^5*Y0*Y1^5")


@pytest.mark.parametrize("spec,irr", [
    (2, True), (3, True), (T42, True), (KXKY_GF5, None),
], ids=["construct-2", "construct-3", "T42", "KXKY-gf5"])
def test_summarize_certifies_once(monkeypatch, spec, irr):
    # one certificate, handed to the one is_abs_irreducible call, and one
    # point count
    calls = {"certify_smooth": 0, "is_abs_irreducible": 0, "count_points": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for module, name in [
        (bifill.analysis, "certify_smooth"),
        (bifill.cli, "certify_smooth"),
        (bifill.cli, "is_abs_irreducible"),
        (bifill.bounds, "count_points"),
        (bifill.filling, "count_points"),
    ]:
        monkeypatch.setattr(module, name, counting(module, name))
    _, _, got, _, _ = bifill.cli._summarize(_form(spec))
    assert calls == {"certify_smooth": 1, "is_abs_irreducible": 1, "count_points": 1}
    assert got is irr


@pytest.mark.parametrize("spec,want", [
    (2, (True, "A")),
    (3, (True, "A")),
    (4, (True, "A")),
    ("X0*Y0", (False, "B")),
    # Smooth, but bi-degree (2,0) keeps route A out
    ("X0^2 + X0*X1 + X1^2", (False, "B")),
    ("X0*Y0^2 + X1*Y1^2", (True, "A")),
], ids=["construct-2", "construct-3", "construct-4", "X0Y0", "conic-20", "X0Y0^2+X1Y1^2"])
def test_summarize_irreducibility_matches_auto(spec, want):
    F = _form(spec)
    _, _, irr, method, _ = bifill.cli._summarize(F)
    try:
        res = is_abs_irreducible(F)
        auto = res.irreducible, res.method
    except Infeasible:
        auto = None, None
    assert (irr, method) == auto == want


# -- argparse-level failures -----------------------------------------------------

def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["construct"])
    assert exc.value.code == 2


def test_q_and_field_are_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["field-info", "--q", "2", "--field", "p=2,e=1"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

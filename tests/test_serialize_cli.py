import json

import pytest

from fqg.algebra import InvalidDataError
from fqg.cli import main
from fqg.constructors import (function_algebra, group_algebra,
                              quantum_group_data_equal)
from fqg.fixtures import counit_degenerate_family, sign_twisted_dual_family
from fqg.groups import cyclic, named_group
from fqg.serialize import (canonical_json, family_from_dict, family_to_dict,
                           group_from_dict, group_to_dict,
                           quantum_group_from_dict, quantum_group_to_dict)


def test_quantum_group_roundtrip():
    g = function_algebra(named_group("S3"))
    d = json.loads(canonical_json(quantum_group_to_dict(g)))
    back = quantum_group_from_dict(d)
    assert quantum_group_data_equal(back, g)


def test_quantum_group_solves_missing_haar_data():
    g = group_algebra(cyclic(4))
    d = quantum_group_to_dict(g)
    del d["haar_state"]
    del d["haar_element"]
    back = quantum_group_from_dict(d)
    assert quantum_group_data_equal(back, g)


def test_quantum_group_verification_on_load():
    g = function_algebra(cyclic(3))
    d = quantum_group_to_dict(g)
    d["antipode"] = [[["1", "0"] if (r, c) in ((0, 0), (1, 1), (2, 2)) else ["0", "0"]
                     for c in range(3)] for r in range(3)]
    # identity antipode is wrong for Z_3 (inverses move elements)... but the
    # function algebra of Z_3 has antipode δ_g ↦ δ_{-g}, so this must fail
    with pytest.raises(InvalidDataError):
        quantum_group_from_dict(d)
    back = quantum_group_from_dict(d, verify=False)
    assert back.dim == 3


def test_family_roundtrip_with_hopf_data():
    from fqg.classical import universal_classical_family

    qf = universal_classical_family(cyclic(3))
    d = json.loads(canonical_json(family_to_dict(qf)))
    back = family_from_dict(d)
    assert back.alpha == qf.alpha
    assert back.hopf_on_target.coproduct == qf.hopf_on_target.coproduct


def test_family_catalog_reference_source():
    qf = counit_degenerate_family(function_algebra(named_group("S3")))
    d = family_to_dict(qf)
    d["source"] = {"group": "S3", "kind": "fun"}
    back = family_from_dict(d)
    assert back.alpha == qf.alpha


def test_group_table_roundtrip():
    g = named_group("D4")
    back = group_from_dict(group_to_dict(g))
    assert back.table == g.table


def test_malformed_family_rejected():
    with pytest.raises(InvalidDataError):
        family_from_dict({"source": {"group": "S3", "kind": "fun"},
                          "target": {"blocks": [1]}, "alpha": [["nope"]]})


# -- CLI ------------------------------------------------------------------


def test_cli_build_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["build", "--group", "Z4", "--kind", "grp",
                 "--format", "json", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "haar_positive" in text and "FAIL" not in text


def test_cli_dual_and_relations(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    assert main(["aut", "--group", "Z6", "--emit-family", str(fam)]) == 0
    capsys.readouterr()
    for scheme in ("auto", "order", "cyclic"):
        assert main(["relations", str(fam), "--scheme", scheme,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"scheme": scheme, "pass": True, "witnesses": []}


def test_cli_check_family_failure_names_podles(tmp_path, capsys):
    qf = counit_degenerate_family(function_algebra(named_group("S3")))
    path = tmp_path / "broken.json"
    path.write_text(canonical_json(family_to_dict(qf)))
    code = main(["check-family", str(path), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["automorphism_family"] is False
    failed = [c["name"] for rep in payload["reports"] for c in rep["checks"]
              if not c["pass"]]
    assert "podles" in failed


def test_cli_relations_dual_scheme(tmp_path, capsys):
    neg = sign_twisted_dual_family()
    path = tmp_path / "neg.json"
    path.write_text(canonical_json(family_to_dict(neg)))
    code = main(["relations", str(path), "--scheme", "dual", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    assert payload["witnesses"][0]["check"] == "entries_idempotent"


def test_cli_compose(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    main(["aut", "--group", "Z5", "--emit-family", str(fam)])
    capsys.readouterr()
    out = tmp_path / "comp.json"
    assert main(["compose", str(fam), str(fam), "--format", "json",
                 "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["check-family", str(out)]) == 0


def test_cli_readme_build_then_verify(tmp_path, monkeypatch, capsys):
    # the README sequence, run as written: -o without --format json
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--group", "S3", "--kind", "fun", "-o", "s3.json"]) == 0
    assert capsys.readouterr().out == "built fun(S3) (dim 6)\n"
    assert quantum_group_data_equal(
        quantum_group_from_dict(json.loads((tmp_path / "s3.json").read_text())),
        function_algebra(named_group("S3")))
    assert main(["verify", "s3.json"]) == 0


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [input]")

    base = quantum_group_to_dict(function_algebra(cyclic(3)))
    for eta in ([["nan", "0"], ["0", "0"], ["0", "0"]], [["inf", "0"]] * 3,
                [["1", "0"]], 5, "ab"):
        path.write_text(canonical_json(dict(base, haar_element=eta)))
        assert main(["verify", str(path)]) == 2, eta
        assert capsys.readouterr().err.startswith("error: [input]"), eta
    path.write_text(canonical_json(dict(base, mult=[[0, 0, 0, "inf", "0"]])))
    assert main(["verify", str(path)]) == 2


def test_cli_skip_verify_flag(tmp_path):
    g = function_algebra(cyclic(3))
    d = quantum_group_to_dict(g)
    d["antipode"] = [[["1", "0"] if r == c else ["0", "0"] for c in range(3)]
                     for r in range(3)]
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(d))
    assert main(["dual", str(path)]) == 2
    assert main(["--skip-verify", "dual", str(path), "-o",
                 str(tmp_path / "d.json")]) in (0, 2)


def test_cli_build_from_group_table_file(tmp_path, capsys):
    table = tmp_path / "z3.json"
    table.write_text(canonical_json(group_to_dict(cyclic(3))))
    out = tmp_path / "g.json"
    assert main(["build", "--group", str(table), "--kind", "fun",
                 "--format", "json", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0


def test_cli_float_backend(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["--backend", "float", "build", "--group", "Z3",
                 "--format", "json", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["--backend", "float", "verify", str(out)]) == 0

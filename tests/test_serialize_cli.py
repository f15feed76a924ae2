import json
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqg.qfamily
import fqg.serialize
from fqg.algebra import InvalidDataError, StarAlgebra
from fqg.cli import main
from fqg.constructors import (function_algebra, group_algebra,
                              quantum_group_data_equal)
from fqg.fixtures import counit_degenerate_family, sign_twisted_dual_family
from fqg.groups import cyclic, named_group
from fqg.linalg import LinearMap
from fqg.scalar import CFloat, format_scalar, parse_scalar, scalar, set_backend, use_backend
from fqg.serialize import (algebra_from_dict, canonical_json, family_from_dict,
                           family_to_dict, group_from_dict, group_to_dict,
                           matrix_from_dense, matrix_from_json, matrix_from_sparse,
                           matrix_to_dense, matrix_to_json, matrix_to_sparse,
                           quantum_group_from_dict, quantum_group_to_dict, vector_from_list,
                           vector_to_list)


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


def _labelled_file(loader):
    if loader is group_from_dict:
        return group_to_dict(named_group("S3"))
    if loader is family_from_dict:
        return family_to_dict(counit_degenerate_family(function_algebra(named_group("S3"))))
    return quantum_group_to_dict(function_algebra(named_group("S3")))


@pytest.mark.parametrize("label", [5, True, {"a": 1}, None], ids=repr)
@pytest.mark.parametrize("loader", [algebra_from_dict, quantum_group_from_dict,
                                    family_from_dict, group_from_dict],
                         ids=lambda f: f.__name__)
def test_a_label_that_is_not_a_string_is_refused(loader, label, tmp_path, capsys):
    """A label reaches a report as its subject: only a JSON string is taken,
    and an absent one reads as ""."""
    d = _labelled_file(loader)
    with pytest.raises(InvalidDataError, match="label"):
        loader(dict(d, label=label))
    assert loader(dict(d, label="")).label == loader(
        {k: v for k, v in d.items() if k != "label"}).label
    if loader is quantum_group_from_dict:  # the fun(S3) file, through the CLI
        path = tmp_path / "labelled.json"
        path.write_text(canonical_json(dict(d, label=label)))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [input] label") and "Traceback" not in err


# -- memoised cell parsing against a plain per-cell parse -----------------

_NUMBERS = ("0", "1", "-1", "1/2", "-3/4", "0.25", "2e3", "1E-2", "7", "-0")
# Malformed cells, which the memo must leave alone: each keeps its message.
# A cell that is not a two-element list of strings is refused, although
# parse_scalar(*cell) would read "10" as 1+0i, ["1"] as 1 and [1, 0] as 1.
_MALFORMED_CELLS = ([["0"], "0"], [True, 0], None, ["x"], ["1", "0", "0"],
                    ["nan", "0"], ["0", "inf"], ["1e99999999", "0"], 5, ["1"], "10",
                    [1, 0], [1.0, "0"])


def _plain_cell(cell):
    if not (isinstance(cell, list) and len(cell) == 2 and all(isinstance(x, str) for x in cell)):
        raise ValueError("%.40r is not an [re, im] pair of strings" % (cell,))
    return parse_scalar(*cell)


def _plain_matrix(rows, source_dim, target_dim):
    """The dense loader by the definition: every cell parsed on its own, then
    the row count and the row lengths checked, then the zeros dropped."""
    try:
        parsed = [[_plain_cell(cell) for cell in row] for row in rows]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError("bad matrix entry: %s" % exc)
    if len(parsed) != target_dim:
        raise InvalidDataError("matrix has %d rows, expected %d" % (len(parsed), target_dim))
    if any(len(r) != source_dim for r in parsed):
        raise InvalidDataError("matrix row length mismatch")
    return LinearMap.from_rows(parsed)


def _plain_vector(cells, dim):
    try:
        parsed = [_plain_cell(cell) for cell in cells]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError("bad vector entry: %s" % exc)
    if len(parsed) != dim:
        raise InvalidDataError("vector has %d entries, expected %d" % (len(parsed), dim))
    return {i: s for i, s in enumerate(parsed) if not s.is_zero()}


def _plain_algebra(d):
    try:
        mult = {}
        for i, j, k, re, im in d["mult"]:
            s = _plain_cell([re, im])
            if not s.is_zero():
                mult.setdefault(i, {}).setdefault(j, {})[k] = s
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError("malformed algebra: %s" % exc)
    n = d["dim"]
    return StarAlgebra(n, mult, _plain_vector(d["unit"], n), _plain_matrix(d["star"], n, n))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except InvalidDataError as exc:
        return None, str(exc)


# Zero as the writers spell it, which the loader passes over unparsed, and
# spelled otherwise, which it parses and drops.
_ZERO_CELLS = (["0", "0"], ["0/1", "0"], ["-0", "0"], ["0.0", "0"], ["0", "-0"])
# How a drawn grid may be cut out of its declared (rows, cols) shape.
_RESHAPES = ("none", "short row", "long row", "missing row", "extra row")


@st.composite
def _cell_grids(draw, shape=None):
    """A grid of [re, im] string cells, about a third of them zeros in some
    spelling, with up to two replaced by odd ones; and the (rows, cols) it
    declares.  A grid drawn without a given shape may have one row cut
    short or made longer, a row missing or one too many."""
    rows, cols = shape or (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    cell = st.one_of(st.sampled_from(_ZERO_CELLS),
                     st.lists(st.sampled_from(_NUMBERS), min_size=2, max_size=2))
    grid = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = \
            draw(st.sampled_from(_MALFORMED_CELLS))
    reshape = "none" if shape else draw(st.sampled_from(_RESHAPES))
    at = draw(st.integers(0, rows - 1))
    if reshape == "short row":
        del grid[at][-1]
    elif reshape == "long row":
        grid[at].append(draw(cell))
    elif reshape == "missing row":
        del grid[at]
    elif reshape == "extra row":
        grid.insert(at, [draw(cell) for _ in range(cols)])
    return grid, (rows, cols)


def _texts(m):
    """Each column of ``m`` as its (row, texts) pairs, in stored order, so
    that float entries compare exactly and no stored zero goes unseen."""
    return [[(r, format_scalar(s)) for r, s in col.items()] for col in m.cols]


def _assert_same_loads(grid, star, backend, shape=None):
    set_backend(backend, 1e-9)
    rows, cols = shape or (len(grid), len(grid[0]))
    matrix, matrix_err = _outcome(matrix_from_dense, grid, cols, rows)
    ref, ref_err = _outcome(_plain_matrix, grid, cols, rows)
    assert matrix_err == ref_err
    assert matrix == ref
    if ref is not None:
        assert _texts(matrix) == _texts(ref)
    for row in grid:
        vec, vec_err = _outcome(vector_from_list, row, cols)
        ref, ref_err = _outcome(_plain_vector, row, cols)
        assert (vec, vec_err) == (ref, ref_err)
        assert [(i, type(s), format_scalar(s)) for i, s in (vec or {}).items()] == \
            [(i, type(s), format_scalar(s)) for i, s in (ref or {}).items()]
    # each cell states its own (i, j, k) of a 3-dimensional table: a loaded
    # table may state a product coefficient only once
    mult = [[t // 9, t // 3 % 3, t % 3] + (cell if isinstance(cell, list) else [cell])
            for t, cell in enumerate(cell for row in grid for cell in row)]
    zero = ["0", "0"]
    d = {"dim": 3, "mult": mult, "unit": ((grid[0] if grid else []) * 3)[:3],
         "star": [row + [zero] for row in star] + [[zero] * 3]}
    alg, alg_err = _outcome(algebra_from_dict, d)
    ref, ref_err = _outcome(_plain_algebra, d)
    assert alg_err == ref_err
    if ref is not None:
        assert (alg.mult, alg.unit, alg.star) == (ref.mult, ref.unit, ref.star)


@settings(max_examples=200)
@given(_cell_grids(), _cell_grids(shape=(2, 2)), st.sampled_from(("exact", "float")))
def test_memoised_loads_agree_with_plain_parse_scalar(grid, star, backend):
    (grid, shape), (star, _) = grid, star
    _assert_same_loads(grid, star, backend, shape)


@pytest.mark.parametrize("odd", _MALFORMED_CELLS, ids=repr)
def test_memoised_loads_keep_every_malformed_cell_message(odd):
    # the same value before and after the odd cell: a memo hit must not skip it
    one = ["1", "0"]
    for grid in ([[one, odd, one]], [[odd, one], [one, one]], [[one], [one], [odd]],
                 [[["-1/2", "3"], odd, ["-1/2", "3"]]]):
        _assert_same_loads(grid, [[one, ["0", "0"]], [["0", "0"], one]], "exact")
    assert _outcome(matrix_from_dense, [[one, odd, one]], 3, 1)[1] is not None


# -- sparse matrices -------------------------------------------------------


@st.composite
def _sparse_cells(draw):
    """A shape of at most 6 x 6 and a random set of its cells, as strings."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                                 st.tuples(st.sampled_from(_NUMBERS), st.sampled_from(_NUMBERS)),
                                 max_size=rows * cols))
    return rows, cols, cells


@settings(max_examples=200)
@given(_sparse_cells(), st.integers(0, 40), st.sampled_from(("exact", "float")))
def test_written_matrices_read_back_on_both_sides_of_the_threshold(shape, threshold, backend):
    set_backend(backend, 1e-9)
    rows, cols, cells = shape
    columns = [{} for _ in range(cols)]
    for (r, c), (re, im) in cells.items():
        columns[c][r] = parse_scalar(re, im)
    m = LinearMap(cols, rows, columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fqg.serialize, "DENSE_UP_TO", threshold)
        d = json.loads(canonical_json(matrix_to_json(m)))
    sparse = rows * cols > threshold
    assert isinstance(d, dict) == sparse
    if sparse:
        assert d["shape"] == [rows, cols]
        at = [(r, c) for r, c, _, _ in d["entries"]]
        assert at == sorted(set(at)) and len(at) == sum(map(len, m.cols))
    assert matrix_from_json(d, cols, rows) == m


def _sparse_z3(**change):
    """fun(Z3) as a file, with its coproduct (9 x 3) in the sparse form."""
    d = quantum_group_to_dict(function_algebra(cyclic(3)))
    d["coproduct"] = dict(matrix_to_sparse(function_algebra(cyclic(3)).coproduct), **change)
    return d


def test_sparse_coproduct_loads_and_drops_explicit_zeros():
    g = function_algebra(cyclic(3))
    assert quantum_group_data_equal(quantum_group_from_dict(_sparse_z3()), g)
    entries = _sparse_z3()["coproduct"]["entries"]
    assert [r for r, _, _, _ in entries] == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    padded = sorted(entries + [[0, 1, "0", "0"], [8, 0, "0", "-0"]], key=lambda e: e[:2])
    assert quantum_group_data_equal(quantum_group_from_dict(_sparse_z3(entries=padded)), g)


def _bad_sparse_inputs():
    entries = _sparse_z3()["coproduct"]["entries"]
    first, rest = entries[0], entries[1:]
    yield "row out of range", {"entries": rest + [[9, 0, "1", "0"]]}
    yield "col out of range", {"entries": rest + [[8, 3, "1", "0"]]}
    yield "negative index", {"entries": [[-1, 0, "1", "0"]] + rest}
    # in order by row * cols + col, so only the range check refuses it
    yield "negative col", {"entries": [first, [1, -1, "1", "0"]] + entries[2:]}
    yield "repeated", {"entries": [first, first] + rest}
    yield "unsorted", {"entries": [entries[1], first] + entries[2:]}
    for index in (True, 0.0, "0"):
        yield "index %r" % (index,), {"entries": [[index, 0, "1", "0"]] + rest}
        yield "col %r" % (index,), {"entries": [[0, index, "1", "0"]] + rest}
    for entry in ([0, 0, "1"], [0, 0, "1", "0", "0"], [], "0 0 1 0", None):
        yield "entry %r" % (entry,), {"entries": [entry] + rest}
    for re, im in ((1, 0), ("1", 0), (["1"], "0"), ("1/0", "0"), ("0", "1/0"), ("nan", "0")):
        yield "cell %r" % ([re, im],), {"entries": [[0, 0, re, im]] + rest}
    yield "entries not a list", {"entries": {"0": first}}
    for shape in ([9], [9, 3, 1], [9.0, 3], [True, 3], "9x3", None, [3, 9], [9, 2]):
        yield "shape %r" % (shape,), {"shape": shape}


@pytest.mark.parametrize("change", [c for _, c in _bad_sparse_inputs()],
                         ids=[name for name, _ in _bad_sparse_inputs()])
def test_cli_malformed_sparse_matrix_exits_2(change, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(canonical_json(_sparse_z3(**change)))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [input]") and not captured.out
    assert "Traceback" not in captured.err


def test_sparse_entries_above_the_limit_are_refused_before_any_column(tmp_path, capsys,
                                                                      monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(canonical_json(_sparse_z3()))  # 9 entries
    monkeypatch.setattr(fqg.serialize, "MAX_ENTRIES", 8)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: [input] a sparse matrix with 9 entries is above the input limit 8")
    # nothing is read or allocated first: a malformed entry is not reached,
    # and a million empty columns (over 60 MB) are not built
    d = {"shape": [1, 1 << 20], "entries": [None] * 9}
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDataError, match="above the input limit"):
            matrix_from_sparse(d, 1 << 20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_written_matrices_are_bounded_by_entries(monkeypatch):
    # a dense matrix has an entry per cell, a sparse one per nonzero cell
    coproduct = function_algebra(cyclic(3)).coproduct  # 9 x 3, 9 nonzero
    monkeypatch.setattr(fqg.serialize, "MAX_ENTRIES", 9)
    assert len(matrix_to_sparse(coproduct)["entries"]) == 9
    with pytest.raises(InvalidDataError, match="a 9 x 3 matrix has 27 entries"):
        fqg.serialize.matrix_to_dense(coproduct)
    monkeypatch.setattr(fqg.serialize, "MAX_ENTRIES", 8)
    with pytest.raises(InvalidDataError, match="has 9 entries, above the output limit 8"):
        matrix_to_sparse(coproduct)


def _composed_d4_dict(tmp_path):
    """The D4∘D4 family as ``fqg compose`` writes it."""
    fam, comp = tmp_path / "d4.json", tmp_path / "dd.json"
    assert main(["aut", "--group", "D4", "--emit-family", str(fam)]) == 0
    assert main(["compose", str(fam), str(fam), "--format", "json", "-o", str(comp)]) == 0
    return json.loads(comp.read_text())


def _all_dense_dict(qf):
    """``family_to_dict(qf)`` with every matrix written dense, as before the
    sparse form existed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fqg.serialize, "matrix_to_json", fqg.serialize.matrix_to_dense)
        return json.loads(canonical_json(family_to_dict(qf)))


def _tables(obj):
    """The distinct (re, im) pairs of each matrix, vector and mult table."""
    for key, value in sorted(obj.items()):
        if isinstance(value, dict) and "entries" in value:
            yield {(re, im) for _, _, re, im in value["entries"]}
        elif isinstance(value, dict):
            yield from _tables(value)
        elif key == "mult":
            yield {(re, im) for _, _, _, re, im in value}
        elif key in ("unit", "haar_element"):
            yield {tuple(cell) for cell in value}
        elif key in ("star", "coproduct", "counit", "antipode", "haar_state", "alpha"):
            yield {tuple(cell) for row in value for cell in row}


def _parse_calls(monkeypatch, load, d):
    """``load(d, verify=False)`` and the parse_scalar calls it made, per pair."""
    calls = Counter()

    def counting_parse(re, im="0"):
        calls[re, im] += 1
        return parse_scalar(re, im)

    with monkeypatch.context() as mp:
        mp.setattr(fqg.serialize, "parse_scalar", counting_parse)
        back = load(d, verify=False)
    return back, calls


def _assert_each_distinct_cell_parsed_once(d, monkeypatch):
    allowed = Counter(pair for table in _tables(d) for pair in table)
    back, calls = _parse_calls(monkeypatch, family_from_dict, d)
    assert back.alpha.source_dim == back.source.dim
    assert calls and all(calls[pair] <= allowed[pair] for pair in calls), calls
    return back


def test_loading_dense_s4_never_parses_a_zero_cell(monkeypatch):
    g = function_algebra(named_group("S4"))
    d = json.loads(canonical_json(quantum_group_to_dict(g)))
    assert len(d["coproduct"]) == 576 and len(d["coproduct"][0]) == 24  # dense
    back, calls = _parse_calls(monkeypatch, quantum_group_from_dict, d)
    assert quantum_group_data_equal(back, g)
    # each nonzero pair once per table that holds it; ["0", "0"] never
    expected = Counter(pair for table in _tables(d) for pair in table if pair != ("0", "0"))
    assert calls == expected and ("0", "0") not in calls


def test_loading_a_composed_family_parses_each_distinct_cell_once(tmp_path, monkeypatch):
    d = _composed_d4_dict(tmp_path)
    coproduct_b = d["hopf_on_B"]["coproduct"]  # 4,096 nonzero of 64**3 cells
    assert coproduct_b["shape"] == [64 ** 2, 64] and len(coproduct_b["entries"]) == 4096
    back = _assert_each_distinct_cell_parsed_once(d, monkeypatch)
    # the dense reader's memo, on the same family written dense everywhere
    dense = _all_dense_dict(back)
    assert len(dense["hopf_on_B"]["coproduct"]) == 64 ** 2
    _assert_each_distinct_cell_parsed_once(dense, monkeypatch)


def test_all_dense_composed_family_still_loads(tmp_path):
    # a file from before the sparse form: the D4∘D4 family with every matrix dense
    d = _composed_d4_dict(tmp_path)
    fam = family_from_dict(d, verify=False)
    dense = _all_dense_dict(fam)
    assert '"entries"' in canonical_json(d) and '"entries"' not in canonical_json(dense)
    back = family_from_dict(dense)
    assert back.alpha == fam.alpha
    assert back.hopf_on_target.coproduct == fam.hopf_on_target.coproduct
    assert back.hopf_on_target.counit == fam.hopf_on_target.counit
    assert quantum_group_data_equal(back.source, fam.source)
    assert back.target_algebra.star == fam.target_algebra.star
    assert family_to_dict(back) == d


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


def test_cli_compose_refuses_families_over_different_groups(tmp_path, capsys):
    z4, k4 = tmp_path / "z4.json", tmp_path / "k4.json"
    assert main(["aut", "--group", "Z4", "--emit-family", str(z4)]) == 0
    assert main(["aut", "--group", "K4", "--emit-family", str(k4)]) == 0
    capsys.readouterr()
    out = tmp_path / "zk.json"
    assert main(["compose", str(z4), str(k4), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [input] composition needs families on the same")
    assert "Traceback" not in captured.err and not captured.out
    assert not out.exists()


def test_cli_readme_build_then_verify(tmp_path, monkeypatch, capsys):
    # the README sequence, run as written: -o without --format json
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--group", "S3", "--kind", "fun", "-o", "s3.json"]) == 0
    assert capsys.readouterr().out == "built fun(S3) (dim 6)\n"
    assert quantum_group_data_equal(
        quantum_group_from_dict(json.loads((tmp_path / "s3.json").read_text())),
        function_algebra(named_group("S3")))
    assert main(["verify", "s3.json"]) == 0


def test_cli_malformed_input_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [input]")

    base = quantum_group_to_dict(function_algebra(cyclic(3)))
    # malformed entries, and exponents beyond the limit (refused before the power is built)
    for eta in ([["nan", "0"], ["0", "0"], ["0", "0"]], [["inf", "0"]] * 3,
                [["1", "0"]], 5, "ab", [["1e99999999", "0"]] * 3, [["-1E-99999999", "0"]] * 3,
                [["1/0", "0"]] * 3):
        path.write_text(canonical_json(dict(base, haar_element=eta)))
        assert main(["verify", str(path)]) == 2, eta
        assert capsys.readouterr().err.startswith("error: [input]"), eta
    for bad in ("inf", "1e99999999"):
        path.write_text(canonical_json(dict(base, mult=[[0, 0, 0, bad, "0"]])))
        assert main(["verify", str(path)]) == 2, bad
        assert capsys.readouterr().err.startswith("error: [input]"), bad
    # a dim below 1 is refused as such, before the unit is read against it
    for dim in (-3, 0):
        path.write_text(canonical_json(dict(base, dim=dim)))
        assert main(["verify", str(path)]) == 2, dim
        assert capsys.readouterr().err == "error: [input] dim %d is not positive\n" % dim

    # oversized groups are refused before any table is built
    for name in ("Z100000", "D100000", "Z40xZ40", "Z" + "9" * 5000):
        assert main(["build", "--group", name, "--kind", "fun"]) == 2, name[:12]
        assert capsys.readouterr().err.startswith("error: [input]"), name[:12]
    path.write_text(canonical_json({"order": 1025, "table": [[0]] * 1025}))
    assert main(["build", "--group", str(path), "--kind", "fun"]) == 2
    assert capsys.readouterr().err.startswith("error: [input]")

    # unreadable files: nesting deeper than the decoder's recursion limit,
    # bytes that are not UTF-8, an integer past the interpreter's digit limit
    for text in (b"[" * 100000, b'{"label": "\xff"}', b"[" + b"1" * 5000 + b"]"):
        path.write_bytes(text)
        assert main(["verify", str(path)]) == 2, text[:8]
        assert capsys.readouterr().err.startswith("error: [input] cannot read"), text[:8]

    # block-algebra targets: a trace weight past the exponent limit or with a
    # zero denominator, and a dimension sum n**2 above MAX_GROUP_ORDER, all
    # refused before any table
    for target in ({"blocks": [1], "trace_weights": ["1e99999999"]},
                   {"blocks": [1], "trace_weights": ["1/0"]}, {"blocks": [1000]}):
        path.write_text(canonical_json({"source": {"group": "Z2", "kind": "fun"},
                                        "target": target, "alpha": [[["1", "0"]]]}))
        assert main(["check-family", str(path)]) == 2, target
        assert capsys.readouterr().err.startswith("error: [input]"), target

    # fun(Z200)'s coproduct, 40000 x 200 cells of which 40000 are nonzero, is
    # written sparse and reloads as built; with the entry limit one below, the
    # same command is refused before any file is written
    out = tmp_path / "z200.json"
    assert main(["build", "--group", "Z200", "--kind", "fun", "-o", str(out)]) == 0
    capsys.readouterr()
    d = json.loads(out.read_text())
    assert d["coproduct"]["shape"] == [40000, 200] and len(d["coproduct"]["entries"]) == 40000
    assert quantum_group_data_equal(quantum_group_from_dict(d, verify=False),
                                    function_algebra(named_group("Z200")))
    out.unlink()
    monkeypatch.setattr(fqg.serialize, "MAX_ENTRIES", 39999)
    for extra in ([], ["-o", str(out)]):
        assert main(["build", "--group", "Z200", "--kind", "fun"] + extra) == 2, extra
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [input]"), extra
        assert "above the output limit" in captured.err and not captured.out, extra
        assert not out.exists(), extra


@pytest.mark.parametrize("command", ["verify", "dual", "check-family", "relations", "compose"])
def test_cli_input_that_is_not_an_object_exits_2(command, tmp_path, capsys):
    """A quantum group file, or a family's target algebra, that is a JSON
    list or string is refused as input."""
    path = tmp_path / "bad.json"
    extra = {"relations": ["--scheme", "auto"], "compose": [str(path)]}.get(command, [])
    for bad in ([1], "x"):
        doc = bad if command in ("verify", "dual") else {
            "source": {"group": "Z2", "kind": "fun"}, "target": bad, "alpha": [[["1", "0"]]]}
        path.write_text(canonical_json(doc))
        assert main([command, str(path)] + extra) == 2, bad
        assert capsys.readouterr().err == (
            "error: [input] an algebra must be a JSON object, not %r\n" % (bad,)), bad
    if command not in ("verify", "dual"):  # a family file that is not an object
        path.write_text("[1]")
        assert main([command, str(path)] + extra) == 2
        assert capsys.readouterr().err.startswith("error: [input] malformed family")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_cli_tolerance_must_be_finite_and_not_negative(tol, tmp_path, capsys):
    path = tmp_path / "z3.json"
    path.write_text(canonical_json(quantum_group_to_dict(function_algebra(cyclic(3)))))
    with pytest.raises(SystemExit) as exc:
        main(["--backend", "float", "--tol=" + tol, "verify", str(path)])
    assert exc.value.code == 2
    assert "argument --tol: tolerance %s is not a finite number >= 0" % float(tol) in (
        capsys.readouterr().err)
    assert main(["--backend", "float", "--tol", "0", "verify", str(path)]) == 0


def test_cli_compose_refuses_an_oversized_coproduct_before_building_it(tmp_path, capsys,
                                                                        monkeypatch):
    """D4∘D4 composed with itself has an index coproduct of 4096² entries,
    above the output limit: refused from the two files, without compose."""
    _composed_d4_dict(tmp_path)
    capsys.readouterr()

    def no_compose(*args):
        raise AssertionError("compose ran")

    monkeypatch.setattr(fqg.qfamily, "compose", no_compose)
    dd = str(tmp_path / "dd.json")
    start = time.perf_counter()
    assert main(["compose", dd, dd]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.err == ("error: [input] a 16777216 x 4096 matrix has 16777216 entries,"
                            " above the output limit 4194304\n")
    assert not captured.out


def test_cli_cell_that_is_not_a_pair_exits_2(tmp_path, capsys):
    # a bare string cell is not read character by character: "12" is not 1+2i;
    # and a pair of numbers is not a pair of number strings
    path = tmp_path / "cell.json"
    base = quantum_group_to_dict(function_algebra(cyclic(3)))
    for cell in ("12", ["1"], "5", [1, 0], [1.0, "0"]):
        path.write_text(canonical_json(dict(base, haar_element=[["1", "0"], cell, ["0", "0"]])))
        assert main(["verify", str(path)]) == 2, cell
        assert capsys.readouterr().err.startswith("error: [input] bad vector entry"), cell
    for cell in ("12", [1, 0]):
        antipode = [row[:] for row in base["antipode"]]
        antipode[0][0] = cell
        path.write_text(canonical_json(dict(base, antipode=antipode)))
        assert main(["verify", str(path)]) == 2, cell
        assert capsys.readouterr().err.startswith("error: [input] bad matrix entry"), cell


def test_cli_mult_indices_and_dim_are_not_coerced(tmp_path, capsys):
    # each of these once loaded as some other table: 0.7, True and "0" as
    # index 0 or 1, a dim of 3.9 as 3, and a repeated row as its last value
    path = tmp_path / "mult.json"
    base = quantum_group_to_dict(function_algebra(cyclic(3)))
    assert base["mult"] == [[0, 0, 0, "1", "0"], [1, 1, 1, "1", "0"], [2, 2, 2, "1", "0"]]
    rest = base["mult"][1:]
    for change, message in (
            ({"mult": [[0.7, 0, 0, "1", "0"]] + rest}, "mult index 0.7 is not an integer"),
            ({"mult": [[0, True, 0, "1", "0"]] + rest}, "mult index True is not an integer"),
            ({"mult": [[0, 0, "0", "1", "0"]] + rest}, "mult index '0' is not an integer"),
            ({"dim": 3.9}, "dim 3.9 is not an integer"),
            ({"mult": base["mult"] + [[1, 1, 1, "2", "0"]]},
             "mult states (i, j, k) = (1, 1, 1) twice")):
        path.write_text(canonical_json(dict(base, **change)))
        assert main(["verify", str(path)]) == 2, change
        assert capsys.readouterr().err == "error: [input] %s\n" % message, change
    path.write_text(canonical_json(base))
    assert main(["verify", str(path)]) == 0


def test_cli_group_tables_orders_and_block_sizes_are_not_coerced(tmp_path, capsys):
    # each of these once loaded: a cell of 1.7 as 1 (so the table was Z2), an
    # order of 2.5 or "2" as 2, and a block size of 1.5, True or "2" as an int
    path = tmp_path / "group.json"
    z2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    for change, message in (
            ({"table": [[0, 1.7], [1, 0]]}, "group table entry 1.7 is not an integer"),
            ({"table": [[0, True], [1, 0]]}, "group table entry True is not an integer"),
            ({"table": [[0, "1"], [1, 0]]}, "group table entry '1' is not an integer"),
            ({"order": 2.5}, "order 2.5 is not an integer"),
            ({"order": "2"}, "order '2' is not an integer")):
        path.write_text(canonical_json(dict(z2, **change)))
        assert main(["build", "--group", str(path), "--kind", "fun"]) == 2, change
        assert capsys.readouterr().err == "error: [input] %s\n" % message, change
    path.write_text(canonical_json(z2))
    assert main(["build", "--group", str(path), "--kind", "fun"]) == 0
    capsys.readouterr()

    one, zero = ["1", "0"], ["0", "0"]
    family = {"source": {"group": "Z2", "kind": "fun"}, "alpha": [[one, zero], [zero, one]]}
    for blocks, message in (([1.5], "block size 1.5 is not an integer"),
                            ([True, 2], "block size True is not an integer"),
                            (["2"], "block size '2' is not an integer")):
        path.write_text(canonical_json(dict(family, target={"blocks": blocks})))
        assert main(["check-family", str(path)]) == 2, blocks
        assert capsys.readouterr().err == "error: [input] %s\n" % message, blocks
    path.write_text(canonical_json(dict(family, target={"blocks": [1]})))
    assert main(["check-family", str(path)]) == 0


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


# sha256 of `fqg build` / `fqg dual` JSON payloads on S4, recorded with
# Fraction-pair scalars: a change of scalar representation must not move them
S4_PAYLOAD_SHA256 = {
    "fun": ("95828b36469e3bf41e1cc6ba4c4102b6b56657d6ab8523f0bc06d4f277bf266d",
            "3f19c8578e15bf9ed326a011ce627ce64120897c17acb5396285eed1b7707c43"),
    "grp": ("4d70bcbc9430dfc03eb99935f2679b219bff9374b1e659c938188fcdc3efb46a",
            "bf530bb1439abf86c75ec57819aa192b971cd7fd4934f654a3c05a7de6bba4d1"),
}


@pytest.mark.parametrize("kind", sorted(S4_PAYLOAD_SHA256))
def test_s4_build_and_dual_payloads_are_byte_stable(kind, tmp_path, capsys):
    import hashlib

    def payload_sha(argv):
        assert main(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()

    built = payload_sha(["build", "--group", "S4", "--kind", kind, "--format", "json"])
    path = tmp_path / "s4.json"
    main(["build", "--group", "S4", "--kind", kind, "-o", str(path)])
    capsys.readouterr()
    dual = payload_sha(["dual", str(path), "--format", "json"])
    assert (built, dual) == S4_PAYLOAD_SHA256[kind]


# sha256 of `fqg --backend float verify` JSON on the S4 build: the float
# backend keeps the full sweeps, with no generator certificate in front
S4_FLOAT_VERIFY_SHA256 = {
    "fun": "6571b5037c9166ec1d8fffe642221ce4455422a09301a38b7cd64f1521f62721",
    "grp": "f25e79010eb60b6b5fc164d78fd835ca2b0a7440ed914e9674e055d52089ebdd",
}


@pytest.mark.parametrize("kind", sorted(S4_FLOAT_VERIFY_SHA256))
def test_s4_float_verify_payload_is_byte_stable(kind, tmp_path, capsys):
    import hashlib

    path = tmp_path / "s4.json"
    assert main(["build", "--group", "S4", "--kind", kind, "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["--backend", "float", "verify", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == S4_FLOAT_VERIFY_SHA256[kind]


# sha256 of `fqg check-family --all --format json` on the D4 universal family
# and on its D4∘D4 composition, recorded with full sweeps behind every family
# law: a generator certificate may skip work, never change a report
D4_CHECK_FAMILY_SHA256 = {
    "universal": "93db2f728df6c85c329fc5833ce678604b11ee757bfc22270971de2a6a1d1f22",
    "compose": "baf537313fbfb1b29fb53a5eb504937e3417fbd8feb25413242950944eeaba17",
}


def test_d4_check_family_payloads_are_byte_stable(tmp_path, capsys):
    import hashlib

    paths = {"universal": tmp_path / "d4.json", "compose": tmp_path / "dd.json"}
    assert main(["aut", "--group", "D4", "--emit-family", str(paths["universal"])]) == 0
    assert main(["compose", str(paths["universal"]), str(paths["universal"]),
                 "-o", str(paths["compose"])]) == 0
    capsys.readouterr()
    got = {}
    for key, path in paths.items():
        assert main(["check-family", str(path), "--all", "--format", "json"]) == 0
        got[key] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == D4_CHECK_FAMILY_SHA256


def test_python_dash_m_runs_the_cli(capsys):
    import os
    import subprocess
    import sys

    import fqg

    argv = ["build", "--group", "Z3", "--kind", "fun", "--format", "json"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-m", "fqg"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_cli_refuses_trace_weights_that_are_not_strings(tmp_path, capsys):
    # the writer emits trace weights as strings; a JSON number would load by
    # its binary value (0.1 as 3602879701896397/36028797018963968), a bool as 0 or 1
    written = quantum_group_to_dict(function_algebra(cyclic(2)))
    blocks_only = {k: v for k, v in written.items() if k != "mult"}
    path = tmp_path / "blocks.json"
    path.write_text(canonical_json(dict(blocks_only, blocks=[1, 1], trace_weights=["1", "1/2"])))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    for weights in ([0.1, "1"], [True, "1"], ["1", 1], "11"):
        # as the only algebra data, and beside a mult table
        for d in (dict(blocks_only, blocks=[1, 1], trace_weights=weights),
                  dict(written, blocks=[1, 1], trace_weights=weights)):
            path.write_text(canonical_json(d))
            assert main(["verify", str(path)]) == 2, weights
            captured = capsys.readouterr()
            assert captured.err.startswith("error: [input] trace_weights"), weights
            assert not captured.out and "Traceback" not in captured.err, weights


# sha256 of `fqg relations --format json` on the D4 universal family with the
# alpha cell at row 42, column 5 doubled, recorded with every relation swept:
# the translation certificate may skip work, never change a witness
D4_DOUBLED_RELATIONS_SHA256 = {
    "auto": "0d69da30a2608d1c5fda8d6fb5ffae5102237c227a46b3b8b27ee5efddab256c",
    "order": "8b1580172bf8c4fc54d5b357f54c04c4e7f8bc2f28460f903a7ed173bb0cd699",
}


def test_d4_relations_witnesses_are_byte_stable(tmp_path, capsys):
    import hashlib

    path = tmp_path / "d4.json"
    assert main(["aut", "--group", "D4", "--emit-family", str(path)]) == 0
    capsys.readouterr()
    d = json.loads(path.read_text())
    assert d["alpha"][42][5] == ["1", "0"]
    d["alpha"][42][5] = ["2", "0"]
    path.write_text(canonical_json(d))
    got = {}
    for scheme in sorted(D4_DOUBLED_RELATIONS_SHA256):
        assert main(["relations", str(path), "--scheme", scheme, "--format", "json"]) == 1
        got[scheme] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == D4_DOUBLED_RELATIONS_SHA256


def _sparse_reference(m):
    """The sparse form by the definition: every entry formatted on its own,
    the (row, col, scalar) triples sorted."""
    cells = sorted((r, c, s) for c, col in enumerate(m.cols) for r, s in col.items())
    return {"shape": [m.target_dim, m.source_dim],
            "entries": [[r, c, *format_scalar(s)] for r, c, s in cells]}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_sparse_writer_formats_each_scalar_as_the_reference_does(backend):
    with use_backend(backend):
        one = scalar(1)
        cols = [{2: one, 0: scalar(-1), 5: scalar(Fraction(1, 3), 2)}, {}, {4: one, 1: one}]
        if backend == "float":
            # equal scalars whose texts differ: the signed zero is kept
            cols[1] = {3: CFloat(1.0, -0.0), 0: CFloat(1.0, 0.0), 2: CFloat(-0.0, 1.0)}
        m = LinearMap(3, 6, cols)
        assert matrix_to_sparse(m) == _sparse_reference(m)
        coproduct = function_algebra(named_group("S3")).coproduct.transpose()
        assert matrix_to_sparse(coproduct) == _sparse_reference(coproduct)
    if backend == "float":
        texts = {tuple(e[2:]) for e in matrix_to_sparse(m)["entries"]}
        assert {("1.0", "-0.0"), ("1.0", "0.0"), ("-0.0", "1.0")} <= texts


def _dense_reference(m):
    """The dense rows by the definition: each cell formatted on its own."""
    return [[list(format_scalar(m.cols[c][r])) if r in m.cols[c] else ["0", "0"]
             for c in range(m.source_dim)] for r in range(m.target_dim)]


def _assert_unshared(lists):
    """No two of ``lists`` are one list object, so a cell replaced by index
    changes nowhere else."""
    assert len({id(x) for x in lists}) == len(lists)


def _random_matrices(rng):
    """Seeded sparse matrices of the active backend, repeated scalars among
    their entries; in the float backend with signed zeros."""
    values = [scalar(1), scalar(-1), scalar(Fraction(1, 3), 2), scalar(0, Fraction(-5, 7))]
    if type(values[0]) is CFloat:
        values += [CFloat(1.0, -0.0), CFloat(1.0, 0.0), CFloat(-0.0, 1.0)]
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        yield LinearMap(cols, rows, [{r: rng.choice(values) for r in range(rows)
                                      if rng.random() < 0.3} for _ in range(cols)])


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_dense_writers_format_each_cell_as_the_reference_does(backend):
    rng = random.Random(7)
    with use_backend(backend):
        maps = list(_random_matrices(rng))
        maps += [build(named_group(name)).coproduct for name in ("S3", "D4", "Q8")
                 for build in (function_algebra, group_algebra)]
        for m in maps:
            rows, ref = matrix_to_dense(m), _dense_reference(m)
            assert rows == ref
            _assert_unshared(rows)
            _assert_unshared([cell for row in rows for cell in row])
            for c, col in enumerate(m.cols):
                cells = vector_to_list(col, m.target_dim)
                assert cells == [row[c] for row in ref]
                _assert_unshared(cells)
    if backend == "float":
        texts = {tuple(cell) for m in maps for row in matrix_to_dense(m) for cell in row}
        assert {("1.0", "-0.0"), ("1.0", "0.0"), ("-0.0", "1.0")} <= texts

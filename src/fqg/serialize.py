"""JSON file formats.

Rationals travel as strings ("3/4"); scalars as [re, im] string pairs.
Matrices are dense row-major lists of pairs, structure constants a sparse
sorted list of [i, j, k, re, im] rows.  Canonical dumps sort keys and use
compact separators so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json

from .algebra import BlockAlgebra, InvalidDataError, StarAlgebra
from .groups import FiniteGroup, group_from_table, named_group
from .hopf import QuantumGroup, solve_haar_element, solve_haar_state, verify_quantum_group
from .linalg import LinearMap
from .qfamily import HopfOnTarget, QuantumFamily
from .scalar import format_scalar, parse_scalar

_ZERO_PAIR = ("0", "0")


def _pair(s) -> list:
    return list(format_scalar(s))


def matrix_to_dense(m: LinearMap):
    rows = []
    for r in range(m.target_dim):
        row = []
        for c in range(m.source_dim):
            s = m.cols[c].get(r)
            row.append(list(_ZERO_PAIR) if s is None else _pair(s))
        rows.append(row)
    return rows


def matrix_from_dense(rows, source_dim=None, target_dim=None) -> LinearMap:
    try:
        parsed = [[parse_scalar(*cell) for cell in row] for row in rows]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError("bad matrix entry: %s" % exc)
    if not parsed:
        raise InvalidDataError("empty matrix")
    if target_dim is not None and len(parsed) != target_dim:
        raise InvalidDataError("matrix has %d rows, expected %d" % (len(parsed), target_dim))
    if source_dim is not None and any(len(r) != source_dim for r in parsed):
        raise InvalidDataError("matrix row length mismatch")
    return LinearMap.from_rows(parsed)


def vector_to_list(v: dict, dim: int):
    return [_pair(v[i]) if i in v else list(_ZERO_PAIR) for i in range(dim)]


def vector_from_list(lst, dim: int) -> dict:
    try:
        parsed = [parse_scalar(*cell) for cell in lst]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError("bad vector entry: %s" % exc)
    if len(parsed) != dim:
        raise InvalidDataError("vector has %d entries, expected %d" % (len(parsed), dim))
    return {i: s for i, s in enumerate(parsed) if not s.is_zero()}


def algebra_to_dict(a: StarAlgebra) -> dict:
    mult_rows = []
    for (i, j) in sorted(a.mult):
        for k in sorted(a.mult[(i, j)]):
            re, im = format_scalar(a.mult[(i, j)][k])
            mult_rows.append([i, j, k, re, im])
    d = {
        "dim": a.dim,
        "label": a.label,
        "mult": mult_rows,
        "unit": vector_to_list(a.unit, a.dim),
        "star": matrix_to_dense(a.star),
    }
    if isinstance(a, BlockAlgebra):
        d["blocks"] = list(a.blocks)
        d["trace_weights"] = [str(w) for w in a.trace_weights]
    return d


def algebra_from_dict(d: dict) -> StarAlgebra:
    try:
        if "blocks" in d and "mult" not in d:
            from fractions import Fraction

            weights = d.get("trace_weights")
            if weights is not None:
                weights = [Fraction(w) for w in weights]
            return BlockAlgebra(d["blocks"], weights, d.get("label", ""))
        dim = int(d["dim"])
        mult = {}
        for row in d["mult"]:
            i, j, k, re, im = row
            s = parse_scalar(re, im)
            if not s.is_zero():
                mult.setdefault((int(i), int(j)), {})[int(k)] = s
        unit = vector_from_list(d["unit"], dim)
        star = matrix_from_dense(d["star"], dim, dim)
        return StarAlgebra(dim, mult, unit, star, d.get("label", ""))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, InvalidDataError):
            raise
        raise InvalidDataError("malformed algebra: %s" % exc)


def quantum_group_to_dict(g: QuantumGroup) -> dict:
    d = algebra_to_dict(g.algebra)
    d["coproduct"] = matrix_to_dense(g.coproduct)
    d["counit"] = matrix_to_dense(g.counit)
    d["antipode"] = matrix_to_dense(g.antipode)
    d["haar_state"] = matrix_to_dense(g.haar_state)
    d["haar_element"] = vector_to_list(g.haar_element, g.dim)
    d["label"] = g.label
    return d


def quantum_group_from_dict(d: dict, verify: bool = True) -> QuantumGroup:
    algebra = algebra_from_dict(d)
    n = algebra.dim
    try:
        coproduct = matrix_from_dense(d["coproduct"], n, n * n)
        counit = matrix_from_dense(d["counit"], n, 1)
        antipode = matrix_from_dense(d["antipode"], n, n)
    except KeyError as exc:
        raise InvalidDataError("missing quantum-group field %s" % exc)
    if "haar_state" in d:
        haar = matrix_from_dense(d["haar_state"], n, 1)
    else:
        haar = solve_haar_state(algebra, coproduct)
    if "haar_element" in d:
        eta = vector_from_list(d["haar_element"], n)
    else:
        eta = solve_haar_element(algebra, counit)
    g = QuantumGroup(algebra, coproduct, counit, antipode, haar, eta,
                     d.get("label", ""))
    if verify:
        rep = verify_quantum_group(g)
        if not rep.passed:
            raise InvalidDataError(
                "quantum group fails verification: %s" % ", ".join(rep.failed_names()))
    return g


def group_to_dict(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(r) for r in g.table], "label": g.label}


def group_from_dict(d: dict) -> FiniteGroup:
    try:
        table = d["table"]
        if len(table) != int(d["order"]):
            raise InvalidDataError("declared order disagrees with the table")
        return group_from_table(table, d.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidDataError):
            raise
        raise InvalidDataError("malformed group table: %s" % exc)


def family_to_dict(qf: QuantumFamily) -> dict:
    d = {
        "label": qf.label,
        "source": quantum_group_to_dict(qf.source),
        "target": algebra_to_dict(qf.target_algebra),
        "alpha": matrix_to_dense(qf.alpha),
    }
    if qf.hopf_on_target is not None:
        d["hopf_on_B"] = {
            "coproduct": matrix_to_dense(qf.hopf_on_target.coproduct),
            "counit": matrix_to_dense(qf.hopf_on_target.counit),
        }
    return d


def _source_from_ref(ref, verify: bool) -> QuantumGroup:
    from .constructors import function_algebra, group_algebra

    if isinstance(ref, dict) and "group" in ref and "dim" not in ref:
        group = named_group(str(ref["group"]))
        kind = ref.get("kind", "fun")
        if kind == "fun":
            return function_algebra(group)
        if kind == "grp":
            return group_algebra(group)
        raise InvalidDataError("unknown source kind %r" % kind)
    if isinstance(ref, dict):
        return quantum_group_from_dict(ref, verify=verify)
    raise InvalidDataError("family source must be a quantum group or a catalog reference")


def family_from_dict(d: dict, verify: bool = True) -> QuantumFamily:
    try:
        source = _source_from_ref(d["source"], verify)
        target = algebra_from_dict(d["target"])
        n, m = source.dim, target.dim
        alpha = matrix_from_dense(d["alpha"], n, n * m)
        hopf = None
        if "hopf_on_B" in d:
            h = d["hopf_on_B"]
            hopf = HopfOnTarget(matrix_from_dense(h["coproduct"], m, m * m),
                                matrix_from_dense(h["counit"], m, 1))
        return QuantumFamily(source, target, alpha, hopf, d.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidDataError):
            raise
        raise InvalidDataError("malformed family: %s" % exc)


def dual_pair_to_dict(pair) -> dict:
    return {
        "primal_label": pair.primal.label,
        "dual": quantum_group_to_dict(pair.dual),
        "fourier": matrix_to_dense(pair.fourier),
        "fourier_dual": matrix_to_dense(pair.fourier_dual),
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidDataError("cannot read %s: %s" % (path, exc))

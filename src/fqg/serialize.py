"""JSON file formats.

Rationals travel as strings ("3/4"); scalars as [re, im] string pairs.
Structure constants are a sparse sorted list of [i, j, k, re, im] rows.  A
matrix is either dense, a row-major list of rows of pairs, or sparse,
``{"shape": [rows, cols], "entries": [[row, col, re, im], ...]}`` with the
entries sorted by (row, col) and zeros left out.  Writers write a matrix of
at most :data:`DENSE_UP_TO` cells dense and a larger one sparse; loaders
accept either form wherever a matrix goes.  Canonical dumps sort keys and
use compact separators so identical inputs serialize byte-identically.

Loading parses each distinct [re, im] string pair once per matrix, vector or
structure-constant table: a dumped coproduct or family map is mostly "0"
cells, and the parsed scalars are immutable, so equal cells share one.  A
dense matrix or vector is read in one walk over its cells: a ["0", "0"]
cell, the zero as the writers spell it, is passed over unparsed, and any
other cell is parsed, its value dropped if it is zero ("0/1", "-0", "0.0"
and the like).  The writers format each distinct scalar once per matrix,
vector or structure-constant table, and give every dense cell a list of its
own.  A sparse matrix is built from its entries and the dimensions its
algebras declare, never from its ``shape``, which only has to agree with
them.
Every input is bounded: exponents by ``scalar.MAX_EXPONENT``, group orders
and block-algebra dimensions by ``groups.MAX_GROUP_ORDER``, the entries of a
matrix written, or read in the sparse form, by :data:`MAX_ENTRIES`; a file
that is nested too deeply for the JSON decoder, is not UTF-8 or holds an
integer past Python's digit limit is refused as unreadable.  Each violation
raises :class:`InvalidDataError`.
"""

from __future__ import annotations

import json
from itertools import repeat
from operator import itemgetter

from .algebra import BlockAlgebra, InvalidDataError, StarAlgebra, exact_int
from .constructors import function_algebra, group_algebra
from .groups import FiniteGroup, group_from_table, named_group
from .hopf import QuantumGroup, solve_haar_element, solve_haar_state, verify_quantum_group
from .linalg import LinearMap
from .qfamily import HopfOnTarget, QuantumFamily
from .scalar import QQi, format_scalar, parse_scalar

# The zero cell as the writers write it; it is copied, never handed out.
_ZERO_CELL = ["0", "0"]

# Writers write a matrix of at most this many cells dense, a larger one sparse.
DENSE_UP_TO = 1 << 16

# Most entries a matrix may have in a file, as written or read: a sparse one
# lists its nonzero cells, a dense one all of them.  fun(Z2048)'s coproduct
# has 2048**2 nonzero cells.
MAX_ENTRIES = 1 << 22


def _cell_parser():
    """A parse function for [re, im] cells that parses each distinct string
    pair once; the memo lives as long as the returned function.  A cell that
    is not a two-element list of strings raises ``ValueError``."""
    memo = {}

    def parse(cell):
        if (type(cell) is not list or len(cell) != 2
                or type(cell[0]) is not str or type(cell[1]) is not str):
            raise ValueError("%.40r is not an [re, im] pair of strings" % (cell,))
        re, im = cell
        s = memo.get((re, im))
        if s is None:
            s = memo[re, im] = parse_scalar(re, im)
        return s

    return parse


def _nonzero_cells(cells, parse):
    """(index, scalar) of each cell of a dense row or vector whose value is
    not zero.  A ["0", "0"] cell is passed over by one list comparison, and
    every other cell goes through ``parse``."""
    zero = _ZERO_CELL
    for i, cell in enumerate(cells):
        if cell != zero:
            s = parse(cell)
            if not s.is_zero():
                yield i, s


def _scalar_texts():
    """A function giving the (re, im) texts of a scalar that formats each
    distinct scalar once; the memo lives as long as the returned function.
    A float is keyed by its text, as 0.0 and -0.0 are equal but print apart;
    :func:`matrix_to_sparse` keys its inlined memo the same way."""
    memo = {}

    def text(s):
        key = (s.re, s.im) if type(s) is QQi else format_scalar(s)
        t = memo.get(key)
        if t is None:
            t = memo[key] = format_scalar(s)
        return t

    return text


def check_entries(rows: int, cols: int, entries: int) -> None:
    """Refuse to write a rows x cols matrix of more than MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise InvalidDataError("a %d x %d matrix has %d entries, above the output limit %d"
                               % (rows, cols, entries, MAX_ENTRIES))


def matrix_to_dense(m: LinearMap):
    check_entries(m.target_dim, m.source_dim, m.target_dim * m.source_dim)
    text = _scalar_texts()
    rows = [list(map(list, repeat(_ZERO_CELL, m.source_dim))) for _ in range(m.target_dim)]
    for c, col in enumerate(m.cols):
        for r, s in col.items():
            rows[r][c] = list(text(s))
    return rows


def matrix_to_sparse(m: LinearMap) -> dict:
    check_entries(m.target_dim, m.source_dim, sum(map(len, m.cols)))
    # each distinct scalar is formatted once, keyed as _scalar_texts keys it
    # (a call per entry would cost this loop a sixth of its time)
    text = {}
    entries = []
    for c, col in enumerate(m.cols):
        for r, s in col.items():
            key = (s.re, s.im) if type(s) is QQi else format_scalar(s)
            entries.append([r, c, *(text.get(key) or text.setdefault(key, format_scalar(s)))])
    entries.sort(key=itemgetter(0))  # stable: each row stays in column order
    return {"shape": [m.target_dim, m.source_dim], "entries": entries}


def matrix_to_json(m: LinearMap):
    """The dense rows of ``m`` up to :data:`DENSE_UP_TO` cells, its sparse
    form above."""
    if m.target_dim * m.source_dim <= DENSE_UP_TO:
        return matrix_to_dense(m)
    return matrix_to_sparse(m)


def matrix_from_dense(rows, source_dim: int, target_dim: int) -> LinearMap:
    """The ``target_dim`` x ``source_dim`` matrix of dense rows.  Every cell
    is read before the shape is checked, so a bad cell is named first, then
    a wrong row count, then a row of the wrong length."""
    parse = _cell_parser()
    cols = [{} for _ in range(source_dim)]
    widths = []
    try:
        for r, row in enumerate(rows):
            for c, s in _nonzero_cells(row, parse):
                if c < source_dim:  # a longer row is refused below
                    cols[c][r] = s
            widths.append(len(row))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError("bad matrix entry: %s" % exc)
    if len(widths) != target_dim:
        raise InvalidDataError("matrix has %d rows, expected %d" % (len(widths), target_dim))
    if any(w != source_dim for w in widths):
        raise InvalidDataError("matrix row length mismatch")
    return LinearMap(source_dim, target_dim, cols)


def matrix_from_sparse(d: dict, source_dim: int, target_dim: int) -> LinearMap:
    """The ``target_dim`` x ``source_dim`` matrix of a sparse form whose
    ``shape`` states those dimensions; explicit zero entries are dropped."""
    shape = d.get("shape")
    if (type(shape) is not list or len(shape) != 2
            or any(type(x) is not int for x in shape)):
        raise InvalidDataError("sparse matrix shape %.40r is not [rows, cols]" % (shape,))
    if shape != [target_dim, source_dim]:
        raise InvalidDataError("sparse matrix shape %r, expected [%d, %d]"
                               % (shape, target_dim, source_dim))
    entries = d.get("entries")
    if type(entries) is not list:
        raise InvalidDataError("sparse matrix entries %.40r are not a list" % (entries,))
    if len(entries) > MAX_ENTRIES:
        raise InvalidDataError("a sparse matrix with %d entries is above the input limit %d"
                               % (len(entries), MAX_ENTRIES))
    parse = _cell_parser()
    cols = [{} for _ in range(source_dim)]
    last = -1
    try:
        for e in entries:
            if type(e) is not list or len(e) != 4:
                raise ValueError("%.40r is not a [row, col, re, im] entry" % (e,))
            r, c = e[0], e[1]
            if type(r) is not int or type(c) is not int:
                raise ValueError("indices of %.40r are not integers" % (e,))
            if not (0 <= r < target_dim and 0 <= c < source_dim):
                raise ValueError("(%d, %d) is out of range" % (r, c))
            at = r * source_dim + c
            if at <= last:
                raise ValueError("(%d, %d) is repeated or out of order" % (r, c))
            last = at
            cols[c][r] = parse(e[2:])  # LinearMap drops the zeros
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError("bad matrix entry: %s" % exc)
    return LinearMap(source_dim, target_dim, cols)


def matrix_from_json(obj, source_dim: int, target_dim: int) -> LinearMap:
    """A matrix in either file form: sparse if ``obj`` is a dict, else dense."""
    if isinstance(obj, dict):
        return matrix_from_sparse(obj, source_dim, target_dim)
    return matrix_from_dense(obj, source_dim, target_dim)


def vector_to_list(v: dict, dim: int):
    text = _scalar_texts()
    cells = list(map(list, repeat(_ZERO_CELL, dim)))
    for i, s in v.items():
        cells[i] = list(text(s))
    return cells


def vector_from_list(lst, dim: int) -> dict:
    try:
        v = dict(_nonzero_cells(lst, _cell_parser()))
        length = len(lst)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError("bad vector entry: %s" % exc)
    if length != dim:
        raise InvalidDataError("vector has %d entries, expected %d" % (length, dim))
    return v


def algebra_to_dict(a: StarAlgebra) -> dict:
    text = _scalar_texts()
    mult_rows = []
    for i, row in sorted(a.mult.items()):
        for j, terms in sorted(row.items()):
            # a one-term product, as every product of a group table, needs no sort
            for k, c in sorted(terms.items()) if len(terms) > 1 else terms.items():
                mult_rows.append([i, j, k, *text(c)])
    d = {
        "dim": a.dim,
        "label": a.label,
        "mult": mult_rows,
        "unit": vector_to_list(a.unit, a.dim),
        "star": matrix_to_json(a.star),
    }
    if isinstance(a, BlockAlgebra):
        d["blocks"] = list(a.blocks)
        d["trace_weights"] = [str(w) for w in a.trace_weights]
    return d


def _label(d: dict) -> str:
    """The optional ``label`` of a file object: a JSON string, "" when
    absent; anything else would reach a report as its subject."""
    label = d.get("label", "")
    if type(label) is not str:
        raise InvalidDataError("label %.40r must be a string" % (label,))
    return label


def algebra_from_dict(d: dict) -> StarAlgebra:
    if type(d) is not dict:
        raise InvalidDataError("an algebra must be a JSON object, not %.40r" % (d,))
    try:
        weights = d.get("trace_weights")
        # rationals travel as strings; BlockAlgebra would take a JSON number
        # by its binary value and a bool as 0 or 1
        if weights is not None and (type(weights) is not list
                                    or any(type(w) is not str for w in weights)):
            raise InvalidDataError("trace_weights %.40r must be a list of strings" % (weights,))
        if "blocks" in d and "mult" not in d:
            return BlockAlgebra(d["blocks"], weights, _label(d))
        dim = exact_int(d["dim"], "dim")
        if dim < 1:
            raise InvalidDataError("dim %d is not positive" % dim)
        mult = {}
        parse = _cell_parser()
        for row in d["mult"]:
            i, j, k, re, im = row
            terms = mult.setdefault(exact_int(i, "mult index"), {}).setdefault(
                exact_int(j, "mult index"), {})
            if exact_int(k, "mult index") in terms:
                raise InvalidDataError("mult states (i, j, k) = %r twice" % ((i, j, k),))
            terms[k] = parse([re, im])  # StarAlgebra drops the zeros
        unit = vector_from_list(d["unit"], dim)
        star = matrix_from_json(d["star"], dim, dim)
        return StarAlgebra(dim, mult, unit, star, _label(d))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, InvalidDataError):
            raise
        raise InvalidDataError("malformed algebra: %s" % exc)


def quantum_group_to_dict(g: QuantumGroup) -> dict:
    d = algebra_to_dict(g.algebra)
    d["coproduct"] = matrix_to_json(g.coproduct)
    d["counit"] = matrix_to_json(g.counit)
    d["antipode"] = matrix_to_json(g.antipode)
    d["haar_state"] = matrix_to_json(g.haar_state)
    d["haar_element"] = vector_to_list(g.haar_element, g.dim)
    d["label"] = g.label
    return d


def quantum_group_from_dict(d: dict, verify: bool = True) -> QuantumGroup:
    algebra = algebra_from_dict(d)
    n = algebra.dim
    try:
        coproduct = matrix_from_json(d["coproduct"], n, n * n)
        counit = matrix_from_json(d["counit"], n, 1)
        antipode = matrix_from_json(d["antipode"], n, n)
    except KeyError as exc:
        raise InvalidDataError("missing quantum-group field %s" % exc)
    if "haar_state" in d:
        haar = matrix_from_json(d["haar_state"], n, 1)
    else:
        haar = solve_haar_state(algebra, coproduct)
    if "haar_element" in d:
        eta = vector_from_list(d["haar_element"], n)
    else:
        eta = solve_haar_element(algebra, counit)
    g = QuantumGroup(algebra, coproduct, counit, antipode, haar, eta, _label(d))
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
        if len(table) != exact_int(d["order"], "order"):
            raise InvalidDataError("declared order disagrees with the table")
        return group_from_table(table, _label(d))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidDataError):
            raise
        raise InvalidDataError("malformed group table: %s" % exc)


def family_to_dict(qf: QuantumFamily) -> dict:
    d = {
        "label": qf.label,
        "source": quantum_group_to_dict(qf.source),
        "target": algebra_to_dict(qf.target_algebra),
        "alpha": matrix_to_json(qf.alpha),
    }
    if qf.hopf_on_target is not None:
        d["hopf_on_B"] = {
            "coproduct": matrix_to_json(qf.hopf_on_target.coproduct),
            "counit": matrix_to_json(qf.hopf_on_target.counit),
        }
    return d


def _source_from_ref(ref, verify: bool) -> QuantumGroup:
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
        alpha = matrix_from_json(d["alpha"], n, n * m)
        hopf = None
        if "hopf_on_B" in d:
            h = d["hopf_on_B"]
            hopf = HopfOnTarget(matrix_from_json(h["coproduct"], m, m * m),
                                matrix_from_json(h["counit"], m, 1))
        return QuantumFamily(source, target, alpha, hopf, _label(d))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidDataError):
            raise
        raise InvalidDataError("malformed family: %s" % exc)


def dual_pair_to_dict(pair) -> dict:
    return {
        "primal_label": pair.primal.label,
        "dual": quantum_group_to_dict(pair.dual),
        "fourier": matrix_to_json(pair.fourier),
        "fourier_dual": matrix_to_json(pair.fourier_dual),
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path: str):
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integers
    # past the interpreter's digit limit; RecursionError, nesting too deep
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidDataError("cannot read %s: %s" % (path, exc))

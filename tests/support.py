"""Helpers shared by the test modules: drawn perturbations of sparse tables,
sparse accumulation, a multiply_vec counter, the benchmark's group ladder
and a full bijection scan for automorphisms."""

import ast
from itertools import permutations
from pathlib import Path

from hypothesis import strategies as st

from fqg.algebra import StarAlgebra
from fqg.scalar import scalar

SCALINGS = {"double": scalar(2), "negate": scalar(-1), "rotate": scalar(0, 1)}


def perturbed(table, keys, dim, data):
    """A copy of ``{key: {index: c}}`` with one drawn entry scaled by 2, -1
    or i, zeroed, or moved to a drawn key and index below ``dim``, where it
    adds to what is there (so a product can become two-term)."""
    key, k = data.draw(st.sampled_from(sorted((key, k) for key in table for k in table[key])))
    change = data.draw(st.sampled_from(sorted(SCALINGS) + ["zero", "move"]))
    out = {key2: dict(terms) for key2, terms in table.items()}
    c = out[key].pop(k)
    if change in SCALINGS:
        out[key][k] = c * SCALINGS[change]
    elif change == "move":
        terms = out.setdefault(data.draw(st.sampled_from(keys)), {})
        k2 = data.draw(st.integers(0, dim - 1))
        terms[k2] = terms[k2] + c if k2 in terms else c
    return out


def accumulate(acc, key, c):
    acc[key] = acc.get(key, scalar(0)) + c


def nonzero(acc):
    return {k: c for k, c in acc.items() if not c.is_zero()}


def count_multiply_vec(monkeypatch):
    """A list that gains an entry at every StarAlgebra.multiply_vec call."""
    calls = []
    multiply_vec = StarAlgebra.multiply_vec

    def counted(self, u, v):
        calls.append(None)
        return multiply_vec(self, u, v)

    monkeypatch.setattr(StarAlgebra, "multiply_vec", counted)
    return calls


def benchmark_ladder_groups():
    """The group names of the ``hopf-ladder`` benchmark, read from its source
    without importing the harness."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LADDER"]:
            return [name for names in ast.literal_eval(node.value).values() for name in names]
    raise AssertionError("no LADDER in perfbench/workloads.py")


def automorphisms_by_full_scan(group):
    """Every bijection ψ with ψ(e) = e and ψ(ab) = ψ(a)ψ(b), sorted, found
    by testing each of the (|Γ| - 1)! bijections on the whole table."""
    n = group.order
    tbl = group.table
    e = group.identity
    rest = [x for x in range(n) if x != e]
    found = []
    for images in permutations(rest):
        psi = [e] * n
        for x, y in zip(rest, images):
            psi[x] = y
        if all(psi[tbl[a][b]] == tbl[psi[a]][psi[b]] for a in range(n) for b in range(n)):
            found.append(tuple(psi))
    return sorted(found)

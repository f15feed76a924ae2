"""Replay the witnesses of failing checks on seeded perturbations.

Each case changes one piece of catalog data (a coproduct, antipode, Haar or
counit entry, a structure constant, the involution, a family column or a
magic-matrix entry), runs the batteries that read it, and records every
failing check as ``[name, witness]`` in report order.  ``data/witnesses.json``
holds the recorded answers; the test recomputes them and compares.

Regenerate the fixture (only when a change of witnesses is intended) with

    PYTHONPATH=src python tests/test_witnesses.py
"""

import json
import random
from contextlib import contextmanager
from pathlib import Path

import fqg.constructors as constructors
from fqg.algebra import (BlockAlgebra, InvalidDataError, StarAlgebra,
                         verify_star_algebra)
from fqg.classical import (MagicMatrix, check_cyclic_identity,
                           check_dual_group_theorem, check_dualact_consequences,
                           check_magic_unitary, check_order_properties,
                           check_pointwise_relations, extract_matrix,
                           universal_classical_family)
from fqg.fourier import build_dual, verify_fourier_identities
from fqg.groups import named_group
from fqg.hopf import QuantumGroup, check_haar_antipode_identity, verify_quantum_group
from fqg.linalg import LinearMap
from fqg.qfamily import (HopfOnTarget, QuantumFamily, check_action,
                         check_convolution_preservation, check_family, hat,
                         verify_dual_equivalences)
from fqg.scalar import scalar, set_backend, use_backend

FIXTURE = Path(__file__).parent / "data" / "witnesses.json"

SEEDS = (1,)


# -- perturbations ---------------------------------------------------------------


def _changed_map(m: LinearMap, rng, how) -> LinearMap:
    """m with one stored entry doubled, zeroed, multiplied by i, or moved."""
    cols = [dict(c) for c in m.cols]
    j = rng.choice([j for j, c in enumerate(cols) if c])
    r = rng.choice(sorted(cols[j]))
    if how == "double":
        cols[j][r] = cols[j][r] * scalar(2)
    elif how == "zero":
        del cols[j][r]
    elif how == "imag":
        cols[j][r] = cols[j][r] * scalar(0, 1)
    else:  # swap the entry with another row of the same column
        r2 = rng.randrange(m.target_dim)
        cols[j][r], v = cols[j].get(r2, scalar(0)), cols[j][r]
        cols[j][r2] = v
    return LinearMap(m.source_dim, m.target_dim, cols)


def _changed_vec(v: dict, rng) -> dict:
    out = dict(v)
    k = rng.choice(sorted(out))
    out[k] = out[k] * scalar(2)
    return out


def _changed_algebra(a: StarAlgebra, rng, part) -> StarAlgebra:
    mult, unit, star = dict(a.mult), a.unit, a.star
    if part == "mult-moved":
        i, j = rng.choice(sorted((i, j) for i, row in mult.items() for j in row))
        terms = dict(mult[i][j])
        k = rng.choice(sorted(terms))
        terms[(k + 1) % a.dim] = terms.pop(k)
        mult[i] = mult[i] | {j: terms}
    elif part == "unit":
        unit = _changed_vec(unit, rng)
    else:
        star = _changed_map(star, rng, "imag" if part == "star-imag" else "double")
    return StarAlgebra(a.dim, mult, unit, star, a.label)


def _changed_group(g: QuantumGroup, rng, part) -> QuantumGroup:
    parts = {"algebra": g.algebra, "coproduct": g.coproduct, "counit": g.counit,
             "antipode": g.antipode, "haar_state": g.haar_state,
             "haar_element": g.haar_element}
    name, _, how = part.partition("-")
    if name in ("mult", "unit", "star"):
        parts["algebra"] = _changed_algebra(g.algebra, rng, part)
    elif name == "eta":
        parts["haar_element"] = _changed_vec(g.haar_element, rng)
    else:
        parts[name] = _changed_map(parts[name], rng, how or "double")
    return QuantumGroup(label="%s/%s" % (g.label, part), **parts)


def _quantum_group(name, kind):
    group = named_group(name)
    if kind == "fun":
        return constructors.function_algebra(group)
    return constructors.group_algebra(group)


# -- running the batteries ------------------------------------------------------------


def _failures(run):
    """[[name, witness], ...] for the failing checks (and for passing ones
    that carry a witness, as the duality equivalences do), or the error raised."""
    try:
        reports = run()
    except (InvalidDataError, ValueError, ZeroDivisionError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    return [[c.name, c.to_dict()["witness"]] for r in reports for c in r.checks
            if not c.passed or c.witness]


def _names(run):
    try:
        reports = run()
    except (InvalidDataError, ValueError, ZeroDivisionError):
        return None
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    return [c.name for r in reports for c in r.checks]


def _fourier(g):
    return verify_fourier_identities(build_dual(g, verify=False))


def _quantum_group_runs(g):
    return [("verify_quantum_group", lambda: verify_quantum_group(g)),
            ("haar_antipode_identity", lambda: check_haar_antipode_identity(g)),
            ("fourier", lambda: _fourier(g))]


def _family_runs(qf):
    runs = [("check_family", lambda: check_family(qf)),
            ("conv_preservation", lambda: check_convolution_preservation(qf)),
            ("dual_equivalences", lambda: verify_dual_equivalences(qf))]
    if qf.hopf_on_target is not None:
        runs.append(("check_action", lambda: check_action(qf)))
    return runs


def _matrix_runs(matrix):
    runs = [("pointwise", lambda: check_pointwise_relations(matrix)),
            ("magic", lambda: check_magic_unitary(matrix)),
            ("dualact", lambda: check_dualact_consequences(matrix)),
            ("order", lambda: check_order_properties(matrix))]
    group = matrix.group
    if any(group.element_order(x) == group.order for x in range(group.order)):
        runs.append(("cyclic", lambda: check_cyclic_identity(matrix)))
    return runs


@contextmanager
def _constructors_returning(fun, grp):
    """Make check_fundamental_examples and pontryagin_character_check build
    on the given (possibly perturbed) quantum groups, with unverified duals."""
    saved = (constructors.function_algebra, constructors.group_algebra,
             constructors.dual_pair)
    constructors.function_algebra = lambda group: fun
    constructors.group_algebra = lambda group: grp
    constructors.dual_pair = lambda g: build_dual(g, verify=False)
    try:
        yield
    finally:
        (constructors.function_algebra, constructors.group_algebra,
         constructors.dual_pair) = saved


# -- the cases ----------------------------------------------------------------------

QG_CASES = (("S3", "fun"), ("S3", "grp"), ("Q8", "grp"))
QG_PARTS = ("coproduct-double", "antipode-double", "antipode-swap", "haar_state-double",
            "eta", "counit-double", "counit-imag", "mult-moved", "unit",
            "star-double", "star-imag")


def _cases_quantum_groups():
    for name, kind in QG_CASES:
        base = _quantum_group(name, kind)
        for part in QG_PARTS:
            rng = random.Random("%s-%s-%s" % (name, kind, part))
            g = _changed_group(base, rng, part)
            yield "qg/%s-%s/%s" % (kind, name, part), _quantum_group_runs(g)


def _cases_block_algebras():
    for blocks in ([1, 2], [2, 1, 1]):
        for seed in SEEDS:
            rng = random.Random(seed)
            a = BlockAlgebra(blocks)
            trace = [dict(c) for c in a.trace.cols]
            j = rng.choice([j for j, c in enumerate(trace) if c])
            trace[j] = {0: -trace[j][0]}
            k = rng.choice([k for k, c in enumerate(trace) if not c])
            trace[k] = {0: scalar(1)}
            a.trace = LinearMap(a.dim, 1, trace)
            yield ("block/%s/%d/trace" % (blocks, seed),
                   [("verify_star_algebra", lambda a=a: verify_star_algebra(a))])
            b = BlockAlgebra(blocks)
            b.mult = _changed_algebra(b, rng, "mult-moved").mult
            yield ("block/%s/%d/mult" % (blocks, seed),
                   [("verify_star_algebra", lambda b=b: verify_star_algebra(b))])


FUNDAMENTAL_PARTS = (("fun", "coproduct-double"), ("fun", "antipode-swap"),
                     ("fun", "haar_state-double"), ("grp", "mult-moved"),
                     ("grp", "antipode-double"), ("grp", "star-double"),
                     ("grp", "coproduct-double"), ("grp", "haar_state-double"))


def _cases_fundamental():
    for name in ("S3", "Z4"):
        group = named_group(name)
        for which, part in FUNDAMENTAL_PARTS:
            rng = random.Random("%s-%s-%s" % (name, which, part))
            fun, grp = _quantum_group(name, "fun"), _quantum_group(name, "grp")
            if which == "fun":
                fun = _changed_group(fun, rng, part)
            else:
                grp = _changed_group(grp, rng, part)

            def run(group=group, fun=fun, grp=grp):
                with _constructors_returning(fun, grp):
                    return constructors.check_fundamental_examples(group)
            yield "fundamental/%s/%s-%s" % (name, which, part), [("fundamental", run)]


def _cases_characters():
    for n in (3, 4):
        for part in ("mult-moved", "star-double"):
            def run(n=n, part=part):
                with use_backend("float"):
                    grp = _quantum_group("Z%d" % n, "grp")
                    fun = _quantum_group("Z%d" % n, "fun")
                    grp = _changed_group(grp, random.Random("%d-%s" % (n, part)), part)
                    with _constructors_returning(fun, grp):
                        return constructors.pontryagin_character_check(n)
            yield "characters/Z%d/%s" % (n, part), [("characters", run)]


FAMILY_GROUPS = ("Z5", "S3", "D4")


def _changed_family(qf, rng, how, label):
    alpha = _changed_map(qf.alpha, rng, how)
    return QuantumFamily(qf.source, qf.target_algebra, alpha, qf.hopf_on_target, label)


def _cases_families():
    for name in FAMILY_GROUPS:
        base = universal_classical_family(named_group(name))
        for how in ("double", "zero", "swap", "imag"):
            for seed in SEEDS:
                rng = random.Random(seed)
                qf = _changed_family(base, rng, how, "%s/%s/%d" % (name, how, seed))
                yield "family/%s/%s/%d" % (name, how, seed), _family_runs(qf)


def _changed_entries(entries, rng, how, identity=0):
    """Entries with one of them doubled, multiplied by i, zeroed or swapped
    with another; "border" zeroes the entry at (identity, identity)."""
    p = [list(row) for row in entries]
    n = len(p)
    live = [(x, y) for x in range(n) for y in range(n) if p[x][y]]
    x, y = rng.choice(live)
    if how == "border":
        p[identity][identity] = {}
    elif how in ("double", "imag"):
        c = scalar(2) if how == "double" else scalar(0, 1)
        p[x][y] = {k: c * v for k, v in p[x][y].items()}
    elif how == "zero":
        p[x][y] = {}
    else:
        x2, y2 = rng.randrange(n), rng.randrange(n)
        p[x][y], p[x2][y2] = p[x2][y2], p[x][y]
    return p


def _noncommutative_matrix(group, rng):
    """A magic unitary over M_2 with two 2x2 blocks built from the
    noncommuting projections P = e_00 and Q = (1/2)[[1, 1], [1, 1]]."""
    target = BlockAlgebra([2])
    half = scalar(1) / scalar(2)
    one = scalar(1)
    unit = dict(target.unit)
    proj_p, comp_p = {0: one}, {3: one}
    proj_q = {0: half, 1: half, 2: half, 3: half}
    comp_q = {0: half, 1: -half, 2: -half, 3: half}
    n = group.order
    p = [[dict(unit) if x == y else {} for y in range(n)] for x in range(n)]
    a, b, c, d = rng.sample([x for x in range(n) if x != group.identity], 4)
    for (u, v), (pr, co) in (((a, b), (proj_p, comp_p)), ((c, d), (proj_q, comp_q))):
        p[u][u], p[v][v], p[u][v], p[v][u] = pr, pr, co, co
    return MagicMatrix(group, target, p)


def _cases_matrices():
    for name in ("Z5", "S3", "D4"):
        group = named_group(name)
        base = extract_matrix(universal_classical_family(group))
        for how in ("double", "zero", "swap", "imag", "border"):
            for seed in SEEDS:
                rng = random.Random(seed)
                p = _changed_entries(base.entries, rng, how, group.identity)
                m = MagicMatrix(group, base.target, p)
                yield "matrix/%s/%s/%d" % (name, how, seed), _matrix_runs(m)
        for seed in SEEDS:
            rng = random.Random(seed)
            m = _noncommutative_matrix(group, rng)
            yield "matrix/%s/noncommutative/%d" % (name, seed), _matrix_runs(m)
            m = MagicMatrix(group, m.target, _changed_entries(m.entries, rng, "swap"))
            yield "matrix/%s/noncommutative-swap/%d" % (name, seed), _matrix_runs(m)


def _cases_dual_group():
    for name in ("Z4", "S3"):
        base = hat(universal_classical_family(named_group(name)))
        for how in ("double", "zero", "swap", "imag"):
            for seed in SEEDS:
                rng = random.Random(seed)
                qf = _changed_family(base, rng, how, "hat/%s/%s/%d" % (name, how, seed))
                yield ("dual-group/%s/%s/%d" % (name, how, seed),
                       [("dual_group_theorem", lambda qf=qf: check_dual_group_theorem(qf)),
                        ("check_family", lambda qf=qf: check_family(qf))])
        for part in ("coproduct", "counit"):
            rng = random.Random(name + part)
            hopf = base.hopf_on_target
            changed = _changed_map(getattr(hopf, part), rng, "double")
            hopf = HopfOnTarget(changed, hopf.counit) if part == "coproduct" else \
                HopfOnTarget(hopf.coproduct, changed)
            qf = QuantumFamily(base.source, base.target_algebra, base.alpha, hopf,
                               "hat/%s/%s" % (name, part))
            yield ("dual-group/%s/hopf-%s" % (name, part),
                   [("dual_group_theorem", lambda qf=qf: check_dual_group_theorem(qf))])


def all_cases():
    yield from _cases_quantum_groups()
    yield from _cases_block_algebras()
    yield from _cases_fundamental()
    yield from _cases_characters()
    yield from _cases_families()
    yield from _cases_matrices()
    yield from _cases_dual_group()


def collect():
    """{"cases": {case: {run: failures}}, "names": {run: [check names]}}."""
    set_backend("exact", 1e-9)
    cases, names = {}, {}
    for case, runs in all_cases():
        out = {}
        for tag, run in runs:
            failures = _failures(run)
            if failures:
                out[tag] = failures
            if tag not in names:
                names[tag] = _names(run)
        cases[case] = out
    return {"cases": cases, "names": names}


def _dump(data) -> str:
    """One line per case, so a changed witness shows as a one-line diff."""
    def line(key, value):
        return "%s: %s" % (json.dumps(key), json.dumps(value, separators=(",", ":")))
    cases = ",\n".join("  " + line(k, v) for k, v in data["cases"].items())
    names = ",\n".join("  " + line(k, v) for k, v in data["names"].items())
    return '{"cases": {\n%s\n},\n"names": {\n%s\n}}\n' % (cases, names)


def test_witnesses_replay():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = json.loads(_dump(collect()))
    assert got["names"] == expected["names"]
    assert list(got["cases"]) == list(expected["cases"])
    for case, runs in expected["cases"].items():
        assert got["cases"][case] == runs, case


if __name__ == "__main__":
    FIXTURE.write_text(_dump(collect()), encoding="utf-8")

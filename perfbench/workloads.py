"""The three benchmark workloads.

Each ``prepare_*`` function makes the seeded inputs (and, for family-files,
the files on disk) and returns a *pass*: a callable that runs every item of
the workload once and returns one :class:`Item` per verdict request.  An
item's ``seconds`` come from the ``measure`` given to ``prepare_*``: its CPU
time in reference seconds (``meter.Meter.measure``), or in plain seconds
(``meter.measure_cpu``) in the traced run.  Every
pass starts from cold caches.  fqg is always reached through module
attributes at call time, so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import os
import random
from typing import NamedTuple

import fqg
import fqg.cli
import fqg.groups
import fqg.hopf
import fqg.selftest
import fqg.serialize

from tracer import fqg_modules, lru_of

# ``fqg.scalar`` names the function that the package re-exports, not the module
scalar_module = importlib.import_module("fqg.scalar")


class Item(NamedTuple):
    id: str
    seconds: float
    ok: bool
    detail: str


# -- cold caches ---------------------------------------------------------------


class Caches:
    """Every LRU memo in fqg (``backend_cached`` constructors, ``named_group``,
    ``_enumerate_cached``), found once before any wrapper is installed.

    Per-object ``_cache`` dicts need no clearing: clearing these drops every
    object that carries one.  ``misses`` adds up the LRU misses of a pass;
    equal totals in pass 1 and pass N show that no memo leaked between them.
    """

    def __init__(self):
        found = {}
        for mod in fqg_modules(fqg):
            for obj in vars(mod).values():
                lru = lru_of(obj) if callable(obj) else None
                if lru is not None and (getattr(obj, "__module__", None) or "").startswith("fqg"):
                    found[id(lru)] = lru
        self.lrus = list(found.values())
        self.misses = 0

    def clear(self):
        for lru in self.lrus:
            self.misses += lru.cache_info().misses
            lru.cache_clear()

    def take_misses(self) -> int:
        self.clear()
        out, self.misses = self.misses, 0
        return out


def _exact_backend():
    fqg.set_backend("exact", 1e-9)


# -- selftest ------------------------------------------------------------------


def prepare_selftest(seed, workdir, expected, caches, measure):
    """``run_selftest()`` from cold caches; an item is one suite.

    Every ``prepare_*`` returns the pass and, for family-files, the fqg
    subcommand of each item.

    The seed changes nothing: the battery has no inputs besides the catalog.
    """
    exp = expected["selftest"]
    aut_ok = dict(fqg.selftest.AUT_ORDERS) == exp["aut_orders"]

    def one_pass():
        caches.clear()
        _exact_backend()
        # run_selftest times each suite by wall clock; time them by
        # ``measure`` by swapping in timed copies of its suite list
        spent = {}
        suites = fqg.selftest.SUITES

        def timed(fn):
            def suite():
                rep, seconds = measure(fn)
                spent[id(rep)] = seconds
                return rep
            return suite

        fqg.selftest.SUITES = tuple(timed(fn) for fn in suites)
        try:
            reports = fqg.selftest.run_selftest()
        finally:
            fqg.selftest.SUITES = suites
        items = []
        for rep in reports:
            names = [c.name for c in rep.checks]
            ok = rep.passed and names == exp["suites"].get(rep.subject)
            detail = "" if ok else "failed: %s" % rep.failed_names()
            if rep.subject == "automorphism-counts" and not aut_ok:
                ok, detail = False, "AUT_ORDERS disagrees with group theory"
            items.append(Item(rep.subject, spent[id(rep)], ok, detail))
        missing = set(exp["suites"]) - {r.subject for r in reports}
        for subject in sorted(missing):
            items.append(Item(subject, 0.0, False, "suite missing"))
        return items

    return one_pass, {}


# -- hopf-ladder ---------------------------------------------------------------

# Groups per rung, built only with cyclic, dihedral, symmetric(4) and
# direct_product.  One rung member is drawn per seed; members of one rung
# cost the same to within run-to-run noise.
LADDER = {
    12: ("Z12", "D6", "Z2xZ6", "Z2xD3"),
    24: ("Z24", "D12", "S4", "Z2xZ12", "Z3xD4", "Z4xD3"),
    48: ("Z48", "D24", "Z2xS4", "Z2xZ24", "Z4xD6", "Z3xD8"),
}
NEGATIVE_POOL = ("Z16", "D8", "Z2xZ8", "Z4xZ4", "Z2xD4")


def _quantum_group(spec, kind):
    group = fqg.groups.named_group(spec)
    if kind == "fun":
        return group, fqg.constructors.function_algebra(group)
    return group, fqg.constructors.group_algebra(group)


def _mutant(qg, group, change, kind, g):
    """A copy of qg with one antipode or coproduct entry doubled (see
    expected.json for why each one must fail, and where)."""
    LinearMap = fqg.linalg.LinearMap
    n = qg.dim
    two = scalar_module.scalar(2)
    anti, delta = qg.antipode, qg.coproduct
    if change == "antipode":
        cols = [dict(c) for c in anti.cols]
        cols[g] = {r: c * two for r, c in cols[g].items()}
        anti = LinearMap(n, n, cols)
    else:
        cols = [dict(c) for c in delta.cols]
        # fun: the term d_e (x) d_g of Delta(d_g); grp: l_g (x) l_g
        row = group.identity * n + g if kind == "fun" else g * n + g
        cols[g][row] = cols[g][row] * two
        delta = LinearMap(n, n * n, cols)
    return fqg.hopf.QuantumGroup(qg.algebra, delta, qg.counit, anti, qg.haar_state,
                                 qg.haar_element, "%s-%s" % (qg.label, change))


def ladder_draw(seed):
    """The seeded item list: every rung as fun and grp, then four negatives."""
    rng = random.Random(seed)
    items = []
    for order, pool in LADDER.items():
        spec = rng.choice(pool)
        for kind in ("fun", "grp"):
            items.append(("positive", spec, kind, None, None))
    for change in ("antipode", "coproduct"):
        for kind in ("fun", "grp"):
            spec = rng.choice(NEGATIVE_POOL)
            items.append(("negative", spec, kind, change, rng.randrange(1 << 30)))
    return items


def prepare_hopf_ladder(seed, workdir, expected, caches, measure):
    exp = expected["hopf-ladder"]
    draw = ladder_draw(seed)

    def positive(spec, kind):
        _group, qg = _quantum_group(spec, kind)
        got = {"verify_star_algebra": fqg.algebra.verify_star_algebra(qg.algebra).passed,
               "verify_quantum_group": fqg.hopf.verify_quantum_group(qg).passed}
        pair = fqg.fourier.dual_pair(qg)
        got["dual_pair"] = pair.dual.dim == qg.dim
        got["verify_fourier_identities"] = fqg.fourier.verify_fourier_identities(pair).passed
        got["check_iteration_lemma"] = fqg.fourier.check_iteration_lemma(pair).passed
        return got == exp["positive"], got

    def negative(spec, kind, change, pick):
        group, qg = _quantum_group(spec, kind)
        g = [x for x in range(group.order) if x != group.identity][pick % (group.order - 1)]
        bad = _mutant(qg, group, change, kind, g)
        star_ok = fqg.algebra.verify_star_algebra(bad.algebra).passed
        failed = fqg.hopf.verify_quantum_group(bad).failed_names()
        first = failed[0] if failed else None
        want = exp["negative"][change][kind]
        return star_ok and first == want, {"star": star_ok, "first_failure": first}

    def one_pass():
        items = []
        for what, spec, kind, change, g in draw:
            caches.clear()
            _exact_backend()
            label = "%s-%s" % (kind, spec) if what == "positive" else \
                "neg-%s-%s-%s" % (change, kind, spec)

            def verdict():
                try:
                    if what == "positive":
                        return positive(spec, kind)
                    return negative(spec, kind, change, g)
                except Exception as exc:  # a raised verdict is a failed item
                    return False, "raised %r" % exc

            (ok, got), seconds = measure(verdict)
            items.append(Item(label, seconds, ok, "" if ok else "got %s" % (got,)))
        return items

    return one_pass, {}


# -- family-files --------------------------------------------------------------

# The group of build/verify/dual is fixed: the Haar re-solve and dual of the
# order-24 groups differ by a third, so a seeded choice among them would make
# the item times depend on the seed more than on fqg.  The seed places the
# corruptions.
FAMILY_GROUP = "S4"


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))


def make_family_inputs(seed, workdir):
    """Write the seeded corrupted and malformed files; return the command list
    as (id, argv) pairs.  Files produced by earlier commands of the pass
    (g.json, d4.json, dd.json, s3.json) are rewritten by every pass."""
    rng = random.Random(seed)
    name = FAMILY_GROUP
    group = fqg.groups.named_group(name)
    n = group.order
    base = fqg.serialize.quantum_group_to_dict(fqg.constructors.function_algebra(group))
    e = group.identity
    g = rng.choice([x for x in range(n) if x != e])

    def path(fname):
        return os.path.join(workdir, fname)

    d = copy.deepcopy(base)
    d["antipode"][group.inv(g)][g] = ["2", "0"]
    _write_json(path("antipode.json"), d)

    d = copy.deepcopy(base)
    d["coproduct"][e * n + g][g] = ["2", "0"]
    _write_json(path("coproduct.json"), d)

    text = json.dumps(base, sort_keys=True, separators=(",", ":"))
    cut = rng.randrange(len(text) // 4, 3 * len(text) // 4)
    with open(path("truncated.json"), "w", encoding="utf-8") as fh:
        fh.write(text[:cut])

    d = copy.deepcopy(base)
    del d["antipode"][rng.randrange(n)]
    _write_json(path("short.json"), d)

    d = copy.deepcopy(base)
    del d["haar_state"], d["haar_element"]
    _write_json(path("nohaar.json"), d)

    d = copy.deepcopy(base)
    d["haar_element"][rng.randrange(n)] = ["nan", "0"]
    _write_json(path("nan.json"), d)

    fam = fqg.serialize.family_to_dict(
        fqg.classical.universal_classical_family(fqg.groups.named_group("D4")))
    y = rng.randrange(len(fam["alpha"][0]))
    rows = [r for r, row in enumerate(fam["alpha"]) if row[y] != ["0", "0"]]
    fam["alpha"][rng.choice(rows)][y] = ["2", "0"]
    _write_json(path("alpha.json"), fam)

    j = "--format", "json"
    return [
        ("build", ["build", "--group", name, "--kind", "fun", *j, "-o", path("g.json")]),
        ("verify", ["verify", path("g.json")]),
        ("dual", ["dual", path("g.json"), *j, "-o", path("gd.json")]),
        ("verify-float", ["--backend", "float", "verify", path("g.json")]),
        ("aut-emit-family", ["aut", "--group", "D4", *j, "--emit-family", path("d4.json")]),
        ("check-family-all", ["check-family", path("d4.json"), "--all"]),
        ("relations-auto", ["relations", path("d4.json"), "--scheme", "auto"]),
        ("relations-order", ["relations", path("d4.json"), "--scheme", "order"]),
        ("relations-cyclic", ["relations", path("d4.json"), "--scheme", "cyclic"]),
        ("relations-dual", ["relations", path("d4.json"), "--scheme", "dual"]),
        ("compose", ["compose", path("d4.json"), path("d4.json"), *j, "-o", path("dd.json")]),
        ("check-family-composed", ["check-family", path("dd.json")]),
        ("verify-antipode-changed", ["verify", path("antipode.json")]),
        ("verify-coproduct-changed", ["verify", path("coproduct.json")]),
        ("dual-antipode-changed", ["dual", path("antipode.json")]),
        ("verify-truncated", ["verify", path("truncated.json")]),
        ("verify-antipode-short", ["verify", path("short.json")]),
        ("verify-haar-stripped", ["verify", path("nohaar.json")]),
        ("check-family-alpha-changed", ["check-family", path("alpha.json")]),
        ("readme-build", ["build", "--group", "S3", "--kind", "fun", "-o", path("s3.json")]),
        ("readme-verify", ["verify", path("s3.json")]),
        ("verify-nan-haar", ["verify", path("nan.json")]),
    ]


def run_cli(argv):
    """fqg.cli.main in process; returns (exit code or 'raised ...', stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = fqg.cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the CLI contract allows no traceback
        rc = "raised %s" % type(exc).__name__
    return rc, out.getvalue()


def prepare_family_files(seed, workdir, expected, caches, measure):
    exp = expected["family-files"]
    commands = make_family_inputs(seed, workdir)

    def one_pass():
        items = []
        for cid, argv in commands:
            caches.clear()  # each fqg command is a fresh process for its user
            _exact_backend()
            (rc, out), seconds = measure(lambda: run_cli(argv))
            ok = rc == exp["exit_codes"][cid]
            detail = "" if ok else "exit %s, expected %s" % (rc, exp["exit_codes"][cid])
            if ok and cid == "aut-emit-family":
                order = json.loads(out.splitlines()[0]).get("order")
                ok = order == exp["aut_order"]["D4"]
                detail = "" if ok else "Aut(D4) order %s" % order
            items.append(Item(cid, seconds, ok, detail))
        return items

    return one_pass, {cid: command_of(argv) for cid, argv in commands}


PREPARE = {
    "selftest": prepare_selftest,
    "hopf-ladder": prepare_hopf_ladder,
    "family-files": prepare_family_files,
}


CLI_COMMANDS = ("build", "dual", "verify", "check-family", "aut", "relations", "compose")


def command_of(argv) -> str:
    """The fqg subcommand named in an argument list."""
    return next(a for a in argv if a in CLI_COMMANDS)

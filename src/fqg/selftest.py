"""The embedded acceptance battery.

Runs the whole verification program over the built-in group catalog with no
external files: Hopf axioms, Fourier identities, fundamental examples,
automorphism counts, universal families, family duality, the equivalence
lemma in both truth values, composition, the classical relation systems,
cyclic groups, and the dual-group proof chain.
"""

from __future__ import annotations

import time
from itertools import product

from .classical import (check_cyclic_identity, check_dual_group_theorem,
                        check_dualact_consequences, check_magic_unitary,
                        check_order_properties, check_pointwise_relations,
                        enumerate_automorphisms, enumerate_automorphisms_brute,
                        extract_matrix, universal_classical_family)
from .constructors import (check_fundamental_examples, function_algebra,
                           group_algebra, pontryagin_character_check)
from .fixtures import (broken_adjoint_family, counit_degenerate_family,
                       sign_twisted_dual_family, translation_family,
                       trivial_hopf_target)
from .fourier import check_iteration_lemma, dual_pair, verify_fourier_identities
from .groups import CATALOG, named_group
from .hopf import check_haar_antipode_identity, verify_quantum_group
from .linalg import LinearMap
from .qfamily import (check_action, compose, double_hat_formula_matches, hat, identity_family,
                      is_automorphism_family, slice_commutative, verify_dual_equivalences)
from .report import Check, Report, first_failure
from .scalar import backend_cached, scalar, use_backend

AUT_ORDERS = {"Z2": 1, "Z3": 2, "Z4": 2, "Z5": 4, "Z6": 2, "Z7": 6, "Z8": 4,
              "K4": 6, "S3": 6, "S4": 24, "D4": 8, "Q8": 24}

ORDER_SWEEP_NAMES = ("Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "K4", "S3", "D4", "Q8")


def catalog_quantum_group(name: str, kind: str):
    group = named_group(name)
    return function_algebra(group) if kind == "fun" else group_algebra(group)


@backend_cached
def family_catalog():
    """Positive and negative family fixtures for the duality suites."""
    fams = [
        ("identity-fun-Z3", identity_family(catalog_quantum_group("Z3", "fun")), True),
        ("identity-grp-Z4", identity_family(catalog_quantum_group("Z4", "grp")), True),
        ("universal-Z3", universal_classical_family(named_group("Z3")), True),
        ("universal-Z5", universal_classical_family(named_group("Z5")), True),
        ("universal-S3", universal_classical_family(named_group("S3")), True),
        ("universal-D4", universal_classical_family(named_group("D4")), True),
        ("hat-universal-Z4", hat(universal_classical_family(named_group("Z4"))), True),
        ("counit-degenerate", counit_degenerate_family(catalog_quantum_group("Z2", "fun")), False),
        ("broken-adjoint", broken_adjoint_family(catalog_quantum_group("Z2", "fun")), False),
        ("translation-S3", translation_family(named_group("S3")), False),
    ]
    return tuple(fams)


def _collect(name, condition, witness=()):
    return Check(name, bool(condition), () if condition else tuple(witness) or (name,))


def suite_hopf_axioms() -> Report:
    checks = []
    for name in CATALOG:
        for kind in ("fun", "grp"):
            qg = catalog_quantum_group(name, kind)
            rep = verify_quantum_group(qg)
            checks.append(_collect("%s-%s-axioms" % (kind, name), rep.passed,
                                   rep.failed_names()))
    return Report("hopf-axioms", checks)


def suite_fourier_identities() -> Report:
    checks = []
    for name in CATALOG:
        for kind in ("fun", "grp"):
            qg = catalog_quantum_group(name, kind)
            pair = dual_pair(qg)
            rep = verify_fourier_identities(pair)
            checks.append(_collect("%s-%s-fourier" % (kind, name), rep.passed,
                                   rep.failed_names()))
            rep = check_haar_antipode_identity(qg)
            checks.append(_collect("%s-%s-haar-antipode" % (kind, name), rep.passed))
            rep = check_iteration_lemma(pair)
            checks.append(_collect("%s-%s-iteration" % (kind, name), rep.passed,
                                   rep.failed_names()))
    return Report("fourier-identities", checks)


def suite_fundamental_examples() -> Report:
    checks = []
    for name in CATALOG:
        rep = check_fundamental_examples(named_group(name))
        checks.append(_collect("fundamental-%s" % name, rep.passed, rep.failed_names()))
    return Report("fundamental-examples", checks)


def suite_automorphism_counts() -> Report:
    checks = []
    for name, expected in AUT_ORDERS.items():
        group = named_group(name)
        auts = enumerate_automorphisms(group)
        checks.append(_collect("count-%s" % name, len(auts) == expected,
                               (len(auts), expected)))
        if group.order <= 8:
            brute = enumerate_automorphisms_brute(group)
            checks.append(_collect("brute-agrees-%s" % name, brute == auts))
    return Report("automorphism-counts", checks)


def suite_universal_families() -> Report:
    checks = []
    one = scalar(1)
    for name in CATALOG:
        group = named_group(name)
        fam = universal_classical_family(group)
        ok, rep = is_automorphism_family(fam)
        checks.append(_collect("%s-automorphism-family" % name, ok, rep.failed_names()))
        checks.append(_collect("%s-action" % name, check_action(fam).passed))
        matrix = extract_matrix(fam)
        checks.append(_collect("%s-magic-unitary" % name,
                               check_magic_unitary(matrix).passed))
        checks.append(_collect("%s-dualact" % name,
                               check_dualact_consequences(matrix).passed))
        checks.append(_collect("%s-order-props" % name,
                               check_order_properties(matrix).passed))
        slices = slice_commutative(fam)
        auts = enumerate_automorphisms(group)
        mats = [LinearMap(group.order, group.order,
                          [{psi[y]: one} for y in range(group.order)])
                for psi in auts]
        agree = len(slices) == len(mats) and all(s == m for s, m in zip(slices, mats))
        checks.append(_collect("%s-slices-recover-aut" % name, agree))
    return Report("universal-families", checks)


def suite_family_duality() -> Report:
    checks = []
    for label, fam, _expected in family_catalog():
        hat(fam)  # both closed formulas agree or this raises
        checks.append(_collect("%s-hat-formulas" % label, True))
        checks.append(_collect("%s-double-hat" % label,
                               double_hat_formula_matches(fam)))
        mine, _ = is_automorphism_family(fam, deep=False)
        dual, _ = is_automorphism_family(hat(fam), deep=False)
        checks.append(_collect("%s-dual-iff" % label, mine == dual, (mine, dual)))
    return Report("family-duality", checks)


def suite_dual_equivalences() -> Report:
    checks = []
    seen = {"item1_multiplicative": set(), "item2_star": set(), "item3_unital": set()}
    for label, fam, _expected in family_catalog():
        rep = verify_dual_equivalences(fam)
        checks.append(_collect("%s-equivalences" % label, rep.passed,
                               rep.failed_names()))
        for item in seen:
            seen[item].add(rep.check(item).witness[0])
    for item, values in seen.items():
        checks.append(_collect("%s-both-truth-values" % item, values == {True, False},
                               tuple(sorted(values))))
    return Report("dual-equivalences", checks)


def suite_composition() -> Report:
    checks = []
    one = scalar(1)
    for name in ("Z5", "S3"):
        group = named_group(name)
        fam = universal_classical_family(group)
        comp = compose(fam, fam)
        ok, rep = is_automorphism_family(comp)
        checks.append(_collect("compose-%s-automorphism" % name, ok, rep.failed_names()))
        auts = enumerate_automorphisms(group)
        k, n = len(auts), group.order
        slices = slice_commutative(comp)

        def composed(ij):  # the slice at (φ, χ) is the permutation matrix of φ∘χ
            phi, chi = auts[ij[0]], auts[ij[1]]
            return slices[ij[0] * k + ij[1]] == LinearMap(
                n, n, [{phi[chi[y]]: one} for y in range(n)])
        table_ok = first_failure(product(range(k), repeat=2), composed) is None
        checks.append(_collect("compose-%s-multiplication-table" % name, table_ok))
    return Report("composition", checks)


def suite_classical_relations() -> Report:
    checks = []
    tfam = translation_family(named_group("S3"))
    rep = check_pointwise_relations(extract_matrix(tfam))
    conv = rep.check("conv_hom_relation")
    checks.append(_collect("translation-S3-conv-fails",
                           not conv.passed and len(conv.witness) > 0))
    checks.append(_collect("translation-S3-pointwise-holds",
                           rep.check("entries_self_adjoint").passed
                           and rep.check("entries_idempotent").passed
                           and rep.check("row_sums_one").passed))
    for name in ORDER_SWEEP_NAMES:
        matrix = extract_matrix(universal_classical_family(named_group(name)))
        rep = check_pointwise_relations(matrix)
        checks.append(_collect("%s-pointwise" % name, rep.passed, rep.failed_names()))
        rep = check_order_properties(matrix)
        checks.append(_collect("%s-order" % name, rep.passed, rep.failed_names()))
    z6 = named_group("Z6")
    matrix = extract_matrix(universal_classical_family(z6))
    mismatch_zero = True
    for x in range(6):
        for y in range(6):
            if z6.element_order(x) != z6.element_order(y) and matrix.entries[x][y]:
                mismatch_zero = False
    checks.append(_collect("Z6-order-mismatch-zero", mismatch_zero))
    return Report("classical-relations", checks)


def suite_cyclic_groups() -> Report:
    checks = []
    for name in ("Z4", "Z6", "Z8", "Z9"):
        matrix = extract_matrix(universal_classical_family(named_group(name)))
        rep = check_cyclic_identity(matrix)
        checks.append(_collect("cyclic-%s" % name, rep.passed, rep.failed_names()))
    return Report("cyclic-groups", checks)


def suite_dual_group_actions() -> Report:
    checks = []
    for name in ("S3", "Z4"):
        fam = hat(universal_classical_family(named_group(name)))
        rep = check_dual_group_theorem(fam)
        checks.append(_collect("dual-theorem-%s" % name, rep.passed, rep.failed_names()))
    idf = identity_family(catalog_quantum_group("Z4", "grp"),
                          hopf_on_target=trivial_hopf_target())
    rep = check_dual_group_theorem(idf)
    checks.append(_collect("dual-theorem-identity-Z4", rep.passed, rep.failed_names()))
    neg = sign_twisted_dual_family()
    rep = check_dual_group_theorem(neg)
    fails = rep.failed_names()
    checks.append(_collect("dual-theorem-negative-early-stage",
                           bool(fails) and fails[0] == "entries_idempotent",
                           tuple(fails[:3])))
    return Report("dual-group-actions", checks)


def suite_character_duality() -> Report:
    with use_backend("float"):
        checks = []
        for n in (3, 4, 5, 6):
            rep = pontryagin_character_check(n)
            checks.append(_collect("characters-Z%d" % n, rep.passed, rep.failed_names()))
        return Report("character-duality", checks, backend="float")


SUITES = (
    suite_hopf_axioms,
    suite_fourier_identities,
    suite_fundamental_examples,
    suite_automorphism_counts,
    suite_universal_families,
    suite_family_duality,
    suite_dual_equivalences,
    suite_composition,
    suite_classical_relations,
    suite_cyclic_groups,
    suite_dual_group_actions,
    suite_character_duality,
)


def _timed(fn):
    start = time.perf_counter()
    rep = fn()
    rep.elapsed = time.perf_counter() - start
    return rep


def run_selftest():
    """Run every suite; returns the list of Reports in a fixed order."""
    return [_timed(fn) for fn in SUITES]


def selftest_to_dict(reports) -> dict:
    return {
        "pass": all(r.passed for r in reports),
        "suites": [r.to_dict() for r in reports],
    }

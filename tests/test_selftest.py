import sys
from pathlib import Path

import pytest

import fqg.algebra
from fqg.algebra import StarAlgebra, verify_star_algebra
from fqg.constructors import quantum_group_data_equal
from fqg.fourier import dual_pair
from fqg.groups import CATALOG
from fqg.hopf import (QuantumGroup, dual_algebra, dual_coproduct, solve_haar_element,
                      solve_haar_state, verify_quantum_group)
from fqg.linalg import vec_eq
from fqg.selftest import catalog_quantum_group, run_selftest, selftest_to_dict
from fqg.serialize import canonical_json

# `fqg selftest --format json`; the canonical output must not change
GOLDEN = Path(__file__).parent / "data" / "selftest.json"


def test_solvers_agree_with_stored_data_across_catalog():
    for name in CATALOG:
        for kind in ("fun", "grp"):
            for qg in (catalog_quantum_group(name, kind),
                       dual_pair(catalog_quantum_group(name, kind)).dual):
                assert solve_haar_state(qg.algebra, qg.coproduct) == qg.haar_state, (name, kind)
                eta = solve_haar_element(qg.algebra, qg.counit)
                assert vec_eq(eta, qg.haar_element), (name, kind)


def test_double_dual_across_catalog():
    for name in CATALOG:
        for kind in ("fun", "grp"):
            qg = catalog_quantum_group(name, kind)
            pair = dual_pair(qg)
            pair2 = dual_pair(pair.dual)
            assert quantum_group_data_equal(pair2.dual, qg), (name, kind)
            assert pair2.fourier == pair.fourier_dual


@pytest.mark.parametrize("kind", ["fun", "grp"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_transposing_twice_gives_back_the_algebra(name, kind):
    # what build_dual records as the dual's dual algebra, computed instead
    g = catalog_quantum_group(name, kind)
    d = dual_pair(g).dual
    fresh = QuantumGroup(d.algebra, d.coproduct, d.counit, d.antipode, d.haar_state,
                         d.haar_element, d.label)
    twice = dual_algebra(fresh)
    assert twice is not g.algebra
    assert twice.mult == g.algebra.mult
    assert vec_eq(twice.unit, g.algebra.unit) and twice.star == g.algebra.star
    assert dual_coproduct(fresh) == g.coproduct


def test_selftest_all_suites_pass():
    reports = run_selftest()
    assert all(r.passed for r in reports), [r.subject for r in reports
                                            if not r.passed]
    d = selftest_to_dict(reports)
    assert d["pass"] is True
    assert len(d["suites"]) == 12
    assert canonical_json(d) == GOLDEN.read_text(encoding="utf-8")


def test_backend_isolation_of_cached_constructors():
    from fqg.constructors import function_algebra
    from fqg.groups import named_group
    from fqg.hopf import verify_quantum_group
    from fqg.scalar import CFloat, QQi, use_backend

    g = named_group("Z3")
    exact_before = function_algebra(g)
    assert type(next(iter(exact_before.algebra.unit.values()))) is QQi
    with use_backend("float"):
        fl = function_algebra(g)
        assert type(next(iter(fl.algebra.unit.values()))) is CFloat
    assert function_algebra(g) is exact_before
    # float results are memoised per tolerance, not per backend name alone
    with use_backend("float", 1e-3):
        loose = function_algebra(g)
        assert "tol=0.001" in verify_quantum_group(loose).table()
    with use_backend("float", 1e-12):
        tight = function_algebra(g)
        assert tight is not loose
        assert "tol=1e-12" in verify_quantum_group(tight).table()
    with use_backend("float", 1e-3):
        assert function_algebra(g) is loose


def test_memoised_verdicts_follow_the_backend_setting():
    from fqg.classical import universal_classical_family
    from fqg.constructors import function_algebra
    from fqg.groups import named_group
    from fqg.hopf import QuantumGroup, verify_quantum_group
    from fqg.linalg import LinearMap
    from fqg.qfamily import is_automorphism_family
    from fqg.scalar import CFloat, use_backend

    # (a) a float verdict on exact data never answers for the exact backend:
    # under float the exact table meets float scalars, and comparing scalars
    # of the two backends raises, so no verdict is made or memoised
    g = function_algebra(named_group("Z3"))
    with use_backend("float"):
        with pytest.raises(TypeError, match="other backend"):
            verify_quantum_group(g)
    exact = verify_quantum_group(g)
    assert exact.passed and exact.backend == "exact"

    # (b) a verdict at a loose tolerance never answers for a tight one
    with use_backend("float", 1e-3):
        fl = function_algebra(named_group("Z3"))
        haar = LinearMap(3, 1, [{0: fl.haar_state.cols[i][0] + CFloat(d)}
                                for i, d in enumerate((1e-6, -1e-6, 0.0))])
        perturbed = QuantumGroup(fl.algebra, fl.coproduct, fl.counit, fl.antipode,
                                 haar, fl.haar_element, fl.label)
        assert verify_quantum_group(perturbed).passed
    with use_backend("float", 1e-12):
        tight = verify_quantum_group(perturbed)
        assert not tight.check("haar_invariance").passed and tight.tol == 1e-12
    with use_backend("float", 1e-3):
        assert verify_quantum_group(perturbed).passed

    # (c) a default argument and the same value passed by keyword share one entry
    qf = universal_classical_family(named_group("Z3"))
    assert is_automorphism_family(qf) is is_automorphism_family(qf, deep=True)
    assert is_automorphism_family(qf, deep=False) is not is_automorphism_family(qf)


def _clear_memos():
    """Empty every LRU memo in fqg (the per-object memos go with the objects
    those held), so the next run starts from cold caches."""
    for name, module in list(sys.modules.items()):
        if name == "fqg" or name.startswith("fqg."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def record_associativity_decisions(monkeypatch):
    """Every algebra whose associativity is decided from now on, in order:
    a call of ``_is_associative`` that its memo does not answer.  Each
    algebra seen is kept alive, so no id is reused."""
    original = fqg.algebra._is_associative
    raw = original.__wrapped__
    decided = []

    def recorded(algebra):
        if not any(key[0] is raw for key in algebra._cache):
            decided.append(algebra)
        return original(algebra)

    for name, module in list(sys.modules.items()):
        if name.startswith("fqg.") and getattr(module, "_is_associative", None) is original:
            monkeypatch.setattr(module, "_is_associative", recorded)
    return decided


def test_selftest_decides_each_associativity_once(monkeypatch):
    """No algebra reaches the associativity certificate twice in one cold run."""
    decided = record_associativity_decisions(monkeypatch)
    _clear_memos()
    assert all(r.passed for r in run_selftest())
    assert decided
    assert len({id(algebra) for algebra in decided}) == len(decided)


@pytest.mark.parametrize("kind", ["fun", "grp"])
@pytest.mark.parametrize("name", ["Z6", "S3", "Q8"])
def test_one_positive_item_decides_associativity_twice(name, kind, monkeypatch):
    """A star algebra, its quantum group and its dual pair, from cold
    memos: the algebra and the dual algebra are decided once each."""
    qg = catalog_quantum_group(name, kind)
    a = qg.algebra
    algebra = StarAlgebra(a.dim, a.mult, a.unit, a.star, a.label)
    g = QuantumGroup(algebra, qg.coproduct, qg.counit, qg.antipode, qg.haar_state,
                     qg.haar_element, qg.label)
    decided = record_associativity_decisions(monkeypatch)
    assert verify_star_algebra(algebra).passed
    assert verify_quantum_group(g).passed
    pair = dual_pair(g)
    assert [id(x) for x in decided] == [id(algebra), id(pair.dual.algebra)]

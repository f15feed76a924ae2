import os
from pathlib import Path

from fqg.constructors import quantum_group_data_equal
from fqg.fourier import dual_pair
from fqg.groups import CATALOG
from fqg.hopf import solve_haar_element, solve_haar_state
from fqg.linalg import vec_eq
from fqg.selftest import catalog_quantum_group, run_selftest, selftest_to_dict
from fqg.serialize import canonical_json

# `fqg selftest --format json`; the canonical output must not change
GOLDEN = Path(__file__).parent / "data" / "selftest.json"


def test_solvers_agree_with_stored_data_across_catalog():
    for name in CATALOG:
        for kind in ("fun", "grp"):
            qg = catalog_quantum_group(name, kind)
            solve_haar_state(qg.algebra, qg.coproduct, stored=qg.haar_state)
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


def test_selftest_all_suites_pass():
    reports = run_selftest()
    assert all(r.passed for r in reports), [r.subject for r in reports
                                            if not r.passed]
    d = selftest_to_dict(reports)
    assert d["pass"] is True
    assert len(d["suites"]) == 12
    assert canonical_json(d) == GOLDEN.read_text(encoding="utf-8")


def test_thread_pool_matches_sequential_run():
    sequential = selftest_to_dict(run_selftest())
    old = os.environ.get("FQG_THREADS")
    os.environ["FQG_THREADS"] = "3"
    try:
        threaded = selftest_to_dict(run_selftest())
    finally:
        if old is None:
            del os.environ["FQG_THREADS"]
        else:
            os.environ["FQG_THREADS"] = old
    assert threaded == sequential


def test_backend_isolation_of_cached_constructors():
    from fqg.constructors import function_algebra
    from fqg.groups import named_group
    from fqg.scalar import CFloat, QQi, use_backend

    g = named_group("Z3")
    exact_before = function_algebra(g)
    assert type(next(iter(exact_before.algebra.unit.values()))) is QQi
    with use_backend("float"):
        fl = function_algebra(g)
        assert type(next(iter(fl.algebra.unit.values()))) is CFloat
    assert function_algebra(g) is exact_before

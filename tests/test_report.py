from fqg.report import first_failure, sweep


def test_first_failure_returns_first_failing_index_in_order():
    assert first_failure([(0, 1), (2, 3), (4, 5)], lambda ij: ij[0] < 2) == (2, 3)
    assert first_failure([5, 3, 7, 1], lambda i: i > 4) == (3,)  # scalar index as 1-tuple


def test_first_failure_none_when_every_index_passes():
    assert first_failure(range(10), lambda i: True) is None
    assert first_failure([], lambda i: False) is None


def test_first_failure_stops_consuming_a_lazy_iterator():
    seen = []

    def indices():
        for i in range(100):
            seen.append(i)
            yield i

    assert first_failure(indices(), lambda i: i != 3) == (3,)
    assert seen == [0, 1, 2, 3]


def test_sweep_builds_the_check():
    ok = sweep("all_small", range(4), lambda i: i < 10)
    assert ok.passed and ok.witness == ()
    bad = sweep("all_small", ((i, i) for i in range(20)), lambda ij: ij[0] < 10)
    assert not bad.passed and bad.witness == (10, 10)

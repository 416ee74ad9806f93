import pytest

from same_answers import compare

# a report's judged numbers (distance, values) and a rounding-floor field (gap)
BASE = '{"distance": 0.5, "gap": 1e-14, "values": [1e-17, 2.0]}'


@pytest.mark.parametrize("new, kind, max_rel, max_abs", [
    (BASE, "identical", 0.0, 0.0),
    # 2e-13 relative on the distance, 2e-15 absolute on a value near 0, and the
    # floor field tripled: within the bounds
    ('{"distance": 0.5000000000001, "gap": 3e-14, "values": [2.01e-15, 2.0]}',
     "within", 2e-13, 2e-15),
    # 2e-7 relative on the distance
    ('{"distance": 0.5000001, "gap": 1e-14, "values": [1e-17, 2.0]}', "different", 2e-7, 0.0),
], ids=["identical", "within", "different"])
def test_same_answers_comparison_rule(new, kind, max_rel, max_abs):
    verdict = compare(BASE, new)
    assert verdict.kind == kind
    assert verdict.max_rel == pytest.approx(max_rel, rel=1e-3)
    assert verdict.max_abs == pytest.approx(max_abs, rel=1e-3)
    assert [place for place, _, _ in verdict.floor] == [".gap"]  # listed, never judged


def test_same_answers_lists_a_removed_key_and_judges_the_rest():
    # a key on one side only is listed, and the numbers beside it are still judged
    verdict = compare('{"config": {"K": 8, "eps_pd": 1e-8}, "distance": 1.0}',
                      '{"config": {"K": 8}, "distance": 1.5}')
    assert verdict.kind == "different"
    assert [(place, repr(a), repr(b)) for place, a, b in verdict.changes] == [
        (".config.eps_pd", "1e-08", "<absent>"), (".distance", "1.0", "1.5")]

"""The ten shipped acceptance checks, one pass/fail line each."""

import pytest

from carleman import acceptance

RUNTIME_CAPS = {1: 1.0, 2: 1.0, 3: 1.0, 4: 30.0, 5: 5.0, 6: 10.0,
                7: 60.0, 8: 10.0, 9: 10.0, 10: 5.0}


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number, capsys):
    [result] = acceptance.run_all([number])
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.detail
    assert result.elapsed < RUNTIME_CAPS[number], \
        f"criterion {number} took {result.elapsed:.2f} s"


def test_run_all_subset_order():
    results = acceptance.run_all([3, 1])
    assert [r.number for r in results] == [3, 1]
    text = acceptance.format_results(results)
    assert "2/2 criteria passed" in text
    with pytest.raises(ValueError):
        acceptance.run_all([11])

"""Every demo script runs to completion against the package in ``src`` and
prints the bytes pinned in ``tests/golden/outputs.json``."""

import pytest

from test_golden_outputs import DEMOS, _golden, run_demo


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stdout == _golden()["demos"][demo.name]

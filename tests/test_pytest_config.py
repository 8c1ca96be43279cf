"""The suite's own pytest configuration.

``filterwarnings = error`` must not turn a failing Hypothesis test into
an INTERNALERROR: the explain phase imports libcst, whose import warns
through ``mypy_extensions``.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_stays_small(value):
    assert value < 5
"""


def test_failing_given_test_is_reported_by_name(pytester):
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    path = pytester.makepyfile(test_failing_given=FAILING_GIVEN_TEST)
    # A fresh interpreter: the libcst import warns only once per process.
    result = pytester.runpytest_subprocess(str(path), "-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1)
    assert "test_stays_small" in output

"""The test suite's own settings: a failing property test is reported as a
failure, and the tests after it still run, under the suite's warning
filters (every warning an error, apart from one message of the Hypothesis
plugin)."""

pytest_plugins = ["pytester"]

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_property_fails(x):
    assert x < 0

def test_after_it_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(pytester, request):
    filters = request.config.getini("filterwarnings")
    assert "error" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(FAILING_THEN_PASSING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()

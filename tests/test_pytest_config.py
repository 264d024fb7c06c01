"""The test configuration: a failing property test must still report its
falsifying example under the repository's warning filters."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_example(pytester):
    pytester.makepyfile(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(x): assert False\n"
    )
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])

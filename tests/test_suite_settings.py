"""The suite's own pytest settings keep a failing property test readable."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_test_is_reported_and_the_next_test_runs(pytester):
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    pytester.makepyfile("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_runs_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["FAILED *::test_fails*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")

"""The repository's pytest configuration reports test failures cleanly."""


def test_a_failing_property_test_is_one_failure_under_the_warning_filters(pytester, pytestconfig):
    # every warning is an error, but Hypothesis touches a deprecated name
    # while it reports a failing example; that must not end the run in an
    # INTERNALERROR
    filters = "\n    ".join(pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n    {filters}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()

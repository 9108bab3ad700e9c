import pytest

import _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _report.LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _report.LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def bounds_only_in_range(monkeypatch):
    """Fail the test if the search's int64 bounds are evaluated at a width
    over MAX_SEARCH_WIDTH, where evaluating them costs time and memory that
    grow with n."""
    import sboxtraj.search as search_mod

    bounds = search_mod._int64_bounds

    def checked(n):
        if n > search_mod.MAX_SEARCH_WIDTH:
            raise AssertionError(f"int64 bounds evaluated at n={n}")
        return bounds(n)

    monkeypatch.setattr(search_mod, "_int64_bounds", checked)

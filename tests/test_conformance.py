"""The conformance matrix (tests/conformance.py): every cell."""

import pytest

from tests.conformance import ROWS, RUNNERS, TOOLS, skip_reason


@pytest.fixture(scope="module", autouse=True)
def _idle_daemon(matrix):
    """Later modules read the served cells from the session's table;
    the daemon need not run behind them."""
    yield
    matrix.stop_daemon()
    matrix.traces.clear()


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("column", RUNNERS)
def test_cell(matrix, column, row):
    row = matrix.row(row)
    tools = [tool for tool in TOOLS if not skip_reason(row, tool, column)]
    if not tools:
        pytest.skip(skip_reason(row, TOOLS[0], column))
    failures = matrix.failures(row, column, tools)
    assert not failures, "\n".join(failures)


def test_only_the_in_process_check_reports_an_infeasible_trace(matrix):
    """ROADMAP item 2 decides whether every entry point checks
    feasibility.  Until then only the in-process check prints the
    warning; the engine and ``repro watch`` stay silent."""
    from tests.conformance import _cli

    path = matrix.row("infeasible").path
    warned = {
        name: "trace is not feasible" in _cli(*argv)[2]
        for name, argv in (
            ("check", ("check", path, "--json")),
            ("shards=1", ("check", path, "--json", "--shards", "1")),
            ("shards=2", ("check", path, "--json", "--shards", "2")),
            ("watch", ("watch", path, "--format", "text")),
        )
    }
    assert warned == {
        "check": True, "shards=1": False, "shards=2": False, "watch": False,
    }

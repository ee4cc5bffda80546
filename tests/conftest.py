"""Shared fixtures."""

import pytest


@pytest.fixture(scope="session")
def matrix(tmp_path_factory):
    """The conformance matrix (tests/conformance.py): each (row, column)
    runs once per session, whichever test asks for it first."""
    from tests.conformance import Matrix

    table = Matrix(tmp_path_factory.mktemp("conformance"))
    yield table
    table.close()

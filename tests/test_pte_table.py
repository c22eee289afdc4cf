"""The PTE table is a literal, and it is still verified before any use."""

import pytest

from ehrhart import pte
from ehrhart.errors import UnverifiedSolution


@pytest.fixture
def fresh_table():
    pte._table.cache_clear()
    yield
    pte._table.cache_clear()


@pytest.mark.parametrize("size, entry", [
    (2, ((1, 2), (2, 0))),  # power sums differ
    (3, ((1, 2), (3, 0))),  # a size-2 pair under key 3
])
def test_a_bad_table_entry_refuses_the_whole_table(monkeypatch, fresh_table, size, entry):
    monkeypatch.setitem(pte._ENTRIES, size, entry)
    with pytest.raises(UnverifiedSolution):
        pte.table_lookup(4)
    monkeypatch.undo()
    pte._table.cache_clear()
    assert pte.table_lookup(size).size == size

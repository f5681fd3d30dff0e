"""Shared fixtures."""

import pytest


@pytest.fixture
def forget():
    """forget(f, ...) empties the stores of ``combinat.memo_rows`` and
    ``combinat.rolled`` functions for the rest of one test; a rolled
    sequence keeps its term 0.  Each store is put back as it was when the
    test ends, so values built meanwhile (perhaps from a corrupted input)
    do not outlive it."""
    saved = []

    def forget(*functions):
        for f in functions:
            if hasattr(f, "memo"):
                cleared = [(f.memo, {})]
            else:
                cleared = [(f.terms, {0: f.terms[0]}), (f.cursor, {})]
            for store, kept in cleared:
                saved.append((store, dict(store)))
                store.clear()
                store.update(kept)

    yield forget
    for store, snapshot in reversed(saved):
        store.clear()
        store.update(snapshot)

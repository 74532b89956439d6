"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

from apolarium import apolar


@pytest.fixture
def no_library_work(monkeypatch):
    """Fail on any elimination, operator application or streamed column in
    ``apolar``: a guard that refuses before these calls refuses before any
    work."""
    def boom(*args, **kwargs):
        raise AssertionError("library work started before the size guard")
    for name in ("sparse_rank", "sparse_kernel", "_greedy", "apply",
                 "_divisor_columns"):
        monkeypatch.setattr(apolar, name, boom)
    return monkeypatch


@pytest.fixture
def partials_builds(monkeypatch):
    """The orders (lo, hi) of each partials stream that ``apolar`` starts
    with ``_divisor_columns``, in call order."""
    calls = []
    stream = apolar._divisor_columns

    def spy(packing, lo, hi):
        calls.append((lo, hi))
        return stream(packing, lo, hi)
    monkeypatch.setattr(apolar, "_divisor_columns", spy)
    return calls

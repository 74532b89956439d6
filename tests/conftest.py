"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

from apolarium import apolar


@pytest.fixture
def no_library_work(monkeypatch):
    """Fail on any elimination or operator application in ``apolar``: a
    guard that refuses before these calls refuses before any work."""
    def boom(*args, **kwargs):
        raise AssertionError("library work started before the size guard")
    for name in ("sparse_rank", "sparse_kernel", "independent_rows", "apply"):
        monkeypatch.setattr(apolar, name, boom)
    return monkeypatch

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


@pytest.fixture
def partials_builds(monkeypatch):
    """The k argument of every ``apolar._divisor_blocks`` call, in order:
    None for a full partials matrix, k for its order-k block."""
    calls = []
    build = apolar._divisor_blocks

    def spy(f, k=None, **kwargs):
        calls.append(k)
        return build(f, k, **kwargs)
    monkeypatch.setattr(apolar, "_divisor_blocks", spy)
    return calls

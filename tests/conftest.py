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
    for name in ("sparse_rank", "sparse_kernel", "independent_rows", "apply",
                 "_divisor_columns"):
        monkeypatch.setattr(apolar, name, boom)
    return monkeypatch


@pytest.fixture
def partials_builds(monkeypatch):
    """One entry per partials build in ``apolar``, in order: None for each
    ``_divisor_blocks`` call, m for each stream of order-m columns from
    ``_divisor_columns``."""
    calls = []
    build, stream = apolar._divisor_blocks, apolar._divisor_columns

    def spy_build(f, upto=None):
        calls.append(None)
        return build(f, upto)

    def spy_stream(packing, m):
        calls.append(m)
        return stream(packing, m)
    monkeypatch.setattr(apolar, "_divisor_blocks", spy_build)
    monkeypatch.setattr(apolar, "_divisor_columns", spy_stream)
    return calls

"""Resource guards shared by the library and the CLI.

Limits keep the exact-arithmetic computations at desk scale.  The limits in
force are one ``Limits`` held in a context variable: ``limits(**overrides)``
sets them for a block, and with none set ``current()`` reads the defaults,
whose entry guard the APOLARIUM_MAX_ENTRIES environment variable overrides;
the ``Limits`` of the last string read is reused while the variable keeps it.
The CLI sets them once per command from its flags.  Every guarded function
checks its predicted size against ``current()`` before the work starts,
but one: a partials stream of one order (``apolar._divisor_columns``)
checks the cells of each term before it builds them.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, NamedTuple, Optional

DEFAULT_MAX_TERMS = 10 ** 6
DEFAULT_MAX_ENTRIES = 10 ** 7
DEFAULT_MAX_DEGREE = 24


class LimitExceeded(RuntimeError):
    """A computation would exceed a configured resource limit."""


class Limits(NamedTuple):
    max_terms: int = DEFAULT_MAX_TERMS
    max_entries: int = DEFAULT_MAX_ENTRIES
    max_degree: int = DEFAULT_MAX_DEGREE

    @classmethod
    def from_env(cls) -> "Limits":
        return _limits_for(os.environ.get("APOLARIUM_MAX_ENTRIES"))


@functools.lru_cache(maxsize=1)
def _limits_for(env: Optional[str]) -> Limits:
    """The defaults, with max_entries set by the APOLARIUM_MAX_ENTRIES
    string `env` unless it is None."""
    return Limits() if env is None else Limits(max_entries=int(env))


_CURRENT: ContextVar[Optional[Limits]] = ContextVar("apolarium_limits",
                                                    default=None)


def current() -> Limits:
    """The limits set by the innermost ``limits`` block, or, outside every
    block, the defaults and the environment as they are now."""
    lim = _CURRENT.get()
    return lim if lim is not None else Limits.from_env()


@contextmanager
def limits(**overrides: int) -> Iterator[Limits]:
    """Run a block under ``current()`` with the given fields replaced; the
    previous limits come back on exit, also when the block raises."""
    token = _CURRENT.set(current()._replace(**overrides))
    try:
        yield _CURRENT.get()
    finally:
        _CURRENT.reset(token)


def check_entries(count: int) -> None:
    cap = current().max_entries
    if count > cap:
        raise LimitExceeded(f"entry count {count} exceeds limit {cap}")


def check_terms(count: int, what: str = "term count") -> None:
    """Refuse `count` past max_terms; `what` names the count in the
    message."""
    cap = current().max_terms
    if count > cap:
        raise LimitExceeded(f"{what} {count} exceeds limit {cap}")


def check_degree(d: int) -> None:
    cap = current().max_degree
    if d > cap:
        raise LimitExceeded(f"degree {d} exceeds limit {cap}")

"""The scalars every module takes from outside input: rationals, made
Fractions by ``rat``, and ints, checked by ``as_int``; and the lists of a
parsed document, checked by ``as_list``.

Kept apart from ``exact`` so that a module that builds polynomials or
tensors but never eliminates does not compile the elimination engine.
No floats, ever.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction


def rat(x) -> Rat:
    """Coerce ints, strings like '3/4', or Fractions to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; use Fraction or 'p/q' strings")
    return Fraction(x)


def as_list(x, what: str) -> list:
    """x itself if it is a list or a tuple; a string, a dict or any other
    value where a document holds a list is of the wrong type, refused, not
    iterated."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"{what} {x!r} is not a list")
    return x


def as_int(x, what: str) -> int:
    """x itself if it is an int; a bool, float or string is refused, not
    truncated."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} {x!r} is not an int")
    return x

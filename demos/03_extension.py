"""Embedding any concise polynomial into an encompassing one.

A polynomial is encompassing when no nonzero combination of its derivatives
has vanishing degree-<= 1 part.  Powers of encompassing polynomials grow at
the maximal binomial rate.  Non-encompassing polynomials can be repaired:
add one fresh variable per missing quotient dimension.
"""
from __future__ import annotations

from apolarium.apolar import apolar_dim, hilbert_function
from apolarium.encompass import (encompassing_extension, growth_table,
                                 is_encompassing)
from apolarium.poly import format_poly, parse, restrict_zero

f = parse("x1^3 + x2^3")
print("f =", format_poly(f), "| encompassing:", is_encompassing(f))
rows = growth_table(f, 3)  # (dim, ceiling, maximal) for d = 1, 2, 3
print("growth of powers:", [dim for dim, _, _ in rows],
      "(ceilings: " + ", ".join(str(c) for _, c, _ in rows) + ")")
print()

ext = encompassing_extension(f)
print("g =", format_poly(ext.g))
print("G =", format_poly(ext.G))
print("completion operators:", [format_poly(s) for s in ext.sigma_list])
print()

# The extension leaves every dimension invariant and restricts back to f.
print("g encompassing:", is_encompassing(ext.g))
print("dims:", apolar_dim(f), "->", apolar_dim(ext.g))
print("HF:  ", tuple(hilbert_function(f)), "->",
      tuple(hilbert_function(ext.g)))
print("g with the new variables set to zero:",
      format_poly(restrict_zero(ext.g, ext.y_vars)))
print("growth of powers of g:", [dim for dim, _, _ in growth_table(ext.g, 3)])

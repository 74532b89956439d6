"""Blockings, toric degenerations, sweet pieces, and chimney bounds.

The running example: the cyclic-group tensor degenerates onto the three-sum
tensor, and projecting a Kronecker power onto marginal-matching index
sequences produces the same small tensor whether one degenerates first or
projects the full table directly.
"""
from __future__ import annotations

from fractions import Fraction

from apolarium.sweet import (BlockDistribution, chimney, cw_blocking,
                             formula_pratt, formula_sweet_rank, is_tight,
                             marginal_uniqueness, sp_extract,
                             substitution_bound, sweet_piece_report,
                             toric_degenerate, zero_layers)
from apolarium.tensor3 import AbelianGroup, cw, group_tensor

B = cw_blocking(3)
T = group_tensor(AbelianGroup([3]))
print("full table tight:", is_tight(T, B))

D = toric_degenerate(T, B, [[0, 1, 2], [0, 1, 2], [0, -1, -2]])
print("degeneration equals cw(3):", D == cw(3), "| tight:", is_tight(D, B))
print()

# Distribute probability uniformly over the three off-corner blocks; the
# marginals determine the distribution uniquely here.
large = [((0,), (1,), (-1,)), ((1,), (0,), (-1,)), ((1,), (1,), (-2,))]
P = BlockDistribution.uniform(large)
print("marginal uniqueness:", marginal_uniqueness(P))

spD = sp_extract(D, B, P, 3)
spT = sp_extract(T, B, P, 3, check_tight=False)
print("piece of the degeneration == piece of the table:",
      spD.tensor == spT.tensor)
print("piece:", spD.tensor.dims, "nnz", spD.tensor.nnz(),
      "| distinct label sequences per axis:", spD.p_T)
print("report:", {k: v for k, v in sweet_piece_report(spD, B).items()
                  if k != "note"})
print()

# Chimneys: keep two axes restricted, leave the third whole, and count the
# slices that died; each zero layer is one substitution step off the rank.
C = chimney(cw(3), B, P, 6)
z = zero_layers(C, 2)
print("chimney:", C.dims, "zero layers:", z,
      "rank bound:", substitution_bound(C.dims[2], z))
print("closed form at (n, N) = (3, 6):",
      formula_sweet_rank(3, 6, Fraction(1, 3), Fraction(0)))
print("binary family bounds:", [formula_pratt(k) for k in (1, 2, 3)])

"""Regularity can exceed the h-polynomial degree by any amount.

The Hilbert series of S/J_G is h(t) / (1-t)^d in reduced form.  One
might hope deg h bounds the regularity; the 8-vertex base graph below
already has reg = 4 against deg h = 3.  Gluing copies at free vertices
multiplies the series (up to a (1-t)^2 factor) while adding the
regularities, so a chain of k copies pushes the gap to exactly k.
"""

from itertools import combinations

from cograph_bei import build_chain, counterexample_base, to_edgelist


def is_free(g, v):
    """True iff the neighbours of v are pairwise adjacent (v is simplicial)."""
    return all(g.has_edge(a, b) for a, b in combinations(g.neighbors(v), 2))


base, series, reg = counterexample_base()
print("base graph:")
print(to_edgelist(base))
print("Hilbert series:", series)
print("reg =", reg, " deg h =", series.h_degree)
print("free vertices 1 and 2:", is_free(base, 0), is_free(base, 1))

print("\nchains (vertex 2 of each copy glued to vertex 1 of the next):")
print("k   vertices  reg  deg h  gap  denominator exponent")
for k in (1, 2, 3, 5, 10, 25, 50):
    rep = build_chain(k)
    print(f"{rep.k:<3} {rep.n_vertices:<9} {rep.reg:<4} {rep.h_degree:<6} "
          f"{rep.gap:<4} {rep.series.denom_exp}")

rep = build_chain(2)
print("\nthe k = 2 series in full:", rep.series)

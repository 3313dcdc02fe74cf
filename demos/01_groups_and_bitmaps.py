"""
Finite abelian groups, element bitmaps, and CRT splitting
=========================================================

Everything downstream works over Z_{n1} x ... x Z_{nr}: elements are
mixed-radix indices of their coordinate tuples, subsets are boolean bitmaps
over those indices, and products of coprime cyclic factors can be viewed either
as one big cyclic group or as the product, with an explicit bijection.
"""

import tempfile

from chroma.groups import CrtSplit, ElementSet, make_group, parse_group_literal

# -- a product group and its element indexing -------------------------------

g = make_group([4, 9, 25])
print("group:", g.literal, "order:", g.order)

# an element is its mixed-radix index; coordinates come and go in arrays
xy = g.coords_to_indices([(1, 2, 3), (3, 8, 24)])
print("indices of x, y:", xy.tolist(), "and back:", g.indices_to_coords(xy).tolist())
x_plus_y = g.coords_to_indices(g.indices_to_coords(xy).sum(axis=0))  # reduced mod n_i
print("x + y =", g.indices_to_coords([x_plus_y]).tolist()[0])
print("-x    =", g.indices_to_coords(g.negate_indices(xy[:1])).tolist()[0])

# group literals round-trip through a compact text form
for literal in ("Z(7)", "Z(3)^4", "Z(2)xZ(3)", "Z(15015)"):
    print(literal, "->", parse_group_literal(literal).literal)

# -- element sets are bitmaps with set algebra ------------------------------

a = ElementSet.from_indices(g, [0, 5, 9, 100])
b = ElementSet.from_indices(g, [5, 100, 101])
print("|A| =", a.count, "|A n B| =", a.intersection(b).count,
      "|A u B| =", a.union(b).count)

# bitmaps serialize as a one-line run-length format, stable across runs
with tempfile.NamedTemporaryFile(mode="r", suffix=".bits") as fh:
    a.save(fh.name)
    print("serialized:", open(fh.name).read().strip()[:60], "...")
    print("round-trip ok:", ElementSet.load(fh.name).indices().tolist()
          == a.indices().tolist())

# -- CRT: Z_m vs the product of its prime-power factors ---------------------

m = 7 * 11 * 13
split = CrtSplit(m, (7, 11, 13))
print("\nZ_%d <-> %s" % (m, split.product_group.literal))
scalar = 123
coords = split.to_coords(scalar)
print("123 splits into", coords, "and recombines to", split.to_scalar(coords))

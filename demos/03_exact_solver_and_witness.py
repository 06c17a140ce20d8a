"""Exact clique-free subgraph search and constructive witnesses.

The solver finds a maximum induced subgraph containing no q-clique by
branch and bound over vertex bitmasks.  The builder goes the other way:
it assembles r disjoint near-independent parts plus defect covers whose
union is guaranteed clique-free by construction, certifying a lower
bound of the form rk + j without solving anything.
"""

from cliquefree.graphs import Graph, mask_to_vertices, sample_graph
from cliquefree.solver import build_structure, max_clique_free, max_pattern_free, verify_structure

g = sample_graph(18, 424242)
print(f"sampled graph: n = {g.n}, edges = {g.edge_count()}")

res = max_clique_free(g, 3)
print(f"largest triangle-free induced set: {res.size} vertices "
      f"{mask_to_vertices(res.witness)}")
print(f"  search explored {res.nodes} nodes")

# same answer through the generic pattern solver
tri = Graph.complete(3)
assert max_pattern_free(g, tri).size == res.size
print("  generic pattern solver agrees on the triangle")
print()

path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
res_p = max_pattern_free(g, path4)
print(f"largest induced set avoiding a 4-path pattern: {res_p.size} vertices")
print()

structure = build_structure(g, 2, 1, k=4)
if structure is None:
    print("no witness structure at this seed")
else:
    print(f"witness structure for alpha_3 >= 2k+1 = {structure.size}:")
    for t, part in enumerate(structure.parts):
        d = structure.part_defects[t]
        print(f"  part {t}: {mask_to_vertices(part)}  "
              f"(defect edges: {list(d) if d else 'none'})")
    for cov, (u, v) in zip(structure.covers, structure.cover_edges):
        print(f"  cover for defect ({u},{v}): {mask_to_vertices(cov)}")
    print(f"  union size {structure.size}, verified: "
          f"{verify_structure(g, structure)}")
    print(f"  exact solver confirms alpha_3 >= {structure.size}: "
          f"{res.size >= structure.size}")

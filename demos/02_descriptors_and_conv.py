"""Per-face descriptors and the order-invariant convolution.

Shows the two learnable descriptor families (vertex-based and
centroid/normal-based terms), then runs the three-term convolution whose
output does not depend on how a face's neighborhood is ordered.
"""

import numpy as np

from meshlearn.conv import (RegionTable, build_regions, conv_forward,
                            init_conv_params)
from meshlearn.core import build_adjacency, compute_geometry, normalize_mesh
from meshlearn.data import icosphere
from meshlearn.descriptors import (compute_geodesic_terms, compute_geometric_terms,
                                   descriptor_forward, init_descriptor_params)

rng = np.random.default_rng(0)
mesh = normalize_mesh(icosphere(1))
adj = build_adjacency(mesh)
geo = compute_geometry(mesh)

# fixed per-face terms, computed once: (F, 3, 3) geodesic, (F, 4, 3) geometric
geo_terms = compute_geodesic_terms(mesh, adj, geo)
geom_terms = compute_geometric_terms(mesh, adj, geo)
print(f"descriptor terms: {geo_terms.shape} geodesic, {geom_terms.shape} geometric")

# k_geo + k_geom learnable kernels, each giving one 3-vector per face
params = init_descriptor_params(k_geo=4, k_geom=4, rng=rng)
feats = descriptor_forward(geo_terms, geom_terms, params)
print(f"descriptor features: {feats.shape} "
      f"(F x 3*(k_geo + k_geom) = {mesh.num_faces} x 24)")

# regions grow breadth-first from a face's edge neighbors
regions = build_regions(adj, kernel_size=6)
print("face 0 region:", regions.row(0))

conv = init_conv_params(24, 16, rng)
out, _ = conv_forward(feats, regions, conv)
print("conv output:", out.shape)

# order invariance: shuffling every region row leaves the output bit-equal
members = regions.members.copy()
for f in range(members.shape[0]):
    n = regions.counts[f]
    members[f, :n] = rng.permutation(members[f, :n])
shuffled = RegionTable(regions.kernel_size, members, regions.counts.copy())
print("order-invariant (bit-identical):",
      np.array_equal(conv_forward(feats, shuffled, conv)[0], out))

"""Face-collapse pooling: halve a mesh while preserving its topology.

Each pooling pass greedily picks the flattest faces (lowest feature
weight), collapses each selected face's three vertices to a point, and
averages features over the affected neighborhood. Topology (the Euler
characteristic) is preserved exactly.
"""

import numpy as np

from meshlearn.core import (build_adjacency, compute_geometry,
                            euler_characteristic, normalize_mesh, validate_mesh)
from meshlearn.data import icosphere, torus
from meshlearn.descriptors import (compute_geodesic_terms, compute_geometric_terms,
                                   descriptor_forward, init_descriptor_params)
from meshlearn.pooling import compute_face_weights, pool_to_target

rng = np.random.default_rng(0)
for name, mesh in [("icosphere(2)", icosphere(2)), ("torus(16, 8)", torus(16, 8))]:
    mesh = normalize_mesh(mesh)
    adj = build_adjacency(mesh)
    geo = compute_geometry(mesh)
    params = init_descriptor_params(3, 3, rng)
    feats = descriptor_forward(compute_geodesic_terms(mesh, adj, geo),
                               compute_geometric_terms(mesh, adj, geo), params)
    weights = compute_face_weights(feats, adj)
    print(f"{name}: F={mesh.num_faces} chi={euler_characteristic(mesh)} "
          f"weight range [{weights.min():.3f}, {weights.max():.3f}]")

    out = pool_to_target(mesh, adj, feats, mesh.num_faces // 2)
    first = out.passes[0]
    frac = (first.old_num_faces - len(first.provenance)) / first.old_num_faces
    print(f"  pooled to F={out.mesh.num_faces} in {out.pass_count} pass(es), "
          f"first-pass removal {frac:.2f}, "
          f"chi={euler_characteristic(out.mesh)}, "
          f"valid={validate_mesh(out.mesh).ok}, stalled={out.stalled}")

"""meshlearn: learnable descriptors, order-invariant convolution and
face-collapse pooling on triangle meshes, with hand-written backprop."""

from .core import (NONE, AdjacencyMatrix, GeometryCache, Mesh, MeshError,
                   NumericalError, ValidationReport, build_adjacency,
                   compute_geometry, euler_characteristic, load_mesh,
                   normalize_mesh, save_off, validate_mesh)
from .descriptors import (DescriptorParams, compute_geodesic_terms,
                          compute_geometric_terms, descriptor_backward,
                          descriptor_forward, geodesic_forward,
                          geometric_forward, init_descriptor_params)
from .conv import (ConvParams, RegionTable, build_regions, conv_backward,
                   conv_forward, init_conv_params)
from .pooling import (PoolPlan, PooledMesh, apply_pass, compute_face_weights,
                      plan_pass, pool_to_target, pooling_backward)
from .network import (ModelConfig, ModelParams, cross_entropy_loss,
                      global_average_pool, grad_check, init_params,
                      model_backward, model_forward, precompute_static)
from .training import Adam, TrainConfig, train
from .checkpoint import (CheckpointError, checkpoint_digest, load_checkpoint,
                         save_checkpoint)
from .data import (Dataset, Sample, SyntheticSpec, box, generate_synthetic,
                   icosahedron, icosphere, load_dataset, make_splits,
                   octahedron, torus, write_dataset)
from .bench import BenchReport, run_benchmark

__version__ = "0.1.0"

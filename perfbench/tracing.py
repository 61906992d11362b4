"""Per-layer spans of meshlearn's public functions, for the traced run.

``LayerTracer.install`` replaces each function on the module object
through which its caller looks the name up with a wrapper that records a
span: name, start, end, parent and root. The modules are ``network`` for
the calls made by ``model_forward`` / ``precompute_static`` and by the
benchmark itself, ``descriptors``, ``conv`` and ``pooling`` for their
internal and cross-module calls, ``cli`` for the names ``meshlearn pool``
imported, and ``core`` for the benchmark's own ``save_off`` of the
pool-large inputs. ``uninstall`` puts the originals back. Spans are kept
in memory and turned into per-layer metrics when the run ends.

A span is recorded only inside an open root span (one mesh through one
phase of the benchmark), so the work of the output checks, which runs
outside every root, is never counted.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from meshlearn import cli, conv, core, descriptors, network, pooling

# metric name -> span name; times are self time per mesh (see
# LayerTracer.per_mesh), training.optimizer per optimiser step
TIMES = {
    "core.load_mesh.ms": "core.load_mesh",
    "core.validate_mesh.ms": "core.validate_mesh",
    "core.build_adjacency.ms": "core.build_adjacency",
    "core.compute_geometry.ms": "core.compute_geometry",
    "core.save_off.ms": "core.save_off",
    "descriptors.terms.ms": "descriptors.terms",
    "descriptors.forward.ms": "descriptors.forward",
    "descriptors.backward.ms": "descriptors.backward",
    "conv.build_regions.ms": "conv.build_regions",
    **{f"conv.{d}.b{b}.ms": f"conv.{d}.b{b}"
       for d in ("forward", "backward") for b in range(3)},
    "pooling.weights.ms": "pooling.weights",
    "pooling.plan.ms": "pooling.plan",
    "pooling.apply.ms": "pooling.apply",
    "pooling.backward.ms": "pooling.backward",
    "network.forward.self_ms": "network.forward",
    "network.backward.self_ms": "network.backward",
    "network.head.ms": "network.head",
    "training.optimizer.ms": "training.optimizer",
}
COUNTS = ("pooling.passes", "pooling.collapses", "pooling.stalls")


class Patches:
    """Module attributes replaced by wrappers, and the originals to put
    back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` with ``make(original)``."""
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._saved.append((module, attr, original))

    def undo(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into LayerTracer.spans; -1 for a root
    root: int = -1            # index of the root span
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class LayerTracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.root_kinds: dict[int, str] = {}   # root span index -> kind
        # id of each ConvParams -> its block; filled by the training workload
        self.conv_blocks: dict[int, int] = {}
        self._stack: list[int] = []
        self._patches = Patches()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), parent=parent,
                    root=self.spans[parent].root if parent >= 0 else idx)
        self.spans.append(span)
        self._stack.append(idx)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str, name: str | None = None):
        """One mesh through one phase (``setup``, ``step``, ``job``) or one
        optimiser step (``optimizer``); every span opened inside belongs
        to it."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        span = self._open(name or kind)
        self.root_kinds[len(self.spans) - 1] = kind
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, module, attr: str, name, count=None) -> None:
        """Patch ``module.attr`` with a recording wrapper. ``name`` is the
        span name, or a callable of the call's positional arguments
        returning it; ``count(args, result)`` may return a dict of counts
        stored on the span."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer._stack:
                    return original(*args, **kwargs)
                span = tracer._open(name if isinstance(name, str) else name(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span)
                if count is not None:
                    span.counts = count(args, result)
                return result

            wrapper.__wrapped__ = original
            return wrapper

        self._patches.wrap(module, attr, make)

    def install(self) -> None:
        conv_name = lambda kind: (lambda args: f"conv.{kind}.b{self.conv_blocks[id(args[2])]}")
        for module in (network, cli):
            self._wrap(module, "build_adjacency", "core.build_adjacency")
            self._wrap(module, "compute_geometry", "core.compute_geometry")
        for attr in ("load_mesh", "validate_mesh", "save_off"):
            self._wrap(cli, attr, "core." + attr)
        self._wrap(core, "save_off", "core.save_off")
        self._wrap(cli, "descriptor_forward", "descriptors.forward")
        self._wrap(descriptors, "geodesic_forward", "descriptors.forward")
        self._wrap(descriptors, "geometric_forward", "descriptors.forward")
        self._wrap(descriptors, "compute_geodesic_terms", "descriptors.terms")
        self._wrap(descriptors, "compute_geometric_terms", "descriptors.terms")
        self._wrap(descriptors, "descriptor_backward", "descriptors.backward")
        self._wrap(conv, "build_regions", "conv.build_regions")
        self._wrap(conv, "conv_forward", conv_name("forward"))
        self._wrap(conv, "conv_backward", conv_name("backward"))
        self._wrap(pooling, "compute_face_weights", "pooling.weights")
        self._wrap(pooling, "plan_pass", "pooling.plan",
                   lambda args, plan: {"pooling.collapses": len(plan.regions),
                                       "pooling.stalls": int(not plan.regions)})
        self._wrap(pooling, "apply_pass", "pooling.apply",
                   lambda args, out: {"pooling.passes": 1,
                                      "faces_in": args[0].num_faces,
                                      "faces_removed": args[0].num_faces - out.mesh.num_faces})
        self._wrap(pooling, "pooling_backward", "pooling.backward")
        self._wrap(network, "model_forward", "network.forward")
        self._wrap(network, "model_backward", "network.backward")
        self._wrap(network, "global_average_pool", "network.head")
        self._wrap(network, "cross_entropy_loss", "network.head")

    def uninstall(self) -> None:
        self._patches.undo()

    @contextmanager
    def traced(self, kind: str, name: str | None = None):
        """The layer spans installed and one root span open."""
        self.install()
        try:
            with self.root(kind, name):
                yield
        finally:
            self.uninstall()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.
        Calls are nested and single-threaded, so children never overlap."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def per_mesh(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer self milliseconds and counts, per mesh.

        For each root kind, a layer's total over the roots of that kind is
        divided by the number of those roots; the shares of all kinds are
        added. A layer that runs in set-up and in the timed loop (such as
        ``conv.build_regions``) thus reports what one mesh costs it in
        set-up plus one operation.
        """
        n_roots: dict[str, int] = {}
        for kind in self.root_kinds.values():
            n_roots[kind] = n_roots.get(kind, 0) + 1
        ms: dict[str, float] = {}
        counts: dict[str, float] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            n = n_roots[self.root_kinds[s.root]]
            ms[s.name] = ms.get(s.name, 0.0) + 1000.0 * self_s / n
            for key, value in s.counts.items():
                counts[key] = counts.get(key, 0.0) + value / n
        return ms, counts

    def metrics(self) -> dict[str, tuple[float, str]]:
        ms, counts = self.per_mesh()
        out = {m: (ms.get(s, 0.0), "ms") for m, s in TIMES.items()}
        out.update({c: (counts.get(c, 0.0), "count") for c in COUNTS})
        faces_in = counts.get("faces_in", 0.0)
        out["pooling.removal_per_pass"] = (
            counts["faces_removed"] / faces_in if faces_in else 0.0, "ratio")
        return out

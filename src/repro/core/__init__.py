"""Compiled topology core shared by every analysis layer.

This package is the performance substrate of the reproduction:

- :class:`~repro.core.compiled.CompiledTopology` freezes an
  :class:`~repro.topology.graph.ASGraph` (the mixed §III-A graph
  ``G = (A, L_peer, L_pc)``) into contiguous index-based CSR arrays
  built by one builder, :func:`~repro.core.compiled.compile_links`;
  the view is just those arrays, and its content fingerprint is a
  digest of them.
- :class:`~repro.core.path_engine.PathEngine` answers GRC length-3
  path queries over one compiled view: memoized per-source path and
  destination sets, and all-sources counts in blocked sweeps over the
  compiled arrays.
- :mod:`~repro.core.arrays` provides the order-preserving reduction
  and scan kernels that keep batched engines (the path engine, the
  bargaining :class:`~repro.bargaining.engine.NegotiationEngine`)
  bit-identical to their naive per-instance reference paths.
- :mod:`~repro.core.streaming` compiles CAIDA ``as-rel`` lines straight
  into the array form, through the same builder, without
  materializing the dict-of-sets graph — the internet-scale ingestion
  path.
- :mod:`~repro.core.artifacts` persists compiled views as
  content-addressed ``.npy`` artifacts opened zero-copy via
  ``np.load(mmap_mode="r")``, so worker processes share pages instead
  of recompiling.

Higher layers (``paths``, ``agreements``, ``experiments``, ``api``)
consume these through the cached helpers
:func:`compile_topology` and :func:`path_engine_for`, so repeated
analyses of the same graph share one compiled view.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.arrays": (
            "last_argmax",
            "running_maximum",
            "sequential_sum",
        ),
        "repro.core.artifacts": ("ArtifactError", "ArtifactStore", "load_artifact"),
        "repro.core.compiled": ("CompiledTopology", "compile_topology"),
        "repro.core.path_engine": ("DEFAULT_BLOCK_BYTES", "PathEngine", "path_engine_for"),
        "repro.core.streaming": ("compile_as_rel_file", "compile_as_rel_lines"),
    },
)

__all__ = [
    "CompiledTopology",
    "compile_topology",
    "PathEngine",
    "path_engine_for",
    "DEFAULT_BLOCK_BYTES",
    "ArtifactStore",
    "ArtifactError",
    "load_artifact",
    "compile_as_rel_lines",
    "compile_as_rel_file",
    "sequential_sum",
    "running_maximum",
    "last_argmax",
]

"""Compiled topology core shared by every analysis layer.

This package is the performance substrate of the reproduction:

- :class:`~repro.core.compiled.CompiledTopology` freezes an
  :class:`~repro.topology.graph.ASGraph` (the mixed §III-A graph
  ``G = (A, L_peer, L_pc)``) into contiguous index-based CSR arrays
  built by one builder, :func:`~repro.core.compiled.compile_links`;
  the view is just those arrays, and its content fingerprint is a
  digest of them.
- :class:`~repro.core.path_engine.PathEngine` computes the GRC
  length-3 paths of *all* sources in one batched sweep over the
  compiled arrays, memoizes per-source results, and supports
  dirty-region invalidation under topology churn.
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

Higher layers (``paths``, ``agreements``, ``experiments``,
``simulation``) consume these through the cached helpers
:func:`compile_topology` and :func:`path_engine_for`, so repeated
analyses of the same graph share one compiled view.
"""

from repro.core.arrays import (
    exclusive_suffix_minimum,
    last_argmax,
    running_maximum,
    sequential_sum,
)
from repro.core.artifacts import ArtifactError, ArtifactStore, load_artifact
from repro.core.compiled import CompiledTopology, compile_topology
from repro.core.path_engine import DEFAULT_BLOCK_BYTES, PathEngine, path_engine_for
from repro.core.streaming import compile_as_rel_file, compile_as_rel_lines

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
    "exclusive_suffix_minimum",
    "last_argmax",
]

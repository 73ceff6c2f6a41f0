"""Content-addressed on-disk store of compiled topology artifacts.

The one user is the sharded all-sources GRC pass (``repro grc-all
--jobs N``): its workers need nothing but the compiled arrays, so the
parent publishes them once and each worker opens them instead of
re-parsing a possibly Internet-scale topology.  This module serializes
a :class:`~repro.core.compiled.CompiledTopology` as one ``.npy`` file
per array plus a ``meta.json``, and loads it back with
``np.load(mmap_mode="r")`` — zero-copy, lazily paged, and with the
physical pages shared between every process that opens the same
artifact.  The experiment and sweep workers do not use it: they need
the MA enumeration and path index too, which dwarf the compile.

Layout::

    <root>/                         # .topology-cache/ by default
      <key[:2]>/<key>/              # one directory per topology content
        meta.json                   # format, fingerprint, n, num_links
        asn_array.npy
        prov_indptr.npy … nbr_roles.npy   # one per ARRAY_FIELDS entry

Contract:

- **Addressing** — an artifact is a :class:`~repro.core.store.Store`
  entry whose key covers the topology's ``source_fingerprint`` (a
  digest of the compiled arrays, the same however they were built),
  :data:`ARTIFACT_FORMAT` and the code version.
  Identical content under the same code → identical artifact; a format
  bump or a code change moves every address, so old artifacts are
  simply never hit again.
- **Staleness** — the fingerprint IS the staleness contract.  An
  artifact is valid for exactly the topology content it was compiled
  from; callers holding a mutated graph get a different fingerprint and
  miss.  A load adopts the fingerprint recorded in ``meta.json`` rather
  than re-hashing the arrays, so the warm start stays zero-copy.
- **Atomicity** — artifacts are published as one directory through
  :func:`~repro.core.store.publish`; a concurrent writer losing the
  race discards its copy.  Readers never observe a partial artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.compiled import ARRAY_FIELDS, CompiledTopology
from repro.core.store import Store, publish, store_key

#: Bump when the on-disk layout or the compiled array semantics change;
#: old artifacts become unreachable (a different address) rather than
#: misread.
ARTIFACT_FORMAT = 1

#: Default store location, relative to the working directory; override
#: with the ``REPRO_TOPOLOGY_STORE`` environment variable or an explicit
#: ``ArtifactStore(root=...)``.
DEFAULT_ARTIFACT_DIR = ".topology-cache"

_META_NAME = "meta.json"


class ArtifactError(Exception):
    """Raised when an artifact on disk is unreadable or inconsistent."""


def default_store_root() -> Path:
    """The store root honoring the ``REPRO_TOPOLOGY_STORE`` override."""
    return Path(os.environ.get("REPRO_TOPOLOGY_STORE") or DEFAULT_ARTIFACT_DIR)


def load_artifact(path: str | Path) -> CompiledTopology:
    """Open one artifact directory as a memory-mapped compiled view.

    This is the worker-process entry point: parents pass the artifact
    *path* (a short string) across the process boundary instead of a
    pickled graph, and every worker maps the same physical pages.
    """
    path = Path(path)
    try:
        meta = json.loads((path / _META_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"unreadable topology artifact at {path}: {exc}") from exc
    if meta.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"topology artifact at {path} has format {meta.get('format')!r}, "
            f"expected {ARTIFACT_FORMAT}"
        )
    fingerprint = meta.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise ArtifactError(f"topology artifact at {path} has no fingerprint")
    arrays: dict[str, np.ndarray] = {}
    for name in ARRAY_FIELDS:
        try:
            arrays[name] = np.load(path / f"{name}.npy", mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise ArtifactError(
                f"unreadable array {name!r} in topology artifact at {path}: {exc}"
            ) from exc
    return CompiledTopology(source_fingerprint=fingerprint, **arrays)


class ArtifactStore(Store):
    """Content-addressed store of memory-mapped compiled topologies."""

    def __init__(self, root: str | Path | None = None) -> None:
        super().__init__(root if root is not None else default_store_root())

    def path_for(self, fingerprint: str) -> Path:
        """The artifact directory address of a topology fingerprint."""
        namespace = f"topology-artifact-v{ARTIFACT_FORMAT}"
        return self.path(store_key(namespace, {"fingerprint": fingerprint}))

    def contains(self, fingerprint: str) -> bool:
        """Whether a published artifact exists for this fingerprint."""
        return (self.path_for(fingerprint) / _META_NAME).is_file()

    def load(self, fingerprint: str) -> CompiledTopology:
        """Memory-map the artifact for a fingerprint (must exist)."""
        view = load_artifact(self.path_for(fingerprint))
        if view.source_fingerprint != fingerprint:
            raise ArtifactError(
                f"topology artifact at {self.path_for(fingerprint)} declares "
                f"fingerprint {view.source_fingerprint}, expected {fingerprint}"
            )
        return view

    def save(self, compiled: CompiledTopology) -> Path:
        """Publish a compiled view; returns the artifact directory.

        Idempotent: publishing content that is already stored is a
        no-op, and a concurrent writer racing on the same fingerprint
        resolves to whichever rename lands first.
        """
        fingerprint = compiled.source_fingerprint
        final = self.path_for(fingerprint)
        if (final / _META_NAME).is_file():
            return final

        def write(tmp: Path) -> None:
            for name in ARRAY_FIELDS:
                np.save(tmp / f"{name}.npy", np.asarray(getattr(compiled, name)))
            meta = {
                "format": ARTIFACT_FORMAT,
                "fingerprint": fingerprint,
                "n": compiled.n,
                "num_links": compiled.num_links,
                "arrays": list(ARRAY_FIELDS),
            }
            (tmp / _META_NAME).write_text(
                json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )

        try:
            publish(final, write, directory=True)
        except OSError:
            # Another process published the same content first.
            if not (final / _META_NAME).is_file():
                raise
        return final

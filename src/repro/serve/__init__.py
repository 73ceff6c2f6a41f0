"""``repro.serve`` — the long-lived negotiation service.

One warm :class:`~repro.api.session.Session` per worker behind an
asyncio HTTP/JSON front end (stdlib only — no new runtime dependency),
scaled across processes by a pre-fork supervisor:

- :mod:`repro.serve.http` — minimal HTTP/1.1 framing over asyncio
  streams;
- :mod:`repro.serve.service` — versioned envelope routing onto the
  session, through a single-worker executor;
- :mod:`repro.serve.coalesce` — the cross-client scheduler packing
  concurrent negotiation requests into shared engine batches,
  bit-identically to the sequential path;
- :mod:`repro.serve.cache` — the two-tier result cache: per-worker LRU
  over the content-addressed :class:`~repro.core.store.Store` all
  workers share;
- :mod:`repro.serve.jobs` — the submit-then-poll async job API
  (directory-backed queue, crash-safe records, orphan requeue);
- :mod:`repro.serve.board` — per-worker stats snapshots merged into
  one cross-worker ``/stats`` view;
- :mod:`repro.serve.log` — the structured JSONL request log;
- :mod:`repro.serve.server` — sockets, graceful drain, and the
  ``repro serve`` entry point;
- :mod:`repro.serve.supervisor` — ``--workers N``: one bound socket,
  N forked workers, crash restarts with backoff, fan-out drain;
- :mod:`repro.serve.client` — the typed blocking client mirroring
  :class:`~repro.api.session.Session`'s surface.

``repro serve --help`` documents the knobs; the README's "Serving"
section shows the request shapes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.board": ("WorkerBoard",),
        "repro.serve.cache": ("ResultCache",),
        "repro.serve.client": ("ServeClient", "ServeResponse"),
        "repro.serve.jobs": ("JobRunner", "JobStore"),
        "repro.serve.server": (
            "ReproServer",
            "ServeConfig",
            "run_server",
            "serve_until_signal",
        ),
        "repro.serve.service": ("ServeService",),
        "repro.serve.supervisor": ("Supervisor", "run_supervisor"),
    },
)

__all__ = [
    "JobRunner",
    "JobStore",
    "ReproServer",
    "ResultCache",
    "ServeClient",
    "ServeConfig",
    "ServeResponse",
    "ServeService",
    "Supervisor",
    "WorkerBoard",
    "run_server",
    "run_supervisor",
    "serve_until_signal",
]

"""A dynamic view of the AS topology: links fail and recover over time.

The static layers of the library (:class:`repro.topology.graph.ASGraph`,
beaconing, BGP) all operate on an immutable snapshot.  The simulation
wraps the base topology in a :class:`DynamicNetwork` that tracks the
set of currently failed links, hands out consistent *active* snapshots
(the base graph minus failed links), and notifies subscribed processes
whenever the topology changes so they can react (BGP reconvergence,
beacon re-discovery, …).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.topology.graph import ASGraph, TopologyError

#: A topology-change listener: ``(time, change, (left, right))``.
ChangeListener = Callable[[float, str, tuple[int, int]], None]


class DynamicNetwork:
    """The base topology plus the set of currently failed links."""

    def __init__(self, graph: ASGraph) -> None:
        self.base_graph = graph
        self._failed: set[frozenset[int]] = set()
        self._listeners: list[ChangeListener] = []
        self._active_cache: ASGraph | None = None
        self.version = 0

    # ------------------------------------------------------------------
    # Change subscription
    # ------------------------------------------------------------------
    def subscribe(self, listener: ChangeListener) -> None:
        """Register a callback fired on every link failure/recovery."""
        self._listeners.append(listener)

    def _notify(self, time: float, change: str, link: tuple[int, int]) -> None:
        self.version += 1
        self._active_cache = None
        for listener in self._listeners:
            listener(time, change, link)

    # ------------------------------------------------------------------
    # Failure state
    # ------------------------------------------------------------------
    def fail_link(self, left: int, right: int, *, time: float = 0.0) -> bool:
        """Mark a link as failed; returns False when already down."""
        key = frozenset((left, right))
        if not self.base_graph.has_link(left, right):
            raise TopologyError(f"no link between {left} and {right} to fail")
        if key in self._failed:
            return False
        self._failed.add(key)
        self._notify(time, "link_down", (min(left, right), max(left, right)))
        return True

    def restore_link(self, left: int, right: int, *, time: float = 0.0) -> bool:
        """Restore a failed link; returns False when it was not down."""
        key = frozenset((left, right))
        if key not in self._failed:
            return False
        self._failed.discard(key)
        self._notify(time, "link_up", (min(left, right), max(left, right)))
        return True

    def is_link_up(self, left: int, right: int) -> bool:
        """Whether the link exists in the base graph and is not failed."""
        return (
            self.base_graph.has_link(left, right)
            and frozenset((left, right)) not in self._failed
        )

    @property
    def failed_links(self) -> tuple[tuple[int, int], ...]:
        """Currently failed links as sorted endpoint pairs (sorted)."""
        return tuple(
            sorted((min(key), max(key)) for key in (tuple(k) for k in self._failed))
        )

    def num_failed_links(self) -> int:
        """Number of currently failed links."""
        return len(self._failed)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def active_graph(self) -> ASGraph:
        """Snapshot of the topology with failed links removed.

        All ASes stay in the graph even when isolated, so per-AS policy
        tables built against the base graph remain valid.  The snapshot
        is cached until the next change.
        """
        if self._active_cache is None:
            active = self.base_graph.copy()
            for key in self._failed:
                left, right = tuple(key)
                active.remove_link(left, right)
            self._active_cache = active
        return self._active_cache

    def path_is_intact(self, path: tuple[int, ...]) -> bool:
        """Whether every link of an AS-level path is currently up."""
        if len(path) < 2:
            return False
        return all(self.is_link_up(path[i], path[i + 1]) for i in range(len(path) - 1))

    def __repr__(self) -> str:
        return (
            f"DynamicNetwork(base={self.base_graph!r}, "
            f"failed_links={self.num_failed_links()})"
        )

"""Serialization of AS topologies in the CAIDA ``as-rel`` text format.

The paper's path-diversity study (§VI) starts from the CAIDA
AS-relationship dataset.  That dataset is a plain-text file where each
non-comment line is ``<as1>|<as2>|<relationship>`` with relationship
``-1`` for provider→customer (``as1`` is the provider) and ``0`` for a
peering link.  This module reads and writes that format so that real
CAIDA snapshots can be dropped into the reproduction when available;
otherwise the synthetic generator of :mod:`repro.topology.generator` is
used (see DESIGN.md for the substitution rationale).

Two ingestion paths share :func:`iter_as_rel_records`, the line-level
validator:

- :func:`parse_as_rel_lines` builds a mutable :class:`ASGraph` — the
  reference path, right for paper-scale files and anything that will be
  edited afterwards;
- :func:`repro.core.streaming.compile_as_rel_lines` compiles the same
  records straight into :class:`~repro.core.compiled.CompiledTopology`
  CSR arrays without materializing the dict-of-sets graph — the
  internet-scale path for full CAIDA snapshots (~75k ASes, ~400k
  links).  It feeds the CSR builder a graph compile uses, so both
  paths yield identical arrays and one content fingerprint.

Both reject malformed input with line-numbered
:class:`CaidaFormatError`\\ s: non-integer fields, unknown relationship
codes, self-loop links, and conflicting duplicate links (the same AS
pair appearing again with a different relationship or provider
direction).  Exact duplicate lines are tolerated and deduplicated, as
real serial-2 snapshots occasionally contain them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.topology.graph import ASGraph, TopologyError
from repro.topology.relationships import Relationship


class CaidaFormatError(Exception):
    """Raised when a CAIDA ``as-rel`` file cannot be parsed."""


def iter_as_rel_records(lines: Iterable[str]) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(lineno, first, second, code)`` per data line.

    Comment lines start with ``#`` and are skipped, as are blank lines.
    The serial-2 format appends a ``|<source>`` column; any columns
    beyond the third are ignored so that both serial-1 and serial-2
    files parse.  Field-level problems — too few columns, non-integer
    fields, unknown relationship codes, self-loops — raise
    :class:`CaidaFormatError` with the 1-based line number.

    Cross-line validation (conflicting duplicate links) is the
    consumer's job: :func:`parse_as_rel_lines` detects conflicts through
    :class:`ASGraph`, the streaming compiler detects them on its sorted
    link arrays — both report the offending line numbers.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) < 3:
            raise CaidaFormatError(
                f"line {lineno}: expected at least 3 '|'-separated fields, got {line!r}"
            )
        try:
            first = int(fields[0])
            second = int(fields[1])
            code = int(fields[2])
        except ValueError as exc:
            raise CaidaFormatError(f"line {lineno}: non-integer field in {line!r}") from exc
        if code not in (-1, 0):
            raise CaidaFormatError(
                f"line {lineno}: unknown CAIDA relationship code: {code!r}"
            )
        if first == second:
            raise CaidaFormatError(
                f"line {lineno}: self-loop link on AS {first} in {line!r}"
            )
        yield lineno, first, second, code


def parse_as_rel_lines(lines: Iterable[str]) -> ASGraph:
    """Parse CAIDA ``as-rel`` lines into an :class:`ASGraph`.

    Self-loops and conflicting duplicate links (the same AS pair with a
    different relationship or provider direction) raise line-numbered
    :class:`CaidaFormatError`\\ s; identical duplicate lines are
    deduplicated silently.
    """
    graph = ASGraph()
    first_seen: dict[frozenset[int], int] = {}
    for lineno, first, second, code in iter_as_rel_records(lines):
        relationship = Relationship.from_caida(code)
        try:
            if relationship is Relationship.PROVIDER_TO_CUSTOMER:
                graph.add_provider_customer(first, second)
            else:
                graph.add_peering(first, second)
        except TopologyError as exc:
            earlier = first_seen.get(frozenset((first, second)))
            raise CaidaFormatError(
                f"line {lineno}: conflicting duplicate link {first}|{second}|{code}"
                + (f" (first declared on line {earlier})" if earlier is not None else "")
                + f": {exc}"
            ) from exc
        first_seen.setdefault(frozenset((first, second)), lineno)
    return graph


def load_as_rel(path: str | Path) -> ASGraph:
    """Load an :class:`ASGraph` from a CAIDA ``as-rel`` file."""
    with open(path, encoding="utf-8") as handle:
        return parse_as_rel_lines(handle)


def dump_as_rel_lines(graph: ASGraph) -> list[str]:
    """Serialize a topology to CAIDA ``as-rel`` lines (without newlines)."""
    lines = ["# repro as-rel export", "# <provider|peer>|<customer|peer>|<-1|0>"]
    for link in graph.links:
        lines.append(f"{link.first}|{link.second}|{link.relationship.to_caida()}")
    return lines


def save_as_rel(graph: ASGraph, path: str | Path) -> None:
    """Write a topology to a CAIDA ``as-rel`` file."""
    content = "\n".join(dump_as_rel_lines(graph)) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)

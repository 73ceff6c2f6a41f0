"""Streaming CAIDA ingestion: as-rel lines compiled straight to arrays.

:func:`repro.topology.caida.parse_as_rel_lines` builds a mutable
:class:`~repro.topology.graph.ASGraph` — dicts of Python sets, one
object per AS and per link.  That intermediate is what the rest of the
repo edits and reasons about, but for a full CAIDA serial-2 snapshot
(~75k ASes, ~400k links) it is pure overhead when the goal is analysis:
the graph is compiled to :class:`~repro.core.compiled.CompiledTopology`
arrays and never touched again.

:func:`compile_as_rel_lines` skips the middleman.  It consumes the same
validated records (:func:`repro.topology.caida.iter_as_rel_records`),
accumulates flat endpoint/relationship arrays, interns the ASNs,
rejects conflicting duplicates and drops identical ones, then hands
the unique links to :func:`repro.core.compiled.compile_links` — the
same CSR builder a graph compile uses.  The result's arrays are
element-identical to ``compile_topology(parse_as_rel_lines(lines))``,
and since the fingerprint is a function of the arrays, so is its
``source_fingerprint`` (both are pinned by the property tests);
streamed views therefore share every fingerprint-keyed cache — sweep
shards and the :mod:`repro.core.artifacts` store alike.

Validation is not relaxed: field-level problems raise line-numbered
:class:`~repro.topology.caida.CaidaFormatError`\\ s from the shared
record iterator, and conflicting duplicate links are detected on the
sorted link arrays and reported with both line numbers, mirroring the
graph path.  Identical duplicate lines are deduplicated (first
occurrence wins, which is also what ``ASGraph`` does).
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.core.compiled import CompiledTopology, compile_links
from repro.topology.caida import CaidaFormatError, iter_as_rel_records

#: Link signature codes on (lo, hi)-normalized endpoint pairs.  Two
#: records for the same pair conflict exactly when their signatures
#: differ, so conflict detection is one vectorized comparison on the
#: key-sorted arrays.
_SIG_PEER = 0
_SIG_PROVIDER_IS_LO = 1
_SIG_PROVIDER_IS_HI = 2


def _raise_conflict(
    keys: np.ndarray,
    sigs: np.ndarray,
    linenos: np.ndarray,
    firsts: np.ndarray,
    seconds: np.ndarray,
    codes: np.ndarray,
    pos: int,
) -> None:
    """Report the conflicting record at sorted position ``pos``.

    ``pos`` is the first sorted position whose signature differs from its
    predecessor under the same key; the stable sort keeps file order
    within a key group, so walking back to the group start finds the
    first declaration and ``pos`` itself is the first conflicting line.
    """
    start = pos
    while start > 0 and keys[start - 1] == keys[pos]:
        start -= 1
    raise CaidaFormatError(
        f"line {int(linenos[pos])}: conflicting duplicate link "
        f"{int(firsts[pos])}|{int(seconds[pos])}|{int(codes[pos])} "
        f"(first declared on line {int(linenos[start])})"
    )


def compile_as_rel_lines(lines: Iterable[str]) -> CompiledTopology:
    """Compile CAIDA ``as-rel`` lines directly into a compiled view.

    Returns a :class:`CompiledTopology` with arrays element-identical
    to compiling ``parse_as_rel_lines(lines)``, without materializing
    the dict-of-sets graph.  Raises :class:`CaidaFormatError` on
    exactly the inputs the graph path rejects.
    """
    firsts_list: list[int] = []
    seconds_list: list[int] = []
    codes_list: list[int] = []
    linenos_list: list[int] = []
    for lineno, first, second, code in iter_as_rel_records(lines):
        linenos_list.append(lineno)
        firsts_list.append(first)
        seconds_list.append(second)
        codes_list.append(code)

    firsts = np.asarray(firsts_list, dtype=np.int64)
    seconds = np.asarray(seconds_list, dtype=np.int64)
    codes = np.asarray(codes_list, dtype=np.int64)
    linenos = np.asarray(linenos_list, dtype=np.int64)
    del firsts_list, seconds_list, codes_list, linenos_list

    # Intern ASNs into dense indices (sorted ASN order, like the graph
    # compile) and normalize every record to its (lo, hi) index pair
    # plus a relationship signature.
    asn_array = np.unique(np.concatenate((firsts, seconds)))
    n = int(asn_array.size)
    u = np.searchsorted(asn_array, firsts)
    v = np.searchsorted(asn_array, seconds)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    is_p2c = codes == -1
    sigs = np.where(
        ~is_p2c,
        _SIG_PEER,
        np.where(u == lo, _SIG_PROVIDER_IS_LO, _SIG_PROVIDER_IS_HI),
    ).astype(np.int8)

    # Sort by pair key (stable → file order within a key group), then
    # detect conflicts and deduplicate in one adjacent comparison each.
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys, kind="stable")
    keys_s = keys[order]
    sigs_s = sigs[order]
    same_key = keys_s[1:] == keys_s[:-1]
    conflict = same_key & (sigs_s[1:] != sigs_s[:-1])
    if conflict.any():
        pos = int(np.nonzero(conflict)[0][0]) + 1
        _raise_conflict(
            keys_s, sigs_s, linenos[order], firsts[order], seconds[order],
            codes[order], pos,
        )
    keep = np.ones(keys_s.size, dtype=bool)
    keep[1:] = ~same_key
    lo_u = lo[order][keep]
    hi_u = hi[order][keep]
    sig_u = sigs_s[keep]

    # Unique links → endpoint arrays for the shared CSR builder; the
    # signature encodes the provider/customer direction.
    peer_mask = sig_u == _SIG_PEER
    prov_is_lo = sig_u == _SIG_PROVIDER_IS_LO
    providers = np.where(prov_is_lo, lo_u, hi_u)[~peer_mask]
    customers = np.where(prov_is_lo, hi_u, lo_u)[~peer_mask]
    return compile_links(
        asn_array, providers, customers, lo_u[peer_mask], hi_u[peer_mask]
    )


def compile_as_rel_file(path: str | Path) -> CompiledTopology:
    """Stream-compile a CAIDA ``as-rel`` file (see :func:`compile_as_rel_lines`)."""
    with open(path, encoding="utf-8") as handle:
        return compile_as_rel_lines(handle)

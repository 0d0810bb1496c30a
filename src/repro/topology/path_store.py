"""Persistent cross-process caches for topology-derived artifacts.

The sharded comparison pipelines fan (scheme x seed) and
(method x omega x seed) grids over worker processes.  Shards that share a
seed build the *identical* topology, then each re-derives the same
topology-dependent artifacts from scratch: per-pair path catalogs (KSP
pools, landmark legs) on the figure-8 side, the all-candidate hop-count
probe on the figure-9 side.  This module persists both next to the JSONL
run directories so warm shards skip the recomputation:

* :class:`PathCatalogStore` -- JSON files of per-pair path lists, one file
  per ``(topology fingerprint, selector label)``, entries carrying the
  ``k`` they were generated at.  Selectors cached here are *prefix-stable*
  (the first ``k`` paths of a larger-``k`` run equal the ``k`` run:
  true for KSP enumeration, landmark ordering and EDS rounds), so a
  stored entry serves any request with a smaller or equal ``k``.
* :class:`HopMatrixStore` -- one NPZ per topology fingerprint holding the
  batched hop-count rows of the placement cost probe.

Keys include :func:`repro.topology.csr.topology_fingerprint`,
which covers exactly the node and edge sets -- the inputs of every cached
artifact.  Balance-dependent selectors (EDW, heuristic) are never
persisted.  Writers merge-then-replace atomically, so concurrent shard
workers can share one cache directory; the worst race outcome is an entry
written between a concurrent writer's merge and its rename getting lost
(a future cache miss), never a torn file.

Caches are *transparent*: a stored catalog is bit-identical to a freshly
generated one (pinned by the hypothesis invariant in
``tests/topology/test_csr_equivalence.py``), and schemes account
control-plane probe messages as if they had computed the paths themselves,
so metrics never depend on cache warmth.
"""

from __future__ import annotations

import ast
import json
import os
import tempfile
import zipfile
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.log import get_logger

log = get_logger("repro.path_store")

NodeId = Hashable
Path = Tuple[NodeId, ...]
Pair = Tuple[NodeId, NodeId]

#: Bumped when the on-disk layout changes; foreign versions are ignored.
STORE_SCHEMA_VERSION = 1


def _encode_node(node: NodeId) -> str:
    """A node id as a string that survives JSON round trips losslessly."""
    return repr(node)


def _decode_node(text: str) -> NodeId:
    """Inverse of :func:`_encode_node` (ints, strings, tuples, ...)."""
    return ast.literal_eval(text)


def _atomic_write(path: str, write) -> None:
    """Write a file via temp-file-plus-rename so readers never see a torn file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    handle, temp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            write(stream)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _sanitize(label: str) -> str:
    """A selector label as a safe filename fragment."""
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)


class PathCatalogStore:
    """Disk-backed per-pair path catalogs for one topology fingerprint.

    One JSON file per selector label; every entry records the ``k`` its
    paths were generated at and serves any request with ``k' <= k`` as the
    prefix (the cached selectors enumerate paths incrementally, so prefixes
    are exact).  ``hits``/``misses`` count lookups for the run report.
    """

    def __init__(self, directory: str, fingerprint: str) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self._catalogs: Dict[str, Dict[Pair, Tuple[int, List[Path]]]] = {}
        self._dirty: set = set()

    # ------------------------------------------------------------------ #
    # lookup / insert
    # ------------------------------------------------------------------ #
    def get(self, selector: str, k: int, pair: Tuple[NodeId, NodeId]) -> Optional[List[Path]]:
        """The pair's cached paths at ``k``, or ``None`` (counted as hit/miss)."""
        catalog = self._catalog(selector)
        entry = catalog.get(pair)
        if entry is None or entry[0] < k:
            self.misses += 1
            return None
        self.hits += 1
        stored_k, paths = entry
        return [tuple(path) for path in (paths if stored_k == k else paths[:k])]

    def put(
        self,
        selector: str,
        k: int,
        pair: Tuple[NodeId, NodeId],
        paths: Sequence[Sequence[NodeId]],
    ) -> None:
        """Record freshly generated paths (larger-``k`` entries are kept)."""
        catalog = self._catalog(selector)
        existing = catalog.get(pair)
        if existing is not None and existing[0] >= k:
            return
        catalog[pair] = (k, [tuple(path) for path in paths])
        self._dirty.add(selector)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _path_for(self, selector: str) -> str:
        return os.path.join(
            self.directory, f"catalog-{self.fingerprint}-{_sanitize(selector)}.json"
        )

    def _catalog(self, selector: str) -> Dict[Tuple[NodeId, NodeId], Tuple[int, List[Path]]]:
        catalog = self._catalogs.get(selector)
        if catalog is None:
            catalog = self._load(selector)
            self._catalogs[selector] = catalog
        return catalog

    def _load(self, selector: str) -> Dict[Tuple[NodeId, NodeId], Tuple[int, List[Path]]]:
        """Load one selector's catalog; a corrupt file warns and rebuilds.

        Caches are derived artifacts: a truncated or damaged file (torn
        disk, partial copy, editor accident) must cost a recomputation, not
        a traceback mid-sweep.  The whole parse -- JSON *and* entry
        decoding -- is guarded, since valid JSON can still carry undecodable
        entries.
        """
        path = self._path_for(selector)
        catalog: Dict[Tuple[NodeId, NodeId], Tuple[int, List[Path]]] = {}
        if not os.path.exists(path):
            return catalog
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or (
                payload.get("schema") != STORE_SCHEMA_VERSION
                or payload.get("fingerprint") != self.fingerprint
            ):
                return catalog
            for sender, receiver, k, raw_paths in payload.get("entries", ()):
                pair = (_decode_node(sender), _decode_node(receiver))
                catalog[pair] = (
                    int(k),
                    [tuple(_decode_node(node) for node in path) for path in raw_paths],
                )
        except (OSError, json.JSONDecodeError):
            log.warning(
                f"path catalog {path} is corrupt or truncated; "
                f"ignoring it and rebuilding from scratch",
                path=path,
            )
            return {}
        except (ValueError, SyntaxError, TypeError, KeyError):
            log.warning(
                f"path catalog {path} holds undecodable entries; "
                f"ignoring it and rebuilding from scratch",
                path=path,
            )
            return {}
        return catalog

    def save(self) -> None:
        """Merge dirty catalogs into their files and write them atomically.

        Entries written by concurrent workers since our load are merged in
        (larger ``k`` wins per pair), so parallel shards converge on the
        union of everything computed.
        """
        for selector in sorted(self._dirty):
            merged = self._load(selector)
            for pair, (k, paths) in self._catalogs[selector].items():
                existing = merged.get(pair)
                if existing is None or existing[0] < k:
                    merged[pair] = (k, paths)
            payload = {
                "schema": STORE_SCHEMA_VERSION,
                "fingerprint": self.fingerprint,
                "selector": selector,
                "entries": [
                    [
                        _encode_node(pair[0]),
                        _encode_node(pair[1]),
                        k,
                        [[_encode_node(node) for node in path] for path in paths],
                    ]
                    for pair, (k, paths) in merged.items()
                ],
            }
            self._dirty.discard(selector)
            self._catalogs[selector] = merged
            _atomic_write(
                self._path_for(selector),
                lambda stream, payload=payload: json.dump(payload, stream),
            )

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus the number of in-memory entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": sum(len(catalog) for catalog in self._catalogs.values()),
        }


def hop_dicts_from_rows(
    node_order: Sequence[NodeId],
    sources: Sequence[NodeId],
    matrix,
) -> Dict[NodeId, Dict[NodeId, int]]:
    """Per-source hop-count dicts from a batched distance-matrix probe.

    Rows follow ``sources``; ``inf`` entries (unreachable nodes) are
    dropped, matching :meth:`PCNetwork.hop_counts_from`'s reachable-only
    contract.
    """
    matrix = np.asarray(matrix)
    hops: Dict[NodeId, Dict[NodeId, int]] = {}
    for row_index, source in enumerate(sources):
        distances = matrix[row_index]
        reachable = np.nonzero(np.isfinite(distances))[0]
        hops[source] = {
            node_order[int(column)]: int(distances[column]) for column in reachable
        }
    return hops


class HopMatrixStore:
    """Disk-backed all-candidate hop-count rows for one topology fingerprint.

    The figure-9 pipeline probes hop counts from every candidate before
    each solve; shards sharing a seed probe the identical matrix.  The NPZ
    holds the batched :meth:`PCNetwork.hop_count_rows` result (``inf``
    marks unreachable pairs), keyed by fingerprint like the path catalogs.
    """

    def __init__(self, directory: str, fingerprint: str) -> None:
        self.directory = directory
        self.fingerprint = fingerprint

    @property
    def path(self) -> str:
        """The store's NPZ file."""
        return os.path.join(self.directory, f"hops-{self.fingerprint}.npz")

    def load(self) -> Optional[Tuple[List[NodeId], List[NodeId], np.ndarray]]:
        """The cached ``(node order, sources, matrix)`` probe, or ``None`` when absent.

        A corrupt or truncated NPZ (``BadZipFile``, damaged members,
        undecodable node reprs) warns and returns ``None`` -- the caller
        re-probes, same as a cache miss.
        """
        if not os.path.exists(self.path):
            return None
        try:
            with np.load(self.path, allow_pickle=False) as payload:
                node_reprs = payload["nodes"]
                source_rows = payload["sources"]
                matrix = payload["matrix"]
            nodes = [_decode_node(str(text)) for text in node_reprs]
            sources = [nodes[int(row)] for row in source_rows]
            if matrix.shape != (len(sources), len(nodes)):
                raise ValueError(f"hop matrix shape {matrix.shape}")
            return nodes, sources, matrix
        except (
            OSError,
            ValueError,
            KeyError,
            IndexError,
            SyntaxError,
            zipfile.BadZipFile,
        ):
            log.warning(
                f"hop-matrix cache {self.path} is corrupt or truncated; "
                f"ignoring it and re-probing",
                path=self.path,
            )
            return None

    def save(self, node_order: Sequence[NodeId], sources: Sequence[NodeId], matrix) -> None:
        """Persist one batched probe result atomically."""
        os.makedirs(self.directory, exist_ok=True)
        row_of = {node: row for row, node in enumerate(node_order)}
        handle, temp_path = tempfile.mkstemp(
            dir=self.directory, prefix="hops.tmp", suffix=".npz"
        )
        os.close(handle)
        try:
            np.savez_compressed(
                temp_path,
                nodes=np.asarray([_encode_node(node) for node in node_order]),
                sources=np.asarray([row_of[source] for source in sources], dtype=np.int64),
                matrix=np.asarray(matrix, dtype=np.float32),
            )
            os.replace(temp_path, self.path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise

"""Shared-memory topology blocks: one seed's funded topology in one segment.

No sweep uses this module: a sweep process keeps its last network across
shards (:func:`repro.scenarios.runner.execute_run`), so each worker builds
a seed once, and a parent-side build and export would only delay dispatch.
Its callers are ``bench/layers.py::trace_compare``, which exports and
attaches blocks, and ``bench/run.py`` plus ``repro doctor``, which scan
``/dev/shm`` for segments that a killed benchmark pass, or a killed runner
of an earlier version, left behind.

A block packs one topology into a single ``multiprocessing.shared_memory``
segment:

* **read-only block** -- node ids and attribute dicts (pickled), the CSR
  adjacency (``indptr``/``indices`` plus a per-slot channel index that
  preserves the *exact* insertion/adjacency order, so the reconstructed
  network's ``topology_fingerprint`` matches the original bit for bit),
  and per-channel initial balances and fees as float64 arrays,
* **per-process private state** -- a reader attaches, reconstructs a
  :class:`~repro.topology.network.PCNetwork` that *copies out* everything
  it needs (:meth:`SharedTopologyBlock.build_network`), and unmaps the
  segment again: the rebuilt network borrows nothing from the block, so
  neither side constrains the other's lifetime.

Cleanup is owned by the creating process: it unlinks the block, and a
creator block additionally carries a ``weakref.finalize`` guard so the
segment is unlinked when the creator's reference is dropped.  Attaches
leave the (fork-shared) resource tracker alone: re-registration is a set
no-op there, and the tracker remains the last-resort cleanup if the
creator is killed.
"""

from __future__ import annotations

import os
import pickle
import struct
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.topology.channel import PaymentChannel
from repro.topology.network import PCNetwork

#: Magic version 2: the fixed owner stamp below sits between the magic and
#: the pickled header, so the orphan reaper can identify (and validate) a
#: segment without ever unpickling foreign bytes.
_MAGIC = b"RPSHM2\n"
_ALIGN = 64

#: Fixed binary owner stamp right after the magic:
#: ``owner_pid``, ``owner_start_ticks`` (process start time from
#: ``/proc/<pid>/stat``, 0 when unavailable) and the pickled header length.
#: Everything the reaper reads from an unknown file lives in this stamp --
#: pure ``struct`` fields, never pickle.
_OWNER_STAMP = struct.Struct("<QQQ")

#: Where POSIX shared-memory segments appear as files (Linux / most BSDs).
#: The orphan reaper scans here; platforms without it simply reap nothing.
_SHM_DIR = "/dev/shm"

#: Upper bound on a plausible pickled-header length in the owner stamp; a
#: real topology header is a few KiB to a few MiB.  Stamps outside this
#: range mark the file as foreign.
_MAX_HEADER_BYTES = 64 * 1024 * 1024


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _proc_start_ticks(pid: int) -> Optional[int]:
    """Process start time in clock ticks (``/proc/<pid>/stat`` field 22).

    The (pid, start time) pair identifies a process even after the bare pid
    has been recycled.  Returns ``None`` on platforms without ``/proc`` or
    when the process is gone.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return None
    # comm (field 2) is parenthesised and may contain spaces or parens;
    # the space-separated fields resume after the *last* ')'.
    end = stat.rfind(b")")
    if end < 0:
        return None
    fields = stat[end + 2 :].split()
    try:
        return int(fields[19])  # field 22 overall; state (field 3) is fields[0]
    except (IndexError, ValueError):
        return None


def _unlink_segment(name: str) -> None:
    """Best-effort unlink used by the creator's finalizer guard.

    Re-attaching registers the name with the resource tracker again; with
    the fork start method every process shares the parent's tracker, so the
    extra ``register`` is a set no-op and ``unlink`` unregisters cleanly.
    A segment some other path already destroyed is simply done.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - racing cleanup
        pass


class SharedArrayBlock:
    """One shared-memory segment holding named read-only arrays plus metadata.

    Layout: magic, the fixed little-endian owner stamp (owner pid, owner
    start ticks, header length -- see ``_OWNER_STAMP``), a pickled header
    (metadata and per-array dtype/shape/offset), then 64-byte-aligned array
    payloads.  Attached views are numpy arrays with ``writeable=False`` --
    the read-only contract workers operate under.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        arrays: Dict[str, np.ndarray],
        meta: dict,
        owner: bool,
    ) -> None:
        self.segment = segment
        self.arrays = arrays
        self.meta = meta
        self.owner = owner
        self._finalizer = (
            weakref.finalize(self, _unlink_segment, segment.name) if owner else None
        )

    @property
    def name(self) -> str:
        """The segment name: the only thing workers need to attach."""
        return self.segment.name

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray], meta: dict) -> "SharedArrayBlock":
        """Pack arrays and metadata into a fresh shared-memory segment.

        The creating process's identity -- pid plus ``/proc`` start time,
        which together survive pid recycling -- is stamped into the fixed
        binary field after the magic, so the orphan reaper can tell a
        segment whose owner died from one still in use without parsing the
        pickled header.
        """
        layout: List[Tuple[str, str, Tuple[int, ...], int]] = []
        offset = 0  # relative to the data region; resolved after the header
        specs: List[np.ndarray] = []
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            layout.append((key, array.dtype.str, array.shape, offset))
            specs.append(array)
            offset = _aligned(offset + array.nbytes)
        header = pickle.dumps(
            {"meta": meta, "layout": layout},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        prefix = len(_MAGIC) + _OWNER_STAMP.size
        data_start = _aligned(prefix + len(header))
        total = max(1, data_start + offset)
        pid = os.getpid()
        segment = shared_memory.SharedMemory(create=True, size=total)
        buf = segment.buf
        buf[: len(_MAGIC)] = _MAGIC
        _OWNER_STAMP.pack_into(
            buf, len(_MAGIC), pid, _proc_start_ticks(pid) or 0, len(header)
        )
        buf[prefix : prefix + len(header)] = header
        views: Dict[str, np.ndarray] = {}
        for (key, dtype, shape, rel_offset), array in zip(layout, specs):
            view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=data_start + rel_offset)
            view[...] = array
            view.flags.writeable = False
            views[key] = view
        return cls(segment, views, dict(meta), owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedArrayBlock":
        """Attach read-only views onto an existing segment by name."""
        segment = shared_memory.SharedMemory(name=name)
        buf = segment.buf
        if bytes(buf[: len(_MAGIC)]) != _MAGIC:
            segment.close()
            raise ValueError(f"segment {name!r} is not a shared array block")
        _pid, _ticks, header_len = _OWNER_STAMP.unpack_from(buf, len(_MAGIC))
        prefix = len(_MAGIC) + _OWNER_STAMP.size
        header = pickle.loads(bytes(buf[prefix : prefix + header_len]))
        data_start = _aligned(prefix + header_len)
        views: Dict[str, np.ndarray] = {}
        for key, dtype, shape, rel_offset in header["layout"]:
            view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=data_start + rel_offset)
            view.flags.writeable = False
            views[key] = view
        return cls(segment, views, header["meta"], owner=False)

    def close(self) -> None:
        """Unmap this process's view (the segment itself stays alive)."""
        self.arrays = {}
        self.segment.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only); safe to call more than once."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self.arrays = {}
        self.segment.close()
        try:
            self.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - racing cleanup
            pass


class SharedTopologyBlock:
    """A funded topology exported to shared memory, reconstructible per worker.

    The export preserves everything the simulation's determinism depends on:
    node insertion order, per-node adjacency order (CSR + a per-slot channel
    index), channel endpoint order, per-side balances and fees, and node
    attribute dicts.  :meth:`build_network` therefore returns a network whose
    ``topology_fingerprint``, snapshot and every query result are identical
    to the original -- the bit-identity contract its round-trip tests pin.
    """

    def __init__(self, block: SharedArrayBlock) -> None:
        self.block = block

    @property
    def name(self) -> str:
        """Segment name; pickle-friendly worker handle."""
        return self.block.name

    # ------------------------------------------------------------------ #
    # export (parent side)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_network(cls, network: PCNetwork) -> "SharedTopologyBlock":
        """Export a network's topology and initial balances to shared memory."""
        adj = network.adj
        node_ids = list(adj)
        row_of = {node: row for row, node in enumerate(node_ids)}

        # Edges in balance-store order: the rebuilt network's store is the
        # exported one, entry for entry.
        store = network.balance_store
        channels = store.channels
        balances = store.as_array()

        n = len(node_ids)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices: List[int] = []
        adj_edge: List[int] = []
        for row, node in enumerate(node_ids):
            for neighbor, channel in adj[node].items():
                indices.append(row_of[neighbor])
                adj_edge.append(channel.store_index // 2)
            indptr[row + 1] = len(indices)

        arrays = {
            "indptr": indptr,
            "indices": np.asarray(indices, dtype=np.int64),
            "adj_edge": np.asarray(adj_edge, dtype=np.int64),
            "edge_u": np.asarray([row_of[c.node_a] for c in channels], dtype=np.int64),
            "edge_v": np.asarray([row_of[c.node_b] for c in channels], dtype=np.int64),
            "bal_u": balances[0::2],
            "bal_v": balances[1::2],
            "base_fee": np.asarray([c.base_fee for c in channels], dtype=np.float64),
            "fee_rate": np.asarray([c.fee_rate for c in channels], dtype=np.float64),
        }
        meta = {
            "nodes": node_ids,
            "attrs": [dict(network.node_attrs(node)) for node in node_ids],
        }
        return cls(SharedArrayBlock.create(arrays, meta))

    @classmethod
    def attach(cls, name: str) -> "SharedTopologyBlock":
        """Attach to a block exported by another process."""
        return cls(SharedArrayBlock.attach(name))

    # ------------------------------------------------------------------ #
    # reconstruction (worker side)
    # ------------------------------------------------------------------ #
    def build_network(self) -> PCNetwork:
        """Reconstruct the exported network; it holds no view of the block.

        The walk below writes the private adjacency dicts directly -- going
        through ``add_channel`` would re-derive insertion order from the
        undirected edge list and can permute per-node adjacency, which would
        change path tie-breaks and the topology fingerprint.
        """
        arrays = self.block.arrays
        meta = self.block.meta
        nodes = meta["nodes"]
        network = PCNetwork()
        for node, attrs in zip(nodes, meta["attrs"]):
            network._node_attrs[node] = dict(attrs)
            network._adj[node] = {}

        store = network.balance_store
        edge_columns = ("edge_u", "edge_v", "bal_u", "bal_v", "base_fee", "fee_rate")
        for node_a, node_b, balance_a, balance_b, base_fee, fee_rate in zip(
            *(arrays[key].tolist() for key in edge_columns)
        ):
            store.adopt(
                PaymentChannel(
                    nodes[node_a], nodes[node_b], balance_a, balance_b, base_fee, fee_rate
                )
            )
        channels = store.channels

        indptr = arrays["indptr"]
        indices = arrays["indices"]
        adj_edge = arrays["adj_edge"]
        internal = network._adj
        for row, node in enumerate(nodes):
            neighbors = internal[node]
            for pos in range(int(indptr[row]), int(indptr[row + 1])):
                neighbors[nodes[int(indices[pos])]] = channels[int(adj_edge[pos])]
        return network

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Unmap this process's view."""
        self.block.close()

    def unlink(self) -> None:
        """Destroy the segment (creator side)."""
        self.block.unlink()


# ---------------------------------------------------------------------- #
# orphan reaping
# ---------------------------------------------------------------------- #
def _owner_alive(pid: int, start_ticks: int) -> bool:
    """Whether the stamped owner process still exists.

    A bare pid is not enough: a dead runner's pid recycled by an unrelated
    process would keep its orphaned segment pinned forever.  When the stamp
    carries the owner's start time, the current occupant of the pid must
    match it too -- a mismatch means the pid was recycled and the owner is
    dead.  A zero ``start_ticks`` (no ``/proc`` at create time) falls back
    to the pid-existence check alone.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # the pid exists but belongs to another user
        pass
    if start_ticks:
        current = _proc_start_ticks(pid)
        if current is not None and current != start_ticks:
            return False  # pid recycled by an unrelated process
    return True


def _segment_owner(path: str) -> Optional[Tuple[int, int]]:
    """The ``(owner_pid, owner_start_ticks)`` stamp of one of *our* segments.

    Returns ``None`` for anything foreign.  Reads the file directly rather
    than attaching: attaching registers the name with the resource tracker,
    which would then warn about (or double-unlink) segments we decide to
    leave alone.

    ``/dev/shm`` is world-writable, so any local user can plant a file with
    our magic: only the *fixed struct-packed* stamp is ever parsed -- an
    unknown file's bytes never reach ``pickle`` -- and files not owned by
    our own uid are rejected outright before reading a byte.
    """
    try:
        if os.stat(path).st_uid != os.getuid():
            return None
        with open(path, "rb") as handle:
            if handle.read(len(_MAGIC)) != _MAGIC:
                return None
            raw = handle.read(_OWNER_STAMP.size)
            if len(raw) != _OWNER_STAMP.size:
                return None
            pid, start_ticks, header_len = _OWNER_STAMP.unpack(raw)
    except (OSError, AttributeError, struct.error):
        return None
    if not 0 < header_len <= _MAX_HEADER_BYTES:
        return None
    if not 0 < pid < 2**31:
        return None
    return int(pid), int(start_ticks)


def _segment_owner_pid(path: str) -> Optional[int]:
    """The stamped ``owner_pid`` of one of *our* segments, or ``None``."""
    owner = _segment_owner(path)
    return owner[0] if owner is not None else None


def scan_segments(shm_dir: str = _SHM_DIR) -> List[Tuple[str, int, bool]]:
    """All magic-tagged segments: ``(name, owner_pid, owner_alive)`` triples.

    Powers the ``repro doctor`` reap and report.  Returns an empty list on
    platforms without a ``/dev/shm``.
    """
    found: List[Tuple[str, int, bool]] = []
    try:
        names = sorted(os.listdir(shm_dir))
    except OSError:
        return found
    for name in names:
        owner = _segment_owner(os.path.join(shm_dir, name))
        if owner is None:
            continue
        pid, start_ticks = owner
        found.append((name, pid, _owner_alive(pid, start_ticks)))
    return found


def reap_orphan_segments(shm_dir: str = _SHM_DIR) -> List[str]:
    """Unlink our shared-memory segments whose owner process is dead.

    A runner killed with ``SIGKILL`` (OOM, operator) never reaches its
    ``finally``/finalizer cleanup, leaving topology blocks -- potentially
    gigabytes at xl scale -- pinned in ``/dev/shm`` machine-wide.  Only
    files owned by our uid, carrying our magic tag *and* a plausible owner
    stamp *and* whose stamped owner (pid plus start time) is dead are
    removed; everything else is left untouched.  Returns the unlinked
    segment names.
    """
    reaped: List[str] = []
    for name, _owner, alive in scan_segments(shm_dir):
        if alive:
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except OSError:  # pragma: no cover - racing cleanup / permissions
            continue
        reaped.append(name)
    return reaped

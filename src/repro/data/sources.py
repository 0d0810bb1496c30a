"""Registries of topology and workload source providers.

The scenario layer used to hard-code its inputs: a closed dict of synthetic
topology generators and one Poisson workload generator baked into
``WorkloadSpec``.  This module replaces both with open registries.  A
*source* is a named builder:

* a **topology source** turns ``(seed, params)`` into a funded
  :class:`~repro.topology.network.PCNetwork`;
* a **workload source** turns ``(network, seed, params)`` into a
  transaction workload (materialized or streaming).

Register new sources with the :func:`topology_source` /
:func:`workload_source` decorators; scenario specs dispatch by ``kind``
(``topology.kind`` for the legacy synthetic spelling, or the explicit
``topology.source`` / ``workload.source`` descriptor), and every source
parameter is reachable from grid overrides, e.g.
``workload.source.time_scale``.

Builder calling conventions (enforced by the spec layer, not here):

* topology builders are called as ``builder(**params)`` with ``seed=<int>``
  added when the source is registered ``seeded=True`` and
  ``channel_scale=<float>`` added when registered ``channel_scale=True``;
* workload builders are called as ``builder(network, seed, params, spec)``
  where ``spec`` is the owning
  :class:`~repro.scenarios.spec.WorkloadSpec` (its fields supply defaults
  such as the target duration and value scale).

File-backed sources parse through :func:`last_parse`, which keeps the last
file's parse per process: the shards of a sweep over one snapshot and one
trace read each file once per worker.

The synthetic generators register themselves below; the real-data sources
(``lightning-snapshot``, ``ripple-trace``) register from their own modules,
imported at the bottom of this file so that importing the registry is
enough to see every built-in.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, TypeVar

from repro.topology.datasets import ChannelSizeDistribution
from repro.topology.generators import (
    grid_pcn,
    multi_star_pcn,
    random_pcn,
    scale_free_pcn,
    star_pcn,
    watts_strogatz_pcn,
)

__all__ = [
    "SourceInfo",
    "get_topology_source",
    "get_workload_source",
    "last_parse",
    "list_topology_sources",
    "list_workload_sources",
    "topology_source",
    "workload_source",
]


@dataclass(frozen=True)
class SourceInfo:
    """One registered source provider.

    Attributes:
        kind: Registry name (the ``kind`` scenario specs dispatch on).
        builder: The builder callable (see the module docstring for the
            calling convention of each registry).
        description: One-line description shown by ``python -m repro list``.
        seeded: Topology only -- whether the builder takes a ``seed`` kwarg
            (deterministic loaders such as snapshot parsing do not).
        channel_scale: Whether the builder understands the spec's
            ``channel_scale`` knob (the paper's channel-size sweeps).
            Specs with a non-trivial ``channel_scale`` on a source that
            does not support it are rejected instead of silently ignored.
        synthetic: Whether the source generates its data (synthetic
            generators) or loads external data (trace/snapshot loaders).
            A data-backed source spelled through the ``kind`` field is
            rejected with a ``ValueError`` pointing at ``source:``
            (:meth:`~repro.scenarios.spec.TopologySpec.resolved_source`).
    """

    kind: str
    builder: Callable
    description: str = ""
    seeded: bool = True
    channel_scale: bool = False
    synthetic: bool = False


TOPOLOGY_SOURCES: Dict[str, SourceInfo] = {}
WORKLOAD_SOURCES: Dict[str, SourceInfo] = {}


def _register(
    registry: Dict[str, SourceInfo], info: SourceInfo, family: str, replace: bool
) -> None:
    if not replace and info.kind in registry:
        raise ValueError(
            f"{family} source {info.kind!r} is already registered; "
            f"pass replace=True to override it"
        )
    registry[info.kind] = info


def topology_source(
    kind: str,
    *,
    description: str = "",
    seeded: bool = True,
    channel_scale: bool = False,
    synthetic: bool = False,
    replace: bool = False,
) -> Callable[[Callable], Callable]:
    """Class/function decorator registering a topology source builder."""

    def decorator(builder: Callable) -> Callable:
        _register(
            TOPOLOGY_SOURCES,
            SourceInfo(
                kind=kind,
                builder=builder,
                description=description,
                seeded=seeded,
                channel_scale=channel_scale,
                synthetic=synthetic,
            ),
            "topology",
            replace,
        )
        return builder

    return decorator


def workload_source(
    kind: str,
    *,
    description: str = "",
    synthetic: bool = False,
    replace: bool = False,
) -> Callable[[Callable], Callable]:
    """Class/function decorator registering a workload source builder."""

    def decorator(builder: Callable) -> Callable:
        _register(
            WORKLOAD_SOURCES,
            SourceInfo(
                kind=kind,
                builder=builder,
                description=description,
                seeded=True,
                channel_scale=False,
                synthetic=synthetic,
            ),
            "workload",
            replace,
        )
        return builder

    return decorator


def get_topology_source(kind: str) -> SourceInfo:
    """The registered topology source, or a ``ValueError`` listing options.

    The three auxiliary generators are the only production code that builds
    on networkx; asking for one without the package is a configuration
    error raised here -- where the parent resolves a spec -- not an
    ``ImportError`` inside every shard.
    """
    try:
        info = TOPOLOGY_SOURCES[kind]
    except KeyError:
        raise ValueError(
            f"unknown topology kind {kind!r}; expected one of "
            f"{sorted(TOPOLOGY_SOURCES)}"
        ) from None
    if (
        info.builder in (_scale_free_source, _random_source, _grid_source)
        and importlib.util.find_spec("networkx") is None
    ):
        raise ValueError(
            f"topology kind {kind!r} needs the 'networkx' package, which is not installed"
        )
    return info


def get_workload_source(kind: str) -> SourceInfo:
    """The registered workload source, or a ``ValueError`` listing options."""
    try:
        return WORKLOAD_SOURCES[kind]
    except KeyError:
        raise ValueError(
            f"unknown workload source {kind!r}; expected one of "
            f"{sorted(WORKLOAD_SOURCES)}"
        ) from None


def list_topology_sources() -> List[SourceInfo]:
    """All registered topology sources, sorted by kind."""
    return [TOPOLOGY_SOURCES[kind] for kind in sorted(TOPOLOGY_SOURCES)]


def list_workload_sources() -> List[SourceInfo]:
    """All registered workload sources, sorted by kind."""
    return [WORKLOAD_SOURCES[kind] for kind in sorted(WORKLOAD_SOURCES)]


Parsed = TypeVar("Parsed")


def last_parse(memo: Dict[tuple, Parsed], path: str, parse: Callable[[str], Parsed]) -> Parsed:
    """``parse(path)``, reused while the file is unchanged; ``memo`` keeps one file.

    The key is the path plus the file's size, mtime and inode: a rewrite in
    place moves the mtime (and usually the size), a rewrite by rename moves
    the inode.  A parse is shared by every later hit, so callers keep it
    immutable and hand out copies of its containers.
    """
    stat = os.stat(path)
    key = (path, stat.st_size, stat.st_mtime_ns, stat.st_ino)
    parsed = memo.get(key)
    if parsed is None:
        # Dropped first: the previous file's parse must not sit under the
        # peak of the next one.
        memo.clear()
        parsed = memo[key] = parse(path)
    return parsed


# ---------------------------------------------------------------------- #
# built-in synthetic topology sources
# ---------------------------------------------------------------------- #
def _with_channel_sizes(params: Dict[str, object], channel_scale) -> Dict[str, object]:
    """Fold the spec-level ``channel_scale`` knob into generator kwargs.

    Mirrors the pre-registry dispatch exactly: a non-``None`` scale becomes
    the paper's heavy-tailed :class:`ChannelSizeDistribution` unless the
    caller already supplied ``channel_sizes`` explicitly.
    """
    if channel_scale is not None:
        params.setdefault("channel_sizes", ChannelSizeDistribution(scale=float(channel_scale)))
    return params


@topology_source(
    "watts-strogatz",
    description="funded Watts-Strogatz small world (the paper's evaluation topology)",
    channel_scale=True,
    synthetic=True,
)
def _watts_strogatz_source(channel_scale=None, **params):
    return watts_strogatz_pcn(**_with_channel_sizes(params, channel_scale))


@topology_source(
    "scale-free",
    description="Barabasi-Albert scale-free PCN (ROLL-style hub structure)",
    channel_scale=True,
    synthetic=True,
)
def _scale_free_source(channel_scale=None, **params):
    return scale_free_pcn(**_with_channel_sizes(params, channel_scale))


@topology_source(
    "random",
    description="connected Erdos-Renyi PCN (fuzz/property testing)",
    channel_scale=True,
    synthetic=True,
)
def _random_source(channel_scale=None, **params):
    return random_pcn(**_with_channel_sizes(params, channel_scale))


@topology_source(
    "grid",
    description="2-D grid PCN with uniform channels (hand-checkable tests)",
    synthetic=True,
)
def _grid_source(**params):
    return grid_pcn(**params)


@topology_source(
    "star",
    description="single-PCH star of figure 2(a)",
    seeded=False,
    synthetic=True,
)
def _star_source(**params):
    return star_pcn(**params)


@topology_source(
    "multi-star",
    description="multi-PCH star-of-stars of figure 2(b)",
    seeded=False,
    synthetic=True,
)
def _multi_star_source(**params):
    return multi_star_pcn(**params)


# ---------------------------------------------------------------------- #
# built-in synthetic workload source
# ---------------------------------------------------------------------- #
@workload_source(
    "poisson",
    description="synthetic Poisson arrivals, heavy-tailed values, skewed pairs",
    synthetic=True,
)
def _poisson_source(network, seed, params, spec):
    """The default generator, parameterized by the spec's own fields.

    ``params`` (from an explicit ``workload.source`` descriptor) override
    the spec fields of the same name, so sources and grid overrides
    compose: ``workload.source.arrival_rate`` sweeps work like
    ``workload.arrival_rate``.
    """
    return spec.with_poisson_params(params).build_poisson(network, seed)


# Data-backed sources register from their own modules; importing them last
# keeps the decorator available to them without a circular import.
from repro.data import lightning as _lightning  # noqa: E402,F401
from repro.data import ripple as _ripple  # noqa: E402,F401

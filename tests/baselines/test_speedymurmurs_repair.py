"""SpeedyMurmurs embedding repair: incremental == from-scratch, always.

The scheme's selling point under churn is *selective* repair: a landmark
tree is rebuilt only when a link change can actually alter its canonical
BFS (any newly traversable link, or the loss/defunding of one of its own
tree edges).  The safety of every skip rests on the invariant pinned
here: after any sequence of dynamics events, the stored embedding of each
landmark must be bit-identical to building that landmark's tree from
scratch against the current network.  A wrong skip condition -- e.g.
ignoring a defunded tree edge, or skipping on a gained link -- shows up
immediately as a divergence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SpeedyMurmursScheme
from repro.reference.baselines import SpeedyMurmursScheme as ReferenceSpeedyMurmursScheme
from repro.scenarios.dynamics import churn_events, jamming_events
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import WorkloadConfig, generate_workload
from repro.topology.generators import watts_strogatz_pcn


def _build_network(seed, nodes=20):
    return watts_strogatz_pcn(
        nodes,
        nearest_neighbors=4,
        rewire_probability=0.3,
        uniform_channel_size=50.0,
        seed=seed,
    )


def _assert_repair_matches_rebuild(scheme):
    """Each stored landmark tree equals a fresh canonical build right now."""
    assert scheme._link_state == scheme._classify_links()
    for i, root in enumerate(scheme.landmarks):
        coords, parents, edges = scheme._build_tree(root)
        assert scheme._coords[i] == coords, f"landmark {root!r}: stale coordinates"
        assert scheme._parents[i] == parents, f"landmark {root!r}: stale parents"
        assert scheme._tree_edges[i] == edges, f"landmark {root!r}: stale tree edges"


def _bracket(scheme, mutate):
    """Apply one mutation through the runner's hook protocol."""
    undo = mutate()
    scheme.on_network_change()
    return undo


#: The repair invariant holds with and without the executor's path catalog.
SCHEME_CLASSES = [ReferenceSpeedyMurmursScheme, SpeedyMurmursScheme]


class TestRepairEqualsRebuild:
    @pytest.mark.parametrize("scheme_class", SCHEME_CLASSES, ids=["reference", "production"])
    def test_close_and_reopen_channel(self, scheme_class):
        network = _build_network(seed=3)
        scheme = scheme_class()
        scheme.prepare(network)
        # Close a tree edge of the first landmark (forces a rebuild there),
        # then reopen it (a gained link: every landmark rebuilds).
        edge = sorted(scheme._tree_edges[0])[0]
        balances = _bracket(scheme, lambda: network.remove_channel(*edge))
        _assert_repair_matches_rebuild(scheme)
        _bracket(
            scheme,
            lambda: network.add_channel(edge[0], edge[1], balances[edge[0]], balances[edge[1]]),
        )
        _assert_repair_matches_rebuild(scheme)

    @pytest.mark.parametrize("scheme_class", SCHEME_CLASSES, ids=["reference", "production"])
    def test_jamming_flips_funding_classification(self, scheme_class):
        network = _build_network(seed=4)
        scheme = scheme_class()
        scheme.prepare(network)
        # Jam one side of a phase-one tree edge dry: the channel flips from
        # bidirectional to unidirectional without any topology change.
        edge = sorted(scheme._tree_edges[0])[0]
        channel = network.channel(*edge)
        version_before = scheme._embedding_version
        lock_id = _bracket(
            scheme, lambda: channel.lock(edge[0], channel.balance(edge[0]), now=0.0, tag="jam")
        )
        assert scheme._embedding_version > version_before
        _assert_repair_matches_rebuild(scheme)
        _bracket(scheme, lambda: channel.release(lock_id))
        _assert_repair_matches_rebuild(scheme)

    def test_non_tree_removal_skips_rebuild_soundly(self):
        network = _build_network(seed=5)
        scheme = SpeedyMurmursScheme()
        scheme.prepare(network)
        tree_union = set().union(*scheme._tree_edges)
        non_tree = [
            key for key in scheme._link_state if key not in tree_union
        ]
        if not non_tree:
            pytest.skip("every channel landed in some landmark tree")
        coords_before = [dict(c) for c in scheme._coords]
        version_before = scheme._embedding_version
        _bracket(scheme, lambda: network.remove_channel(*non_tree[0]))
        # The fast path must actually skip (no rebuild counted) AND the
        # skipped embedding must still equal a from-scratch build.
        assert scheme._embedding_version == version_before
        assert [dict(c) for c in scheme._coords] == coords_before
        _assert_repair_matches_rebuild(scheme)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        actions=st.lists(st.integers(min_value=0, max_value=2 ** 30), min_size=1, max_size=6),
    )
    def test_random_mutation_sequences(self, seed, actions):
        """Arbitrary interleavings of close / reopen / jam / release."""
        network = _build_network(seed=seed, nodes=16)
        scheme = SpeedyMurmursScheme()
        scheme.prepare(network)
        closed = []  # (edge, balances)
        jams = []  # (channel, lock_id)
        for action in actions:
            channels = list(network.channels())
            kind = action % 4
            if kind == 0 and channels:  # close a channel
                channel = channels[action // 4 % len(channels)]
                edge = channel.endpoints
                closed.append((edge, _bracket(scheme, lambda: network.remove_channel(*edge))))
            elif kind == 1 and closed:  # reopen the oldest closed channel
                edge, balances = closed.pop(0)
                _bracket(
                    scheme,
                    lambda: network.add_channel(
                        edge[0], edge[1], balances[edge[0]], balances[edge[1]]
                    ),
                )
            elif kind == 2 and channels:  # jam one direction dry
                channel = channels[action // 4 % len(channels)]
                node = channel.endpoints[action // 8 % 2]
                amount = channel.balance(node)
                if amount > 0:
                    jams.append(
                        (channel, _bracket(scheme, lambda: channel.lock(node, amount, now=0.0)))
                    )
            elif jams:  # release the oldest jam
                channel, lock_id = jams.pop(0)
                if not channel.closed:
                    _bracket(scheme, lambda: channel.release(lock_id))
            _assert_repair_matches_rebuild(scheme)

    @pytest.mark.parametrize("dynamics_kind", ["churn", "jamming"])
    def test_full_run_under_dynamics(self, dynamics_kind):
        """End-to-end: the embedding is rebuild-fresh after a dynamic run."""
        network = _build_network(seed=9, nodes=24)
        workload = generate_workload(
            network, WorkloadConfig(duration=3.0, arrival_rate=10.0, seed=2)
        )
        if dynamics_kind == "churn":
            events = churn_events(
                network, np.random.default_rng(6), count=6, start=0.5, end=2.0, down_time=0.8
            )
        else:
            events = jamming_events(network, at=0.5, duration=1.5, count=4, fraction=0.9)
        runner = ExperimentRunner(network, workload, step_size=0.1, dynamics=events)
        scheme = SpeedyMurmursScheme()
        runner.run_single(scheme, rng=np.random.default_rng(0))
        _assert_repair_matches_rebuild(scheme)

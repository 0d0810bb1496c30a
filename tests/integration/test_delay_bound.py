"""Every completed payment's reported delay is its latency, within its timeout.

The figure-8 comparison at paper scale (3,000 nodes) over all eight schemes,
one seed, run in process.  Pre-routing waits (source path computation,
Splicer's client-to-hub round trip, A2L's puzzle-promise setup) count
against the deadline, so the one delay the metrics record -- arrival to
completion -- can never exceed the payment's timeout.
"""

import numpy as np

from repro.baselines import SCHEME_REGISTRY
from repro.scenarios.registry import build_comparison_spec, comparison_scheme_spec
from repro.scenarios.spec import derive_seed
from repro.simulator.metrics import MetricsCollector


def test_paper_scale_delays_are_latencies_within_the_timeout(monkeypatch):
    recorded = []
    record_completed = MetricsCollector.record_completed

    def recording(collector, payment, *args, **kwargs):
        record_completed(collector, payment, *args, **kwargs)
        recorded.append((collector.scheme, payment, float(collector.delays.view()[-1])))

    monkeypatch.setattr(MetricsCollector, "record_completed", recording)
    spec = build_comparison_spec("paper", sorted(SCHEME_REGISTRY), seeds=[1], duration=2.0)
    runner, _ = spec.build_experiment(1)
    for name in sorted(SCHEME_REGISTRY):
        scheme = comparison_scheme_spec(name).build()
        runner.run_single(scheme, rng=np.random.default_rng(derive_seed(1, "schemes")))

    assert {scheme for scheme, _, _ in recorded} == set(SCHEME_REGISTRY)
    violations = [
        (scheme, delay, payment.latency, payment.deadline - payment.created_at)
        for scheme, payment, delay in recorded
        if delay != payment.latency or payment.completed_at > payment.deadline
    ]
    assert violations == []

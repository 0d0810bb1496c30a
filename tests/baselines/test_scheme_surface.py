"""What a workload can set on a comparison scheme, and the deadline they share.

A scheme value that no workload sweeps is a class constant; a test that
needs another value overrides it on the instance.
"""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from repro.baselines import SCHEME_REGISTRY, RoutingScheme
from repro.core.config import SplicerConfig
from repro.scenarios.spec import SchemeSpec
from repro.simulator.workload import TransactionRequest

#: The constructor arguments of the schemes that take any.
CONSTRUCTOR_ARGUMENTS = {"splicer": ["config"], "spider": ["router_config"]}


@pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
def test_a_scheme_takes_only_what_a_workload_sets(name):
    parameters = list(inspect.signature(SCHEME_REGISTRY[name]).parameters)
    assert parameters == CONSTRUCTOR_ARGUMENTS.get(name, [])


def test_splicer_config_holds_the_swept_values():
    # Table II and figures 7 and 9 sweep these; the comparison pipeline
    # sets greedy placement.
    assert [f.name for f in fields(SplicerConfig)] == ["router", "omega", "placement_method"]


@pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
def test_a_payment_is_due_one_timeout_after_its_arrival(name, small_ws_network):
    assert "timeout" not in vars(SCHEME_REGISTRY[name])
    scheme = SchemeSpec(name=name).build()
    scheme.prepare(small_ws_network, np.random.default_rng(0))
    sender, recipient = sorted(small_ws_network.clients(), key=repr)[:2]
    request = TransactionRequest(arrival_time=0.75, sender=sender, recipient=recipient, value=1.0)
    payment = scheme.submit(request, now=0.75)
    assert payment.created_at == 0.75
    assert payment.deadline - payment.created_at == RoutingScheme.timeout == 3.0

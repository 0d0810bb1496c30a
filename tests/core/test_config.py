"""Tests for the Splicer configuration."""

from dataclasses import fields

import pytest

from repro.core.config import SplicerConfig
from repro.routing.router import RouterConfig


class TestSplicerConfig:
    def test_paper_defaults(self):
        config = SplicerConfig()
        assert config.payment_timeout == pytest.approx(3.0)
        assert config.router.min_tu == pytest.approx(1.0)
        assert config.router.max_tu == pytest.approx(4.0)
        assert config.router.path_count == 5
        assert config.router.update_interval == pytest.approx(0.2)
        assert config.router.queue_limit == pytest.approx(8000.0)
        assert config.router.scheduler == "lifo"
        assert config.router.path_type == "edw"

    def test_router_rejects_removed_field(self):
        # The congestion windows' switch went with the windows.
        with pytest.raises(TypeError, match="congestion_control_enabled"):
            RouterConfig(congestion_control_enabled=False)

    def test_router_fields(self):
        # Every router option a scenario may set; a new one is a deliberate change.
        assert [f.name for f in fields(RouterConfig)] == [
            "path_type", "path_count", "min_tu", "max_tu", "update_interval",
            "settlement_delay", "hop_delay", "alpha", "kappa", "eta",
            "max_imbalance_gap", "t_fee", "scheduler", "queue_limit",
            "initial_rate", "min_rate", "path_refresh_interval",
            "rate_control_enabled", "imbalance_pricing_enabled",
        ]

    def test_custom_router_config(self):
        router = RouterConfig(path_type="eds", path_count=3)
        config = SplicerConfig(router=router)
        assert config.router.path_type == "eds"

    def test_invalid_omega(self):
        with pytest.raises(ValueError):
            SplicerConfig(omega=-1.0)

    @pytest.mark.parametrize(
        "field_name, value",
        [("omega", -0.01), ("payment_timeout", -3.0)],
    )
    def test_negative_values_rejected(self, field_name, value):
        with pytest.raises(ValueError, match=field_name):
            SplicerConfig(**{field_name: value})

    def test_zero_omega_allowed(self):
        # omega weighs synchronization against management cost; 0 ignores sync.
        assert SplicerConfig(omega=0.0).omega == 0.0

    def test_fields(self):
        assert [f.name for f in fields(SplicerConfig)] == [
            "router", "omega", "placement_method", "placement_seed", "payment_timeout",
        ]

    @pytest.mark.parametrize(
        "field_name",
        [
            "kmg_size",
            "candidate_count",
            "epoch_duration",
            "client_hub_hop_delay",
            "hub_sync_hop_delay",
        ],
    )
    def test_removed_fields_rejected(self, field_name):
        # The section III-A workflow is counted, not simulated: no key group.
        # Election runs exactly when the network designates no candidates;
        # the epoch length and the client-hub hop delay are module constants
        # of repro.baselines.splicer_scheme; the hub sync delay fed nothing.
        with pytest.raises(TypeError, match=field_name):
            SplicerConfig(**{field_name: 1})

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            SplicerConfig(payment_timeout=0.0)

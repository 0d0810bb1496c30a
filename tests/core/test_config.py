"""Tests for the Splicer configuration."""

from dataclasses import fields

import pytest

from repro.core.config import SplicerConfig
from repro.routing.router import RouterConfig


class TestSplicerConfig:
    def test_paper_defaults(self):
        config = SplicerConfig.paper_defaults()
        assert config.payment_timeout == pytest.approx(3.0)
        assert config.router.min_tu == pytest.approx(1.0)
        assert config.router.max_tu == pytest.approx(4.0)
        assert config.router.path_count == 5
        assert config.router.update_interval == pytest.approx(0.2)
        assert config.router.queue_limit == pytest.approx(8000.0)
        assert config.router.scheduler == "lifo"
        assert config.router.path_type == "edw"

    def test_with_router_returns_modified_copy(self):
        config = SplicerConfig()
        modified = config.with_router(path_count=7, scheduler="fifo")
        assert modified.router.path_count == 7
        assert modified.router.scheduler == "fifo"
        assert config.router.path_count == 5  # original untouched

    def test_with_router_rejects_removed_field(self):
        # The congestion windows' switch went with the windows.
        with pytest.raises(TypeError, match="congestion_control_enabled"):
            SplicerConfig().with_router(congestion_control_enabled=False)

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

    def test_invalid_kmg_size(self):
        with pytest.raises(ValueError):
            SplicerConfig(kmg_size=0)

    def test_invalid_epoch_duration(self):
        with pytest.raises(ValueError):
            SplicerConfig(epoch_duration=0.0)

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            SplicerConfig(payment_timeout=0.0)

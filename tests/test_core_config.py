"""Unit tests for ServerConfig (Table 1 parameters)."""

import pytest

from repro.core.config import PAPER_CONFIG, ServerConfig
from repro.core.metrics import LoadMetricKind
from repro.errors import ConfigError


class TestTable1Defaults:
    def test_paper_values(self):
        config = ServerConfig()
        assert config.front_end_threads == 1
        assert config.pinger_threads == 1
        assert config.worker_threads == 12
        assert config.socket_queue_length == 100
        assert config.stats_interval == 10.0
        assert config.pinger_interval == 20.0
        assert config.validation_interval == 120.0
        assert config.home_remigration_interval == 300.0
        assert config.coop_migration_spacing == 60.0

    def test_paper_config_constant(self):
        assert PAPER_CONFIG == ServerConfig()

    def test_default_metric_is_cps(self):
        # Section 5.3: CPS chosen as balancing metric for small transfers.
        assert ServerConfig().load_metric is LoadMetricKind.CPS

    def test_prototype_single_location_rule(self):
        # Footnote 1: one co-op per document in the prototype.
        assert ServerConfig().replication_k == 1


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("worker_threads", 0),
        ("socket_queue_length", -1),
        ("stats_interval", 0.0),
        ("pinger_interval", -5.0),
        ("workers", 0),
        ("workers", -2),
        ("lock_stripes", 0),
    ])
    def test_nonpositive_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ServerConfig(**{field: value})

    def test_threshold_reduction_domain(self):
        with pytest.raises(ConfigError):
            ServerConfig(threshold_reduction_factor=1.0)
        with pytest.raises(ConfigError):
            ServerConfig(threshold_reduction_factor=0.0)

    def test_imbalance_tolerance_domain(self):
        with pytest.raises(ConfigError):
            ServerConfig(imbalance_tolerance=0.9)

    def test_selection_policy_domain(self):
        with pytest.raises(ConfigError):
            ServerConfig(selection_policy="magic")
        ServerConfig(selection_policy="hottest")
        ServerConfig(selection_policy="random")


class TestScaled:
    def test_intervals_scale_together(self):
        scaled = ServerConfig().scaled(0.1)
        assert scaled.stats_interval == pytest.approx(1.0)
        assert scaled.pinger_interval == pytest.approx(2.0)
        assert scaled.validation_interval == pytest.approx(12.0)
        assert scaled.home_remigration_interval == pytest.approx(30.0)
        assert scaled.coop_migration_spacing == pytest.approx(6.0)

    def test_ratios_preserved(self):
        base = ServerConfig()
        scaled = base.scaled(0.25)
        assert scaled.pinger_interval / scaled.stats_interval == \
            pytest.approx(base.pinger_interval / base.stats_interval)

    def test_counts_unchanged(self):
        scaled = ServerConfig().scaled(0.1)
        assert scaled.worker_threads == 12
        assert scaled.socket_queue_length == 100

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigError):
            ServerConfig().scaled(0.0)

    def test_as_table_contains_every_field(self):
        table = ServerConfig().as_table()
        assert table["worker_threads"] == 12
        assert "validation_interval" in table
        assert len(table) >= 15

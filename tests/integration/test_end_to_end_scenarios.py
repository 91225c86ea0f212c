"""End-to-end simulated scenarios exercising whole-system behaviour."""

import pytest

from repro.core.config import ServerConfig
from repro.datasets.synthetic import build_synthetic_site
from repro.sim.cluster import ClusterConfig, SimCluster


def make_cluster(site=None, **kwargs):
    site = site or build_synthetic_site(pages=30, images=10, fanout=4, seed=6)
    defaults = dict(servers=3, clients=24, duration=40.0, sample_interval=5.0,
                    seed=4, server_config=ServerConfig().scaled(0.15),
                    prewarm=True)
    defaults.update(kwargs)
    return site, SimCluster(site, ClusterConfig(**defaults))


class TestContentPropagation:
    def test_author_edit_reaches_coop_copies(self):
        site, cluster = make_cluster()
        home = cluster.servers["server0:80"].engine
        updated = {"done": False}

        def edit_later(c):
            def apply_edit():
                # Pick a migrated HTML document and change it.
                for record in home.graph.migrated_documents():
                    if record.is_html:
                        home.update_document(
                            record.name, b"<html>edited content</html>")
                        updated["name"] = record.name
                        updated["loc"] = record.location
                        updated["done"] = True
                        return
            c.loop.schedule(10.0, apply_edit)

        cluster.run(extra_setup=edit_later)
        assert updated["done"]
        coop = cluster.servers[str(updated["loc"])].engine
        key = f"/~migrate/server0/80{updated['name']}"
        # The validation interval (18 s scaled) fits the run several times.
        assert coop.store.get(key) == b"<html>edited content</html>"

    def test_revocation_propagates_to_coop(self):
        # High imbalance tolerance: the policy will not re-migrate the
        # revoked document during the run, isolating revocation itself.
        config = ServerConfig(stats_interval=1.5, pinger_interval=3.0,
                              validation_interval=18.0,
                              imbalance_tolerance=5.0)
        site, cluster = make_cluster(duration=60.0, server_config=config)
        home = cluster.servers["server0:80"].engine
        state = {}

        def revoke_later(c):
            def apply():
                record = next((r for r in home.graph.migrated_documents()
                               if r.is_html), None)
                assert record is not None
                state["name"] = record.name
                state["loc"] = record.location
                home.policy.revoke(record.name)
            c.loop.schedule(10.0, apply)

        cluster.run(extra_setup=revoke_later)
        assert home.graph.get(state["name"]).location == home.location
        # The home now serves the document directly (no redirect).
        from repro.http.messages import Request

        reply = home.handle_request(Request("GET", state["name"]), 1e9)
        assert reply.response.status == 200
        # The old co-op may retain its copy for home-crash robustness
        # (section 4.5: "should not throw away any data until absolutely
        # necessary") — but if it does, validation kept it consistent.
        coop = cluster.servers[str(state["loc"])].engine
        key = f"/~migrate/server0/80{state['name']}"
        hosted = coop.hosted.get(key)
        if hosted is not None and hosted.fetched:
            assert coop.store.get(key) == home.store.get(state["name"])


class TestCrashRecovery:
    def test_crash_then_recover_rejoins(self):
        site, cluster = make_cluster(duration=80.0, servers=3)
        home = cluster.servers["server0:80"].engine

        def schedule(c):
            c.loop.schedule(15.0, lambda: c.crash_server(1))
            c.loop.schedule(45.0, lambda: c.recover_server(1))

        result = cluster.run(extra_setup=schedule)
        # Crash was detected and documents recalled...
        assert result.revocations > 0
        assert any(e.kind == "peer_dead"
                   for e in home.log.events(kind="peer_dead"))
        # ...and the cluster serves again after the recovery.
        post_recovery = [s for s in result.series.samples if s.time > 55.0]
        assert post_recovery
        assert all(sample.cps > 0 for sample in post_recovery)

    def test_event_log_tells_the_story(self):
        site, cluster = make_cluster(prewarm=False, duration=60.0,
                                     clients=48)
        result = cluster.run()
        home = cluster.servers["server0:80"].engine
        if result.migrations:
            assert home.log.count("migrate") + home.log.count("remigrate") \
                >= result.migrations
        coops = [s.engine for k, s in cluster.servers.items()
                 if k != "server0:80"]
        assert sum(e.log.count("pull") for e in coops) == \
            sum(e.stats.pulls_completed for e in coops)


class TestEntryPointAblation:
    def test_unprotected_entry_points_migrate_and_redirect(self):
        site = build_synthetic_site(pages=30, images=0, fanout=4, seed=6)
        config = ServerConfig(stats_interval=1.5, pinger_interval=3.0,
                              validation_interval=18.0,
                              migration_hit_threshold=1.0,
                              protect_entry_points=False)
        __, cluster = make_cluster(site=site, prewarm=False, duration=60.0,
                                   clients=48, server_config=config)
        result = cluster.run()
        home = cluster.servers["server0:80"].engine
        entry = home.graph.get(site.entry_points[0])
        # Without step 2's protection, the hottest document — the entry
        # point — is eligible; once migrated every sequence start pays a
        # redirect ("burdensome request redirections", section 4.1).
        if entry.location != home.location:
            assert result.redirects_served > 0


class TestMultiSiteFederation:
    def test_two_sites_balance_independently(self):
        site_a = build_synthetic_site(pages=40, images=10, fanout=4,
                                      seed=1, name="a")
        site_b = build_synthetic_site(pages=10, images=4, fanout=3,
                                      seed=2, name="b")
        config = ClusterConfig(servers=3, clients=30, duration=40.0,
                               sample_interval=10.0, seed=9,
                               server_config=ServerConfig().scaled(0.15),
                               prewarm=True)
        cluster = SimCluster([site_a, site_b], config)
        result = cluster.run()
        engine_a = cluster.servers["server0:80"].engine
        engine_b = cluster.servers["server1:80"].engine
        # Each home migrated some of its own documents...
        assert engine_a.graph.migrated_documents()
        assert engine_b.graph.migrated_documents()
        # ...and entry points stayed put.
        assert all(r.location == engine_a.location
                   for r in engine_a.graph.entry_points())
        assert all(r.location == engine_b.location
                   for r in engine_b.graph.entry_points())
        assert result.client_stats.requests > 500

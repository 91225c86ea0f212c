"""Migration policy: when to migrate, where to, and rate limiting.

Implements the decision procedure of paper section 4.2 on top of
Algorithm 1 (:mod:`repro.core.selection`):

- at each statistics re-calculation interval (T_st) an overloaded home
  server migrates at most ``max_migrations_per_interval`` documents
  (section 5.2: one file per 10 seconds);
- the target is the server with the lowest ``LoadMetric`` in the global
  load table, skipping co-ops that accepted a migration within the last
  T_coop seconds (60 s) so a co-op is never swamped before it can
  recalculate its own statistics;
- after T_home seconds (300 s) a home server may abandon a migration and
  re-migrate the document to a different co-op;
- all migrations are *logical*: only the LDG changes here; document bytes
  move lazily when the co-op first needs them.

Hot-document replication (paper future work, section 6) is not decided
here: :mod:`repro.server.replication` places replicas through
:meth:`MigrationPolicy.repair_replica` and sheds dead holders through
:meth:`MigrationPolicy.drop_holder`, so every relocation still passes
through this table and its ``on_decision`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.core.glt import GlobalLoadTable
from repro.core.ldg import LocalDocumentGraph
from repro.core.selection import (
    eligible_candidates,
    select_documents_for_migration,
)


@dataclass(frozen=True)
class MigrationDecision:
    """One applied (logical) migration, revocation, or holder change.

    ``replica_drop`` removes a dead holder from a replication group
    (promoting a surviving replica to primary when the primary died);
    ``repair`` adds a replacement holder — both are issued by the
    autonomous repair machinery rather than the periodic load round.
    """

    name: str
    target: Location
    kind: str  # "migrate" | "revoke" | "remigrate" | "replica_drop"
               # | "repair"
    dirtied: Sequence[str] = ()


@dataclass
class _MigrationRecord:
    """Home-side bookkeeping for one migrated document."""

    coop: Location
    migrated_at: float
    replicas: Dict[str, float] = field(default_factory=dict)


class MigrationPolicy:
    """Stateful migration decision-maker for one home server."""

    def __init__(self, config: ServerConfig, graph: LocalDocumentGraph,
                 glt: GlobalLoadTable) -> None:
        self.config = config
        self.graph = graph
        self.glt = glt
        self._coop_last_accept: Dict[str, float] = {}
        self._migrations: Dict[str, _MigrationRecord] = {}
        # Optional availability predicate (set by the engine): peers whose
        # circuit breaker is open or that the health monitor holds dead
        # never receive new migrations, re-migrations, or replicas.
        self.peer_available: Optional[Callable[[Location], bool]] = None
        # Fired for every applied decision, from every decision site — the
        # engine hangs its write-ahead journal here so no migration can be
        # acknowledged without first being durable.
        self.on_decision: Optional[Callable[[MigrationDecision], None]] = None

    def _note(self, decision: MigrationDecision) -> MigrationDecision:
        if self.on_decision is not None:
            self.on_decision(decision)
        return decision

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def migrated_names(self) -> List[str]:
        return sorted(self._migrations)

    def migration_of(self, name: str) -> Optional[Location]:
        record = self._migrations.get(name)
        return record.coop if record else None

    def force_migrate(self, name: str, target: Location,
                      now: float) -> MigrationDecision:
        """Migrate *name* to *target* immediately, bypassing rate limits.

        Used by operators and by benchmark pre-warming (simulating a
        cluster that has already balanced itself); all bookkeeping matches
        a policy-driven migration, so revocation and re-migration work.
        """
        dirtied = self.graph.mark_migrated(name, target)
        self._migrations[name] = _MigrationRecord(coop=target, migrated_at=now)
        return self._note(MigrationDecision(
            name=name, target=target, kind="migrate", dirtied=tuple(dirtied)))

    # ------------------------------------------------------------------
    # Recovery (snapshot restore and journal replay)
    # ------------------------------------------------------------------

    def restore(self, name: str, coop: Location, migrated_at: float,
                replicas: Optional[Dict[str, float]] = None) -> None:
        """Re-install home-side bookkeeping for one migrated document.

        Pure state restoration: the LDG is untouched (the caller restores
        it separately), no decision fires, no rate-limit bookkeeping
        changes.  This is the supported way for persistence/recovery code
        to rebuild the migration table — never write ``_migrations``
        directly.
        """
        self._migrations[name] = _MigrationRecord(
            coop=coop, migrated_at=migrated_at,
            replicas=dict(replicas or {}))

    def discard(self, name: str) -> None:
        """Forget *name*'s migration record without touching the LDG.

        The replay-side complement of :meth:`restore`: journal replay of a
        revocation sets graph state directly (for idempotency) and uses
        this to keep the migration table consistent with it.
        """
        self._migrations.pop(name, None)

    def restored(self, name: str) -> Optional[Tuple[Location, float]]:
        """(coop, migrated_at) for *name*, if migrated — used by snapshot
        writers so they need no private-attribute access either."""
        record = self._migrations.get(name)
        if record is None:
            return None
        return record.coop, record.migrated_at

    def restored_replicas(self, name: str) -> Dict[str, float]:
        """Replica-addition times for *name* (snapshot writers)."""
        record = self._migrations.get(name)
        return dict(record.replicas) if record else {}

    # ------------------------------------------------------------------
    # Periodic decisions (driven by the statistics interval)
    # ------------------------------------------------------------------

    def consider(self, now: float, own_metric: float) -> List[MigrationDecision]:
        """Run one round of migration decisions.

        Called once per statistics interval with the server's current load
        metric.  Returns the decisions applied to the LDG (possibly none).
        """
        decisions: List[MigrationDecision] = []
        decisions.extend(self._consider_remigration(now))
        if not self._overloaded(own_metric):
            return decisions
        budget = self.config.max_migrations_per_interval - len(decisions)
        for _ in range(max(0, budget)):
            decision = self._migrate_one(now, own_metric)
            if decision is None:
                break
            decisions.append(decision)
        return decisions

    def _overloaded(self, own_metric: float) -> bool:
        """Home migrates only when its load exceeds the cluster mean by the
        configured tolerance — with equal load nothing should move."""
        if len(self.glt) < 2:
            return False
        mean = self.glt.mean_metric()
        if mean <= 0.0:
            return own_metric > 0.0
        return own_metric > self.config.imbalance_tolerance * mean

    def _available(self, peer: Location) -> bool:
        return self.peer_available is None or self.peer_available(peer)

    def _unavailable_peers(self) -> List[Location]:
        """Peers the availability predicate currently rules out."""
        if self.peer_available is None:
            return []
        return [p for p in self.glt.peers() if not self.peer_available(p)]

    def _eligible_coops(self, now: float, own_metric: float) -> List[Location]:
        """Peers outside their T_coop cooldown, less loaded than we are,
        and currently reachable (closed circuit, not suspected dead)."""
        eligible: List[Location] = []
        for peer in self.glt.peers():
            if not self._available(peer):
                continue
            last = self._coop_last_accept.get(str(peer))
            if last is not None and now - last < self.config.coop_migration_spacing:
                continue
            row = self.glt.get(peer)
            if row is not None and row.metric < own_metric:
                eligible.append(peer)
        return eligible

    def _migrate_one(self, now: float,
                     own_metric: float) -> Optional[MigrationDecision]:
        eligible = self._eligible_coops(now, own_metric)
        if not eligible:
            return None
        target = self.glt.least_loaded(
            exclude=[p for p in self.glt.peers() if p not in eligible])
        if target is None:
            return None
        document = self._choose_document(now)
        if document is None:
            return None
        dirtied = self.graph.mark_migrated(document.name, target)
        self._coop_last_accept[str(target)] = now
        self._migrations[document.name] = _MigrationRecord(
            coop=target, migrated_at=now)
        return self._note(MigrationDecision(
            name=document.name, target=target, kind="migrate",
            dirtied=tuple(dirtied)))

    def _choose_document(self, now: float):
        """Pick the document to migrate per the configured policy.

        ``"paper"`` is Algorithm 1; ``"hottest"`` and ``"random"`` ablate
        the link-locality heuristics of steps 4-5 (the candidate filtering
        of steps 1-3 still applies to all policies).
        """
        config = self.config
        if config.selection_policy == "paper":
            chosen = select_documents_for_migration(
                self.graph, config.migration_hit_threshold,
                reduction_factor=config.threshold_reduction_factor,
                protect_entry_points=config.protect_entry_points)
            return chosen[0] if chosen else None
        candidates = eligible_candidates(
            self.graph, config.migration_hit_threshold,
            reduction_factor=config.threshold_reduction_factor,
            protect_entry_points=config.protect_entry_points)
        if not candidates:
            return None
        if config.selection_policy == "hottest":
            return max(candidates, key=lambda r: (r.window_hits, r.name))
        # "random": deterministic pseudo-random pick keyed by time so runs
        # stay reproducible without a mutable RNG in the policy.
        index = hash((round(now, 6), len(candidates))) % len(candidates)
        return sorted(candidates, key=lambda r: r.name)[index]

    # ------------------------------------------------------------------
    # Re-migration after T_home (section 4.5, case 2)
    # ------------------------------------------------------------------

    def _consider_remigration(self, now: float) -> List[MigrationDecision]:
        """Abandon migrations whose co-op became the hot spot.

        A document is re-migrated when its migration is older than T_home
        and its current co-op's load exceeds the cluster mean by the
        imbalance tolerance while some other peer is below the mean.
        """
        decisions: List[MigrationDecision] = []
        mean = self.glt.mean_metric()
        if mean <= 0.0:
            return decisions
        # Hottest first (co-ops report hosted hits back on validations):
        # abandoning the migration of a document nobody requests would
        # not relieve the overloaded co-op.
        by_demand = sorted(
            self._migrations,
            key=lambda n: (-(self.graph.find(n).hits
                             if self.graph.find(n) else 0), n))
        for name in by_demand:
            record = self._migrations[name]
            if now - record.migrated_at < self.config.home_remigration_interval:
                continue
            coop_row = self.glt.get(record.coop)
            if coop_row is None:
                continue
            if coop_row.metric <= self.config.imbalance_tolerance * mean:
                continue
            target = self.glt.least_loaded(
                exclude=[record.coop] + self._unavailable_peers())
            target_row = self.glt.get(target) if target else None
            if target is None or target_row is None or target_row.metric >= mean:
                continue
            dirtied = self.graph.mark_revoked(name)
            dirtied_again = self.graph.mark_migrated(name, target)
            self._coop_last_accept[str(target)] = now
            self._migrations[name] = _MigrationRecord(coop=target, migrated_at=now)
            decisions.append(self._note(MigrationDecision(
                name=name, target=target, kind="remigrate",
                dirtied=tuple(sorted(set(dirtied) | set(dirtied_again))))))
            # Re-migration is cheaper than first migration (the revoked
            # co-op simply drops its copy), so it gets twice the budget.
            if len(decisions) >= 2 * self.config.max_migrations_per_interval:
                break
        return decisions

    # ------------------------------------------------------------------
    # Replication groups: holder death and autonomous repair
    # ------------------------------------------------------------------

    def drop_holder(self, name: str, dead: Location) -> Optional[MigrationDecision]:
        """Remove *dead* from *name*'s holder set, keeping survivors.

        The replication-group alternative to a full revocation: when the
        primary died, the lowest-sorted surviving replica is promoted to
        primary, so the document never bounces back home and referring
        links are rewritten straight to live copies.  Returns ``None``
        when *dead* is not a holder or no live holder would survive (the
        caller then falls back to :meth:`revoke`).
        """
        record = self._migrations.get(name)
        document = self.graph.find(name)
        if record is None or document is None:
            return None
        if dead != record.coop and dead not in document.replicas:
            return None
        survivors = [loc for loc in document.locations() if loc != dead]
        if not survivors or survivors == [self.graph.home]:
            return None
        dirtied = self.graph.drop_holder(name, dead)
        if record.coop == dead:
            record.coop = document.location  # the promoted survivor
            record.replicas.pop(str(record.coop), None)
        record.replicas.pop(str(dead), None)
        return self._note(MigrationDecision(
            name=name, target=record.coop, kind="replica_drop",
            dirtied=tuple(dirtied)))

    def repair_replica(self, name: str, target: Location,
                       now: float) -> MigrationDecision:
        """Add *target* as a replacement holder of migrated *name*.

        Issued by the repair loop; like :meth:`force_migrate` it bypasses
        the T_coop rate limit — restoring availability beats pacing.
        """
        dirtied = self.graph.add_replica(name, target)
        record = self._migrations.get(name)
        if record is None:
            # First holder: add_replica promoted target to primary.
            self._migrations[name] = _MigrationRecord(coop=target,
                                                      migrated_at=now)
        else:
            record.replicas[str(target)] = now
        return self._note(MigrationDecision(
            name=name, target=target, kind="repair",
            dirtied=tuple(dirtied)))

    # ------------------------------------------------------------------
    # Revocation (section 4.5, cases 1 and 3)
    # ------------------------------------------------------------------

    def revoke(self, name: str) -> MigrationDecision:
        """Return one document to home (content change or operator action)."""
        dirtied = self.graph.mark_revoked(name)
        self._migrations.pop(name, None)
        return self._note(MigrationDecision(
            name=name, target=self.graph.home, kind="revoke",
            dirtied=tuple(dirtied)))

    def revoke_all_from(self, coop: Location) -> List[MigrationDecision]:
        """Recall every document hosted by a dead co-op server.

        Documents with surviving holders stay migrated: the dead holder
        is dropped from the group (``replica_drop``, promoting a replica
        when the primary died) instead of bouncing the document home —
        the availability win replication groups exist to provide.  Only
        sole-holder documents take the classic full revocation.
        """
        decisions: List[MigrationDecision] = []
        for name in list(self._migrations):
            record = self._migrations[name]
            document = self.graph.find(name)
            hosted_there = record.coop == coop or (
                document is not None and coop in document.replicas)
            if not hosted_there:
                continue
            dropped = self.drop_holder(name, coop)
            if dropped is not None:
                decisions.append(dropped)
                continue
            decisions.append(self.revoke(name))
        return decisions

"""Global routing: requests find their database's region (and replica).

"Firestore RPCs from the application get routed and distributed across
the Frontend tasks in the region where the database is located" (paper
section IV). The router knows each database's home region and adds the
client->region network latency to every request — a regional client
talking to its own region is fast; cross-continent access pays the WAN
round trip.

The latency table is the shared region matrix of
:mod:`repro.sim.latency` — the same numbers that price replica-quorum
commits — so client hops and replication always agree on the network
topology. A database with an attached :class:`ReplicaGroup` can also
serve *bounded-staleness* reads from the nearest sufficiently
caught-up follower (:meth:`GlobalRouter.route_read`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import NotFound
from repro.sim.latency import pair_one_way_us, region_matrix


@dataclass
class GlobalRouter:
    """Maps databases to regions/replicas and prices the network hop."""

    latencies: dict[tuple[str, str], int] = field(default_factory=region_matrix)
    metrics: Optional[object] = None
    #: optional :class:`repro.service.overload.BreakerBoard` — circuit
    #: breakers keyed (database, region); requests consult it at the door
    breakers: Optional[object] = None
    _homes: dict[str, str] = field(default_factory=dict)
    _replicas: dict[str, object] = field(default_factory=dict)

    def register_database(self, database_id: str, region: str) -> None:
        """Record a database's home region."""
        self._homes[database_id] = region

    def attach_replicas(self, database_id: str, group) -> None:
        """Attach a database's ReplicaGroup for staleness-aware routing.

        Also registers the group's current leader region as the
        database's home, so strong reads and commits route to the leader.
        """
        self._replicas[database_id] = group
        self._homes.setdefault(database_id, group.leader_region)

    def has_replicas(self, database_id: str) -> bool:
        """Whether a ReplicaGroup is attached (hedged reads need one)."""
        return database_id in self._replicas

    def home_region(self, database_id: str) -> str:
        """The region a database lives in.

        Raises :class:`repro.errors.NotFound` for a database that was
        never registered (and counts it: ``routing.unknown_database``) —
        routing a request for an unknown database is a caller bug, not a
        case to paper over with a default region.
        """
        region = self._homes.get(database_id)
        if region is None:
            if self.metrics is not None:
                self.metrics.counter("routing.unknown_database").inc()
            raise NotFound(f"unrouted database {database_id!r}")
        return region

    def breaker_allows(self, database_id: str, now_us: int) -> bool:
        """Circuit-breaker verdict for the database's serving region.

        True with no board attached (breakers are opt-in) or while the
        (database, region) breaker is closed / probing half-open.
        """
        board = self.breakers
        if board is None:
            return True
        region = self._homes.get(database_id, "local")
        return board.allow(database_id, region, now_us)

    def record_outcome(self, database_id: str, ok: bool, now_us: int) -> None:
        """Feed a downstream outcome to the (database, region) breaker."""
        board = self.breakers
        if board is not None:
            region = self._homes.get(database_id, "local")
            board.record(database_id, region, ok, now_us)

    def pair_latency_us(self, a: str, b: str) -> int:
        """One-way latency between two regions, from the shared matrix."""
        return pair_one_way_us(a, b, self.latencies)

    def network_latency_us(self, client_region: str, database_id: str) -> int:
        """One-way client-to-home-region network latency."""
        return self.pair_latency_us(client_region, self.home_region(database_id))

    def route_read(
        self,
        database_id: str,
        client_region: str,
        staleness_bound_us: int,
    ) -> tuple[str, Optional[int]]:
        """The replica region serving a bounded-staleness read.

        With a replica group attached, delegates to its staleness
        routing: the nearest reachable replica whose safe time covers
        ``now - bound`` (leader fallback), returning ``(region,
        read_ts)``. Without one, the home region serves and the read
        timestamp is the caller's to choose (returned as None).
        """
        home = self.home_region(database_id)
        group = self._replicas.get(database_id)
        if group is None:
            return home, None
        region, read_ts = group.route_read(client_region, staleness_bound_us)
        if self.metrics is not None:
            self.metrics.counter(
                "routing.bounded_reads",
                database_id=database_id,
                region=region,
            ).inc()
        return region, read_ts

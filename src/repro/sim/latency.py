"""RPC and replication latency models over a shared region topology.

The paper's latency results (section V-B) come from a production
multi-region (nam5) deployment. We model the pieces that shape those
curves:

- a base RPC network hop (client <-> Frontend <-> Backend <-> Spanner),
- Spanner's replication quorum on commit, priced from **per-replica-pair
  round trips** over :data:`INTER_REGION_ONE_WAY_US` — a regional
  deployment has replicas within one metro (sub-millisecond to
  low-millisecond quorum), a multi-regional one pays cross-metro round
  trips (paper section IV-D2: "Network latency between replicas is
  higher for a multi-regional deployment ... leading to higher Firestore
  write latency"),
- per-participant two-phase-commit overhead when a transaction spans
  multiple tablets (paper: more index entries -> more tablets -> higher
  commit latency),
- a lognormal tail on every sample, since production network latencies are
  heavy-tailed.

:data:`INTER_REGION_ONE_WAY_US` is the one region matrix in the
reproduction: ``repro.service.routing.GlobalRouter`` prices client hops
from it and :class:`ReplicaTopology` prices replica quorums from it, so
commit latency and request routing always agree on the network.

All times are microseconds. Draws come from a forked SimRandom stream so
latency noise never perturbs workload key choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.rand import SimRandom

#: one-way network latency between region (and zone) pairs, microseconds.
#: Symmetric: store one direction, look up both. Same-region entries are
#: the intra-region hop.
INTER_REGION_ONE_WAY_US: dict[tuple[str, str], int] = {
    ("us-central", "us-central"): 500,
    ("us-central", "us-central2"): 3_000,
    ("us-central", "us-east"): 15_000,
    ("us-central", "us-east2"): 6_000,
    ("us-central", "us-west"): 20_000,
    ("us-central", "europe-west"): 50_000,
    ("us-central", "asia-east"): 80_000,
    ("us-central2", "us-east"): 13_000,
    ("us-central2", "us-east2"): 5_000,
    ("us-central2", "us-west"): 18_000,
    ("us-central2", "europe-west"): 50_000,
    ("us-central2", "asia-east"): 80_000,
    ("us-east", "us-east2"): 2_000,
    ("us-east", "us-west"): 30_000,
    ("us-east", "europe-west"): 40_000,
    ("us-east", "asia-east"): 90_000,
    ("us-east2", "us-west"): 28_000,
    ("us-east2", "europe-west"): 42_000,
    ("us-east2", "asia-east"): 88_000,
    ("us-west", "europe-west"): 65_000,
    ("us-west", "asia-east"): 60_000,
    ("europe-west", "asia-east"): 120_000,
}

#: one-way latency between two zones of the same metro (regional replicas)
INTRA_METRO_ONE_WAY_US = 1_000

#: the assumption for a pair the matrix does not know: intercontinental
UNKNOWN_PAIR_ONE_WAY_US = 100_000

#: default intra-region hop when the matrix has no self-pair entry
SAME_REGION_ONE_WAY_US = 500

_ZONE_SUFFIXES = tuple(f"-{letter}" for letter in "abcdef")


def _metro(region: str) -> str:
    """Strip a trailing zone letter (``us-east1-b`` -> ``us-east1``)."""
    for suffix in _ZONE_SUFFIXES:
        if region.endswith(suffix):
            return region[: -len(suffix)]
    return region


def pair_one_way_us(
    a: str,
    b: str,
    table: Optional[dict[tuple[str, str], int]] = None,
) -> int:
    """One-way latency between two regions/zones, from the shared matrix.

    Lookup order: exact self-pair, direct entry, reverse entry, then the
    intra-metro constant when both names are zones of one metro, and
    finally the unknown-pair (intercontinental) assumption.
    """
    latencies = table if table is not None else INTER_REGION_ONE_WAY_US
    if a == b:
        return latencies.get((a, a), SAME_REGION_ONE_WAY_US)
    direct = latencies.get((a, b))
    if direct is not None:
        return direct
    reverse = latencies.get((b, a))
    if reverse is not None:
        return reverse
    if _metro(a) == _metro(b):
        return INTRA_METRO_ONE_WAY_US
    return UNKNOWN_PAIR_ONE_WAY_US


def region_matrix() -> dict[tuple[str, str], int]:
    """A copy of the shared matrix (``GlobalRouter``'s default table)."""
    return dict(INTER_REGION_ONE_WAY_US)


@dataclass(frozen=True)
class ReplicaTopology:
    """Named replica placement: a leader region plus follower regions.

    The quorum cost is derived from the per-pair round trips, not stated:
    a majority quorum needs ``len(regions) // 2`` follower acks beyond
    the leader's own vote, so the commit round lasts as long as the
    k-th-fastest follower round trip.
    """

    leader: str
    regions: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.leader not in self.regions:
            raise ValueError(
                f"leader {self.leader!r} is not one of {self.regions}"
            )
        if len(set(self.regions)) != len(self.regions):
            raise ValueError(f"duplicate replica regions in {self.regions}")

    @property
    def quorum_size(self) -> int:
        """Majority of the replica group (leader's vote included)."""
        return len(self.regions) // 2 + 1

    def one_way_us(self, a: str, b: str) -> int:
        """One-way replica-pair latency from the shared matrix."""
        return pair_one_way_us(a, b)

    def rtt_us(self, a: str, b: str) -> int:
        """Round-trip replica-pair latency."""
        return 2 * self.one_way_us(a, b)

    def follower_rtts_us(self, leader: Optional[str] = None) -> list[int]:
        """Ascending round trips from the leader to every follower."""
        head = leader if leader is not None else self.leader
        return sorted(
            self.rtt_us(head, region)
            for region in self.regions
            if region != head
        )

    def quorum_rtt_us(self, leader: Optional[str] = None) -> int:
        """The commit quorum's critical-path round trip.

        The leader acks itself instantly; the round ends when the
        ``quorum_size - 1``-th fastest follower ack lands.
        """
        needed = self.quorum_size - 1
        if needed <= 0:
            return 0
        return self.follower_rtts_us(leader)[needed - 1]


def regional_topology(region: str = "us-east1") -> ReplicaTopology:
    """Three replicas in zones of one metro: fast quorums."""
    zones = tuple(f"{region}-{letter}" for letter in "abc")
    return ReplicaTopology(leader=zones[0], regions=zones)


#: nam5-style placement: five replicas led from us-central; the quorum
#: needs two follower acks, so it is paced by the second-fastest round
#: trip (us-central <-> us-east2).
NAM5_TOPOLOGY = ReplicaTopology(
    leader="us-central",
    regions=("us-central", "us-central2", "us-east", "us-east2", "us-west"),
)


@dataclass(slots=True)
class LatencyModel:
    """Parametric latency model for one deployment flavour.

    With a ``topology``, the replica-quorum cost is derived from the
    per-replica-pair round trips (``quorum_us`` is filled in for
    compatibility); without one, the explicit ``quorum_us`` scalar is
    used as-is.
    """

    #: one-way network hop between service components
    rpc_hop_us: int
    #: median replica-quorum round trip for a commit (derived from the
    #: topology when one is given and this is 0)
    quorum_us: int
    #: extra cost per additional 2PC participant (tablet) in a commit
    per_participant_us: int
    #: lognormal sigma applied multiplicatively to each sample
    jitter_sigma: float = 0.25
    #: replica placement pricing the quorum (None = scalar quorum_us)
    topology: Optional[ReplicaTopology] = None

    def __post_init__(self) -> None:
        if self.topology is not None and self.quorum_us == 0:
            self.quorum_us = self.topology.quorum_rtt_us()

    # The sampling methods inline the jitter draw instead of sharing a
    # helper: they run once or twice per simulated request, and the
    # extra call frames measurably slow the kernel (ladder: fleet).
    # All of them draw rand.lognormal(0, jitter_sigma) exactly once so
    # the random stream is identical to the historical helper-based code.

    def _jitter(self, base_us: float, rand: SimRandom) -> int:
        if base_us <= 0:
            return 0
        sample = base_us * rand._rng.lognormvariate(0.0, self.jitter_sigma)
        return 1 if sample < 1 else round(sample)

    def rpc_us(self, rand: SimRandom) -> int:
        """One network hop."""
        base = self.rpc_hop_us
        if base <= 0:
            return 0
        sample = base * rand._rng.lognormvariate(0.0, self.jitter_sigma)
        return 1 if sample < 1 else round(sample)

    def read_us(self, rand: SimRandom) -> int:
        """A strongly-consistent Spanner read (leader round trip)."""
        base = self.rpc_hop_us + self.quorum_us * 0.5
        if base <= 0:
            return 0
        sample = base * rand._rng.lognormvariate(0.0, self.jitter_sigma)
        return 1 if sample < 1 else round(sample)

    def local_read_us(self, rand: SimRandom) -> int:
        """A replica-local (follower) read: no quorum round trip."""
        base = self.rpc_hop_us
        if base <= 0:
            return 0
        sample = base * rand._rng.lognormvariate(0.0, self.jitter_sigma)
        return 1 if sample < 1 else round(sample)

    def commit_us(self, rand: SimRandom, participants: int = 1) -> int:
        """A Spanner commit across ``participants`` tablets.

        One quorum round for a single-participant commit; 2PC adds a
        prepare round plus per-participant coordination cost.
        """
        if participants < 1:
            raise ValueError("a commit has at least one participant")
        base = self.quorum_us
        if participants > 1:
            base += self.quorum_us  # prepare phase
            base += self.per_participant_us * (participants - 1)
        if base <= 0:
            return 0
        sample = base * rand._rng.lognormvariate(0.0, self.jitter_sigma)
        return 1 if sample < 1 else round(sample)


def RegionalLatency(region: str = "us-east1") -> LatencyModel:
    """Replicas within one region's zones: fast quorums (2ms round)."""
    return LatencyModel(
        rpc_hop_us=300,
        quorum_us=0,
        per_participant_us=200,
        topology=regional_topology(region),
    )


def MultiRegionalLatency() -> LatencyModel:
    """nam5-style multi-region: cross-metro quorum round trips (12ms)."""
    return LatencyModel(
        rpc_hop_us=300,
        quorum_us=0,
        per_participant_us=400,
        topology=NAM5_TOPOLOGY,
    )

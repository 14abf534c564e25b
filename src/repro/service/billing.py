"""Operation-based billing with the daily free quota.

"Firestore's serverless pay-as-you-go pricing together with a daily free
quota ensures that billing increases reflect application success" (paper
section I); billing counts document reads, writes, deletes, and stored
bytes (section IV-B), and "the customer is not billed for any work that
can be satisfied by the local cache" (section IV-E) — cache hits never
reach this ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.clock import SimClock

MICROS_PER_DAY = 86_400_000_000


@dataclass(frozen=True)
class FreeQuota:
    """Daily free allowances (production's launch-era quota)."""

    reads_per_day: int = 50_000
    writes_per_day: int = 20_000
    deletes_per_day: int = 20_000
    storage_bytes: int = 1 << 30  # 1 GiB


@dataclass(frozen=True)
class PriceSheet:
    """USD per 100k operations / per GiB-month (nam5 list prices)."""

    per_100k_reads: float = 0.06
    per_100k_writes: float = 0.18
    per_100k_deletes: float = 0.02
    per_gib_month_storage: float = 0.18


@dataclass(slots=True)
class _DayCounters:
    reads: int = 0
    writes: int = 0
    deletes: int = 0


@dataclass(slots=True)
class _DatabaseAccount:
    days: dict[int, _DayCounters] = field(default_factory=dict)
    storage_bytes: int = 0


class BillingLedger:
    """Per-database operation counters and charge computation."""

    __slots__ = ("clock", "quota", "prices", "_accounts", "_last")

    def __init__(
        self,
        clock: SimClock,
        quota: FreeQuota | None = None,
        prices: PriceSheet | None = None,
    ):
        self.clock = clock
        self.quota = quota if quota is not None else FreeQuota()
        self.prices = prices if prices is not None else PriceSheet()
        self._accounts: dict[str, _DatabaseAccount] = {}
        # (database_id, day, counters) of the last lookup: billable
        # operations arrive in time order and mostly for the same
        # database, so this hits nearly always
        self._last: tuple[str | None, int, _DayCounters | None] = (None, -1, None)

    def _day(self) -> int:
        return self.clock.now_us // MICROS_PER_DAY

    def _counters(self, database_id: str) -> _DayCounters:
        day = self.clock._now_us // MICROS_PER_DAY
        last = self._last
        if last[1] == day and last[0] == database_id:
            return last[2]
        # .get over .setdefault: this runs per billable operation, and
        # setdefault would construct a fresh default on every call
        account = self._accounts.get(database_id)
        if account is None:
            account = _DatabaseAccount()
            self._accounts[database_id] = account
        counters = account.days.get(day)
        if counters is None:
            counters = _DayCounters()
            account.days[day] = counters
        self._last = (database_id, day, counters)
        return counters

    # -- recording --------------------------------------------------------------

    def record_reads(self, database_id: str, count: int = 1) -> None:
        """Count billable document reads."""
        self._counters(database_id).reads += count

    def record_writes(self, database_id: str, count: int = 1) -> None:
        """Count billable document writes."""
        self._counters(database_id).writes += count

    def record_deletes(self, database_id: str, count: int = 1) -> None:
        """Count billable document deletes."""
        self._counters(database_id).deletes += count

    def set_storage_bytes(self, database_id: str, size: int) -> None:
        """Record the database's stored size for storage billing."""
        self._accounts.setdefault(database_id, _DatabaseAccount()).storage_bytes = size

    # -- reporting ----------------------------------------------------------------

    def day_usage(self, database_id: str, day: int | None = None) -> _DayCounters:
        """The operation counters for one day (default: today)."""
        account = self._accounts.setdefault(database_id, _DatabaseAccount())
        return account.days.get(
            day if day is not None else self._day(), _DayCounters()
        )

    def billable_today(self, database_id: str) -> dict[str, int]:
        """Today's operations beyond the free quota."""
        usage = self.day_usage(database_id)
        quota = self.quota
        return {
            "reads": max(0, usage.reads - quota.reads_per_day),
            "writes": max(0, usage.writes - quota.writes_per_day),
            "deletes": max(0, usage.deletes - quota.deletes_per_day),
        }

    def charge_today_usd(self, database_id: str) -> float:
        """Today's bill: a database within the free quota pays nothing."""
        billable = self.billable_today(database_id)
        prices = self.prices
        charge = (
            billable["reads"] / 100_000 * prices.per_100k_reads
            + billable["writes"] / 100_000 * prices.per_100k_writes
            + billable["deletes"] / 100_000 * prices.per_100k_deletes
        )
        account = self._accounts.setdefault(database_id, _DatabaseAccount())
        extra_storage = max(0, account.storage_bytes - self.quota.storage_bytes)
        charge += (extra_storage / (1 << 30)) * self.prices.per_gib_month_storage / 30
        return charge

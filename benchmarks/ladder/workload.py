"""What every ladder workload has in common.

A workload is built from a seed and a size, then goes through ``setup``
(make inputs, build the system), ``run_segment`` once per timed segment
(optionally under a tracer), ``finish`` and ``verify`` (check outputs,
untimed). Segments of one workload all do the same work; ``setup`` plans
``planned`` of them and prepares spares the harness may run while a
disturbed run has not settled. Nothing here reads a clock.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass


#: segments a workload prepares per planned segment: the harness may run
#: up to this many times the plan while a disturbed run has not settled
SPARE = 2


@dataclass(frozen=True)
class Size:
    """Input size: documents (or tenants) set up, logical ops timed."""

    docs: int
    ops: int

    def quarter(self) -> "Size":
        """The traced run's size: the same system, a quarter of the ops."""
        return Size(self.docs, max(1, self.ops // 4))


def _no_op_begin():
    return None


def _no_op_end(opened) -> None:
    return None


class Workload:
    """Base class: seed, size, and the measurements ``run`` produces."""

    #: which ``samples`` class is the workload's headline operation
    headline = ""
    #: API calls timed together in one headline sample
    calls_per_sample = 1

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        #: segments the size asks for; the digest covers exactly these
        self.planned = 1
        #: logical operations attempted in the timed phase
        self.ops = 0
        #: (ops, wall ns, headline-op ns) per timed segment
        self.segments: list[tuple[int, int, float]] = []
        self._segment_mark = 0
        #: wall ns per call, by operation class
        self.samples: dict[str, list[int]] = defaultdict(list)
        #: canonical outputs per segment, hashed into the result digest
        self.outputs: list = []
        #: exact counts and ratios measured at the harness (per-layer extras)
        self.counts: dict[str, float] = {}
        #: verification failures, first few kept verbatim
        self.failed = 0
        self.failures: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_segment(self, index: int, tracer=None) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Derive the harness-side counts once the last segment has run."""

    def verify(self) -> None:
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------

    def fail(self, message: str) -> None:
        """Count one wrong or failed output."""
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def close_segment(self, ops: int, wall_ns: int, output) -> None:
        """Record one timed segment of ``ops`` logical operations and its
        canonical ``output``.

        Its headline latency is the median of the headline samples taken
        since the previous segment; simulated operations have no wall
        time of their own, so without samples it is wall per op.
        """
        self.ops += ops
        self.outputs.append(output)
        if ops <= 0:
            return
        fresh = self.samples[self.headline][self._segment_mark :]
        self._segment_mark += len(fresh)
        if fresh:
            op_ns = statistics.median(fresh) / self.calls_per_sample
        else:
            op_ns = wall_ns / ops
        self.segments.append((ops, wall_ns, op_ns))

    @staticmethod
    def op_hooks(tracer):
        """``(begin, end)`` delimiting one harness-driven operation."""
        if tracer is None:
            return _no_op_begin, _no_op_end
        return tracer.begin_op, tracer.end_op

    def digest(self) -> str:
        """sha256 of the planned segments' outputs: equal for equal seed
        and size, traced or not, however many spare segments ran."""
        canonical = json.dumps(
            self.outputs[: self.planned], sort_keys=True, default=repr
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

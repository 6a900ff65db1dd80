"""Discrete-event simulation engine.

:class:`Simulator` is a **hybrid bucketed calendar queue**.  Near-future
events land in a ring of fixed-width time buckets sized to the dominant
serialization/propagation deltas; far-future events (retransmission
timeouts, DCQCN timers, end-of-run guards) overflow into a binary heap.
Queue entries are plain tuples (``(time, seq, event)`` for
:meth:`~Simulator.schedule`, ``(time, seq, callback, arg...)`` for
:meth:`~Simulator.fire`/:meth:`~Simulator.fire2`) so every ordering
comparison happens in C instead of calling ``Event.__lt__``, and executed
:class:`~repro.sim.events.Event` objects are recycled through a free
list.  Cancelled overflow entries are compacted away once they outnumber
the live ones (lazy-cancel compaction), so timer churn cannot grow the
heap without bound.  :meth:`Simulator.run` is the only code that executes
events.

All simulation time is expressed in **integer nanoseconds** — the
module-level constants :data:`NS`, :data:`US`, :data:`MS` and :data:`SEC`
convert other units into nanoseconds so call sites read naturally::

    sim.schedule(5 * US, port.dequeue)

Determinism contract
--------------------
Two runs with identical inputs and seeds execute the exact same event
sequence.  This requires (a) the ``seq`` tie-break, and (b) all randomness
flowing through :class:`repro.sim.rng.SimRng`.  The calendar engine keeps
bucket windows disjoint and orders each bucket by ``(time, seq)``, so its
execution order equals that of one binary heap over all entries.  The
golden determinism tests run full workloads on it and on such a heap
engine (the reference kept in ``tests/sim/heap_oracle.py``) and assert
bit-identical ``(time, seq)`` execution order.

Pooling invariant
-----------------
Executed events are returned to a free list and may be reused by a later
``schedule``.  A caller that keeps the returned handle must drop (or null
out) the reference once the callback has fired; calling
:meth:`Event.cancel` on a handle whose event already ran may cancel an
unrelated future event once the object has been recycled.  Every timer in
this codebase follows the pattern of clearing its stored handle in the
callback's first line.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Any, Callable, Optional

from repro.sim.events import Event

#: One nanosecond (the base time unit).
NS = 1
#: Nanoseconds per microsecond.
US = 1_000
#: Nanoseconds per millisecond.
MS = 1_000_000
#: Nanoseconds per second.
SEC = 1_000_000_000

#: Default calendar-bucket width.  Dominant event deltas are packet
#: serialization times (31 ns for an MTU at 400 Gbps, ~500 ns at 25 Gbps)
#: and the ~1 us link propagation delay, so 64 ns buckets keep same-bucket
#: collisions low at high load without inflating the empty-bucket scan.
DEFAULT_BUCKET_NS = 64
#: Default bucket count; with 64 ns buckets the near-future window covers
#: ~262 us, which holds pacing gaps, delayed ACKs, and DCQCN increase
#: timers.  RTOs (400 us and up) intentionally overflow to the far heap.
DEFAULT_N_BUCKETS = 4096

#: Ceiling on the Event free list (objects, not bytes).
_EVENT_POOL_CAP = 8192
#: Overflow compaction never triggers below this heap size.
_MIN_COMPACT = 512
#: Sentinel "no bound" time, far beyond any simulated horizon (~146 y).
_FAR_FUTURE = 1 << 62

# Module-level aliases: the scheduling entry points run once or twice
# per simulated packet, where ``heapq.heappush`` would cost a global
# plus an attribute load per call.
_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


#: Per-geometry cache of single-bit masks for the occupancy bitmap, so
#: every Simulator instance shares one list of 4096 big ints.
_BIT_MASKS: dict[int, list[int]] = {}


def _bit_masks(n_buckets: int) -> list[int]:
    masks = _BIT_MASKS.get(n_buckets)
    if masks is None:
        masks = [1 << i for i in range(n_buckets)]
        _BIT_MASKS[n_buckets] = masks
    return masks


class Simulator:
    """Event scheduler and simulation clock (bucketed calendar queue).

    Parameters
    ----------
    bucket_ns:
        Width of one calendar bucket in nanoseconds (rounded up to a power
        of two so bucket indexing is a shift+mask).
    n_buckets:
        Number of buckets in the near-future ring (rounded up to a power
        of two).  ``bucket_ns * n_buckets`` is the calendar horizon;
        events farther out go to the overflow heap.

    Internal geometry invariants:

    * the cursor bucket covers ``[_cur_end - _width, _cur_end)`` and is
      kept as a heap (entries may arrive while it drains);
    * every other calendar entry lies in ``[_cur_end, _win_end)`` and sits
      unsorted in its bucket, sorted when :meth:`run` claims it;
    * overflow entries all lie at ``time >= _win_end``.

    A late insert below ``_cur_end`` (clock still sitting before a window
    jump) goes into the cursor bucket, whose heap order still executes it
    before everything else — ordering is preserved without special cases.
    """

    __slots__ = (
        "now", "trace", "_shift", "_width", "_mask",
        "_horizon", "_buckets", "_occ", "_bit", "_cur_index",
        "_cur_end", "_win_end", "_overflow", "_compact_at", "_event_pool",
        "_seq", "_executed", "_running", "batches",
    )

    def __init__(self, *, bucket_ns: int = DEFAULT_BUCKET_NS,
                 n_buckets: int = DEFAULT_N_BUCKETS) -> None:
        self.now: int = 0
        #: Optional per-event hook ``trace(time, seq, callback)`` invoked
        #: before each executed callback; used by the determinism tests.
        self.trace: Optional[Callable[[int, int, Callable], None]] = None

        self._shift = max(0, int(bucket_ns) - 1).bit_length()
        self._width = 1 << self._shift
        nb = 1 << max(1, int(n_buckets) - 1).bit_length()
        self._mask = nb - 1
        self._horizon = self._width * nb

        self._buckets: list[list] = [[] for _ in range(nb)]
        #: Occupancy bitmap: bit ``i`` set => bucket ``i`` may be
        #: non-empty.  Buckets drain only at the cursor, so at most the
        #: cursor's own bit can be stale; :meth:`_advance_cursor` clears
        #: it and then finds the next occupied bucket with integer bit
        #: tricks instead of walking empty buckets one by one.
        self._occ = 0
        self._bit = _bit_masks(nb)
        self._cur_index = 0            # ring position of the cursor bucket
        self._cur_end = self._width    # absolute end of the cursor bucket
        self._win_end = self._horizon  # absolute end of the calendar window

        self._overflow: list = []      # far-future (time, seq, event) heap
        self._compact_at = _MIN_COMPACT

        self._event_pool: list[Event] = []
        self._seq = 0
        self._executed = 0
        self._running = False
        #: Calendar buckets claimed by :meth:`run` — the unit of
        #: per-batch overhead (claim + sort + bound hoisting).  The
        #: bench cost model reads this to price batch-sparse workloads.
        self.batches = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        Returns the cancellable :class:`Event` handle (see the pooling
        invariant in the module docstring).  To schedule at an absolute
        time ``t``, pass ``t - sim.now``.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, callback, args)
        entry = (time, seq, event)
        if time < self._win_end:
            if time < self._cur_end:
                _heappush(self._buckets[self._cur_index], entry)
            else:
                index = (time >> self._shift) & self._mask
                bucket = self._buckets[index]
                if not bucket:
                    self._occ |= self._bit[index]
                bucket.append(entry)
        else:
            overflow = self._overflow
            _heappush(overflow, entry)
            if len(overflow) > self._compact_at:
                self._compact_overflow()
        return event

    def fire(self, delay: int, callback: Callable[[Any], Any],
             arg: Any = None) -> None:
        """Fire-and-forget schedule: no :class:`Event`, no handle.

        The entry is a bare ``(time, seq, callback, arg)`` tuple and the
        callback runs as ``callback(arg)``; it cannot be cancelled.  This
        is the per-packet hot path (serializer boundary wake-ups alone
        are ~40%% of all events in a busy fabric), where skipping the
        Event pool round-trip is worth a branch in the run loop.

        Caller contract: ``delay`` must be a non-negative **integer**
        (no ``int()`` coercion here — a float would silently break
        bucket indexing, so the sub-ns case raises instead).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, callback, arg)
        if time < self._win_end:
            if time < self._cur_end:
                _heappush(self._buckets[self._cur_index], entry)
            else:
                index = (time >> self._shift) & self._mask
                bucket = self._buckets[index]
                if not bucket:
                    self._occ |= self._bit[index]
                bucket.append(entry)
        else:
            overflow = self._overflow
            _heappush(overflow, entry)
            if len(overflow) > self._compact_at:
                self._compact_overflow()

    def fire2(self, delay: int, callback: Callable[[Any, Any], Any],
              arg1: Any, arg2: Any) -> None:
        """Two-argument :meth:`fire`: ``callback(arg1, arg2)``, no handle.

        Exists so packet delivery can dispatch straight into the peer
        device's ``receive(packet, port)`` without a per-packet bound
        trampoline in between — the entry is ``(time, seq, callback,
        arg1, arg2)`` and consumes one ``seq`` exactly like :meth:`fire`,
        so engines that use it stay in event-order lockstep with engines
        that do not.  Same caller contract as :meth:`fire`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, callback, arg1, arg2)
        if time < self._win_end:
            if time < self._cur_end:
                _heappush(self._buckets[self._cur_index], entry)
            else:
                index = (time >> self._shift) & self._mask
                bucket = self._buckets[index]
                if not bucket:
                    self._occ |= self._bit[index]
                bucket.append(entry)
        else:
            overflow = self._overflow
            _heappush(overflow, entry)
            if len(overflow) > self._compact_at:
                self._compact_overflow()

    def _compact_overflow(self) -> None:
        """Drop lazily-cancelled entries and re-heapify (amortized O(1)).

        Retransmission timers are re-armed on every cumulative-ACK
        advance, each re-arm cancelling a far-future entry; without
        compaction those tombstones would accumulate for the whole run.
        """
        live = [e for e in self._overflow
                if len(e) != 3 or not e[2].cancelled]
        heapq.heapify(live)
        self._overflow = live
        self._compact_at = max(_MIN_COMPACT, 2 * len(live))

    # ------------------------------------------------------------------
    # Cursor movement (cold path: runs only when a bucket drains)
    # ------------------------------------------------------------------
    def _advance_cursor(self) -> Optional[list]:
        """Move the cursor to the next non-empty bucket.

        Returns that bucket, unsorted (:meth:`run` sorts it when it
        claims it), or ``None`` when nothing is pending anywhere.  The
        next occupied bucket comes from the occupancy bitmap — a shift
        plus count-trailing-zeros on one big int, all C-level — so a
        sparse calendar (idle timers tens of microseconds apart) costs the
        same as a dense one.  When the calendar is empty the cursor jumps
        straight to the overflow front.

        Overflow migration can happen *after* the jump target is chosen:
        every overflow entry has ``time >= _win_end``, which is later than
        any bucket in the current lap, so migrated entries always land in
        the lap's tail (ring slots behind the new cursor), never ahead of
        the target.
        """
        buckets = self._buckets
        overflow = self._overflow
        mask = self._mask
        shift = self._shift
        heappop = heapq.heappop
        bit = self._bit
        index = self._cur_index
        # The vacated cursor bucket is the only possibly-stale bit, so the
        # masked bitmap alone answers "is the calendar empty?" — no
        # separate entry counter is maintained anywhere in the engine.
        occ = self._occ & ~bit[index]
        if occ:
            # Next occupied ring slot strictly after the cursor: first try
            # the bits above the cursor, then wrap to the bits below it.
            hi = occ >> (index + 1)
            if hi:
                steps = 1 + ((hi & -hi).bit_length() - 1)
            else:
                low = occ & (bit[index] - 1)
                # occ != 0 guarantees some bucket is occupied.
                steps = (mask + 1 - index) + ((low & -low).bit_length() - 1)
            index = (index + steps) & mask
            width = self._width
            self._cur_index = index
            self._cur_end += steps * width
            win_end = self._win_end + steps * width
            self._win_end = win_end
            while overflow and overflow[0][0] < win_end:
                entry = heappop(overflow)
                slot = (entry[0] >> shift) & mask
                b = buckets[slot]
                if not b:
                    occ |= bit[slot]
                b.append(entry)
            self._occ = occ
            return buckets[index]
        if not overflow:
            self._occ = 0
            return None
        # Calendar empty: jump the window to the overflow front.
        time = overflow[0][0]
        start = (time >> shift) << shift
        index = (time >> shift) & mask
        self._cur_index = index
        self._cur_end = start + self._width
        win_end = start + self._horizon
        self._win_end = win_end
        occ = 0
        while overflow and overflow[0][0] < win_end:
            entry = heappop(overflow)
            slot = (entry[0] >> shift) & mask
            b = buckets[slot]
            if not b:
                occ |= bit[slot]
            b.append(entry)
        self._occ = occ
        return buckets[index]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events up to ``until`` (absolute ns, inclusive), or until
        the queue drains.

        Returns the number of events executed by this call.  When a
        bounded call returns, the clock reads ``until`` whether the queue
        drained first or a later event stopped it.

        This is the engine's only dispatch loop.  It claims one calendar
        bucket at a time, sorts it, and runs it as a batch:

        * one C-level ``list.sort`` per bucket replaces a ``heappop``
          (log-n sifts) per event;
        * the stop bound is checked once per bucket.  A bucket whose
          window ends at or before the bound holds no late event, which
          is every bucket except possibly the last one of a bounded run.
          That bucket is cut at the bound: the entries after the cut
          stay queued as the bucket (a sorted list is a valid heap) and
          the run stops once a claim cuts nothing;
        * same-timestamp chains (port→switch→port hops of one packet
          wave) run back-to-back out of the sorted batch with no queue
          maintenance between them.

        Events scheduled *into* the claimed window while it drains (a
        serializer boundary wake-up shorter than the remaining bucket,
        a zero-delay completion) land in a fresh ``live`` heap that the
        drain merges in ``(time, seq)`` order, so execution order is
        exactly ``(time, seq)`` order.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        # Local aliases for the per-event hot loop.
        heappop = heapq.heappop
        trace = self.trace
        pool = self._event_pool
        pool_append = pool.append
        advance = self._advance_cursor
        buckets = self._buckets
        bound = until if until is not None else _FAR_FUTURE
        try:
            while True:
                index = self._cur_index
                batch = buckets[index]
                if not batch:
                    batch = advance()
                    if batch is None:
                        break
                    index = self._cur_index
                batch.sort()
                n = len(batch)
                if self._cur_end > bound + 1:
                    # The cursor window straddles the stop bound: run
                    # the head up to the bound and keep the tail queued.
                    # Every other pending entry lies at >= _cur_end.
                    n = bisect_left(batch, (bound + 1,))
                    if not n:
                        break
                    live = batch[n:]
                else:
                    live = []
                # Claim the bucket: late inserts into the still-open
                # cursor window go to ``live``, which we merge from.
                buckets[index] = live
                self.batches += 1
                pos = 0
                merged = 0   # late inserts drained from ``live``
                skipped = 0  # lazily-cancelled Event entries
                try:
                    while pos < n:
                        entry = batch[pos]
                        if live and live[0] < entry:
                            entry = heappop(live)
                            merged += 1
                        else:
                            pos += 1
                        ln = len(entry)
                        if ln == 5:           # fire2() delivery entry
                            self.now = entry[0]
                            if trace is not None:
                                trace(entry[0], entry[1], entry[2])
                            entry[2](entry[3], entry[4])
                        elif ln == 4:         # fire() wake-up entry
                            self.now = entry[0]
                            if trace is not None:
                                trace(entry[0], entry[1], entry[2])
                            entry[2](entry[3])
                        else:                 # full Event entry
                            event = entry[2]
                            if event.cancelled:
                                skipped += 1
                                event.args = ()
                                if len(pool) < _EVENT_POOL_CAP:
                                    pool_append(event)
                                continue
                            self.now = entry[0]
                            if trace is not None:
                                trace(entry[0], entry[1], event.callback)
                            event.callback(*event.args)
                            event.callback = None
                            event.args = ()
                            if len(pool) < _EVENT_POOL_CAP:
                                pool_append(event)
                    # Counting once per batch beats one increment per
                    # event: everything consumed ran except cancellations.
                    executed += n + merged - skipped
                except BaseException:
                    # Restore the unexecuted head so a callback raising
                    # mid-batch leaves the queue intact for post-mortems
                    # (the tail past a cut is already in ``live``).  The
                    # entry that raised was consumed but does not count
                    # as executed.
                    executed += pos + merged - skipped - 1
                    live.extend(batch[pos:n])
                    heapq.heapify(live)
                    raise
                # Batch done; any remaining late inserts (now in the
                # bucket) are re-claimed by the next outer iteration.
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            self._executed += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued entries (including lazily-cancelled ones).

        Computed lazily — the hot path maintains no entry counter (the
        occupancy bitmap already encodes calendar emptiness).
        """
        return (sum(len(b) for b in self._buckets)
                + len(self._overflow))

    @property
    def executed(self) -> int:
        """Total events executed since construction."""
        return self._executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={self.now}ns, pending={self.pending}, "
                f"executed={self.executed})")


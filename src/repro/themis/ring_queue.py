"""Ring-based PSN queue (§3.3).

Themis-D caches the PSN of every in-flight packet on the ToR->NIC hop in a
fixed-capacity FIFO ring, one per QP.  Entries store *truncated* PSNs
(1 byte in the paper's §4 memory budget), so "larger than ePSN" uses
serial-number arithmetic within the truncated space — valid because the
ring only ever holds roughly one last-hop BDP of consecutive PSNs.

When a NACK carrying ``ePSN`` arrives, :meth:`find_tpsn` dequeues entries
in arrival order until the first PSN greater than ``ePSN``; that PSN is the
out-of-order packet that triggered the NACK (the RNIC emits at most one
NACK per ePSN, so the *first* newer-than-expected arrival is the trigger).
"""

from __future__ import annotations

from typing import Optional


class PsnRingQueue:
    """Fixed-capacity FIFO of truncated PSNs with head/tail pointers."""

    def __init__(self, capacity: int, psn_bits: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.psn_bits = psn_bits
        self._mask = (1 << psn_bits) - 1
        self._half = 1 << (psn_bits - 1)
        self._slots: list[int] = [0] * self.capacity
        self.head = 0          # next slot to dequeue
        self.tail = 0          # next slot to fill
        self._size = 0
        self.overflows = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size == self.capacity

    def truncate(self, psn: int) -> int:
        return psn & self._mask

    def _greater(self, a: int, b: int) -> bool:
        """Serial-number compare in the truncated space: a > b?"""
        return 0 < ((a - b) & self._mask) < self._half

    # ------------------------------------------------------------------
    def enqueue(self, psn: int) -> None:
        """Record a PSN leaving toward the NIC.

        On overflow the oldest entry is evicted (the hardware ring simply
        wraps); §4 sizes the queue so this only happens when RTT spikes
        beyond the provisioning factor F.
        """
        # Runs once per data packet leaving the ToR: ``full`` and
        # ``truncate`` are inlined.
        capacity = self.capacity
        if self._size == capacity:
            self.head = (self.head + 1) % capacity
            self._size -= 1
            self.overflows += 1
        tail = self.tail
        self._slots[tail] = psn & self._mask
        self.tail = (tail + 1) % capacity
        self._size += 1

    def dequeue(self) -> int:
        if self._size == 0:
            raise IndexError("PSN queue empty")
        value = self._slots[self.head]
        self.head = (self.head + 1) % self.capacity
        self._size -= 1
        return value

    def find_tpsn(self, epsn: int) -> Optional[int]:
        """Dequeue until the first PSN larger than ``epsn`` (the tPSN).

        Returns the truncated tPSN, or ``None`` if the queue drained
        without finding one (queue undersized or NACK raced the data).
        The matching entry itself is consumed, exactly like the switch
        example in Fig. 4b where both the scanned and matched entries
        leave the queue.
        """
        target = self.truncate(epsn)
        while self._size:
            candidate = self.dequeue()
            if self._greater(candidate, target):
                return candidate
        return None

    def contains(self, psn: int) -> bool:
        """Non-consuming membership scan (truncated equality).

        Used by the NACK-compensation arming guard: if the blocked ePSN's
        packet is still in the ring it already traversed the ToR (the
        last-hop FIFO cannot reorder), so it is not lost and compensation
        must not arm.  Same O(capacity) cost class as :meth:`find_tpsn`.
        """
        target = self.truncate(psn)
        for i in range(self._size):
            if self._slots[(self.head + i) % self.capacity] == target:
                return True
        return False

    def snapshot(self) -> list[int]:
        """Entries in FIFO order (oldest first) — used by tests."""
        return [self._slots[(self.head + i) % self.capacity]
                for i in range(self._size)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PsnRingQueue(cap={self.capacity}, size={self._size}, "
                f"head={self.head}, tail={self.tail})")

"""Switch data plane.

A :class:`Switch` forwards packets through three stages:

1. **Ingress hooks** — programmable middleware (Themis-S / Themis-D live
   here).  A middleware may consume or block a packet (returning ``False``
   from :meth:`Middleware.on_packet`) or inject new packets by enqueueing
   through the switch.
2. **Route lookup** — ``routes[dst_nic]`` yields the set of equal-cost
   egress ports computed by the topology builder.  An empty set means the
   NIC is unreachable (partitioned fabric): the packet is dropped with
   full accounting.
3. **Load balancing** — when several candidates exist, selector
   middleware gets the first chance to pin a data packet's egress port
   (PSN-based spraying); otherwise the switch's configured
   :class:`~repro.switch.lb.LoadBalancer` picks.  Control packets always
   use ECMP so ACK/NACK streams stay on one path.

Each installed middleware declares (:meth:`Middleware.stages`) which of
stages 1 and 3 it acts in, and the switch calls it only there.
:meth:`Switch.add_middleware` is the one way to install middleware.

Egress ports use :class:`SwitchQueuePolicy`, which does shared-buffer
admission (drops), buffer accounting and ECN marking in one call.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Optional, Sequence

from repro.net.node import Device
from repro.net.packet import Packet
from repro.net.port import Port, QueuePolicy
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnMarker
from repro.switch.lb import LoadBalancer, ecmp_index
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.metrics import Metrics


class Middleware:
    """In-switch programmable hook (the role Tofino P4 code plays)."""

    def on_packet(self, switch: "Switch", packet: Packet,
                  in_port: Optional[Port]) -> bool:
        """Inspect/modify a packet at ingress.

        Return ``False`` to stop processing (packet blocked or consumed);
        ``True`` to continue down the pipeline.
        """
        return True

    def select_port(self, switch: "Switch", packet: Packet,
                    candidates: Sequence[Port]) -> Optional[Port]:
        """Override egress selection for data packets; ``None`` defers."""
        return None

    def stages(self) -> tuple[bool, bool]:
        """``(ingress, select)``: does this middleware act in
        :meth:`on_packet`, in :meth:`select_port`?

        The switch asks once, at installation, and never calls a hook
        that does not act.  The default is whichever hooks the subclass
        overrides; override this when the answer depends on the
        middleware's configuration.  It must not depend on run-time state
        such as :meth:`disable`.
        """
        cls = type(self)
        return (cls.on_packet is not Middleware.on_packet,
                cls.select_port is not Middleware.select_port)

    def attach(self, switch: "Switch") -> None:
        """Called when installed on a switch; default records the host.

        Gives middleware access to ``switch.sim``/``switch.name`` for
        emitting trace events outside the packet path (e.g. flushing
        armed state when a fault disables the stage).
        """
        self.switch = switch

    def disable(self) -> None:
        """Administratively bypass this middleware (no-op by default)."""

    def enable(self) -> None:
        """Re-arm after :meth:`disable` (no-op by default)."""


class SwitchQueuePolicy(QueuePolicy):
    """Shared-buffer admission + ECN marking for one switch's ports.

    The shared-buffer byte accounting is inlined here (same arithmetic as
    :meth:`SharedBuffer.can_admit`/``reserve``; the port does the
    ``release``) and the below-``kmin`` ECN case is decided without a
    call: :meth:`admit` runs once per data packet per hop.
    ``marker.should_mark`` stays a call above ``kmin`` because it owns
    the marking RNG draw and the marked counter.
    """

    def __init__(self, buffer: SharedBuffer, marker: EcnMarker,
                 switch: "Switch") -> None:
        self.buffer = buffer
        self.marker = marker
        self.switch = switch
        # The marker's config is frozen, so its kmin can be read once.
        self._kmin = marker.config.kmin_bytes
        #: ECN observability channel (repro.obs); None = disabled.
        self.rec_ecn = None

    def admit(self, port: Port, packet: Packet) -> bool:
        buf = self.buffer
        nbytes = packet.wire_bytes
        used = buf.used_bytes + nbytes
        if used > buf.capacity_bytes:
            return False
        queued = port.queued_bytes + nbytes
        cap = buf.per_port_cap_bytes
        if cap is not None and queued > cap:
            return False
        buf.used_bytes = used
        if used > buf.peak_bytes:
            buf.peak_bytes = used
        if not packet.ecn_marked:
            marker = self.marker
            if queued <= self._kmin:
                marker.evaluated += 1  # should_mark()'s no-mark branch
            elif marker.should_mark(queued):
                packet.ecn_marked = True
                if self.rec_ecn is not None:
                    self.rec_ecn.ecn_mark(self.switch.sim.now, port.name,
                                          packet, queued)
        return True


class Switch(Device):
    """An output-queued switch with pluggable LB and middleware."""

    def __init__(self, sim: Simulator, name: str, *,
                 lb: LoadBalancer, buffer: SharedBuffer,
                 ecn_marker: EcnMarker,
                 metrics: "Metrics | None" = None) -> None:
        super().__init__(sim, name)
        self.lb = lb
        self.buffer = buffer
        self.ecn_marker = ecn_marker
        self.metrics = metrics
        self.routes: dict[int, list[Port]] = {}
        self.down_nics: set[int] = set()
        #: Installed middleware, in pipeline order (add_middleware only).
        self.middleware: tuple[Middleware, ...] = ()
        # Bound hooks of the middleware that act in each stage, rebuilt
        # by add_middleware: on_packet at ingress, select_port for data.
        self._ingress: tuple = ()
        self._selectors: tuple = ()
        #: Administrative liveness: a rebooting switch blackholes every
        #: arriving packet (with drop accounting) until it comes back.
        self.active = True
        #: Optional PFC state machine (see repro.switch.pfc); installed
        #: by the harness when the fabric runs lossless.
        self.pfc = None
        #: Packet-hop emitter callable (``Recorder.hop_emitter()``);
        #: None = disabled.
        self.rec = None
        #: Drop channel (repro.obs) for packets no egress port sees:
        #: unroutable destinations.  None = disabled.
        self.rec_drop = None
        self._policy = SwitchQueuePolicy(buffer, ecn_marker, self)
        # Per-switch hash seed/rotation: real ASICs configure their CRC
        # engines per box, which is what makes multi-stage ECMP decorrelate
        # (and what the PathMap construction has to account for).
        self.hash_salt = zlib.crc32(name.encode()) & 0xFFFF
        self.hash_rot = 1 + (zlib.crc32(name[::-1].encode()) % 15)
        # ecmp_index is a pure function of (flow, sport, fan-out) for a
        # fixed salt/rot, so its result can be memoised per switch — an
        # ACK stream hits this dict instead of re-running the hash fold.
        self._ecmp_cache: dict = {}

    # ------------------------------------------------------------------
    def add_port(self, bandwidth_bps: float, delay_ns: int) -> Port:
        port = Port(self.sim, self, bandwidth_bps=bandwidth_bps,
                    delay_ns=delay_ns)
        port.policy = self._policy
        port._buffer = self.buffer
        port.on_drop = self._record_drop
        return port

    def add_middleware(self, mw: Middleware) -> None:
        """Install ``mw`` at the end of the pipeline and rebuild the
        per-stage hook lists."""
        self.middleware = self.middleware + (mw,)
        mw.attach(self)
        ingress, selectors = [], []
        for installed in self.middleware:
            at_ingress, selects = installed.stages()
            if at_ingress:
                ingress.append(installed.on_packet)
            if selects:
                selectors.append(installed.select_port)
        self._ingress = tuple(ingress)
        self._selectors = tuple(selectors)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: Optional[Port]) -> None:
        # forward() and _select() are inlined below — this runs once per
        # packet per hop; keep the bodies in sync.  Cold-path attributes
        # (rec, pfc) are loaded once; the route lookup is a plain dict
        # subscript (no bound-method call) with the miss handled cold.
        if not self.active:
            self._drop_inactive(packet)
            return
        rec = self.rec
        if rec is not None:
            rec(self.sim.now, self.name, packet)
        pfc = self.pfc
        if pfc is not None:
            pfc.on_ingress(packet, in_port)
        for hook in self._ingress:
            if not hook(self, packet, in_port):
                if pfc is not None:
                    pfc.on_egress(packet)  # consumed: credit
                return
        try:
            candidates = self.routes[packet.dst]
        except KeyError:
            raise self._unknown_nic(packet) from None
        n = len(candidates)
        if n == 1:
            # Downlink hops have exactly one route; skip the selector.
            port = candidates[0]
        elif not n:
            self._drop_unroutable(packet)
            return
        elif packet.is_control:
            # _select()'s ECMP memo hit, inlined; a miss fills it there.
            index = self._ecmp_cache.get((packet.flow, packet.udp_sport, n))
            if index is None:
                port = self._select(packet, candidates)
            else:
                port = candidates[index]
        else:
            for select in self._selectors:
                port = select(self, packet, candidates)
                if port is not None:
                    break
            else:
                port = self.lb.select(self, packet, candidates)
        if not port.enqueue(packet) and pfc is not None:
            pfc.on_egress(packet)  # dropped at admission: credit

    def forward(self, packet: Packet) -> None:
        """Route + LB + enqueue, without the ingress stages.

        Kept as the entry point for middleware that re-injects packets
        (Themis-D retransmits) and for tests; :meth:`receive` inlines
        this body on the per-hop hot path.
        """
        try:
            candidates = self.routes[packet.dst]
        except KeyError:
            raise self._unknown_nic(packet) from None
        n = len(candidates)
        if n == 1:
            port = candidates[0]
        elif not n:
            self._drop_unroutable(packet)
            return
        else:
            port = self._select(packet, candidates)
        if not port.enqueue(packet) and self.pfc is not None:
            self.pfc.on_egress(packet)  # dropped at admission: credit

    def _unknown_nic(self, packet: Packet) -> KeyError:
        # Route builds store every NIC of the topology (an empty list
        # when unreachable), so a miss is a NIC that never existed.
        return KeyError(f"{self.name}: no route to NIC {packet.dst}")

    def _select(self, packet: Packet, candidates: list[Port]) -> Port:
        if len(candidates) == 1:
            return candidates[0]
        if packet.is_control:
            # Control traffic stays on a single hashed path: commodity
            # fabrics never spray the lossless ACK/NACK class.
            key = (packet.flow, packet.udp_sport, len(candidates))
            index = self._ecmp_cache.get(key)
            if index is None:
                index = ecmp_index(packet, len(candidates),
                                   salt=self.hash_salt, rot=self.hash_rot)
                self._ecmp_cache[key] = index
            return candidates[index]
        for select in self._selectors:
            chosen = select(self, packet, candidates)
            if chosen is not None:
                return chosen
        return self.lb.select(self, packet, candidates)

    # ------------------------------------------------------------------
    # Fault-injection surface (driven by repro.faults)
    # ------------------------------------------------------------------
    def set_active(self, active: bool) -> None:
        """Raise/lower the whole forwarding plane (switch reboot)."""
        self.active = active
        if active:
            # Fresh-boot state: ASIC hash memo does not survive power
            # cycles, and any PFC pauses it asserted are gone.
            self._ecmp_cache.clear()

    def drain_buffers(self, reason: str = "reboot_drain") -> int:
        """Flush every egress queue with full accounting; returns count.

        Each data packet passes through the queue policy's dequeue hook,
        so shared-buffer occupancy and PFC ingress credit drain to zero —
        the post-run ``buffer.used_bytes == 0`` invariant must survive a
        mid-run reboot.
        """
        flushed = 0
        for port in self.ports:
            flushed += port.flush(reason)
        return flushed

    def _drop_inactive(self, packet: Packet) -> None:
        """Account a packet blackholed by an inactive (rebooting) switch."""
        if self.rec is not None:
            self.rec(self.sim.now, self.name, packet)
        if self.metrics is not None:
            self.metrics.on_drop(packet, self, None)

    def _drop_unroutable(self, packet: Packet) -> None:
        """Account a packet whose destination no live path reaches (a
        transient partition while routing has reconverged around it)."""
        if self.rec_drop is not None:
            self.rec_drop.drop(self.sim.now, self.name, packet, "no_route")
        if self.metrics is not None:
            self.metrics.on_drop(packet, self, None)
        if self.pfc is not None:
            self.pfc.on_egress(packet)  # never queued: credit

    def _record_drop(self, packet: Packet, port: Port) -> None:
        if self.metrics is not None:
            self.metrics.on_drop(packet, self, port)

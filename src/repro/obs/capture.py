"""Packet tracing: per-hop event capture for debugging and analysis.

A :class:`PacketTracer` is a passive switch middleware that records every
packet it sees (optionally filtered to one flow) with its location and
header snapshot — the simulator's answer to a fabric-wide packet capture.
Traces answer questions like "which spine did PSN 4711 take?" or "when
did the compensated NACK for ePSN 2 go out?", and the tests use them to
verify Eq. 1's path assignment end to end.

Historically this lived in ``repro.harness.tracer``; that shim has been
removed and this module is the only home.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.net.packet import FlowKey, Packet
from repro.net.port import Port
from repro.switch.switch import Middleware, Switch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.network import Network


@dataclass(frozen=True)
class TraceEvent:
    """One packet observation at one switch."""

    time_ns: int
    location: str
    pkt_id: int
    ptype: str
    src: int
    dst: int
    qp: int
    psn: int
    epsn: int
    path_index: Optional[int]
    is_retx: bool

    def as_json(self) -> str:
        return json.dumps(asdict(self))


class PacketTracer(Middleware):
    """Passive capture middleware (never blocks or modifies packets)."""

    def __init__(self, flow: Optional[FlowKey] = None,
                 max_events: int = 1_000_000) -> None:
        self.flow = flow
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.truncated = False

    def on_packet(self, switch: Switch, packet: Packet,
                  in_port: Optional[Port]) -> bool:
        if self.flow is not None and packet.flow != self.flow \
                and packet.flow != self.flow.reversed():
            return True
        if len(self.events) >= self.max_events:
            self.truncated = True
            return True
        self.events.append(TraceEvent(
            time_ns=switch.sim.now, location=switch.name,
            pkt_id=packet.pkt_id, ptype=packet.ptype.value,
            src=packet.flow.src, dst=packet.flow.dst, qp=packet.flow.qp,
            psn=packet.psn, epsn=packet.epsn,
            path_index=packet.path_index, is_retx=packet.is_retx))
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def hops_of(self, pkt_id: int) -> list[TraceEvent]:
        """Chronological hop list of one packet instance."""
        return [e for e in self.events if e.pkt_id == pkt_id]

    def packets_by_psn(self, psn: int) -> list[TraceEvent]:
        """Every data-packet observation with the given PSN."""
        return [e for e in self.events
                if e.ptype == "data" and e.psn == psn]

    def spine_of(self, pkt_id: int) -> Optional[str]:
        """The non-ToR switch one packet traversed (leaf-spine only)."""
        for event in self.hops_of(pkt_id):
            if not event.location.startswith("tor"):
                return event.location
        return None

    def nack_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.ptype == "nack"]

    def write_jsonl(self, path: str | Path) -> Path:
        """Persist the capture, one JSON event per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for event in self.events:
                fh.write(event.as_json() + "\n")
        return path


def attach_tracer(network: "Network",
                  flow: Optional[FlowKey] = None) -> PacketTracer:
    """Install one shared tracer at the head of every switch pipeline.

    Must run before traffic starts; the tracer sees packets before any
    Themis middleware acts on them.
    """
    tracer = PacketTracer(flow)
    for switch in network.topology.switches:
        switch.add_middleware(tracer, first=True)
    return tracer

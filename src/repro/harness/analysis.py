"""Post-run analysis helpers: link utilization and fairness.

ECMP's failure mode is *imbalance*: hash collisions leave some uplinks
saturated while others idle.  :func:`link_utilization` exposes that
directly from port counters, and :func:`jain_fairness` scores how
evenly flows shared the fabric — packet spraying should push both toward
uniformity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.network import Network


@dataclass(frozen=True)
class LinkUtilization:
    """One directed inter-switch link's activity over a run."""

    src: str
    dst: str
    bytes_sent: int
    busy_fraction: float


def link_utilization(network: "Network", *,
                     until_ns: int | None = None) -> list[LinkUtilization]:
    """Utilization of every switch-to-switch link.

    ``busy_fraction`` is serialization time over the observation window
    (defaults to the simulator's current time).
    """
    horizon = until_ns if until_ns is not None else network.now_ns
    horizon = max(horizon, 1)
    out = []
    for switch in network.topology.switches:
        for port in switch.ports:
            peer = port.peer
            if peer is None or not hasattr(peer, "routes"):
                continue  # host-facing port
            out.append(LinkUtilization(
                src=switch.name, dst=peer.name,
                bytes_sent=port.bytes_sent,
                busy_fraction=min(1.0, port.busy_ns / horizon)))
    return out


def uplink_imbalance(network: "Network", tor_name: str) -> float:
    """max/mean byte ratio across one ToR's uplinks (1.0 = perfectly
    balanced; ECMP collisions push it toward the uplink count)."""
    loads = [u.bytes_sent for u in link_utilization(network)
             if u.src == tor_name and u.dst.startswith(("spine", "agg"))]
    if not loads or sum(loads) == 0:
        return 1.0
    mean = sum(loads) / len(loads)
    return max(loads) / mean


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one hog."""
    vals = [v for v in values if v >= 0]
    if not vals or sum(vals) == 0:
        return 1.0
    square_of_sum = sum(vals) ** 2
    sum_of_squares = sum(v * v for v in vals)
    return square_of_sum / (len(vals) * sum_of_squares)


def flow_fairness(network: "Network") -> float:
    """Jain index over per-flow goodputs."""
    return jain_fairness([f.goodput_gbps()
                          for f in network.metrics.flows.values()
                          if f.bytes_posted > 0])

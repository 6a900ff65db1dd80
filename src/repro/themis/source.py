"""Themis-S: PSN-based packet spraying at the source ToR (§3.2).

For every cross-rack data packet entering the fabric from a locally
attached NIC, Themis-S deterministically assigns the path

    path_i = (PSN_i mod N + P_base) mod N                         (Eq. 1)

where ``P_base`` is the index plain ECMP would have chosen for the flow
(so un-sprayed and sprayed deployments share the same base path layout).

Two realizations:

* ``direct`` — 2-tier Clos: the ToR picks uplink ``path_i`` directly.
* ``pathmap`` — multi-tier: the packet's UDP source port is rewritten
  through the flow's PathMap so every downstream linear-ECMP hop becomes
  a deterministic function of ``PSN mod N`` (Fig. 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.net.packet import FlowKey, Packet
from repro.net.port import Port
from repro.switch.lb import ecmp_index
from repro.switch.switch import Middleware, Switch
from repro.themis.config import ThemisConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.metrics import Metrics

#: pathmap mode: callable resolving a flow + base sport to its delta table.
PathmapProvider = Callable[[FlowKey, int], Sequence[int]]


class ThemisSource(Middleware):
    """Source-ToR middleware enforcing PSN-based spraying."""

    def __init__(self, config: ThemisConfig,
                 metrics: "Metrics | None" = None,
                 pathmap_provider: Optional[PathmapProvider] = None) -> None:
        self.config = config
        self.metrics = metrics
        self.pathmap_provider = pathmap_provider
        if config.spray_mode == "pathmap" and pathmap_provider is None:
            raise ValueError("pathmap mode needs a pathmap_provider")
        self.packets_sprayed = 0
        self.enabled = True
        self._base_cache: dict[FlowKey, int] = {}
        self._pathmaps: dict[FlowKey, Sequence[int]] = {}

    def stages(self) -> tuple[bool, bool]:
        """Pathmap mode rewrites headers at ingress; direct mode picks
        the uplink.  Each mode's other hook never acts, so the switch
        never calls it."""
        pathmap = self.config.spray_mode == "pathmap"
        return (pathmap, not pathmap)

    def disable(self) -> None:
        """Link-failure fallback (§6): stop spraying; the switch's
        configured LB (ECMP in themis deployments) takes over."""
        self.enabled = False

    def enable(self) -> None:
        """Re-arm after the fabric heals.  Base-path and PathMap caches
        are dropped: route candidate sets may have changed."""
        self.enabled = True
        self._base_cache.clear()
        self._pathmaps.clear()

    # ------------------------------------------------------------------
    # pathmap mode: header rewrite at ingress.  Both hooks spray only
    # cross-rack data entering the fabric at this ToR (source NIC below
    # it, destination NIC not), and each runs only in its own mode.
    # ------------------------------------------------------------------
    def on_packet(self, switch: Switch, packet: Packet,
                  in_port: Optional[Port]) -> bool:
        down = switch.down_nics
        if (self.enabled and packet.is_data
                and packet.src in down and packet.dst not in down):
            pathmap = self._pathmaps.get(packet.flow)
            if pathmap is None:
                assert self.pathmap_provider is not None
                pathmap = self.pathmap_provider(packet.flow,
                                                packet.udp_sport)
                self._pathmaps[packet.flow] = pathmap
            residue = packet.psn % len(pathmap)
            packet.udp_sport ^= pathmap[residue]
            packet.path_index = residue
            self.packets_sprayed += 1
        return True

    # ------------------------------------------------------------------
    # direct mode: uplink selection override
    # ------------------------------------------------------------------
    def select_port(self, switch: Switch, packet: Packet,
                    candidates: Sequence[Port]) -> Optional[Port]:
        if not self.enabled:
            return None
        down = switch.down_nics
        if packet.src not in down or packet.dst in down:
            return None
        n = len(candidates)
        base = self._base_cache.get(packet.flow)
        if base is None:
            # P_base: the path ECMP would give this flow's (stable) header.
            base = ecmp_index(packet, n, salt=switch.hash_salt,
                              rot=switch.hash_rot)
            self._base_cache[packet.flow] = base
        index = (packet.psn % n + base) % n
        packet.path_index = index
        self.packets_sprayed += 1
        return candidates[index]

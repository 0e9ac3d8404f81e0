"""Synthetic packet traces with mice and elephant flows.

The Metropolis project observation quoted in Section 5.2 relies on the
classical separation of flows into *mice* (short flows, the vast majority)
and *elephants* (long flows carrying most of the bytes).  This module
generates packet-level traces exhibiting that dichotomy so the samplers and
estimators can be evaluated on realistic-looking input without any captured
data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Packet:
    """A single packet of a trace.

    Attributes
    ----------
    timestamp:
        Arrival time in seconds since the beginning of the trace.
    flow_id:
        Identifier of the flow the packet belongs to.
    size:
        Packet size in bytes.
    is_syn:
        True for the first packet of a TCP flow (SYN), used by the
        SYN-counting estimator.
    """

    timestamp: float
    flow_id: int
    size: int
    is_syn: bool = False


class FlowTrace:
    """A packet trace with per-flow bookkeeping."""

    def __init__(self, packets: Iterable[Packet]) -> None:
        self.packets: List[Packet] = sorted(packets, key=lambda p: p.timestamp)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @property
    def duration(self) -> float:
        """Time span of the trace in seconds."""
        if not self.packets:
            return 0.0
        return self.packets[-1].timestamp - self.packets[0].timestamp

    def flow_sizes(self) -> Dict[int, int]:
        """Number of packets of every flow present in the trace."""
        sizes: Dict[int, int] = {}
        for packet in self.packets:
            sizes[packet.flow_id] = sizes.get(packet.flow_id, 0) + 1
        return sizes

    def flow_bytes(self) -> Dict[int, int]:
        """Number of bytes of every flow present in the trace."""
        totals: Dict[int, int] = {}
        for packet in self.packets:
            totals[packet.flow_id] = totals.get(packet.flow_id, 0) + packet.size
        return totals

    @property
    def num_flows(self) -> int:
        return len(self.flow_sizes())

    def syn_count(self) -> int:
        """Number of SYN packets in the trace."""
        return sum(1 for p in self.packets if p.is_syn)


@dataclass
class SyntheticTraceConfig:
    """Parameters of the synthetic mice/elephant trace generator.

    Attributes
    ----------
    num_mice / num_elephants:
        Number of flows of each class.
    mice_packets:
        ``(low, high)`` packet-count range of a mouse flow.
    elephant_packets:
        ``(low, high)`` packet-count range of an elephant flow.
    packet_size:
        ``(low, high)`` byte-size range of individual packets.
    mean_interarrival:
        Mean inter-arrival time between consecutive packets of a flow
        (exponential distribution).
    duration:
        Trace duration over which flow start times are spread uniformly.
    """

    num_mice: int = 900
    num_elephants: int = 100
    mice_packets: Tuple[int, int] = (1, 19)
    elephant_packets: Tuple[int, int] = (100, 1000)
    packet_size: Tuple[int, int] = (40, 1500)
    mean_interarrival: float = 0.01
    duration: float = 60.0

    def __post_init__(self) -> None:
        if self.num_mice < 0 or self.num_elephants < 0:
            raise ValueError("flow counts must be non-negative")
        if self.num_mice + self.num_elephants == 0:
            raise ValueError("the trace must contain at least one flow")
        for low, high in (self.mice_packets, self.elephant_packets, self.packet_size):
            if low < 1 or high < low:
                raise ValueError("ranges must satisfy 1 <= low <= high")
        if self.mean_interarrival <= 0 or self.duration <= 0:
            raise ValueError("mean_interarrival and duration must be positive")

    @property
    def elephant_threshold(self) -> int:
        """Packet count above which a flow is considered an elephant."""
        return self.elephant_packets[0]


def generate_trace(config: Optional[SyntheticTraceConfig] = None, seed: Optional[int] = None) -> FlowTrace:
    """Generate a synthetic packet trace with mice and elephant flows.

    Flow start times are uniform over the trace duration; packets within a
    flow arrive with exponential inter-arrival times; the first packet of
    every flow is marked as a SYN.
    """
    config = config or SyntheticTraceConfig()
    rng = random.Random(seed)
    packets: List[Packet] = []
    flow_id = 0
    for population, (low, high) in (
        (config.num_mice, config.mice_packets),
        (config.num_elephants, config.elephant_packets),
    ):
        for _ in range(population):
            count = rng.randint(low, high)
            start = rng.uniform(0.0, config.duration)
            timestamp = start
            for index in range(count):
                packets.append(
                    Packet(
                        timestamp=timestamp,
                        flow_id=flow_id,
                        size=rng.randint(*config.packet_size),
                        is_syn=(index == 0),
                    )
                )
                timestamp += rng.expovariate(1.0 / config.mean_interarrival)
            flow_id += 1
    return FlowTrace(packets)

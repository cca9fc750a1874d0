"""Packet-level CCN simulator with probe-based FIB updating."""

from .engine import ConfigError, Scenario, Simulation, run
from .metrics import AccountingError, MetricsReport, classify_qos
from .model import ContentName, DataPacket, InterestPacket, content_catalog, wire_size
from .node import ContentStore, ProbeStrategy, RouterState
from .topology import Graph, SPTable, apply_failure, build_spt, load_topology

__version__ = "0.1.0"

__all__ = [
    "AccountingError", "ConfigError", "ContentName", "ContentStore",
    "DataPacket", "Graph", "InterestPacket", "MetricsReport",
    "ProbeStrategy", "RouterState", "SPTable", "Scenario", "Simulation",
    "apply_failure", "build_spt", "classify_qos", "content_catalog",
    "load_topology", "run", "wire_size",
]

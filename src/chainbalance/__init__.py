"""Connection-affine load balancing for horizontally scaled NF chains."""

from .balancer import Balancer
from .control import ClusterConfig, ManagementSystem, MasterAgent, SlaveAgent, Transport
from .engine import EventLoop
from .hashing import BucketVector, ChainId, Endpoint, HashParams, canonical_key
from .rebalance import TrafficWindow, WeightProfile

__all__ = [
    "Balancer",
    "BucketVector",
    "ChainId",
    "ClusterConfig",
    "Endpoint",
    "EventLoop",
    "HashParams",
    "ManagementSystem",
    "MasterAgent",
    "SlaveAgent",
    "TrafficWindow",
    "Transport",
    "WeightProfile",
    "canonical_key",
]

__version__ = "0.1.0"

"""The testbed's switches as OpenFlow-style tag rules: the model that the
simulator's walks are checked against.

    client -- es1 -- lb1(master) -- es1 -- cs_i -- nf_i -- cs_i -- es2
                                                 -- lb2(slave) -- es2 -- server

The master pushes the forward tag of the chain it maps a packet to, and the
slave the reverse tag. The edge switches route a tagged packet to its
chain's switch, which pops the tag before the NF and pushes the other
direction's tag after it; the slave pops a forward tag and sends the packet
on to the server. `netsim` builds each walk from the link count its kind
fixes (`netsim.WALK_LINKS`); `hop_by_hop` follows these rules one link at a
time, as a packet crossing the switches would.
"""

from __future__ import annotations

from dataclasses import dataclass


class NoRoute(Exception):
    """No rule matches this (ingress port, tag) combination."""


@dataclass(frozen=True)
class TagRule:
    out_port: int
    action: str = "none"  # none | push | pop
    tag: int | None = None


class TagRouter:
    """OpenFlow-style switch: (ingress port, outer tag) -> (egress port, tag action)."""

    def __init__(self):
        self.rules: dict[tuple[int, int | None], TagRule] = {}

    def add(self, in_port: int, tag: int | None, out_port: int, action: str = "none",
            action_tag: int | None = None):
        if action == "pop" and tag is None:
            # the only rule that could pop an empty stack
            raise ValueError(f"pop rule on ingress {in_port} must match a tag")
        self.rules[(in_port, tag)] = TagRule(out_port, action, action_tag)


def route(router: TagRouter, port: int, tags: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Apply the matching rule to a tag stack; raises NoRoute when none exists."""
    top = tags[-1] if tags else None
    rule = router.rules.get((port, top))
    if rule is None:
        raise NoRoute(f"no rule for ingress {port}, tag {top}")
    if rule.action == "pop":
        tags = tags[:-1]
    elif rule.action == "push":
        tags = tags + (rule.tag,)
    return rule.out_port, tags


def far_port(port: int) -> int:
    """An NF's other port: what comes in on one side leaves by the other."""
    return 2 if port == 1 else 1


class Topology:
    """The switches and cables of the testbed for the chains `pairs`.

    `switches` maps a switch's name to its rules, and `links` each (node,
    egress port) to the (node, ingress port) its cable reaches. Chain i of
    `pairs`, counted from 1, has the switch `cs{i}` and the NF `nf{i}`;
    `chains` maps each NF's name to its chain.
    """

    def __init__(self, pairs):
        self.switches: dict[str, TagRouter] = {}
        self.links: dict[tuple[str, int], tuple[str, int]] = {}
        self.chains = {f"nf{i}": chain for i, chain in enumerate(pairs, start=1)}
        es1, es2 = TagRouter(), TagRouter()
        # edge switch 1: ports 1/2 clients, 3 -> master, 4 <- master, 4+i -> chain i
        es1.add(1, None, 3)
        es1.add(2, None, 3)
        es1.add(4, None, 1)
        # edge switch 2: port 1 server, 3 -> slave, 4 <- slave, 4+i -> chain i
        es2.add(1, None, 3)
        es2.add(4, None, 1)
        for i, chain in enumerate(pairs, start=1):
            es1.add(4, chain.forward_tag, 4 + i)
            es1.add(4 + i, chain.reverse_tag, 3)
            es2.add(4, chain.reverse_tag, 4 + i)
            es2.add(4 + i, chain.forward_tag, 3)

        self.switches["es1"] = es1
        self.switches["es2"] = es2

        self._cable("client", 1, "es1", 1)
        self._wire("es1", 3, "lb1", 1)
        self._wire("lb1", 1, "es1", 4)
        self._wire("es2", 3, "lb2", 1)
        self._wire("lb2", 1, "es2", 4)
        self._cable("es2", 1, "server", 1)

        for i, chain in enumerate(pairs, start=1):
            cs = TagRouter()
            cs.add(1, chain.forward_tag, 2, "pop")
            cs.add(2, None, 1, "push", chain.reverse_tag)
            cs.add(3, None, 4, "push", chain.forward_tag)
            cs.add(4, chain.reverse_tag, 3, "pop")
            cs_name, nf_name = f"cs{i}", f"nf{i}"
            self.switches[cs_name] = cs
            self._cable("es1", 4 + i, cs_name, 1)
            self._cable(cs_name, 2, nf_name, 1)
            self._cable(cs_name, 3, nf_name, 2)
            self._cable(cs_name, 4, "es2", 4 + i)

    def _wire(self, a, pa, b, pb):
        self.links[(a, pa)] = (b, pb)

    def _cable(self, a, pa, b, pb):
        self._wire(a, pa, b, pb)
        self._wire(b, pb, a, pa)


def hop_by_hop(topology: Topology, node: str, port: int, tags: tuple[int, ...]):
    """Follow the rules from a stateful node's egress port, one link and one
    `route` call at a time, and on through the slave when it gets a tag,
    which it pops. Returns the stateful node reached (a host, a balancer or
    an NF), by name, its ingress port and the links crossed.

    Raises NoRoute, naming the walk's start, where no rule matches and where
    the walk ends still tagged at a host or an NF. A walk ends at a balancer
    whatever tag it arrives with: the tag names the chain it crossed.
    """
    start, hops = f"the walk from {node} port {port} with tags {list(tags)}", 0
    while True:
        node, port = topology.links[(node, port)]
        hops += 1
        if node == "lb2" and tags:
            port, tags = 1, tags[:-1]  # the slave pops: on from its egress
            continue
        switch = topology.switches.get(node)
        if switch is None:
            break
        try:
            port, tags = route(switch, port, tags)
        except NoRoute as exc:
            raise NoRoute(f"switch {node}: {exc}, on {start}") from None
    if tags and node not in ("lb1", "lb2"):
        raise NoRoute(f"{start} ends at {node} with tags {list(tags)} left")
    return node, port, hops

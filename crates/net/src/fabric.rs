//! The packet-level network fabric.
//!
//! Nodes own interfaces; interfaces attach to point-to-point links;
//! packets are routed hop by hop with per-node firewalls and optional
//! NAT. Every traversal is captured by the fabric's [`Tracer`].
//!
//! The fabric is deliberately *synchronous*: `send` walks the packet to
//! its fate and reports what happened. Timing lives in
//! [`crate::access_transfer`]; the fabric answers reachability and leak questions
//! (the §5.1 validation matrix).

use std::collections::BTreeMap;

use crate::addr::{Ip, Mac};
use crate::firewall::{Action, Direction, Firewall};
use crate::trace::Tracer;

/// Transport protocol of a simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// TCP segment.
    Tcp,
    /// UDP datagram.
    Udp,
    /// ICMP (probes).
    Icmp,
}

/// A simulated packet (network + transport header summary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source address (rewritten by NAT hops).
    pub src: Ip,
    /// Destination address.
    pub dst: Ip,
    /// Transport protocol.
    pub proto: Proto,
    /// Destination port (0 for ICMP).
    pub dst_port: u16,
    /// Payload size in bytes (accounting only).
    pub bytes: u32,
}

impl Packet {
    /// Convenience UDP packet.
    pub fn udp(src: Ip, dst: Ip, dst_port: u16, bytes: u32) -> Packet {
        Packet {
            src,
            dst,
            proto: Proto::Udp,
            dst_port,
            bytes,
        }
    }

    /// Convenience TCP packet.
    pub fn tcp(src: Ip, dst: Ip, dst_port: u16, bytes: u32) -> Packet {
        Packet {
            src,
            dst,
            proto: Proto::Tcp,
            dst_port,
            bytes,
        }
    }

    /// Convenience ICMP probe.
    pub fn icmp(src: Ip, dst: Ip) -> Packet {
        Packet {
            src,
            dst,
            proto: Proto::Icmp,
            dst_port: 0,
            bytes: 64,
        }
    }
}

/// What a node is, which shapes forwarding behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An endpoint (VM or physical host): accepts packets addressed to
    /// it, originates packets, never forwards.
    Host,
    /// A NAT gateway: rewrites the source address to its own egress
    /// address and forwards; inbound packets only pass for established
    /// mappings.
    Nat,
    /// A plain router: forwards per its routing table.
    Router,
    /// The abstract wide-area Internet: accepts anything addressed to a
    /// public IP it hosts.
    Internet,
}

/// Identifies a node in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Outcome of a `send`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// The packet reached a node that accepted it.
    Delivered {
        /// Accepting node.
        node: NodeId,
        /// Hop count (links traversed).
        hops: usize,
    },
    /// Dropped with no response ("as if the host did not exist", §5.1).
    Dropped {
        /// Node at which the packet died.
        at: NodeId,
        /// Why.
        reason: DropReason,
    },
}

impl DeliveryStatus {
    /// Whether the packet was delivered.
    pub fn delivered(&self) -> bool {
        matches!(self, DeliveryStatus::Delivered { .. })
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No route toward the destination.
    NoRoute,
    /// An egress firewall rule refused it.
    EgressFiltered,
    /// An ingress firewall rule refused it.
    IngressFiltered,
    /// A NAT had no mapping for an inbound packet.
    NoNatMapping,
    /// TTL exhausted (routing loop guard).
    TtlExpired,
    /// Addressed to a host that doesn't own the address.
    NotForMe,
}

#[derive(Debug, Clone)]
struct Iface {
    #[allow(dead_code)] // MACs surface in fingerprint tests via accessors.
    mac: Mac,
    ip: Ip,
    link: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    network: Ip,
    prefix: u8,
    iface: usize,
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
    ifaces: Vec<Iface>,
    routes: Vec<RouteEntry>,
    firewall: Firewall,
    /// Established NAT mappings: original source -> seen.
    nat_mappings: BTreeMap<(Ip, Ip, u16), ()>,
}

#[derive(Debug, Clone, Copy)]
struct Link {
    a: (NodeId, usize),
    b: (NodeId, usize),
}

/// The network fabric: nodes, links, tracer.
///
/// # Examples
///
/// ```
/// use nymix_net::{Fabric, Ip, NodeKind};
/// use nymix_net::fabric::Packet;
///
/// let mut fabric = Fabric::new();
/// let a = fabric.add_node("a", NodeKind::Host);
/// let b = fabric.add_node("b", NodeKind::Host);
/// let ia = fabric.add_iface(a, nymix_net::Mac::host_nic(1), Ip::parse("10.0.0.1"));
/// let ib = fabric.add_iface(b, nymix_net::Mac::host_nic(2), Ip::parse("10.0.0.2"));
/// fabric.connect(a, ia, b, ib);
/// fabric.add_route(a, Ip::parse("10.0.0.0"), 24, ia);
/// let status = fabric.send(a, Packet::icmp(Ip::parse("10.0.0.1"), Ip::parse("10.0.0.2")));
/// assert!(status.delivered());
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    nodes: Vec<Node>,
    links: Vec<Link>,
    tracer: Tracer,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            links: Vec::new(),
            tracer: Tracer::new(),
        }
    }

    /// Adds a node with a permissive firewall.
    pub fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        self.nodes.push(Node {
            name: name.to_string(),
            kind,
            ifaces: Vec::new(),
            routes: Vec::new(),
            firewall: Firewall::permissive(),
            nat_mappings: BTreeMap::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds an interface to a node; returns its index on that node.
    pub fn add_iface(&mut self, node: NodeId, mac: Mac, ip: Ip) -> usize {
        let n = &mut self.nodes[node.0];
        n.ifaces.push(Iface {
            mac,
            ip,
            link: None,
        });
        n.ifaces.len() - 1
    }

    /// Connects two interfaces with a point-to-point link.
    ///
    /// # Panics
    ///
    /// Panics if either interface is already connected.
    pub fn connect(&mut self, na: NodeId, ia: usize, nb: NodeId, ib: usize) -> usize {
        assert!(
            self.nodes[na.0].ifaces[ia].link.is_none()
                && self.nodes[nb.0].ifaces[ib].link.is_none(),
            "interface already linked"
        );
        let id = self.links.len();
        self.links.push(Link {
            a: (na, ia),
            b: (nb, ib),
        });
        self.nodes[na.0].ifaces[ia].link = Some(id);
        self.nodes[nb.0].ifaces[ib].link = Some(id);
        id
    }

    /// Adds a route on `node`: traffic for `network/prefix` leaves via
    /// interface `iface`. More-specific prefixes win.
    pub fn add_route(&mut self, node: NodeId, network: Ip, prefix: u8, iface: usize) {
        self.nodes[node.0].routes.push(RouteEntry {
            network,
            prefix,
            iface,
        });
    }

    /// Replaces a node's firewall.
    pub fn set_firewall(&mut self, node: NodeId, firewall: Firewall) {
        self.nodes[node.0].firewall = firewall;
    }

    /// The capture buffer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Clears the capture buffer.
    pub fn clear_trace(&mut self) {
        self.tracer.clear();
    }

    /// Sends `packet` from `src`, walking it hop by hop to its fate.
    pub fn send(&mut self, src: NodeId, packet: Packet) -> DeliveryStatus {
        self.forward(src, packet, 16, 0)
    }

    fn forward(
        &mut self,
        current: NodeId,
        mut packet: Packet,
        ttl: u32,
        hops: usize,
    ) -> DeliveryStatus {
        if ttl == 0 {
            return DeliveryStatus::Dropped {
                at: current,
                reason: DropReason::TtlExpired,
            };
        }
        // Route lookup: longest prefix match.
        let node = &self.nodes[current.0];
        let mut best: Option<(u8, usize)> = None;
        for route in &node.routes {
            if packet.dst.in_subnet(route.network, route.prefix)
                && best.is_none_or(|(p, _)| route.prefix > p)
            {
                best = Some((route.prefix, route.iface));
            }
        }
        let Some((_, iface_idx)) = best else {
            return DeliveryStatus::Dropped {
                at: current,
                reason: DropReason::NoRoute,
            };
        };
        // OUTPUT/FORWARD filtering at this node, before any source
        // rewrite (iptables ordering: filter precedes POSTROUTING).
        if node.firewall.check(Direction::Out, &packet) == Action::Drop {
            return DeliveryStatus::Dropped {
                at: current,
                reason: DropReason::EgressFiltered,
            };
        }
        // NAT source rewrite on the way out.
        if node.kind == NodeKind::Nat {
            let egress_ip = node.ifaces[iface_idx].ip;
            let key = (packet.src, packet.dst, packet.dst_port);
            self.nodes[current.0].nat_mappings.insert(key, ());
            packet.src = egress_ip;
        }
        let node = &self.nodes[current.0];
        let Some(link_id) = node.ifaces[iface_idx].link else {
            return DeliveryStatus::Dropped {
                at: current,
                reason: DropReason::NoRoute,
            };
        };
        let link = self.links[link_id];
        let (peer, _peer_iface) = if link.a.0 == current && link.a.1 == iface_idx {
            link.b
        } else {
            link.a
        };
        // The frame crosses the wire: record it.
        let from_name = self.nodes[current.0].name.clone();
        let to_name = self.nodes[peer.0].name.clone();
        self.tracer.record(link_id, &from_name, &to_name, &packet);

        // Ingress firewall at the peer.
        if self.nodes[peer.0].firewall.check(Direction::In, &packet) == Action::Drop {
            return DeliveryStatus::Dropped {
                at: peer,
                reason: DropReason::IngressFiltered,
            };
        }
        let peer_node = &self.nodes[peer.0];
        let addressed_here = peer_node.ifaces.iter().any(|i| i.ip == packet.dst);
        match peer_node.kind {
            NodeKind::Host => {
                if addressed_here {
                    DeliveryStatus::Delivered {
                        node: peer,
                        hops: hops + 1,
                    }
                } else {
                    // Hosts do not forward.
                    DeliveryStatus::Dropped {
                        at: peer,
                        reason: DropReason::NotForMe,
                    }
                }
            }
            NodeKind::Internet => {
                if addressed_here {
                    DeliveryStatus::Delivered {
                        node: peer,
                        hops: hops + 1,
                    }
                } else {
                    DeliveryStatus::Dropped {
                        at: peer,
                        reason: DropReason::NoRoute,
                    }
                }
            }
            NodeKind::Router => self.forward(peer, packet, ttl - 1, hops + 1),
            NodeKind::Nat => {
                if addressed_here {
                    // Traffic from the inside (private sources) reaches
                    // local services (e.g. the CommVM's SOCKS/DNS ports)
                    // directly; inbound from the public side needs an
                    // established mapping. (Simplified: any established
                    // outbound to that peer admits the reply.)
                    let from_inside = packet.src.is_private();
                    let established = self.nodes[peer.0]
                        .nat_mappings
                        .keys()
                        .any(|(_, dst, _)| *dst == packet.src);
                    if from_inside || established {
                        DeliveryStatus::Delivered {
                            node: peer,
                            hops: hops + 1,
                        }
                    } else {
                        DeliveryStatus::Dropped {
                            at: peer,
                            reason: DropReason::NoNatMapping,
                        }
                    }
                } else {
                    self.forward(peer, packet, ttl - 1, hops + 1)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firewall::Rule;

    /// Builds: host --- nat --- internet(198.51.100.1)
    fn nat_topology() -> (Fabric, NodeId, NodeId, NodeId) {
        let mut f = Fabric::new();
        let host = f.add_node("host", NodeKind::Host);
        let nat = f.add_node("nat", NodeKind::Nat);
        let inet = f.add_node("internet", NodeKind::Internet);
        let hi = f.add_iface(host, Mac::host_nic(1), Ip::parse("10.0.0.2"));
        let ni_in = f.add_iface(nat, Mac::host_nic(2), Ip::parse("10.0.0.1"));
        let ni_out = f.add_iface(nat, Mac::host_nic(3), Ip::parse("203.0.113.9"));
        let ii = f.add_iface(inet, Mac::host_nic(4), Ip::parse("198.51.100.1"));
        f.connect(host, hi, nat, ni_in);
        f.connect(nat, ni_out, inet, ii);
        f.add_route(host, Ip::parse("0.0.0.0"), 0, hi);
        f.add_route(nat, Ip::parse("10.0.0.0"), 24, ni_in);
        f.add_route(nat, Ip::parse("0.0.0.0"), 0, ni_out);
        f.add_route(inet, Ip::parse("0.0.0.0"), 0, ii);
        (f, host, nat, inet)
    }

    #[test]
    fn nat_rewrites_source() {
        let (mut f, host, _, inet) = nat_topology();
        let status = f.send(
            host,
            Packet::tcp(Ip::parse("10.0.0.2"), Ip::parse("198.51.100.1"), 443, 1000),
        );
        assert_eq!(
            status,
            DeliveryStatus::Delivered {
                node: inet,
                hops: 2
            }
        );
        // On the WAN link, the private source must not appear.
        let wan = f.tracer().on_link(1);
        assert_eq!(wan.len(), 1);
        assert_eq!(wan[0].packet.src, Ip::parse("203.0.113.9"));
        assert!(!f
            .tracer()
            .on_link(1)
            .iter()
            .any(|e| e.packet.src == Ip::parse("10.0.0.2")));
    }

    #[test]
    fn inbound_without_mapping_dropped() {
        let (mut f, _host, nat, inet) = nat_topology();
        let status = f.send(
            inet,
            Packet::tcp(Ip::parse("198.51.100.1"), Ip::parse("203.0.113.9"), 80, 100),
        );
        assert_eq!(
            status,
            DeliveryStatus::Dropped {
                at: nat,
                reason: DropReason::NoNatMapping
            }
        );
    }

    #[test]
    fn inbound_with_mapping_delivered() {
        let (mut f, host, nat, inet) = nat_topology();
        // Outbound first establishes the mapping.
        f.send(
            host,
            Packet::tcp(Ip::parse("10.0.0.2"), Ip::parse("198.51.100.1"), 443, 100),
        );
        let status = f.send(
            inet,
            Packet::tcp(
                Ip::parse("198.51.100.1"),
                Ip::parse("203.0.113.9"),
                443,
                100,
            ),
        );
        assert_eq!(status, DeliveryStatus::Delivered { node: nat, hops: 1 });
    }

    #[test]
    fn no_route_drops() {
        let mut f = Fabric::new();
        let a = f.add_node("a", NodeKind::Host);
        let _ = f.add_iface(a, Mac::host_nic(1), Ip::parse("10.0.0.1"));
        let status = f.send(a, Packet::icmp(Ip::parse("10.0.0.1"), Ip::parse("8.8.8.8")));
        assert_eq!(
            status,
            DeliveryStatus::Dropped {
                at: a,
                reason: DropReason::NoRoute
            }
        );
    }

    #[test]
    fn host_does_not_forward() {
        // a --- b --- c with b a mere Host: a's packet to c dies at b.
        let mut f = Fabric::new();
        let a = f.add_node("a", NodeKind::Host);
        let b = f.add_node("b", NodeKind::Host);
        let c = f.add_node("c", NodeKind::Host);
        let ia = f.add_iface(a, Mac::host_nic(1), Ip::parse("10.0.0.1"));
        let ib1 = f.add_iface(b, Mac::host_nic(2), Ip::parse("10.0.0.2"));
        let ib2 = f.add_iface(b, Mac::host_nic(3), Ip::parse("10.0.1.2"));
        let ic = f.add_iface(c, Mac::host_nic(4), Ip::parse("10.0.1.3"));
        f.connect(a, ia, b, ib1);
        f.connect(b, ib2, c, ic);
        f.add_route(a, Ip::parse("0.0.0.0"), 0, ia);
        let status = f.send(
            a,
            Packet::icmp(Ip::parse("10.0.0.1"), Ip::parse("10.0.1.3")),
        );
        assert_eq!(
            status,
            DeliveryStatus::Dropped {
                at: b,
                reason: DropReason::NotForMe
            }
        );
    }

    #[test]
    fn egress_firewall_blocks_before_wire() {
        let (mut f, host, _, _) = nat_topology();
        let mut fw = Firewall::default_drop();
        fw.push(Rule {
            direction: crate::firewall::Direction::Out,
            src: None,
            dst: Some((Ip::parse("10.0.0.0"), 24)),
            proto: None,
            dst_port: None,
            action: Action::Allow,
        });
        f.set_firewall(host, fw);
        let status = f.send(
            host,
            Packet::tcp(Ip::parse("10.0.0.2"), Ip::parse("198.51.100.1"), 443, 100),
        );
        assert!(!status.delivered());
        // Nothing crossed any wire.
        assert!(f.tracer().entries().is_empty());
    }

    #[test]
    fn ingress_firewall_blocks_at_peer() {
        let (mut f, host, nat, _) = nat_topology();
        let mut fw = Firewall::default_drop();
        f.set_firewall(nat, {
            fw.push(Rule::allow_all(crate::firewall::Direction::Out));
            fw
        });
        let status = f.send(
            host,
            Packet::tcp(Ip::parse("10.0.0.2"), Ip::parse("198.51.100.1"), 443, 100),
        );
        assert_eq!(
            status,
            DeliveryStatus::Dropped {
                at: nat,
                reason: DropReason::IngressFiltered
            }
        );
        // The frame did cross the first wire (and was captured).
        assert_eq!(f.tracer().on_link(0).len(), 1);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut f = Fabric::new();
        let r = f.add_node("r", NodeKind::Router);
        let a = f.add_node("a", NodeKind::Host);
        let b = f.add_node("b", NodeKind::Host);
        let ra = f.add_iface(r, Mac::host_nic(1), Ip::parse("10.0.0.1"));
        let rb = f.add_iface(r, Mac::host_nic(2), Ip::parse("10.0.1.1"));
        let ia = f.add_iface(a, Mac::host_nic(3), Ip::parse("10.0.0.2"));
        let ib = f.add_iface(b, Mac::host_nic(4), Ip::parse("10.0.1.2"));
        f.connect(r, ra, a, ia);
        f.connect(r, rb, b, ib);
        f.add_route(r, Ip::parse("0.0.0.0"), 0, ra); // default to a
        f.add_route(r, Ip::parse("10.0.1.0"), 24, rb); // specific to b
        let src = f.add_node("src", NodeKind::Host);
        let is = f.add_iface(src, Mac::host_nic(5), Ip::parse("10.0.2.2"));
        let r3 = f.add_iface(r, Mac::host_nic(6), Ip::parse("10.0.2.1"));
        f.connect(src, is, r, r3);
        f.add_route(src, Ip::parse("0.0.0.0"), 0, is);
        let status = f.send(
            src,
            Packet::icmp(Ip::parse("10.0.2.2"), Ip::parse("10.0.1.2")),
        );
        assert_eq!(status, DeliveryStatus::Delivered { node: b, hops: 2 });
    }

    #[test]
    fn ttl_guard_stops_loops() {
        // Two routers pointing default routes at each other.
        let mut f = Fabric::new();
        let r1 = f.add_node("r1", NodeKind::Router);
        let r2 = f.add_node("r2", NodeKind::Router);
        let i1 = f.add_iface(r1, Mac::host_nic(1), Ip::parse("10.0.0.1"));
        let i2 = f.add_iface(r2, Mac::host_nic(2), Ip::parse("10.0.0.2"));
        f.connect(r1, i1, r2, i2);
        f.add_route(r1, Ip::parse("0.0.0.0"), 0, i1);
        f.add_route(r2, Ip::parse("0.0.0.0"), 0, i2);
        let status = f.send(
            r1,
            Packet::icmp(Ip::parse("10.0.0.1"), Ip::parse("8.8.8.8")),
        );
        assert!(matches!(
            status,
            DeliveryStatus::Dropped {
                reason: DropReason::TtlExpired,
                ..
            }
        ));
    }
}

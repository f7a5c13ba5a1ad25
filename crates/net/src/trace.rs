//! Frame tracing — the simulated Wireshark.
//!
//! §5.1 validates Nymix by tunnelling the hypervisor's traffic through a
//! host NAT and watching it with Wireshark: "The Nymix hypervisor
//! emitted only traffic for DHCP and anonymizer traffic, while the
//! AnonVM transmitted no traffic." The [`Tracer`] records every frame
//! crossing every link so integration tests can assert exactly that.

use crate::fabric::Packet;

/// One observed frame on one link.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Index of the link the frame crossed.
    pub link: usize,
    /// Name of the transmitting node.
    pub from_node: String,
    /// Name of the receiving node.
    pub to_node: String,
    /// The packet as it appeared on this link (post-NAT if applicable).
    pub packet: Packet,
    /// Monotone sequence number (capture order).
    pub seq: u64,
}

/// Records frames crossing links.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    entries: Vec<TraceEntry>,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a frame.
    pub fn record(&mut self, link: usize, from_node: &str, to_node: &str, packet: &Packet) {
        let seq = self.entries.len() as u64;
        self.entries.push(TraceEntry {
            link,
            from_node: from_node.to_string(),
            to_node: to_node.to_string(),
            packet: packet.clone(),
            seq,
        });
    }

    /// All captured entries, in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Frames observed on a given link.
    #[cfg(test)]
    pub(crate) fn on_link(&self, link: usize) -> Vec<&TraceEntry> {
        self.entries.iter().filter(|e| e.link == link).collect()
    }

    /// Clears the capture buffer.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ip;
    use crate::fabric::Proto;

    fn pkt(src: &str, dst: &str, proto: Proto, port: u16) -> Packet {
        Packet {
            src: Ip::parse(src),
            dst: Ip::parse(dst),
            proto,
            dst_port: port,
            bytes: 60,
        }
    }

    #[test]
    fn record_and_query() {
        let mut t = Tracer::new();
        t.record(
            0,
            "anonvm",
            "commvm",
            &pkt("10.0.2.15", "10.0.2.2", Proto::Udp, 9030),
        );
        t.record(
            1,
            "commvm",
            "internet",
            &pkt("203.0.113.9", "198.51.100.1", Proto::Tcp, 443),
        );
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.on_link(0).len(), 1);
        assert_eq!(t.entries()[0].seq, 0);
        assert_eq!(t.entries()[1].seq, 1);
    }
}

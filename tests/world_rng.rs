//! Pins the world RNG stream that exit addresses are drawn from.
//!
//! Anonymizers are modeled by cost, but building one still draws from
//! the shared world RNG: a Dissent nym takes one `u64`, and every relay
//! the directory generates takes 32 bytes before its bandwidth and
//! flags. Dropping either draw would shift every later guard, exit and
//! exit address without failing any other test: `repro` builds a fresh
//! manager per anonymizer kind, and nymbench runs Tor nyms only.

use nymix::{NymManager, UsageModel};
use nymix_anon::tor::TorDirectory;
use nymix_anon::AnonymizerKind;
use nymix_net::Ip;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn dissent_nym_keeps_the_world_rng_stream() {
    let mut m = NymManager::new(7, 64);
    m.create_nym("d", AnonymizerKind::Dissent, UsageModel::Ephemeral)
        .expect("capacity");
    let (tor, _) = m
        .create_nym("t", AnonymizerKind::Tor, UsageModel::Ephemeral)
        .expect("capacity");
    let exit = m.anonymizer(tor).expect("live").exit_address(m.public_ip());
    assert_eq!(exit, Ip([198, 18, 0, 14]));
}

#[test]
fn tor_directory_generation_is_pinned() {
    let dir = TorDirectory::generate(1, 200);
    let mut bytes = Vec::new();
    for r in dir.relays() {
        bytes.extend_from_slice(&r.id.0.to_le_bytes());
        bytes.extend_from_slice(&r.bandwidth.to_bits().to_le_bytes());
        bytes.push(u8::from(r.is_guard));
        bytes.push(u8::from(r.is_exit));
        bytes.extend_from_slice(&r.address.0);
    }
    assert_eq!(
        hex(&nymix_crypto::sha256(&bytes)),
        "9db4fc1eca6b3c6d41fb8e8fe68de76ffb52b8594700c380bc0429bb1110e125"
    );
}

//! Pins the allocation-freedom of the anonymizer data planes: once a
//! circuit's cell buffer has grown to cell size, onion wrap/peel performs
//! no heap allocation, and DC-net pad accumulation expands every keystream
//! directly into the slot accumulator.

#[path = "../../devshims/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

use nymix_anon::tor::{TorClient, TorDirectory};
use nymix_sim::Rng;

#[test]
fn onion_wrap_peel_allocation_free_post_setup() {
    let dir = TorDirectory::generate(4, 80);
    let mut rng = Rng::seed_from(11);
    let mut tor = TorClient::bootstrap(&dir, &mut rng);
    let mut circuit = tor.build_circuit(&dir, &mut rng).expect("circuit");
    let payload = vec![0x5au8; 512];
    let mut cell = Vec::with_capacity(payload.len());
    // Warm the buffer once (first growth is the "setup").
    circuit.wrap_into(&payload, &mut cell);
    let n = allocations_in(|| {
        for _ in 0..32 {
            circuit.wrap_into(&payload, &mut cell);
            circuit.peel(0, &mut cell);
            circuit.peel(1, &mut cell);
            circuit.peel(2, &mut cell);
        }
    });
    assert_eq!(n, 0, "steady-state wrap/peel must not allocate");
}

#[test]
fn dcnet_pad_accumulation_allocates_only_ciphertext_buffers() {
    use nymix_anon::DissentNet;
    let n_clients = 4;
    let m_servers = 3;
    let mut net = DissentNet::new(n_clients, m_servers, 256, 7);
    // Warm-up so `messages`-independent setup is done.
    let _ = net.run_round(&[]);
    let n = allocations_in(|| {
        std::hint::black_box(net.run_round(&[]));
    });
    // One returned Vec per participant plus the container itself; the pad
    // expansion (one ChaCha20 stream per pairwise seed, all XORed into the
    // slot accumulator) adds nothing.
    let expected_max = n_clients + m_servers + 1;
    assert!(
        n <= expected_max,
        "pad accumulation must not allocate per seed: {n} allocations for \
         {expected_max} ciphertext buffers"
    );
}

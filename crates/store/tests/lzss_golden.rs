//! Golden-stream pin for the LZSS encoder.
//!
//! Figure 6 sizes and every sealed blob are compressed sizes, so the
//! encoder's output is part of the observable format: a faster match
//! finder must emit the same bytes, not merely a stream that decodes.
//! This test runs a seeded corpus through the encoder and pins the
//! SHA-256 of the concatenated streams. The corpus covers the shapes
//! where a match finder can go wrong: markup, a tiny alphabet (long
//! chains, many ties), incompressible keystream, short periods, repeats
//! at and around the 4 KiB window edge, every tiny length, and one
//! input large enough that positions run far past the window.

use nymix_crypto::{sha256, ChaCha20};
use nymix_sim::Rng;
use nymix_store::lzss;

const WINDOW: usize = 4096;

fn keystream(seed: u8, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    ChaCha20::new(&[seed; 32], &[0u8; 12], 0).xor_into(&mut data);
    data
}

fn html(rng: &mut Rng, len: usize) -> Vec<u8> {
    const TAGS: [&str; 6] = ["div", "span", "a", "li", "p", "td"];
    const WORDS: [&str; 10] = [
        "profile", "settings", "tweet", "reply", "forum", "guard", "circuit", "nym", "cache",
        "entry",
    ];
    let mut out = Vec::with_capacity(len + 64);
    while out.len() < len {
        let tag = TAGS[rng.next_below(TAGS.len() as u64) as usize];
        let class = WORDS[rng.next_below(WORDS.len() as u64) as usize];
        out.extend_from_slice(format!("<{tag} class=\"{class}\">").as_bytes());
        for _ in 0..rng.range_u64(1, 5) {
            out.extend_from_slice(WORDS[rng.next_below(WORDS.len() as u64) as usize].as_bytes());
            out.push(b' ');
        }
        out.extend_from_slice(format!("{}</{tag}>\n", rng.next_below(10_000)).as_bytes());
    }
    out.truncate(len);
    out
}

fn alphabet4(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| b"ACGT"[rng.next_below(4) as usize])
        .collect()
}

fn periodic(rng: &mut Rng, period: usize, len: usize) -> Vec<u8> {
    let mut unit = vec![0u8; period];
    rng.fill_bytes(&mut unit);
    unit.iter().copied().cycle().take(len).collect()
}

/// A random block, random filler putting the block's repeat at distance
/// `dist`, then the block again: the repeat is matchable only when
/// `dist <= WINDOW`.
fn straddle(rng: &mut Rng, block: usize, dist: usize) -> Vec<u8> {
    let mut data = vec![0u8; dist + block];
    rng.fill_bytes(&mut data[..dist]);
    data.copy_within(..block, dist);
    data
}

fn corpus() -> Vec<Vec<u8>> {
    let mut rng = Rng::seed_from(0x5EED_4C5A);
    let mut inputs = Vec::new();
    for len in 0..=20 {
        inputs.push(vec![0u8; len]);
        inputs.push(b"abc".iter().copied().cycle().take(len).collect());
        let mut noise = vec![0u8; len];
        rng.fill_bytes(&mut noise);
        inputs.push(noise);
    }
    for len in [900, 20_000, 70_000] {
        inputs.push(html(&mut rng, len));
    }
    for len in [5_000, 40_000] {
        inputs.push(alphabet4(&mut rng, len));
    }
    inputs.push(keystream(3, 1_000));
    inputs.push(keystream(4, 16 * 1024));
    for period in (1..=20).chain([31, 100, 255, 4095, 4096, 4097]) {
        inputs.push(periodic(&mut rng, period, 3 * period + 9_000));
    }
    for dist in [
        WINDOW - 40,
        WINDOW - 17,
        WINDOW - 1,
        WINDOW,
        WINDOW + 1,
        WINDOW + 2,
        WINDOW + 17,
    ] {
        inputs.push(straddle(&mut rng, 40, dist));
    }
    // Runs whose repeat straddles the window edge: one run of zeros
    // split by a noise block of window size, so some positions see the
    // earlier run inside the window and some just outside it.
    let mut run = vec![0u8; 3 * WINDOW];
    rng.fill_bytes(&mut run[WINDOW - 8..2 * WINDOW - 8]);
    inputs.push(run);
    // One large mixed input: markup interleaved with keystream blocks
    // and a four-letter stretch, positions far past the window.
    let mut big = Vec::new();
    let mut seed = 10u8;
    while big.len() < 300 * 1024 {
        big.extend(html(&mut rng, 24_000));
        big.extend(keystream(seed, 3_000));
        big.extend(alphabet4(&mut rng, 2_000));
        seed += 1;
    }
    inputs.push(big);
    inputs
}

#[test]
fn lzss_streams_match_the_pinned_digest() {
    let inputs = corpus();
    assert!(inputs.iter().any(|i| i.len() >= 256 * 1024));
    let mut c = lzss::Compressor::new();
    let mut streams = Vec::new();
    for input in &inputs {
        let start = streams.len();
        c.compress_into(input, &mut streams);
        assert_eq!(&lzss::decompress(&streams[start..]).unwrap(), input);
    }
    let digest: String = sha256(&streams)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        (streams.len(), digest.as_str()),
        (
            272_607,
            "75d758cd07f9eaa243fe964639cea179983d4e15128a5729e8616212cdc59eb5"
        ),
        "LZSS output changed: the encoder must emit identical streams"
    );
}

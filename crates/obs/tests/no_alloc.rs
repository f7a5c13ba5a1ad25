//! Pins the disabled-recorder overhead contract: a `span!`/`counter!`
//! call site with the recorder off is a relaxed load and a branch —
//! it must never touch the heap, so instrumented hot paths keep their
//! own allocation-freedom guarantees. This test binary never calls
//! `set_enabled(true)`; the whole process stays in the disabled state.

#[path = "../../devshims/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

#[test]
fn disabled_call_sites_never_allocate() {
    assert!(
        !nymix_obs::enabled(),
        "this binary must keep the recorder off"
    );
    let n = allocations_in(|| {
        for i in 0..256u64 {
            let mut span = nymix_obs::span!("capture", "session" => i, "bytes" => i);
            span.add_modeled_us(i);
            nymix_obs::counter!("crypto.aead.seals", 1u64);
            nymix_obs::gauge!("placement.repair_queue", i);
            nymix_obs::histogram!("cloud.put_bytes", i);
            nymix_obs::sim_clock(i);
            drop(span);
        }
    });
    assert_eq!(n, 0, "disabled recorder call sites must not allocate");
}

#[test]
fn disabled_meter_never_allocates() {
    assert!(!nymix_obs::enabled());
    let mut meter = nymix_obs::meter!("cloud.backoff_us");
    let n = allocations_in(|| {
        for i in 0..256u64 {
            meter.add(i);
        }
        std::hint::black_box(meter.get());
        std::hint::black_box(meter.take());
    });
    assert_eq!(n, 0, "disabled Meter must not allocate");
}

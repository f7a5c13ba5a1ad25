//! Pins the `cloud.auth` counter to one credential check per
//! `CloudSession::apply_batch`, deletes included. This binary holds one
//! test on purpose — it turns the process-global recorder on, and a
//! sibling test authenticating on another harness thread would land in
//! the measured window.

use nymix_net::Ip;
use nymix_store::{CloudProvider, ObjectBackend};

fn auths_counted() -> u64 {
    nymix_obs::snapshot()
        .counters
        .iter()
        .find(|(name, _)| *name == "cloud.auth")
        .map_or(0, |(_, n)| *n)
}

#[test]
fn one_batch_of_puts_and_deletes_authenticates_once() {
    let exit = Ip::parse("198.18.0.9");
    let mut p = CloudProvider::new("drive");
    p.create_account("anon", "tok");
    p.session("anon", "tok", exit)
        .apply_batch(
            vec![("old1".into(), vec![1]), ("old2".into(), vec![2])],
            Vec::new(),
        )
        .unwrap();
    let logged_before = p.access_log().total_recorded();

    nymix_obs::set_enabled(true);
    let before = auths_counted();
    let puts: Vec<(String, Vec<u8>)> = (0..3).map(|i| (format!("new{i}"), vec![i; 8])).collect();
    // Two deletes of existing objects, three of absent ones.
    let deletes: Vec<String> = ["old1", "ghost1", "old2", "ghost2", "ghost3"]
        .map(String::from)
        .to_vec();
    p.session("anon", "tok", exit)
        .apply_batch(puts, deletes)
        .unwrap();
    let auths = auths_counted() - before;
    nymix_obs::set_enabled(false);
    assert_eq!(auths, 1);

    // The provider still observed each put, and one delete per object
    // that existed.
    let ops: Vec<(&str, Option<&str>)> = p
        .access_log()
        .iter()
        .skip(logged_before as usize)
        .map(|e| (e.op, e.object.as_deref()))
        .collect();
    assert_eq!(
        ops,
        vec![
            ("put", Some("new0")),
            ("put", Some("new1")),
            ("put", Some("new2")),
            ("delete", Some("old1")),
            ("delete", Some("old2")),
        ]
    );
    assert!(p.access_log().iter().all(|e| e.observed_ip == exit));
    let mut names = Vec::new();
    p.session("anon", "tok", exit).list(&mut names).unwrap();
    assert_eq!(names, vec!["new0", "new1", "new2"]);
}

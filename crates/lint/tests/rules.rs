//! Drives every rule over the fixture corpus: each rule has at least
//! one fixture that must trip it and one that must stay clean. The
//! fixtures live in `tests/fixtures/` (excluded from the workspace
//! scan — they violate the rules on purpose).

use nymix_lint::engine::lint_file;
use nymix_lint::registry::{Exemption, Registry, SecretType, Taxonomy, TrustModule};
use nymix_lint::rules::ids;

/// A synthetic registry aimed at the fixture paths, mirroring the shape
/// of [`Registry::nymix`] without depending on the real workspace map.
fn fixture_registry() -> Registry {
    Registry {
        trust_modules: vec![TrustModule {
            path: "fixtures/src/parser.rs".to_string(),
            rationale: "fixture trust boundary".to_string(),
        }],
        secret_types: vec![SecretType {
            name: "FixtureKey".to_string(),
            defined_in: "fixtures/src/secret.rs".to_string(),
            rationale: "fixture secret".to_string(),
        }],
        taxonomies: vec![Taxonomy {
            enum_name: "FixtureError".to_string(),
            paths: vec!["fixtures/".to_string()],
            rationale: "fixture taxonomy".to_string(),
        }],
        seal_fns: vec!["seal_in_place_detached".to_string()],
        ct_module: "fixtures/src/ct.rs".to_string(),
        exempt_parsers: vec![Exemption {
            path_or_name: "fixtures/src/exempted.rs".to_string(),
            reason: "fixture exemption".to_string(),
        }],
        exempt_secrets: vec![],
        unsafe_kernels: vec![Exemption {
            path_or_name: "fixtures/src/sha256/kernel.rs".to_string(),
            reason: "fixture SIMD kernel".to_string(),
        }],
        obs_labels: vec![
            "capture".to_string(),
            "session".to_string(),
            "disk.commits".to_string(),
        ],
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Lints a fixture as though it sat at `rel` in the workspace.
fn lint(name: &str, rel: &str) -> Vec<&'static str> {
    let reg = fixture_registry();
    let mut out = Vec::new();
    lint_file(rel, &fixture(name), &reg, &mut out);
    out.iter().map(|f| f.rule).collect()
}

/// The trust-module rel path the synthetic registry polices.
const PARSER: &str = "fixtures/src/parser.rs";

#[test]
fn panic_free_fail_trips_every_construct() {
    let rules = lint("panic_free_fail.rs", PARSER);
    // unwrap, expect, panic!, assert!, `as u16`, unreachable!.
    assert!(
        rules.iter().filter(|r| **r == ids::PANIC_FREE).count() >= 6,
        "expected >=6 panic-free findings, got {rules:?}"
    );
}

#[test]
fn panic_free_pass_is_clean_and_ignores_tests() {
    let rules = lint("panic_free_pass.rs", PARSER);
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn panic_free_only_polices_registered_modules() {
    let rules = lint("panic_free_fail.rs", "fixtures/src/unregistered_helper.rs");
    assert!(!rules.contains(&ids::PANIC_FREE), "got {rules:?}");
}

#[test]
fn secret_debug_fail_flags_both_derives() {
    let rules = lint("secret_debug_fail.rs", "fixtures/src/secret.rs");
    assert_eq!(
        rules.iter().filter(|r| **r == ids::SECRET_DEBUG).count(),
        2,
        "Debug and Clone each flag: {rules:?}"
    );
}

#[test]
fn secret_zeroize_fail_flags_missing_drop() {
    let rules = lint("secret_zeroize_fail.rs", "fixtures/src/secret.rs");
    assert!(rules.contains(&ids::SECRET_ZEROIZE), "got {rules:?}");
}

#[test]
fn secret_pass_is_clean() {
    let rules = lint("secret_pass.rs", "fixtures/src/secret.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn secret_format_fail_flags_macro_use() {
    let rules = lint("secret_format_fail.rs", "fixtures/src/other.rs");
    assert!(rules.contains(&ids::SECRET_FORMAT), "got {rules:?}");
}

#[test]
fn secret_format_pass_is_clean() {
    let rules = lint("secret_format_pass.rs", "fixtures/src/other.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn forbid_unsafe_fail_flags_root_and_token() {
    let rules = lint("forbid_unsafe_fail.rs", "fixtures/src/lib.rs");
    // Missing attribute + two `unsafe` tokens (fn is one token-site,
    // the block another... here: one `unsafe {` block).
    assert!(
        rules.iter().filter(|r| **r == ids::FORBID_UNSAFE).count() >= 2,
        "got {rules:?}"
    );
}

#[test]
fn forbid_unsafe_pass_is_clean() {
    let rules = lint("forbid_unsafe_pass.rs", "fixtures/src/lib.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn forbid_unsafe_cfg_attr_gate_does_not_count() {
    // A forbid that some cfg switches off is no gate at a crate root,
    // even in the crate that holds the registered kernel.
    let rules = lint("forbid_unsafe_cfg_attr_fail.rs", "fixtures/src/lib.rs");
    assert_eq!(rules, vec![ids::FORBID_UNSAFE], "got {rules:?}");
}

#[test]
fn deny_unsafe_root_clean_only_with_a_registered_kernel() {
    // `fixtures/src/sha256/kernel.rs` is registered: its crate's root
    // may carry the unconditional deny that the kernel's allow needs.
    let rules = lint("deny_unsafe_root.rs", "fixtures/src/lib.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
    let rules = lint("deny_unsafe_root.rs", "fixtures/src/bin/tool.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
    // Any other crate must forbid.
    let rules = lint("deny_unsafe_root.rs", "other/src/lib.rs");
    assert_eq!(rules, vec![ids::FORBID_UNSAFE], "got {rules:?}");
    let rules = lint("deny_unsafe_root.rs", "more_fixtures/src/lib.rs");
    assert_eq!(rules, vec![ids::FORBID_UNSAFE], "got {rules:?}");
}

#[test]
fn forbid_unsafe_attr_not_required_off_root() {
    let rules = lint("secret_format_pass.rs", "fixtures/src/other.rs");
    assert!(!rules.contains(&ids::FORBID_UNSAFE), "got {rules:?}");
}

#[test]
fn unsafe_kernel_registered_and_fenced_is_clean() {
    let rules = lint("unsafe_kernel_pass.rs", "fixtures/src/sha256/kernel.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn unsafe_kernel_unregistered_still_flags() {
    // The same fenced kernel at a path with no registry entry: every
    // `unsafe` token flags — registration (with a reason) is required.
    let rules = lint("unsafe_kernel_pass.rs", "fixtures/src/sha256/rogue.rs");
    assert_eq!(
        rules.iter().filter(|r| **r == ids::FORBID_UNSAFE).count(),
        2,
        "unsafe block + unsafe fn each flag: {rules:?}"
    );
}

#[test]
fn unsafe_kernel_registered_but_unfenced_still_flags() {
    // Registered path, but the file lacks the promised
    // `deny(unsafe_op_in_unsafe_fn)` + `#[target_feature]` fences.
    let rules = lint("unsafe_kernel_fail.rs", "fixtures/src/sha256/kernel.rs");
    assert!(rules.contains(&ids::FORBID_UNSAFE), "got {rules:?}");
}

#[test]
fn taxonomy_fail_flags_wildcard_and_bare_binding() {
    let rules = lint("taxonomy_fail.rs", "fixtures/src/classify.rs");
    assert_eq!(
        rules.iter().filter(|r| **r == ids::ERROR_TAXONOMY).count(),
        2,
        "`_` and a bare binding each flag: {rules:?}"
    );
}

#[test]
fn taxonomy_pass_allows_explicit_bindings() {
    let rules = lint("taxonomy_pass.rs", "fixtures/src/classify.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn nonce_fail_flags_literal_array() {
    let rules = lint("nonce_fail.rs", "fixtures/src/sealer.rs");
    assert!(rules.contains(&ids::NONCE_LITERAL), "got {rules:?}");
}

#[test]
fn nonce_pass_allows_derived_nonces() {
    let rules = lint("nonce_pass.rs", "fixtures/src/sealer.rs");
    assert!(!rules.contains(&ids::NONCE_LITERAL), "got {rules:?}");
}

#[test]
fn ct_fail_flags_short_circuit_compare() {
    let rules = lint("ct_fail.rs", "fixtures/src/verify.rs");
    assert!(rules.contains(&ids::CT_COMPARE), "got {rules:?}");
}

#[test]
fn ct_pass_allows_ct_eq_and_len_checks() {
    let rules = lint("ct_pass.rs", "fixtures/src/verify.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn ct_module_itself_is_exempt() {
    let rules = lint("ct_fail.rs", "fixtures/src/ct.rs");
    assert!(!rules.contains(&ids::CT_COMPARE), "got {rules:?}");
}

#[test]
fn unregistered_parser_flagged_then_cleared_by_registration() {
    let rules = lint("unregistered_parser_fail.rs", "fixtures/src/newformat.rs");
    assert!(rules.contains(&ids::UNREGISTERED_PARSER), "got {rules:?}");
    // Registering the same file as a trust module clears the finding.
    let rules = lint("unregistered_parser_fail.rs", PARSER);
    assert!(!rules.contains(&ids::UNREGISTERED_PARSER), "got {rules:?}");
    // So does an exemption.
    let rules = lint("unregistered_parser_fail.rs", "fixtures/src/exempted.rs");
    assert!(!rules.contains(&ids::UNREGISTERED_PARSER), "got {rules:?}");
}

#[test]
fn unregistered_secret_flagged_outside_registry() {
    let rules = lint("unregistered_secret_fail.rs", "fixtures/src/stray.rs");
    assert!(rules.contains(&ids::UNREGISTERED_SECRET), "got {rules:?}");
}

#[test]
fn reasoned_suppression_silences_and_counts_as_used() {
    let rules = lint("suppression_pass.rs", PARSER);
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn unused_suppression_is_a_finding() {
    let rules = lint("suppression_unused_fail.rs", PARSER);
    assert_eq!(rules, vec![ids::UNUSED_SUPPRESSION], "got {rules:?}");
}

#[test]
fn reasonless_and_unknown_rule_suppressions_are_findings() {
    let rules = lint("suppression_syntax_fail.rs", PARSER);
    assert!(
        rules
            .iter()
            .filter(|r| **r == ids::SUPPRESSION_SYNTAX)
            .count()
            >= 2,
        "no-reason and unknown-rule each flag: {rules:?}"
    );
    // The reasonless allow does NOT silence the violation under it.
    assert!(rules.contains(&ids::PANIC_FREE), "got {rules:?}");
}

#[test]
fn obs_label_fail_flags_adhoc_labels_and_secret() {
    let rules = lint("obs_label_fail.rs", "fixtures/src/metrics.rs");
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == ids::OBS_LABEL_HYGIENE)
            .count(),
        3,
        "ad-hoc name, unregistered key, secret type each flag: {rules:?}"
    );
}

#[test]
fn obs_label_pass_is_clean_and_ignores_tests_and_definitions() {
    let rules = lint("obs_label_pass.rs", "fixtures/src/metrics.rs");
    assert!(rules.is_empty(), "expected clean, got {rules:?}");
}

#[test]
fn obs_rule_inert_without_a_vocabulary() {
    let mut reg = fixture_registry();
    reg.obs_labels.clear();
    let mut out = Vec::new();
    lint_file(
        "fixtures/src/metrics.rs",
        &fixture("obs_label_fail.rs"),
        &reg,
        &mut out,
    );
    assert!(
        !out.iter().any(|f| f.rule == ids::OBS_LABEL_HYGIENE),
        "empty vocabulary must not police: {out:?}"
    );
}

/// The lint registry's obs vocabulary must stay in lock-step with the
/// tables between the `lint-vocabulary-begin/end` markers in
/// `crates/obs/src/registry.rs` — drift in either direction fails.
#[test]
fn obs_vocabulary_matches_nymix_obs() {
    let path = format!("{}/../obs/src/registry.rs", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let begin = src
        .find("lint-vocabulary-begin")
        .expect("begin marker in obs registry");
    let end = src
        .find("lint-vocabulary-end")
        .expect("end marker in obs registry");
    let mut from_obs: Vec<String> = Vec::new();
    for line in src[begin..end].lines() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let mut rest = line;
        while let Some(a) = rest.find('"') {
            let tail = &rest[a + 1..];
            let Some(b) = tail.find('"') else { break };
            from_obs.push(tail[..b].to_string());
            rest = &tail[b + 1..];
        }
    }
    from_obs.sort();
    from_obs.dedup();
    let mut from_lint = Registry::obs_vocabulary();
    from_lint.sort();
    from_lint.dedup();
    assert_eq!(
        from_obs, from_lint,
        "nymix-obs registry and nymix-lint obs vocabulary drifted: update \
         Registry::obs_vocabulary() to mirror crates/obs/src/registry.rs"
    );
}

#[test]
fn lex_error_reported_not_panicked() {
    let rules = lint("lex_error_fail.rs", "fixtures/src/broken.rs");
    assert_eq!(rules, vec![ids::LEX_ERROR], "got {rules:?}");
}

#[test]
fn workspace_scan_reports_stale_registry_entries() {
    use nymix_lint::engine::run_workspace;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let findings = run_workspace(&dir, &fixture_registry());
    // None of the fixture registry's paths exist under src/, so every
    // trust module, secret type and unsafe-kernel exemption reports
    // stale.
    let stale = findings
        .iter()
        .filter(|f| f.rule == ids::REGISTRY_STALE)
        .count();
    assert_eq!(
        stale, 3,
        "one trust module + one secret type + one kernel exemption: {findings:?}"
    );
}

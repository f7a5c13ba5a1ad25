//! The drive loop: walk the workspace, lex + classify each `.rs` file,
//! run the rules, apply suppressions, and append the
//! registration-freshness checks.

use std::fs;
use std::path::{Path, PathBuf};

use crate::classify;
use crate::diag::{self, Finding};
use crate::lexer::{self, Kind, Token};
use crate::registry::Registry;
use crate::rules::{self, ids, Ctx};

/// Directory names never descended into. `fixtures` holds the lint
/// crate's own deliberately-violating test corpus; `target` is build
/// output.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Lints every `.rs` file under `root` against `reg`. Paths in
/// findings are relative to `root`.
pub fn run_workspace(root: &Path, reg: &Registry) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    files.sort();
    let mut findings = Vec::new();
    let mut seen_trust: Vec<bool> = vec![false; reg.trust_modules.len()];
    let mut seen_secret: Vec<bool> = vec![false; reg.secret_types.len()];
    let mut seen_kernel: Vec<bool> = vec![false; reg.unsafe_kernels.len()];
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let rel = rel_path(root, path);
        for (i, m) in reg.trust_modules.iter().enumerate() {
            if rel.ends_with(&m.path) {
                seen_trust[i] = true;
            }
        }
        for (i, s) in reg.secret_types.iter().enumerate() {
            if rel.ends_with(&s.defined_in) {
                seen_secret[i] = true;
            }
        }
        for (i, k) in reg.unsafe_kernels.iter().enumerate() {
            if rel.ends_with(&k.path_or_name) {
                seen_kernel[i] = true;
            }
        }
        let Ok(src) = fs::read(path) else {
            findings.push(Finding::new(
                &rel,
                0,
                ids::LEX_ERROR,
                "file vanished or unreadable during the scan".to_string(),
            ));
            continue;
        };
        sources.push((rel, src));
    }
    lint_sources(&sources, reg, &mut findings);
    // `registry-stale`: a registered path that matches no file means a
    // rename/delete silently dropped a trust boundary from coverage.
    for (i, m) in reg.trust_modules.iter().enumerate() {
        if !seen_trust[i] {
            findings.push(Finding::new(
                &m.path,
                0,
                ids::REGISTRY_STALE,
                "registered trust-boundary module matches no file in the workspace: \
                 update the registry to follow the rename (coverage silently lapsed)"
                    .to_string(),
            ));
        }
    }
    for (i, s) in reg.secret_types.iter().enumerate() {
        if !seen_secret[i] {
            findings.push(Finding::new(
                &s.defined_in,
                0,
                ids::REGISTRY_STALE,
                format!(
                    "secret type `{}` is registered in a file that no longer exists: \
                     update the registry to follow the rename",
                    s.name
                ),
            ));
        }
    }
    // A registered unsafe-kernel path matching no file is just as
    // stale: it would silently pre-authorize `unsafe` in whatever file
    // is later created (or renamed) onto that path.
    for (i, k) in reg.unsafe_kernels.iter().enumerate() {
        if !seen_kernel[i] {
            findings.push(Finding::new(
                &k.path_or_name,
                0,
                ids::REGISTRY_STALE,
                "registered unsafe-kernel exemption matches no file in the workspace: \
                 remove it or update it to follow the rename"
                    .to_string(),
            ));
        }
    }
    diag::sort(&mut findings);
    findings
}

/// Lints a set of `(workspace-relative path, bytes)` files together:
/// the per-file rules on each, then the workspace rules over all of
/// them, then each file's suppressions. A file that a test-only
/// `mod x;` pulls in is test code throughout. Appends the surviving
/// findings to `out`.
// lint:allow(test-only-pub): tests/rules.rs drives the fixture corpus through it
pub fn lint_sources(files: &[(String, Vec<u8>)], reg: &Registry, out: &mut Vec<Finding>) {
    let mut lexed = Vec::with_capacity(files.len());
    for (rel, src) in files {
        match lexer::lex(src) {
            Ok(tokens) => lexed.push(Lexed {
                rel,
                src,
                test_mask: classify::test_mask(&tokens, src),
                tokens,
            }),
            Err(e) => out.push(Finding::new(
                rel,
                e.line,
                ids::LEX_ERROR,
                format!("cannot lex file: {} at byte {}", e.what, e.offset),
            )),
        }
    }
    mask_test_modules(&mut lexed);
    let ctxs: Vec<Ctx<'_>> = lexed
        .iter()
        .map(|f| Ctx {
            rel: f.rel,
            src: f.src,
            tokens: &f.tokens,
            test_mask: &f.test_mask,
            reg,
            is_crate_root: is_crate_root(f.rel),
        })
        .collect();
    let mut raw = vec![Vec::new(); ctxs.len()];
    for (ctx, raw) in ctxs.iter().zip(&mut raw) {
        rules::run_all(ctx, raw);
    }
    rules::run_workspace(&ctxs, &mut raw);
    for (ctx, raw) in ctxs.iter().zip(raw) {
        let sups = classify::suppressions(ctx.tokens, ctx.src);
        apply_suppressions(ctx.rel, sups, raw, out);
    }
}

/// One lexed file and its test mask.
struct Lexed<'a> {
    rel: &'a str,
    src: &'a [u8],
    tokens: Vec<Token>,
    test_mask: Vec<bool>,
}

/// Marks a file that a test-only `mod x;` declares (`#[cfg(test)]
/// mod tests;`) as test code throughout, to a fixpoint so that a test
/// module's own `mod y;` files follow it.
fn mask_test_modules(lexed: &mut [Lexed<'_>]) {
    loop {
        let mut pulled = Vec::new();
        for f in lexed.iter() {
            for (i, w) in f.tokens.windows(3).enumerate() {
                if f.test_mask[i]
                    && w[0].is(f.src, "mod")
                    && w[1].kind == Kind::Ident
                    && w[2].is(f.src, ";")
                {
                    let name = String::from_utf8_lossy(w[1].text(f.src));
                    pulled.extend(module_files(f.rel, &name));
                }
            }
        }
        let mut changed = false;
        for f in lexed.iter_mut() {
            if pulled.iter().any(|p| p == f.rel) && f.test_mask.contains(&false) {
                f.test_mask.fill(true);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// The two files rustc accepts for `mod name;` declared in `parent`.
fn module_files(parent: &str, name: &str) -> [String; 2] {
    let stem = parent.trim_end_matches(".rs");
    let (dir, file) = stem.rsplit_once('/').unwrap_or(("", stem));
    let base = match file {
        "lib" | "main" | "mod" if dir.is_empty() => String::new(),
        "lib" | "main" | "mod" => format!("{dir}/"),
        _ => format!("{stem}/"),
    };
    [format!("{base}{name}.rs"), format!("{base}{name}/mod.rs")]
}

/// Drops the findings that a well-formed suppression on their line
/// silences, and appends the rest plus the suppression findings
/// themselves.
fn apply_suppressions(
    rel: &str,
    mut sups: Vec<classify::Suppression>,
    raw: Vec<Finding>,
    out: &mut Vec<Finding>,
) {
    // Apply suppressions: a finding on a suppression's target line,
    // with a listed rule id, is silenced (and marks the suppression
    // used). Suppressions themselves must be well-formed.
    for s in &sups {
        for r in &s.rules {
            if !ids::ALL.contains(&r.as_str()) {
                out.push(Finding::new(
                    rel,
                    s.line,
                    ids::SUPPRESSION_SYNTAX,
                    format!("`lint:allow` names unknown rule `{r}`"),
                ));
            }
        }
        if !s.has_reason {
            out.push(Finding::new(
                rel,
                s.line,
                ids::SUPPRESSION_SYNTAX,
                "`lint:allow` without a written reason: suppressions document why the \
                 rule is safe to break here, or they are noise"
                    .to_string(),
            ));
        }
    }
    for f in raw {
        let mut silenced = false;
        for s in &mut sups {
            if s.target_line == f.line && s.has_reason && s.rules.iter().any(|r| r == f.rule) {
                s.used = true;
                silenced = true;
            }
        }
        if !silenced {
            out.push(f);
        }
    }
    for s in &sups {
        if s.has_reason && !s.used && s.rules.iter().all(|r| ids::ALL.contains(&r.as_str())) {
            out.push(Finding::new(
                rel,
                s.line,
                ids::UNUSED_SUPPRESSION,
                format!(
                    "suppression of `{}` silences nothing: the violation was fixed, so \
                     delete the allow before it hides a future regression",
                    s.rules.join(", ")
                ),
            ));
        }
    }
}

/// `src/lib.rs`, `src/main.rs` and `src/bin/*.rs` are crate roots that
/// must carry `#![forbid(unsafe_code)]`.
fn is_crate_root(rel: &str) -> bool {
    if rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") {
        return true;
    }
    if let Some(pos) = rel.rfind("src/bin/") {
        let tail = &rel[pos + "src/bin/".len()..];
        return tail.ends_with(".rs") && !tail.contains('/');
    }
    false
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The `--report` payload: the trust-boundary map as JSON, so external
/// tooling (and the LINTS.md reader) can see exactly what is policed.
pub fn report(reg: &Registry) -> String {
    let mut out = String::from("{\n  \"trust_modules\": [");
    for (i, m) in reg.trust_modules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"rationale\": \"{}\"}}",
            diag::json_escape(&m.path),
            diag::json_escape(&m.rationale)
        ));
    }
    out.push_str("\n  ],\n  \"secret_types\": [");
    for (i, s) in reg.secret_types.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"defined_in\": \"{}\", \"rationale\": \"{}\"}}",
            diag::json_escape(&s.name),
            diag::json_escape(&s.defined_in),
            diag::json_escape(&s.rationale)
        ));
    }
    out.push_str("\n  ],\n  \"taxonomies\": [");
    for (i, t) in reg.taxonomies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let paths: Vec<String> = t
            .paths
            .iter()
            .map(|p| format!("\"{}\"", diag::json_escape(p)))
            .collect();
        out.push_str(&format!(
            "\n    {{\"enum\": \"{}\", \"paths\": [{}], \"rationale\": \"{}\"}}",
            diag::json_escape(&t.enum_name),
            paths.join(", "),
            diag::json_escape(&t.rationale)
        ));
    }
    out.push_str("\n  ],\n  \"seal_fns\": [");
    for (i, f) in reg.seal_fns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", diag::json_escape(f)));
    }
    out.push_str(&format!(
        "],\n  \"ct_module\": \"{}\",\n  \"exemptions\": [",
        diag::json_escape(&reg.ct_module)
    ));
    let mut first = true;
    for (kind, e) in reg
        .exempt_parsers
        .iter()
        .map(|e| ("parser", e))
        .chain(reg.exempt_secrets.iter().map(|e| ("secret", e)))
        .chain(reg.unsafe_kernels.iter().map(|e| ("unsafe-kernel", e)))
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"kind\": \"{}\", \"subject\": \"{}\", \"reason\": \"{}\"}}",
            kind,
            diag::json_escape(&e.path_or_name),
            diag::json_escape(&e.reason)
        ));
    }
    out.push_str("\n  ],\n  \"obs_labels\": [");
    for (i, l) in reg.obs_labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", diag::json_escape(l)));
    }
    out.push_str("]\n}");
    out
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_file(rel: &str, src: &[u8], reg: &Registry, out: &mut Vec<Finding>) {
        lint_sources(&[(rel.to_string(), src.to_vec())], reg, out);
    }

    #[test]
    fn cfg_test_mod_files_are_test_code() {
        let reg = Registry::nymix();
        let parser = b"fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n".to_vec();
        let lint = |root: &[u8]| {
            let files = [
                ("crates/store/src/lib.rs".to_string(), root.to_vec()),
                ("crates/store/src/lzss.rs".to_string(), parser.clone()),
            ];
            let mut out = Vec::new();
            lint_sources(&files, &reg, &mut out);
            out.retain(|f| f.rule == ids::PANIC_FREE);
            out
        };
        // Declared as production code, the trust module is policed.
        let found = lint(b"#![forbid(unsafe_code)]\npub mod lzss;\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].file, "crates/store/src/lzss.rs");
        // Pulled in by a test-only `mod`, it is test code throughout.
        assert!(lint(b"#![forbid(unsafe_code)]\n#[cfg(test)]\nmod lzss;\n").is_empty());
    }

    #[test]
    fn module_files_follow_rustc_lookup() {
        let tests = |parent| module_files(parent, "tests");
        assert_eq!(
            tests("a/src/m/mod.rs"),
            ["a/src/m/tests.rs", "a/src/m/tests/mod.rs"]
        );
        assert_eq!(tests("a/src/m.rs")[0], "a/src/m/tests.rs");
        assert_eq!(tests("lib.rs")[0], "tests.rs");
    }

    #[test]
    fn crate_root_detection() {
        assert!(is_crate_root("crates/store/src/lib.rs"));
        assert!(is_crate_root("src/main.rs"));
        assert!(is_crate_root("crates/bench/src/bin/archive.rs"));
        assert!(!is_crate_root("crates/store/src/archive.rs"));
        assert!(!is_crate_root("crates/store/src/bin/deep/x.rs"));
    }

    #[test]
    fn suppression_silences_and_unused_is_flagged() {
        let reg = Registry::nymix();
        let src = b"fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint:allow(panic-free-parser): test shim\n}\n";
        let mut out = Vec::new();
        lint_file("crates/store/src/archive.rs", src, &reg, &mut out);
        assert!(
            !out.iter().any(|f| f.rule == ids::PANIC_FREE),
            "suppressed: {out:?}"
        );

        let src = b"// lint:allow(panic-free-parser): nothing here violates\nfn f() {}\n";
        let mut out = Vec::new();
        lint_file("crates/store/src/archive.rs", src, &reg, &mut out);
        assert!(out.iter().any(|f| f.rule == ids::UNUSED_SUPPRESSION));
    }

    #[test]
    fn suppression_without_reason_does_not_silence() {
        let reg = Registry::nymix();
        let src =
            b"fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint:allow(panic-free-parser)\n}\n";
        let mut out = Vec::new();
        lint_file("crates/store/src/archive.rs", src, &reg, &mut out);
        assert!(out.iter().any(|f| f.rule == ids::PANIC_FREE));
        assert!(out.iter().any(|f| f.rule == ids::SUPPRESSION_SYNTAX));
    }

    #[test]
    fn report_is_balanced_json() {
        let r = report(&Registry::nymix());
        let opens = r.matches('{').count() + r.matches('[').count();
        let closes = r.matches('}').count() + r.matches(']').count();
        assert_eq!(opens, closes);
        assert!(r.contains("trust_modules"));
        assert!(r.contains("sanitizer/src/formats.rs"));
    }
}

//! The rule set. Each per-file rule walks the classified token stream
//! of one file, and each workspace rule walks all of them, pushing
//! [`Finding`]s; rule ids are the names
//! `lint:allow(...)` suppressions use. `LINTS.md` at the repo root
//! documents every rule's threat-model rationale.

use crate::classify;
use crate::diag::Finding;
use crate::lexer::{Kind, Token};
use crate::registry::Registry;

mod nonce_ct;
mod obs;
mod panic_free;
mod secrets;
mod taxonomy;
mod test_only_pub;
mod unsafe_code;

/// Rule ids, in one place so engine/docs/tests agree on spelling.
pub mod ids {
    pub const PANIC_FREE: &str = "panic-free-parser";
    pub const SECRET_DEBUG: &str = "secret-debug";
    pub const SECRET_FORMAT: &str = "secret-format";
    pub const SECRET_ZEROIZE: &str = "secret-zeroize";
    pub const FORBID_UNSAFE: &str = "forbid-unsafe";
    pub const ERROR_TAXONOMY: &str = "error-taxonomy";
    pub const NONCE_LITERAL: &str = "nonce-literal";
    pub const CT_COMPARE: &str = "ct-compare";
    pub const UNREGISTERED_PARSER: &str = "unregistered-parser";
    pub const UNREGISTERED_SECRET: &str = "unregistered-secret";
    pub const UNUSED_SUPPRESSION: &str = "unused-suppression";
    pub const SUPPRESSION_SYNTAX: &str = "suppression-syntax";
    pub const LEX_ERROR: &str = "lex-error";
    pub const REGISTRY_STALE: &str = "registry-stale";
    pub const OBS_LABEL_HYGIENE: &str = "obs-label-hygiene";
    pub const TEST_ONLY_PUB: &str = "test-only-pub";

    /// Every id, for suppression validation and docs.
    pub const ALL: &[&str] = &[
        PANIC_FREE,
        SECRET_DEBUG,
        SECRET_FORMAT,
        SECRET_ZEROIZE,
        FORBID_UNSAFE,
        ERROR_TAXONOMY,
        NONCE_LITERAL,
        CT_COMPARE,
        UNREGISTERED_PARSER,
        UNREGISTERED_SECRET,
        UNUSED_SUPPRESSION,
        SUPPRESSION_SYNTAX,
        LEX_ERROR,
        REGISTRY_STALE,
        OBS_LABEL_HYGIENE,
        TEST_ONLY_PUB,
    ];
}

/// Everything a rule sees for one file.
pub struct Ctx<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    pub src: &'a [u8],
    pub tokens: &'a [Token],
    /// Parallel to `tokens`: true inside `#[cfg(test)]`/`#[test]` items.
    pub test_mask: &'a [bool],
    pub reg: &'a Registry,
    /// True for `src/lib.rs`, `src/main.rs` and `src/bin/*.rs`.
    pub is_crate_root: bool,
}

impl<'a> Ctx<'a> {
    /// Text of token `i`.
    pub fn text(&self, i: usize) -> &'a [u8] {
        self.tokens[i].text(self.src)
    }

    /// True when token `i` is exactly `text`.
    pub fn is(&self, i: usize, text: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is(self.src, text))
    }

    /// Index of the next non-comment token after `i`.
    pub fn next_sig(&self, i: usize) -> Option<usize> {
        (i + 1..self.tokens.len()).find(|&j| self.tokens[j].kind != Kind::Comment)
    }

    /// Index of the previous non-comment token before `i`.
    pub fn prev_sig(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| self.tokens[j].kind != Kind::Comment)
    }

    /// Matching close bracket for the open bracket at `i`.
    pub fn matching(&self, open: usize) -> Option<usize> {
        classify::matching(self.tokens, self.src, open)
    }

    /// True when the file lives under a `src/` directory (production
    /// code rather than tests/benches/examples).
    pub fn in_src(&self) -> bool {
        self.rel.contains("/src/") || self.rel.starts_with("src/")
    }

    pub fn finding(&self, out: &mut Vec<Finding>, i: usize, rule: &'static str, msg: String) {
        out.push(Finding::new(self.rel, self.tokens[i].line, rule, msg));
    }
}

/// Runs every per-file rule.
pub fn run_all(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    panic_free::run(ctx, out);
    secrets::run(ctx, out);
    obs::run(ctx, out);
    unsafe_code::run(ctx, out);
    taxonomy::run(ctx, out);
    nonce_ct::run(ctx, out);
}

/// Runs every workspace rule; `out[i]` collects the findings of
/// `files[i]`.
pub fn run_workspace(files: &[Ctx<'_>], out: &mut [Vec<Finding>]) {
    test_only_pub::run(files, out);
}

//! `obs-label-hygiene` — privacy discipline at observability call
//! sites.
//!
//! The `nymix-obs` recorder only ever exports *registered* static
//! strings (stage names, label keys, metric names) plus plain `u64`
//! values, so a trace artifact can be shipped off-box without a
//! scrubbing pass. That argument holds only if call sites cannot smuggle
//! in ad-hoc strings: this rule re-checks, at the token level, that
//! every string literal inside a `span!`/`counter!`/`gauge!`/
//! `histogram!`/`meter!` invocation is in the registered obs vocabulary
//! (the macros' `const { … }` registry lookups enforce the same set at
//! compile time — the lint makes drift between the two registries a
//! finding rather than a silent fork), and that no registered secret
//! type is mentioned anywhere in an obs call expression, where it would
//! be one field projection away from exported telemetry.

use super::{ids, Ctx};
use crate::diag::Finding;
use crate::lexer::Kind;

/// The `nymix-obs` recording macros whose argument lists are policed.
const OBS_MACROS: &[&str] = &["span", "counter", "gauge", "histogram", "meter"];

pub fn run(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    // A registry without an obs vocabulary polices nothing (synthetic
    // test registries opt in by listing labels).
    if ctx.reg.obs_labels.is_empty() {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if ctx.test_mask[i] || ctx.tokens[i].kind != Kind::Ident {
            continue;
        }
        let Ok(name) = core::str::from_utf8(ctx.text(i)) else {
            continue;
        };
        if !OBS_MACROS.contains(&name) {
            continue;
        }
        // A macro *invocation*: `span ! (`-shaped. `macro_rules! span {`
        // has no `!` after the name, so definitions don't match.
        let Some(bang) = ctx.next_sig(i) else {
            continue;
        };
        if !ctx.is(bang, "!") {
            continue;
        }
        let Some(open) = ctx.next_sig(bang) else {
            continue;
        };
        if !(ctx.is(open, "(") || ctx.is(open, "[") || ctx.is(open, "{")) {
            continue;
        }
        let Some(close) = ctx.matching(open) else {
            continue;
        };
        for j in open + 1..close {
            match ctx.tokens[j].kind {
                Kind::Str => check_literal(ctx, out, j, name),
                Kind::Ident => check_secret(ctx, out, j, name),
                _ => {}
            }
        }
    }
}

/// Every string literal at an obs call site must be a registered
/// stage, label key, or metric name.
fn check_literal(ctx: &Ctx<'_>, out: &mut Vec<Finding>, j: usize, macro_name: &str) {
    let Ok(text) = core::str::from_utf8(ctx.text(j)) else {
        return;
    };
    // Registered labels are plain `"…"` literals; raw/byte strings are
    // never registered, so they fall through with quotes intact and
    // fail the lookup below.
    let inner = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(text);
    if !ctx.reg.obs_label(inner) {
        ctx.finding(
            out,
            j,
            ids::OBS_LABEL_HYGIENE,
            format!(
                "`{inner}` in `{macro_name}!` is not in the registered obs vocabulary: \
                 exported telemetry may carry only registered static labels — extend the \
                 vocabulary in crates/obs/src/registry.rs (see OBSERVABILITY.md)"
            ),
        );
    }
}

/// A registered secret type mentioned inside an obs call expression is
/// one field projection away from exported telemetry.
fn check_secret(ctx: &Ctx<'_>, out: &mut Vec<Finding>, j: usize, macro_name: &str) {
    let Ok(t) = core::str::from_utf8(ctx.text(j)) else {
        return;
    };
    if ctx.reg.secret_named(t).is_some() {
        ctx.finding(
            out,
            j,
            ids::OBS_LABEL_HYGIENE,
            format!(
                "secret type `{t}` inside `{macro_name}!`: key material must never \
                 feed an observability value (labels and values are exported off-box)"
            ),
        );
    }
}

//! `test-only-pub`: a `pub fn` that no other file's production code
//! names is surface without a user.
//!
//! Each public entry point is a channel a reader has to audit and CI
//! has to build. One that only its own file or its own tests reach is
//! either private in all but name or dead: make it private, move it
//! under `#[cfg(test)]`, or delete it with its tests.
//!
//! The rule is a workspace pass over every walked file's tokens. A
//! `pub`/`pub(..)` `fn` in the non-test code of `crates/*/src/**`
//! (outside `crates/devshims/`) is a finding when its name appears in
//! the non-test tokens of no other file. Not callers: comments, `use`
//! and `pub use` statements (a re-export is not a call), attributes
//! (`#[derive(..)]` names no function), the name after `fn` (another
//! definition of the same name), test regions, files under a `tests/`
//! directory and files a test-only `mod x;` pulls in. Examples, benches
//! and `nymbench/` are callers: they are the ledger. Matching is by
//! name, so an unrelated item of the same name elsewhere hides a
//! finding; it never invents one.

use std::collections::HashMap;

use super::{ids, Ctx};
use crate::diag::Finding;
use crate::lexer::Kind;

pub fn run(files: &[Ctx<'_>], out: &mut [Vec<Finding>]) {
    // Each name mapped to the first two distinct files naming it.
    let mut named_in: HashMap<&[u8], (usize, Option<usize>)> = HashMap::new();
    for (f, ctx) in files.iter().enumerate() {
        if is_test_file(ctx.rel) {
            continue;
        }
        for i in caller_tokens(ctx) {
            let e = named_in.entry(ctx.text(i)).or_insert((f, None));
            if e.0 != f && e.1.is_none() {
                e.1 = Some(f);
            }
        }
    }
    for (f, ctx) in files.iter().enumerate() {
        if !polices(ctx.rel) {
            continue;
        }
        for (i, name) in pub_fns(ctx) {
            let elsewhere = named_in
                .get(ctx.text(name))
                .is_some_and(|&(first, second)| first != f || second.is_some());
            if !elsewhere {
                ctx.finding(
                    &mut out[f],
                    i,
                    ids::TEST_ONLY_PUB,
                    format!(
                        "`pub fn {}` is named by no other file's non-test code: make it \
                         private, move it under `#[cfg(test)]`, or delete it",
                        String::from_utf8_lossy(ctx.text(name))
                    ),
                );
            }
        }
    }
}

/// `crates/<name>/src/**`, devshims aside.
fn polices(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(krate, rest)| krate != "devshims" && rest.starts_with("src/"))
}

fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Indices of the identifier tokens that count as naming something:
/// production code outside `use` statements, attributes and `fn`
/// definition sites.
fn caller_tokens<'a>(ctx: &'a Ctx<'_>) -> impl Iterator<Item = usize> + 'a {
    let mut skip_to = 0;
    (0..ctx.tokens.len()).filter(move |&i| {
        if i < skip_to || ctx.test_mask[i] {
            return false;
        }
        if ctx.is(i, "#") {
            skip_to = attribute_end(ctx, i);
            return false;
        }
        if ctx.tokens[i].kind != Kind::Ident {
            return false;
        }
        if ctx.is(i, "use") {
            skip_to = statement_end(ctx, i);
            return false;
        }
        !ctx.prev_sig(i).is_some_and(|p| ctx.is(p, "fn"))
    })
}

/// Index past the `]` that closes the `#[..]` or `#![..]` attribute
/// whose `#` is at `i`; just past `i` when no attribute starts there.
fn attribute_end(ctx: &Ctx<'_>, i: usize) -> usize {
    let mut j = ctx.next_sig(i);
    if let Some(bang) = j.filter(|&b| ctx.is(b, "!")) {
        j = ctx.next_sig(bang);
    }
    j.filter(|&o| ctx.is(o, "["))
        .and_then(|o| ctx.matching(o))
        .map_or(i + 1, |close| close + 1)
}

/// Index past the `;` that ends the statement starting at `i`.
fn statement_end(ctx: &Ctx<'_>, mut i: usize) -> usize {
    while i < ctx.tokens.len() && !ctx.is(i, ";") {
        if ctx.is(i, "{") {
            i = ctx.matching(i).unwrap_or(ctx.tokens.len());
        }
        i += 1;
    }
    i + 1
}

/// What may sit between `pub` and `fn`.
const QUALIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

/// `(pub token, name token)` for each production `pub fn`, qualifiers
/// such as `pub(crate) const unsafe fn` included.
fn pub_fns(ctx: &Ctx<'_>) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    for i in 0..ctx.tokens.len() {
        if ctx.test_mask[i] || !ctx.is(i, "pub") {
            continue;
        }
        let mut j = ctx.next_sig(i);
        if let Some(open) = j.filter(|&j| ctx.is(j, "(")) {
            j = ctx.matching(open).and_then(|c| ctx.next_sig(c));
        }
        // `extern "C"` carries an ABI string.
        while let Some(k) = j
            .filter(|&k| QUALIFIERS.iter().any(|q| ctx.is(k, q)) || ctx.tokens[k].kind == Kind::Str)
        {
            j = ctx.next_sig(k);
        }
        if let Some(name) = j
            .filter(|&k| ctx.is(k, "fn"))
            .and_then(|k| ctx.next_sig(k))
            .filter(|&n| ctx.tokens[n].kind == Kind::Ident)
        {
            found.push((i, name));
        }
    }
    found
}

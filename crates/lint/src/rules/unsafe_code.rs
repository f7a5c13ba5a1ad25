//! `forbid-unsafe`: defence in depth against memory-unsafety creeping
//! into an anonymity system whose whole value is that the *provider*
//! is untrusted, not the client binary.
//!
//! Two layers, both required:
//!
//! 1. every crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`)
//!    must carry an unconditional `#![forbid(unsafe_code)]` — the
//!    compiler-enforced gate that even `#[allow]` cannot reopen. A
//!    `cfg_attr`-wrapped forbid does not count: some cfg turns it off.
//!    The one weaker gate accepted is an unconditional
//!    `#![deny(unsafe_code)]`, and only at the root of a crate that
//!    holds a registered kernel file (below), whose file-level allow
//!    forbid could not admit;
//! 2. no `unsafe` token may appear anywhere in the workspace, tests
//!    included — the forbid attribute stops unsafe *code*, but a
//!    string-pasted `unsafe` in a macro or a future attribute edit
//!    would not be caught until review, and this rule makes the
//!    invariant grep-simple.
//!
//! One registered escape hatch: cfg-isolated SIMD kernel files
//! ([`Registry::unsafe_kernels`](crate::registry::Registry)) may hold
//! `unsafe` — hardware intrinsics cannot be expressed without it — but
//! only with a written reason in the registry *and* the fences the
//! exemption promises actually present in the file: a
//! `deny(unsafe_op_in_unsafe_fn)` header and `#[target_feature]` on
//! the kernels. A registered file missing either fence keeps flagging,
//! and unregistered `unsafe` is always a hard finding.

use super::{ids, Ctx};
use crate::diag::Finding;
use crate::lexer::Kind;

pub fn run(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.is_crate_root {
        let msg = match root_gate(ctx) {
            Some(Gate::Forbid) => None,
            Some(Gate::Deny) if holds_registered_kernel(ctx) => None,
            Some(Gate::Deny) => Some(
                "crate root has `#![deny(unsafe_code)]` but the crate holds no registered \
                 unsafe-kernel file: use `#![forbid(unsafe_code)]`",
            ),
            None => Some(
                "crate root lacks an unconditional `#![forbid(unsafe_code)]`: every crate \
                 in this workspace compiles with the gate on (a `cfg_attr`-wrapped gate \
                 does not count)",
            ),
        };
        if let Some(msg) = msg {
            out.push(Finding::new(
                ctx.rel,
                1,
                ids::FORBID_UNSAFE,
                msg.to_string(),
            ));
        }
    }
    let registered = ctx.reg.unsafe_kernel(ctx.rel).is_some();
    if registered && is_fenced_kernel(ctx) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if ctx.tokens[i].kind == Kind::Ident && ctx.is(i, "unsafe") {
            let msg = if registered {
                "`unsafe` in a registered kernel file that lacks the promised fences: \
                 add `#![deny(unsafe_op_in_unsafe_fn)]` and `#[target_feature]` on \
                 every kernel, or drop the registry exemption"
                    .to_string()
            } else {
                "`unsafe` token: this workspace is safe Rust, tests included; SIMD \
                 kernels are the one exception and must be registered (with a reason) \
                 in the lint registry's `unsafe_kernels`"
                    .to_string()
            };
            ctx.finding(out, i, ids::FORBID_UNSAFE, msg);
        }
    }
}

/// A registered kernel file must actually be fenced the way the
/// exemption promises: a module-level `unsafe_op_in_unsafe_fn` deny
/// (so every unsafe operation sits in an explicit `unsafe {}` block)
/// and `#[target_feature]` (so the unsafe exists to reach gated
/// instructions, not for general pointer tricks).
fn is_fenced_kernel(ctx: &Ctx<'_>) -> bool {
    let mut saw_target_feature = false;
    let mut saw_op_deny = false;
    for i in 0..ctx.tokens.len() {
        if ctx.tokens[i].kind != Kind::Ident {
            continue;
        }
        saw_target_feature |= ctx.is(i, "target_feature");
        saw_op_deny |= ctx.is(i, "unsafe_op_in_unsafe_fn");
    }
    saw_target_feature && saw_op_deny
}

/// The crate-root unsafe gate an unconditional inner attribute sets.
enum Gate {
    Forbid,
    Deny,
}

/// The strongest unconditional `#![forbid(unsafe_code)]` or
/// `#![deny(unsafe_code)]` at the file's inner-attribute sites. The
/// lint name must sit directly in the attribute's own list, so a
/// `cfg_attr(.., forbid(unsafe_code))` wrapper matches neither.
fn root_gate(ctx: &Ctx<'_>) -> Option<Gate> {
    let mut gate = None;
    for i in 0..ctx.tokens.len() {
        if !ctx.is(i, "#") {
            continue;
        }
        let Some(bang) = ctx.next_sig(i).filter(|&b| ctx.is(b, "!")) else {
            continue;
        };
        let Some(open) = ctx.next_sig(bang).filter(|&o| ctx.is(o, "[")) else {
            continue;
        };
        let Some(level) = ctx.next_sig(open) else {
            continue;
        };
        let Some(list) = ctx.next_sig(level).filter(|&l| ctx.is(l, "(")) else {
            continue;
        };
        let Some(close) = ctx.matching(list) else {
            continue;
        };
        let names_unsafe_code = (list + 1..close).any(|j| ctx.is(j, "unsafe_code"));
        if !names_unsafe_code {
            continue;
        }
        if ctx.is(level, "forbid") {
            return Some(Gate::Forbid);
        }
        if ctx.is(level, "deny") {
            gate = Some(Gate::Deny);
        }
    }
    gate
}

/// True when a registered unsafe-kernel file lives in this crate root's
/// crate: the kernel's path, up to its `src/` directory, is the tail of
/// the root's own `src/` directory.
fn holds_registered_kernel(ctx: &Ctx<'_>) -> bool {
    let Some(root_src) = src_dir(ctx.rel) else {
        return false;
    };
    ctx.reg.unsafe_kernels.iter().any(|k| {
        src_dir(&k.path_or_name).is_some_and(|kernel_src| {
            root_src == kernel_src
                || root_src
                    .strip_suffix(kernel_src)
                    .is_some_and(|head| head.ends_with('/'))
        })
    })
}

/// `rel` up to and including its last `src/` path component.
fn src_dir(rel: &str) -> Option<&str> {
    if let Some(pos) = rel.rfind("/src/") {
        return Some(&rel[..pos + "/src/".len()]);
    }
    rel.starts_with("src/").then(|| &rel[.."src/".len()])
}

//! `exhaustiveness` — every protocol message/record variant must encode,
//! decode, and be dispatched.
//!
//! Encode/decode coverage comes from the serde derives on the enum itself
//! (the workspace codec is derive-driven, so a variant missing
//! `Serialize`/`Deserialize` cannot cross the wire); dispatch coverage is
//! checked by looking for a `Enum::Variant` arm in the configured dispatch
//! files. A variant that a peer can send but the receiver never matches is
//! exactly the kind of silent protocol drift this rule exists to catch —
//! and so is one the receivers match but the sender never builds, which is
//! why the server is listed for `ServerMsg` too (there a constructor
//! helper, `Enum::variant_name(..)`, counts as naming the variant).

use crate::report::Finding;
use crate::source::{ident_at, is_ident, is_punct, matching, SourceFile, TokenKind};

use super::Ctx;

/// See module docs.
pub struct Exhaustiveness;

/// (enum file, enum name, files that must dispatch on every variant).
const CHECKS: &[(&str, &str, &[&str])] = &[
    ("crates/proto/src/messages.rs", "ClientMsg", &["crates/server/src/server.rs"]),
    (
        "crates/proto/src/messages.rs",
        "ServerMsg",
        &["crates/server/src/server.rs", "crates/client/src/client.rs", "crates/client/src/mux.rs"],
    ),
    (
        "crates/proto/src/messages.rs",
        "ClusterMsg",
        &["crates/cluster/src/worker.rs", "crates/cluster/src/coordinator.rs"],
    ),
    ("crates/record/src/records.rs", "TrafficRecord", &["crates/record/src/query.rs"]),
    ("crates/record/src/records.rs", "FaultRecord", &["crates/record/src/query.rs"]),
    (
        "crates/chaos/src/plan.rs",
        "FaultKind",
        &["crates/server/src/script.rs", "crates/server/src/faults.rs"],
    ),
    ("crates/core/src/sleep.rs", "SleepPolicy", &["crates/server/src/server.rs"]),
    (
        "crates/core/src/scene.rs",
        "SceneOp",
        &["crates/core/src/scene.rs", "crates/record/src/scenestats.rs"],
    ),
    ("crates/profiles/src/model.rs", "LinkProfile", &["crates/profiles/src/model.rs"]),
];

impl super::Rule for Exhaustiveness {
    fn name(&self) -> &'static str {
        "exhaustiveness"
    }

    fn check(&self, cx: &Ctx<'_>, out: &mut Vec<Finding>) {
        let files = cx.files;
        for (enum_file, enum_name, dispatch_files) in CHECKS {
            let Some(ef) = files.iter().find(|f| f.rel_path == *enum_file) else { continue };
            let Some(e) = extract_enum(ef, enum_name) else {
                out.push(Finding::new(
                    "exhaustiveness",
                    enum_file,
                    1,
                    format!("protocol enum `{enum_name}` not found"),
                ));
                continue;
            };
            for derive in ["Serialize", "Deserialize"] {
                if !e.derives.iter().any(|d| d == derive) {
                    out.push(Finding::new(
                        "exhaustiveness",
                        &ef.rel_path,
                        e.line,
                        format!(
                            "`{enum_name}` lacks `#[derive({derive})]`; its variants cannot \
                             cross the wire"
                        ),
                    ));
                }
            }
            for df_path in *dispatch_files {
                let Some(df) = files.iter().find(|f| f.rel_path == *df_path) else { continue };
                for (variant, line) in &e.variants {
                    if !has_dispatch_arm(df, enum_name, variant) {
                        out.push(Finding::new(
                            "exhaustiveness",
                            &ef.rel_path,
                            *line,
                            format!(
                                "variant `{enum_name}::{variant}` has no dispatch arm in \
                                 `{df_path}`; a peer sending it would be silently mishandled"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

struct EnumDef {
    line: u32,
    derives: Vec<String>,
    variants: Vec<(String, u32)>,
}

/// Find `enum <name> { … }` in `f` and pull out its variants and the
/// identifiers named in preceding `#[derive(…)]` attributes.
fn extract_enum(f: &SourceFile, name: &str) -> Option<EnumDef> {
    let t = &f.tokens;
    let idx = (0..t.len()).find(|&i| is_ident(t, i, "enum") && is_ident(t, i + 1, name))?;
    let open = (idx + 2..t.len()).find(|&i| is_punct(t, i, '{'))?;
    let close = matching(t, open, '{', '}')?;

    let mut variants = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Skip variant attributes.
        while is_punct(t, i, '#') && is_punct(t, i + 1, '[') {
            i = matching(t, i + 1, '[', ']').map_or(close, |e| e + 1);
        }
        if i >= close {
            break;
        }
        if let Some(v) = ident_at(t, i) {
            variants.push((v.to_string(), t[i].line));
        }
        // Advance to the comma separating variants, skipping nested payloads.
        let mut depth = 0usize;
        while i < close {
            match t[i].kind {
                TokenKind::Punct('(') | TokenKind::Punct('{') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct('}') | TokenKind::Punct(']') => {
                    depth = depth.saturating_sub(1)
                }
                TokenKind::Punct(',') if depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }

    // Collect derives from the attributes directly above the enum.
    let mut derives = Vec::new();
    let mut j = idx;
    if j > 0 && is_ident(t, j - 1, "pub") {
        j -= 1;
    }
    while j >= 1 && is_punct(t, j - 1, ']') {
        let Some(open_b) = rmatching(t, j - 1) else { break };
        if open_b == 0 || !is_punct(t, open_b - 1, '#') {
            break;
        }
        if is_ident(t, open_b + 1, "derive") {
            for k in open_b + 2..j - 1 {
                if let Some(d) = ident_at(t, k) {
                    derives.push(d.to_string());
                }
            }
        }
        j = open_b - 1;
    }

    Some(EnumDef { line: t[idx].line, derives, variants })
}

/// Index of the `[` matching the `]` at `close_idx`, scanning backwards.
fn rmatching(t: &[crate::lexer::Token], close_idx: usize) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close_idx).rev() {
        match t[k].kind {
            TokenKind::Punct(']') => depth += 1,
            TokenKind::Punct('[') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// True when `f` contains `Enum::Variant`, or a call of the variant's
/// constructor helper `Enum::variant(`, outside test regions.
fn has_dispatch_arm(f: &SourceFile, enum_name: &str, variant: &str) -> bool {
    let t = &f.tokens;
    let helper = snake_case(variant);
    (0..t.len()).any(|i| {
        is_ident(t, i, enum_name)
            && is_punct(t, i + 1, ':')
            && is_punct(t, i + 2, ':')
            && (is_ident(t, i + 3, variant)
                || (is_ident(t, i + 3, &helper) && is_punct(t, i + 4, '(')))
            && !f.in_test_region(t[i].line)
    })
}

/// `SyncReply` → `sync_reply`.
fn snake_case(variant: &str) -> String {
    let mut out = String::with_capacity(variant.len() + 4);
    for (i, c) in variant.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

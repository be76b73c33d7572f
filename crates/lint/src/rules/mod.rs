//! The rule registry, rule context, and per-rule scope definitions.
//!
//! Each rule implements [`Rule`] and receives a [`Ctx`] holding the lexed
//! files plus the shared semantic analysis ([`crate::sema::Workspace`]),
//! so cross-file rules (protocol exhaustiveness, the lock graph) can
//! correlate sites. Scopes are path predicates over workspace-relative
//! paths; the golden-file fixtures mirror the real workspace layout so the
//! same scopes apply there.
//!
//! Rules are split into two phases CI runs as separate jobs: **token**
//! rules (pattern checks over the raw stream) and **semantic** rules
//! (anything needing the symbol table, call graph or guard analysis).

mod blocking_under_lock;
mod determinism;
mod determinism_taint;
mod exhaustiveness;
mod lock_graph;
mod metrics_drift;
mod panic_safety;
mod unsafe_doc;

pub use lock_graph::parse_decl as parse_lock_decl;

use crate::report::Finding;
use crate::sema::Workspace;
use crate::source::SourceFile;

/// Everything a rule may consult.
pub struct Ctx<'a> {
    /// Every lexed `.rs` file under the lint root.
    pub files: &'a [SourceFile],
    /// The shared semantic analysis.
    pub sema: &'a Workspace,
    /// `DESIGN.md` at the lint root, when present (for `metrics_drift`).
    pub design_md: Option<&'a str>,
    /// Declared lock-order pairs from `LOCK_ORDER.decl`: `(first, second)`
    /// means `first` must be acquired before `second`.
    pub lock_decl: &'a [(String, String)],
}

/// Which rule tier to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fast token-pattern rules.
    Token,
    /// Rules over the semantic layer.
    Semantic,
    /// Both tiers plus the stale-suppression self-check.
    All,
}

/// A single static-analysis rule.
pub trait Rule {
    /// Stable slug used in reports and `poem-lint: allow(<slug>)` comments.
    fn name(&self) -> &'static str;
    /// Scan the workspace and append violations to `out`.
    fn check(&self, cx: &Ctx<'_>, out: &mut Vec<Finding>);
}

/// The registered rules of `phase`, in report order.
pub fn rules_for(phase: Phase) -> Vec<Box<dyn Rule>> {
    let mut out: Vec<Box<dyn Rule>> = Vec::new();
    if matches!(phase, Phase::Token | Phase::All) {
        out.push(Box::new(determinism::Determinism));
        out.push(Box::new(panic_safety::PanicSafety));
        out.push(Box::new(exhaustiveness::Exhaustiveness));
        out.push(Box::new(unsafe_doc::UnsafeDoc));
    }
    if matches!(phase, Phase::Semantic | Phase::All) {
        out.push(Box::new(lock_graph::LockGraph));
        out.push(Box::new(blocking_under_lock::BlockingUnderLock));
        out.push(Box::new(determinism_taint::DeterminismTaint));
        out.push(Box::new(metrics_drift::MetricsDrift));
    }
    out
}

/// Every registered rule.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    rules_for(Phase::All)
}

/// Replay-deterministic code: the pipeline/sim/record/routing layers, where
/// wall-clock reads or hash-order iteration would diverge between a live run
/// and its replay (PAPER.md §3).
pub(crate) fn determinism_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/routing/src/")
        || rel.starts_with("crates/record/src/")
        || rel.starts_with("crates/chaos/src/")
        || rel.starts_with("crates/profiles/src/")
        || rel.starts_with("crates/cluster/src/")
        || matches!(
            rel,
            "crates/server/src/sim.rs"
                | "crates/server/src/faults.rs"
                | "crates/server/src/engine.rs"
                | "crates/server/src/script.rs"
        )
}

/// Hostile-input surfaces: protocol decode plus the server ingest/session
/// threads. A malformed frame must surface as `Err`, never a panic.
pub(crate) fn panic_scope(rel: &str) -> bool {
    rel.starts_with("crates/proto/src/")
        || rel.starts_with("crates/cluster/src/")
        || matches!(
            rel,
            "crates/server/src/server.rs"
                | "crates/server/src/reactor.rs"
                | "crates/server/src/session.rs"
                | "crates/server/src/timer.rs"
                | "crates/server/src/engine.rs"
                | "crates/server/src/sim.rs"
                | "crates/server/src/faults.rs"
                | "crates/client/src/mux.rs"
                | "crates/profiles/src/parser.rs"
        )
}

/// Files where even slice indexing is banned (decode paths driven directly
/// by attacker-controlled lengths).
pub(crate) fn strict_index_scope(rel: &str) -> bool {
    matches!(rel, "crates/proto/src/codec.rs" | "crates/proto/src/framing.rs")
}

/// Concurrency-discipline scope for the semantic lock rules: every
/// workspace crate (the lock graph is global — a cycle can span crates).
pub(crate) fn concurrency_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
}

/// `metrics_drift` code scope: every workspace crate except the linter
/// itself (whose sources mention metric-name syntax, not metrics).
pub(crate) fn metrics_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && !rel.starts_with("crates/lint/")
}

//! Golden-file tests: run the real rule set over tiny fixture workspaces
//! (which mirror the actual crate layout, so the production scopes apply)
//! and assert the exact rule hits, witness paths, suppression behavior and
//! exit codes.
//!
//! The `violations` fixture is the acceptance-criteria demonstration: it
//! seeds a cross-crate three-lock inversion cycle (`a.rs` → `b.rs` →
//! `retry.rs`), a condvar wait under a foreign guard, a wall-clock taint
//! flow into a record sink, and bidirectional metric/DESIGN.md drift — and
//! the lint must pin every witness path and exit non-zero.

use std::path::PathBuf;

use poem_lint::report::{Finding, Report};
use poem_lint::rules::Phase;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn hits(report: &Report) -> Vec<(&str, &str, u32)> {
    report.findings.iter().map(|f| (f.rule, f.path.as_str(), f.line)).collect()
}

fn find<'a>(report: &'a Report, rule: &str, path: &str, line: u32) -> &'a Finding {
    report
        .findings
        .iter()
        .find(|f| f.rule == rule && f.path == path && f.line == line)
        .unwrap_or_else(|| panic!("no {rule} finding at {path}:{line}\n{}", report.render_human()))
}

#[test]
fn violations_fixture_hits_every_rule_and_exits_nonzero() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    assert_eq!(
        hits(&report),
        vec![
            ("metrics_drift", "DESIGN.md", 6),
            ("unsafe_doc", "crates/core/src/cell.rs", 2),
            ("determinism_taint", "crates/core/src/clock.rs", 4),
            ("determinism", "crates/core/src/neighbor.rs", 10),
            ("exhaustiveness", "crates/core/src/sleep.rs", 5),
            ("exhaustiveness", "crates/profiles/src/model.rs", 2),
            ("exhaustiveness", "crates/profiles/src/model.rs", 4),
            ("panic_safety", "crates/proto/src/codec.rs", 2),
            ("panic_safety", "crates/proto/src/codec.rs", 2),
            ("exhaustiveness", "crates/proto/src/messages.rs", 5),
            ("exhaustiveness", "crates/proto/src/messages.rs", 11),
            ("exhaustiveness", "crates/proto/src/messages.rs", 11),
            ("exhaustiveness", "crates/proto/src/messages.rs", 17),
            ("exhaustiveness", "crates/proto/src/messages.rs", 18),
            ("exhaustiveness", "crates/record/src/records.rs", 11),
            ("lock_graph", "crates/server/src/a.rs", 3),
            ("metrics_drift", "crates/server/src/metrics.rs", 3),
            ("lock_graph", "crates/server/src/pool.rs", 3),
            ("blocking_under_lock", "crates/server/src/server.rs", 19),
            ("determinism_taint", "crates/server/src/taint.rs", 4),
            ("determinism_taint", "crates/server/src/taint.rs", 9),
            ("blocking_under_lock", "crates/server/src/waiters.rs", 5),
            ("lock_graph", "crates/server/src/waiters.rs", 13),
        ]
    );
    assert_eq!(poem_lint::exit_code(&report, true), 1);
    // Advisory mode still reports but exits zero.
    assert_eq!(poem_lint::exit_code(&report, false), 0);
}

#[test]
fn deadlock_cycle_carries_every_hop_as_witness() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    let cycle = find(&report, "lock_graph", "crates/server/src/a.rs", 3);
    assert_eq!(
        cycle.msg,
        "potential deadlock: lock-order cycle `clients` → `writer` → `schedule` → `clients` \
         across the workspace"
    );
    // One witness per hop, naming the acquiring fn, file and both lines —
    // the cycle spans the server and client crates.
    assert_eq!(
        cycle.witness,
        vec![
            "`clients` → `writer`: `forward` (crates/server/src/a.rs:3) acquires `writer` \
             while holding `clients` (acquired line 2)",
            "`writer` → `schedule`: `flush` (crates/server/src/b.rs:3) acquires `schedule` \
             while holding `writer` (acquired line 2)",
            "`schedule` → `clients`: `resync` (crates/client/src/retry.rs:3) acquires \
             `clients` while holding `schedule` (acquired line 2)",
        ]
    );
}

#[test]
fn declared_order_violation_names_the_pair() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    let decl = find(&report, "lock_graph", "crates/server/src/pool.rs", 3);
    assert_eq!(
        decl.msg,
        "declared lock order violated in `drain`: `scene` must be acquired before \
         `shard_slot`, but it is acquired while `shard_slot` is held (LOCK_ORDER.decl)"
    );
}

#[test]
fn condvar_wait_and_reacquisition_are_flagged() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    let wait = find(&report, "blocking_under_lock", "crates/server/src/waiters.rs", 5);
    assert_eq!(
        wait.msg,
        "`pump` performs condvar wait `wait` while holding lock `state` (acquired line 2)"
    );
    assert_eq!(
        wait.witness,
        vec![
            "`state` acquired at crates/server/src/waiters.rs:2, still live at condvar \
             wait `wait` on line 5"
        ]
    );
    // The wait's own guard (`jobs`, passed as the wait argument) is exempt:
    // exactly one finding on that line.
    assert_eq!(
        report.findings.iter().filter(|f| f.path.ends_with("waiters.rs") && f.line == 5).count(),
        1
    );
    let relock = find(&report, "lock_graph", "crates/server/src/waiters.rs", 13);
    assert_eq!(
        relock.msg,
        "`relock` re-acquires lock `state` already held since line 12 \
         (non-reentrant mutex: self-deadlock)"
    );
}

#[test]
fn hot_path_blocking_gets_severity_tier() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    let hot = find(&report, "blocking_under_lock", "crates/server/src/server.rs", 19);
    assert!(hot.msg.starts_with("[hot-path] "), "missing tier prefix: {}", hot.msg);
    assert!(hot.msg.contains("`scan_loop` performs a `sleep` call while holding lock `schedule`"));
}

#[test]
fn taint_witness_traces_source_to_sink() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    let sink = find(&report, "determinism_taint", "crates/server/src/taint.rs", 4);
    assert_eq!(
        sink.witness,
        vec![
            "nondeterministic source `Instant::now` at crates/server/src/taint.rs:2",
            "`started` assigned from the tainted value at crates/server/src/taint.rs:2",
            "`stamp` assigned from the tainted value at crates/server/src/taint.rs:3",
            "flows into `.record_traffic(..)` at crates/server/src/taint.rs:4",
        ]
    );
    let ctor = find(&report, "determinism_taint", "crates/server/src/taint.rs", 9);
    assert!(ctor.msg.contains("record constructor `SceneRecord`"));
    assert_eq!(ctor.witness.len(), 3);
}

#[test]
fn metrics_drift_is_bidirectional() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    // Registered but undocumented: the build must fail when a metric's row
    // is removed from DESIGN.md.
    let orphan = find(&report, "metrics_drift", "crates/server/src/metrics.rs", 3);
    assert!(orphan.msg.contains("`poem_fixture_orphan_total` is registered here but missing"));
    // Documented but never registered: the table must not lie.
    let ghost = find(&report, "metrics_drift", "DESIGN.md", 6);
    assert!(ghost.msg.contains("`poem_fixture_ghost_total` is documented"));
}

#[test]
fn violations_fixture_messages_name_the_problem() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.msg.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`.unwrap()`")));
    assert!(msgs.iter().any(|m| m.contains("slice indexing")));
    assert!(msgs.iter().any(|m| m.contains("Instant::now")));
    assert!(msgs.iter().any(|m| m.contains("nondeterministic order")));
    assert!(msgs.iter().any(|m| m.contains("ClientMsg::Bye")));
    // A variant the server never builds and the client never matches.
    for file in ["crates/server/src/server.rs", "crates/client/src/client.rs"] {
        assert!(msgs.iter().any(|m| m.contains("ServerMsg::DeliverMany") && m.contains(file)));
    }
    assert!(msgs.iter().any(|m| m.contains("ClusterMsg::Shutdown")));
    assert!(msgs.iter().any(|m| m.contains("ClusterMsg::Barrier")));
    assert!(msgs.iter().any(|m| m.contains("FaultRecord::Clock")));
    assert!(msgs.iter().any(|m| m.contains("SleepPolicy::Spin")));
    assert!(msgs.iter().any(|m| m.contains("SAFETY")));
}

#[test]
fn phases_partition_the_rules() {
    let token = poem_lint::run_phase(&fixture("violations"), Phase::Token).expect("token phase");
    let semantic =
        poem_lint::run_phase(&fixture("violations"), Phase::Semantic).expect("semantic phase");
    const SEMANTIC_RULES: &[&str] =
        &["lock_graph", "blocking_under_lock", "determinism_taint", "metrics_drift"];
    assert!(
        token.findings.iter().all(|f| !SEMANTIC_RULES.contains(&f.rule)),
        "semantic finding leaked into the token phase"
    );
    assert!(
        semantic.findings.iter().all(|f| SEMANTIC_RULES.contains(&f.rule)),
        "token finding leaked into the semantic phase"
    );
    // Neither split phase runs the stale-suppression self-check, and
    // together they cover the full run's findings.
    let full = poem_lint::run(&fixture("violations")).expect("full run");
    assert_eq!(token.findings.len() + semantic.findings.len(), full.findings.len());
}

#[test]
fn suppressed_fixture_is_clean_but_counts_suppressions() {
    let report = poem_lint::run(&fixture("suppressed")).expect("lint fixture");
    assert!(report.findings.is_empty(), "unexpected findings: {:?}", report.findings);
    // unwrap + slice index (line allow), the HashMap iteration (file-wide
    // allow) and the reentrant lock (line allow) were all silenced — and
    // none of the annotations is stale.
    assert_eq!(report.suppressed, 4);
    assert_eq!(poem_lint::exit_code(&report, true), 0);
}

#[test]
fn stale_suppressions_are_self_reported() {
    // The clean fixture has no violations, so grafting an allow onto it in
    // a temp copy would be the full test; here we rely on the live
    // workspace invariant instead: every annotation in `suppressed/`
    // absorbs at least one finding (asserted above via findings.is_empty(),
    // since a stale allow would surface as a `stale_suppression` finding).
    let report = poem_lint::run(&fixture("suppressed")).expect("lint fixture");
    assert!(report.findings.iter().all(|f| f.rule != "stale_suppression"));
}

#[test]
fn clean_fixture_has_no_findings_and_no_suppressions() {
    // `clean` includes a consistent two-lock chain (`clients` before
    // `writer` in every fn, matching its LOCK_ORDER.decl): edges exist in
    // the inferred graph but form no cycle and violate no declaration.
    let report = poem_lint::run(&fixture("clean")).expect("lint fixture");
    assert!(report.findings.is_empty(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.suppressed, 0);
    assert_eq!(poem_lint::exit_code(&report, true), 0);
}

#[test]
fn real_workspace_is_clean_under_deny_all() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = poem_lint::run(&root).expect("lint workspace");
    assert!(report.findings.is_empty(), "workspace regressed:\n{}", report.render_human());
    // Every remaining suppression in the tree is a reviewed, annotated site
    // (wall-clock CLI/abstraction sites and one startup assert).
    assert_eq!(poem_lint::exit_code(&report, true), 0);
    assert!(report.files_scanned > 100, "walker missed the workspace");
}

#[test]
fn json_report_is_machine_readable() {
    let report = poem_lint::run(&fixture("violations")).expect("lint fixture");
    let json = report.render_json();
    assert!(json.contains("\"rule\": \"panic_safety\""));
    assert!(json.contains("\"rule\": \"lock_graph\""));
    assert!(json.contains("\"path\": \"crates/proto/src/codec.rs\""));
    assert!(json.contains("\"witness\""));
    assert!(json.contains("\"files_scanned\":"));
}

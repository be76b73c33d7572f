//! # poem-lint — workspace static analysis for PoEm's runtime invariants
//!
//! PoEm's replay fidelity and hostile-client resilience are semantic
//! invariants `rustc`/`clippy` cannot see: replay-critical code must not
//! read wall clocks or iterate hash tables, protocol decode must never
//! panic, every wire variant needs a dispatch arm, and server locks must be
//! acquired in one global order. This crate checks them with a hand-rolled
//! lexer (the build environment has no registry access, so no `syn`), a
//! lightweight semantic layer (item parser, workspace symbol table, call
//! graph, guard live-range analysis — see [`sema`]), and a small rule
//! framework split into a fast *token* tier and a flow-aware *semantic*
//! tier (see [`rules`]).
//!
//! Run as `cargo run -p poem-lint -- --deny-all` (CI does). Suppress a rule
//! at a specific site with a justified annotation:
//!
//! ```text
//! // poem-lint: allow(determinism_taint): WallClock IS the real-time boundary.
//! let base = Instant::now();
//! ```
//!
//! or for a whole file with `// poem-lint: allow-file(<rule>): <reason>`.
//! A full run (`Phase::All`) additionally self-checks the annotations: an
//! `allow` that no longer matches any raw finding is itself reported as
//! `stale_suppression`, so the suppression inventory cannot rot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod sema;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use report::{Finding, Report};
use rules::{Ctx, Phase};
use source::SourceFile;

/// Directory names never descended into: build output, VCS metadata, and
/// the lint fixtures themselves (they contain intentional violations).
const SKIP_DIRS: &[&str] = &["target", "fixtures", "node_modules"];

/// Lint the workspace rooted at `root` with every rule (CI's combined
/// mode, including the stale-suppression self-check).
pub fn run(root: &Path) -> io::Result<Report> {
    run_phase(root, Phase::All)
}

/// Lint the workspace rooted at `root` with one rule tier.
pub fn run_phase(root: &Path, phase: Phase) -> io::Result<Report> {
    let files = collect_files(root)?;
    let design_md = fs::read_to_string(root.join("DESIGN.md")).ok();
    let lock_decl = fs::read_to_string(root.join("LOCK_ORDER.decl"))
        .map(|s| rules::parse_lock_decl(&s))
        .unwrap_or_default();
    let sema = sema::Workspace::build(&files);
    let cx =
        Ctx { files: &files, sema: &sema, design_md: design_md.as_deref(), lock_decl: &lock_decl };

    let mut raw: Vec<Finding> = Vec::new();
    for rule in rules::rules_for(phase) {
        rule.check(&cx, &mut raw);
    }

    // Partition raw findings by suppression, counting how many each
    // individual annotation absorbed.
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut used: Vec<Vec<usize>> = files.iter().map(|f| vec![0; f.allows.len()]).collect();
    for finding in raw {
        let fi = files.iter().position(|f| f.rel_path == finding.path);
        match fi.and_then(|fi| files[fi].suppression(finding.rule, finding.line).map(|ai| (fi, ai)))
        {
            Some((fi, ai)) => {
                used[fi][ai] += 1;
                suppressed += 1;
            }
            None => findings.push(finding),
        }
    }

    // Self-check: annotations that matched nothing are dead weight (the
    // code they excused has changed) and must be removed. Only meaningful
    // when every rule ran; skipped for the linter's own sources, whose
    // docs/tests quote annotation syntax. Stale findings are not
    // themselves suppressible.
    if phase == Phase::All {
        for (fi, f) in files.iter().enumerate() {
            if f.rel_path.starts_with("crates/lint/") {
                continue;
            }
            for (ai, a) in f.allows.iter().enumerate() {
                if used[fi][ai] == 0 {
                    findings.push(Finding::new(
                        "stale_suppression",
                        &f.rel_path,
                        a.line,
                        format!(
                            "`poem-lint: {}({})` suppresses nothing — no `{}` finding matches \
                             its range; remove the stale annotation",
                            if a.file_wide { "allow-file" } else { "allow" },
                            a.rule,
                            a.rule
                        ),
                    ));
                }
            }
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings.dedup();
    Ok(Report { findings, suppressed, files_scanned: files.len() })
}

/// Recursively gather and lex every `.rs` file under `root`, in sorted
/// path order so reports are stable.
pub fn collect_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(&p)?;
        files.push(SourceFile::parse(rel, &text));
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) || is_workspace(&path) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether `dir` is the root of a cargo workspace of its own. A nested
/// one (the benchmark package) is not part of the workspace being linted:
/// its own CI script builds and checks it.
fn is_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

/// Map a finished report to the process exit code: `0` clean, `1` findings
/// (when denying), `2` is reserved for usage/IO errors, `3` for a blown
/// `--time-budget-ms`.
pub fn exit_code(report: &Report, deny: bool) -> i32 {
    if deny && !report.findings.is_empty() {
        1
    } else {
        0
    }
}

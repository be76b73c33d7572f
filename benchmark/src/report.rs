//! Printing a run: the human-readable lines, the detailed JSON document
//! and the one-line result the benchmark contract asks for.

use crate::json::Json;
use crate::procfs;
use crate::run::Outcome;
use crate::spec::{self, Budget, Workload};
use std::path::Path;
use std::process::Command;

/// Host and run metadata every result carries.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Workload seed.
    pub seed: u64,
    /// Timed seconds the run was sized for.
    pub seconds: f64,
    /// Repetitions.
    pub reps: usize,
    /// Cores available to the process when it started.
    pub nproc: usize,
    /// The CPUs the benchmark pinned the load side and the program to, if
    /// it could.
    pub cpus: Option<(usize, usize)>,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Build profile of this executable.
    pub profile: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Meta {
    /// Gathers the metadata of this process.
    pub fn gather(seed: u64, budget: &Budget, cpus: Option<(usize, usize)>) -> Meta {
        Meta {
            seed,
            seconds: budget.seconds,
            reps: budget.reps,
            nproc: crate::affinity::allowed().len().max(procfs::nproc()),
            cpus,
            // Only inside a repository root: elsewhere git would search
            // the parent directories, outside the checkout.
            commit: Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("seed", Json::Int(self.seed as i64)),
            ("seconds", Json::Num(self.seconds)),
            ("reps", Json::Int(self.reps as i64)),
            ("nproc", Json::Int(self.nproc as i64)),
            ("load_cpu", self.cpus.map_or(Json::str("none"), |c| Json::Int(c.0 as i64))),
            ("program_cpu", self.cpus.map_or(Json::str("none"), |c| Json::Int(c.1 as i64))),
            ("commit", Json::str(&self.commit)),
            ("rustc", Json::str(&self.rustc)),
            ("profile", Json::str(self.profile)),
        ])
    }
}

/// Name and unit of every metric a run reports, in table order: the
/// end-to-end metrics (untraced) or the per-layer ones (traced).
pub fn metric_rows(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        spec::LAYER_METRICS.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Prints the run for people: metadata, per-repetition values, one
/// `metric` line per metric (the format `poem-perf aa` reads back), and
/// the stage table of a traced pass.
pub fn print_human(w: Workload, traced: bool, meta: &Meta, out: &Outcome) {
    println!(
        "# poem-perf workload={} trace={} seed={} seconds={} reps={} nproc={} cpus={} \
         profile={} commit={} rustc=\"{}\"",
        w.name(),
        u8::from(traced),
        meta.seed,
        meta.seconds,
        meta.reps,
        meta.nproc,
        meta.cpus
            .map_or("none".to_string(), |(load, program)| format!("load:{load},program:{program}")),
        meta.profile,
        meta.commit,
        meta.rustc
    );
    let work: Vec<String> = out.work.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# work per repetition: {}", work.join(" "));
    let mut rows = metric_rows(traced);
    if !traced {
        let reported = spec::LAYER_METRICS.iter().filter(|m| spec::REPORTED.contains(&m.0));
        rows.extend(reported.map(|(n, u, _)| (*n, *u)));
    }
    for (name, unit) in rows {
        let Some(v) = out.values.get(name) else {
            // The traced pass names every per-layer metric, also those
            // the workload does not define; a missing end-to-end metric is
            // a problem `missing_end_to_end` reports.
            if traced {
                println!("metric {} {name} 0 {unit} (not defined on this workload)", w.name());
            }
            continue;
        };
        let reps = out.per_rep.get(name).map_or(String::new(), |r| {
            let cells: Vec<String> = r.iter().map(|x| format!("{x:.4}")).collect();
            format!("  reps [{}]", cells.join(" "))
        });
        let samples = out.samples.get(name).map_or(String::new(), |s| format!("  samples {s:?}"));
        println!("metric {} {name} {v} {unit}{reps}{samples}", w.name());
    }
    if !out.stages.is_empty() {
        println!("# stage replay: name count p50_ns p99_ns self_ns_total");
        for (name, s) in &out.stages {
            println!(
                "stage {} {name} {} {:.0} {:.0} {:.0}",
                w.name(),
                s.count,
                s.p50_ns,
                s.p99_ns,
                s.self_ns
            );
        }
    }
    for n in &out.notes {
        println!("# note: {n}");
    }
    for p in &out.problems {
        println!("PROBLEM {}: {p}", w.name());
    }
}

/// The detailed result document: metadata, work sizes, every value with
/// its per-repetition values and percentile sample counts.
pub fn detail_json(w: Workload, traced: bool, meta: &Meta, out: &Outcome) -> Json {
    let metrics = out.values.iter().map(|(name, v)| {
        let mut fields = vec![("value".to_string(), Json::Num(*v))];
        if let Some(r) = out.per_rep.get(name) {
            fields.push(("per_repetition".into(), Json::nums(r)));
        }
        if let Some(s) = out.samples.get(name) {
            fields.push((
                "samples".into(),
                Json::Arr(s.iter().map(|n| Json::Int(*n as i64)).collect()),
            ));
        }
        (name.to_string(), Json::Obj(fields))
    });
    Json::obj([
        ("workload", Json::str(w.name())),
        ("traced", Json::Bool(traced)),
        ("meta", meta.json()),
        ("work", Json::obj(out.work.iter().map(|(k, v)| (*k, Json::Num(*v))))),
        ("correct", Json::Bool(out.problems.is_empty())),
        ("problems", Json::Arr(out.problems.iter().map(Json::str).collect())),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
}

/// Writes the detailed document under `out_dir`. Failure to write is
/// reported, not fatal: the numbers were already printed.
pub fn write_detail(out_dir: &Path, w: Workload, traced: bool, meta: &Meta, out: &Outcome) {
    let path = out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name(),
        meta.seed,
        u8::from(traced)
    ));
    let doc = detail_json(w, traced, meta, out).to_string();
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, doc + "\n"))
    {
        eprintln!("poem-perf: cannot write {}: {e}", path.display());
    }
}

/// End-to-end metrics the run has no finite value for. Each is an output
/// failure: printed as 0 it would read as the best value there is.
pub fn missing_end_to_end(out: &Outcome) -> Vec<String> {
    spec::END_TO_END
        .iter()
        .filter(|m| !out.values.get(m.name).is_some_and(|v| v.is_finite()))
        .map(|m| format!("end-to-end metric {} was not measured", m.name))
        .collect()
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` — every end-to-end metric (untraced; the caller has
/// checked none is missing) or every per-layer metric (traced; one a
/// workload does not define reads 0).
pub fn result_line(traced: bool, out: &Outcome) -> String {
    let metrics = metric_rows(traced).into_iter().map(|(name, unit)| {
        let value = out.values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(out.problems.is_empty())),
        ("attempted", Json::Int(out.attempted.max(1) as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

/// The `BENCHMARK.json` document the metric tables in [`spec`] imply.
pub fn manifest() -> String {
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect::<Vec<_>>()
        .join(",\n");
    let end_to_end = spec::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let per_layer = spec::LAYER_METRICS
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\"}}", b.as_str())
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        spec::RUN_SECONDS
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is generated by
    /// `poem-perf manifest`; this fails when the tables and the committed
    /// file drift apart.
    #[test]
    fn committed_manifest_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert_eq!(committed, manifest(), "regenerate with `poem-perf manifest > BENCHMARK.json`");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.values.insert("setup_s", 0.5);
        out.values.insert("copies_per_s", f64::NAN);
        let line = result_line(false, &out);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for m in spec::END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\":", m.name)), "{line}");
        }
        assert!(!line.contains("proto.encode_ns_per_frame") && !line.contains('\n'));
        let traced = result_line(true, &out);
        assert!(traced.contains("\"lost_copy_ratio\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_a_problem() {
        let mut out = Outcome::default();
        for m in spec::END_TO_END {
            out.values.insert(m.name, 1.0);
        }
        assert!(missing_end_to_end(&out).is_empty());
        out.values.insert("copies_per_s", f64::NAN);
        out.values.remove("on_time_ratio");
        let missing = missing_end_to_end(&out);
        assert_eq!(missing.len(), 2, "{missing:?}");
        assert!(missing[0].contains("copies_per_s") && missing[1].contains("on_time_ratio"));
    }
}

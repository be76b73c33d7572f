//! `poem-perf` — the repository's benchmark.
//!
//! ```text
//! poem-perf run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! poem-perf trace [--workload W] [--seed N] [--seconds S] [--smoke]     (= run --trace 1)
//! poem-perf aa    [--seconds S] [--seed N]
//! poem-perf manifest
//! ```
//!
//! `run` without `--workload` runs all four, each in a child process so
//! peak memory and thread placement are per workload, exactly as when the
//! driver calls `run --workload W --seed N --seconds S --trace T`. The
//! last line of a single-workload run is the contract's JSON result.

mod aa;
mod affinity;
mod alloc;
mod json;
mod layers;
mod procfs;
mod report;
mod rt;
mod run;
mod scenes;
mod sim;
mod spec;
mod stats;
mod trace;

use spec::{Budget, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: poem-perf run|trace [--workload W] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]\n       poem-perf aa [--seconds S] [--seed N]\n       \
                     poem-perf manifest";

/// Parsed command-line options.
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

/// Where spans and result documents go: `out/` beside the package's
/// manifest, wherever the checkout is.
fn out_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let package = cwd.join("benchmark");
    if package.join("Cargo.toml").is_file() {
        package.join("out")
    } else {
        cwd.join("out")
    }
}

/// One workload in this process. Returns whether its outputs were correct.
fn run_one(w: Workload, o: &Opts) -> bool {
    alloc::steady_memory();
    let pinned = affinity::pin_load_side();
    let budget = if o.smoke { Budget::smoke() } else { Budget::full(o.seconds) };
    let meta = report::Meta::gather(o.seed, &budget, pinned);
    let out_dir = out_dir();
    let outcome = if o.traced {
        run::traced(w, o.seed, &budget, &out_dir)
    } else {
        let mut outcome = run::untraced(w, o.seed, &budget);
        outcome.problems.extend(report::missing_end_to_end(&outcome));
        outcome
    };
    report::print_human(w, o.traced, &meta, &outcome);
    report::write_detail(&out_dir, w, o.traced, &meta, &outcome);
    println!("{}", report::result_line(o.traced, &outcome));
    outcome.problems.is_empty()
}

/// Every workload, each in a child process.
fn run_all(o: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name(), "--seed", &o.seed.to_string()]);
        cmd.args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.traced { "1" } else { "0" },
        ]);
        if o.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The cluster coordinator starts its workers as `<binary> <address>`;
    // the sim workload names this executable as that binary.
    if let [addr] = args.as_slice() {
        if addr.parse::<std::net::SocketAddr>().is_ok() {
            return match poem_cluster::worker::run(addr) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("poem-perf (shard worker): {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut opts = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("poem-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match mode.as_str() {
        "manifest" => {
            print!("{}", report::manifest());
            Ok(true)
        }
        "aa" => aa::run(opts.seconds, opts.seed),
        "run" | "trace" => {
            opts.traced |= mode == "trace";
            match opts.workload {
                Some(w) => Ok(run_one(w, &opts)),
                None => run_all(&opts),
            }
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("poem-perf: {e}");
            ExitCode::from(2)
        }
    }
}

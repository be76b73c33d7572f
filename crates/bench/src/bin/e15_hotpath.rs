//! Extension experiment E15: hot-path performance — spatial-grid neighbor
//! maintenance. Emits the machine-readable `BENCH_hotpath.json` artifact.
//! Run with --release.
//!
//! Usage:
//!   e15_hotpath [--smoke] [--out PATH]   run and write the artifact
//!   e15_hotpath --check PATH             validate an existing artifact
//!                                        (exit 1 if missing/malformed)

use poem_bench::hotpath;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_hotpath.json");
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().cloned().unwrap_or(out),
            "--check" => check = it.next().cloned(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check {
        let doc = match std::fs::read_to_string(&path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("E15 check: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = hotpath::validate(&doc) {
            eprintln!("E15 check: {path} is malformed: {e}");
            std::process::exit(1);
        }
        println!("E15 check: {path} OK");
        return;
    }

    let cfg = if smoke { hotpath::HotpathConfig::smoke() } else { hotpath::HotpathConfig::full() };
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "E15 — hot-path performance ({mode}: {} mobile nodes / {} moves)\n",
        cfg.nodes, cfg.moves
    );
    let report = hotpath::run(&cfg);
    println!("{:>28} {:>14}", "metric", "value");
    println!("{:>28} {:>14}", "grid work (dist evals)", report.grid_work);
    println!("{:>28} {:>14}", "scan work (dist evals)", report.scan_work);
    println!("{:>28} {:>14.1}", "work reduction (x)", report.work_reduction);

    let json = hotpath::render_json(&report);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("E15: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out}");
    println!("The grid bounds each relink to the 3x3 cell neighborhood around the");
    println!("moved node.");
}

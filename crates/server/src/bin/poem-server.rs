//! The PoEm emulation server CLI.
//!
//! ```sh
//! poem-server <scenario.poem> [--listen 127.0.0.1:0] [--seed N] [--duration SECS]
//!             [--sleep-policy naive|hybrid|spin|auto] [--profiles FILE]
//! ```
//!
//! Loads a scenario script (see `poem_server::script` for the format),
//! applies its t = 0 ops as the initial scene, starts the real-time TCP
//! server, schedules the remaining ops at their wall-clock offsets, and
//! on exit saves the recorded traffic and scene logs next to the script
//! (`<script>.traffic.poemlog` / `<script>.scene.poemlog`).
//!
//! Scripts with `profile …` bindings need a profile library: pass
//! `--profiles FILE` or commit the library next to the script as
//! `<script>.profile` (the default lookup).

#![forbid(unsafe_code)]

use poem_core::clock::{Clock, WallClock};
use poem_core::scene::Scene;
use poem_core::sleep::SleepPolicy;
use poem_core::EmuTime;
use poem_server::script::Script;
use poem_server::{ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    script: PathBuf,
    listen: String,
    seed: u64,
    duration: Option<f64>,
    sleep_policy: SleepPolicy,
    profiles: Option<PathBuf>,
    cluster: bool,
    shards: u32,
    tile_edge: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let script = PathBuf::from(args.next().ok_or(
        "usage: poem-server <scenario.poem> [--listen ADDR] [--seed N] [--duration SECS] \
         [--sleep-policy naive|hybrid|spin|auto] [--profiles FILE] \
         [--cluster [--shards N] [--tile-edge UNITS]]",
    )?);
    let mut out = Args {
        script,
        listen: "127.0.0.1:0".into(),
        seed: 0,
        duration: None,
        sleep_policy: SleepPolicy::default(),
        profiles: None,
        cluster: false,
        shards: 2,
        tile_edge: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => out.listen = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--duration" => {
                out.duration = Some(value()?.parse().map_err(|e| format!("bad duration: {e}"))?)
            }
            "--sleep-policy" => out.sleep_policy = value()?.parse()?,
            "--profiles" => out.profiles = Some(PathBuf::from(value()?)),
            "--cluster" => out.cluster = true,
            "--shards" => {
                out.shards = value()?.parse().map_err(|e| format!("bad shard count: {e}"))?;
                out.cluster = true;
            }
            "--tile-edge" => {
                out.tile_edge = Some(value()?.parse().map_err(|e| format!("bad tile edge: {e}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

/// Loads the profile library a `profile …`-bearing script needs —
/// `--profiles FILE` when given, else the committed `<script>.profile`
/// sibling — and resolves the script's symbolic bindings against it.
fn load_profiles(
    args: &Args,
    script: &Script,
) -> Result<
    Option<(String, poem_profiles::ProfileLibrary, Vec<poem_server::script::ScriptEntry>)>,
    String,
> {
    let path = match &args.profiles {
        Some(p) => p.clone(),
        None if script.profile_count() > 0 => args.script.with_extension("profile"),
        None => return Ok(None),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "script binds {} profile(s) but cannot read {}: {e}",
            script.profile_count(),
            path.display()
        )
    })?;
    let lib = poem_profiles::ProfileLibrary::parse(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let resolved = script.resolve_profiles(&lib).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some((text, lib, resolved)))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&args.script) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.script.display());
            std::process::exit(2);
        }
    };
    let script = match Script::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", args.script.display());
            std::process::exit(2);
        }
    };

    let profiles = match load_profiles(&args, &script) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    // t = 0 ops form the initial scene; later ops fire live. Resolved
    // profile bindings join the same timeline.
    let resolved = profiles.as_ref().map(|(_, _, r)| r.as_slice()).unwrap_or(&[]);
    let mut timeline: Vec<_> = script.entries().iter().chain(resolved).cloned().collect();
    timeline.sort_by_key(|e| e.at);
    let mut scene = Scene::new();
    let mut deferred = Vec::new();
    for entry in timeline {
        if entry.at == EmuTime::ZERO {
            if let Err(e) = scene.apply(EmuTime::ZERO, &entry.op) {
                eprintln!("initial op `{}` failed: {e}", entry.op);
                std::process::exit(2);
            }
        } else {
            deferred.push(entry);
        }
    }

    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let config = ServerConfig {
        addr: args.listen.parse().unwrap_or_else(|e| {
            eprintln!("bad listen address {}: {e}", args.listen);
            std::process::exit(2);
        }),
        seed: args.seed,
        sleep_policy: args.sleep_policy,
        ..ServerConfig::default()
    };
    let server = match ServerHandle::start(scene, Arc::clone(&clock), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        }
    };
    if let Some((_, lib, _)) = &profiles {
        server.install_profiles(lib.clone());
        println!(
            "profiles: {} ({} binding(s) on the timeline)",
            lib.names().collect::<Vec<_>>().join(", "),
            script.profile_count()
        );
    }
    if args.cluster {
        // Tile edge defaults to the scene's longest radio range — the
        // smallest tiling the halo invariant allows.
        let max_range = server.with_scene(|s| {
            s.nodes()
                .flat_map(|v| v.radios.radios().iter().map(|r| r.range))
                .fold(1.0_f64, f64::max)
        });
        let config = poem_cluster::ClusterConfig {
            workers: args.shards.max(1),
            tile_edge: args.tile_edge.unwrap_or(max_range),
            profiles: profiles.as_ref().map(|(text, _, _)| text.clone()),
            ..poem_cluster::ClusterConfig::default()
        };
        match server.attach_cluster(config) {
            Ok(()) => println!("cluster: {} shard worker(s) attached", args.shards.max(1)),
            Err(e) => {
                eprintln!("cannot attach cluster: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("poem-server listening on {}", server.addr());
    println!(
        "scene: {} nodes, {} deferred scenario ops, {} scheduled faults",
        server.with_scene(|s| s.len()),
        deferred.len(),
        script.fault_count()
    );
    println!("{}", server.with_scene(|s| poem_server::viz::render_scene(s, 56, 12)));

    // Scenario driver: fire deferred ops at their wall-clock offsets.
    let driver = {
        let server = Arc::clone(&server);
        let clock = Arc::clone(&clock);
        std::thread::spawn(move || {
            for entry in deferred {
                loop {
                    let now = clock.now();
                    if now >= entry.at {
                        break;
                    }
                    std::thread::sleep((entry.at - now).to_std().min(Duration::from_millis(100)));
                }
                match server.apply_op(entry.op.clone()) {
                    Ok(()) => println!("[{}] {}", clock.now(), entry.op),
                    Err(e) => eprintln!("[{}] {} FAILED: {e}", clock.now(), entry.op),
                }
            }
        })
    };

    // Chaos driver: execute `fault …` lines at their wall-clock offsets.
    let fault_driver = if script.fault_count() > 0 {
        match server.spawn_fault_driver(script.faults(), None) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("cannot start fault driver: {e}");
                None
            }
        }
    } else {
        None
    };

    // Run for the requested duration (default: script end + 5 s).
    let run_secs = args.duration.unwrap_or(script.end().as_secs_f64() + 5.0);
    println!("running for {run_secs:.1} s of wall time ...");
    std::thread::sleep(Duration::from_secs_f64(run_secs));
    let _ = driver.join();

    // Stop the server before counting and saving: its scan thread records
    // every copy that fires, so logs taken while it runs miss the tail.
    // Shutdown also flips `running`, so a fault driver with restores
    // beyond the run duration exits instead of pinning the process.
    server.shutdown();
    if let Some(h) = fault_driver {
        let _ = h.join();
    }

    let recorder = server.recorder();
    let (traffic, ops) = recorder.counts();
    println!("recorded {traffic} traffic events, {ops} scene ops");
    let faults = recorder.faults();
    if !faults.is_empty() {
        println!("\n=== faults ===\n{}", poem_server::viz::render_faults(&faults));
    }
    println!("\n=== metrics ===\n{}", poem_server::viz::render_metrics(&server.metrics()));
    let stem = args.script.with_extension("");
    match recorder.save(&stem) {
        Ok(()) => {
            println!("logs saved to {}.{{traffic,scene,metrics,faults}}.poemlog", stem.display())
        }
        Err(e) => eprintln!("could not save logs: {e}"),
    }
}

//! Extension experiment E15 — hot-path performance: spatial-grid neighbor
//! maintenance.
//!
//! One measurement, emitted into the machine-readable `BENCH_hotpath.json`
//! artifact (schema-checked by the CI `bench-smoke` job and by
//! [`validate`]): `NeighborTables::work` (pairwise distance evaluations —
//! the E7 metric) accumulated over a mobility workload on a large
//! multi-channel scene, with the spatial grid on vs. off. The grid must
//! cut the count ≥ 5× at 1 000 nodes (acceptance criterion). The counts
//! are exactly reproducible, so unit tests check them directly and CI
//! checks the schema.

use poem_core::neighbor::{ChannelIndexedTables, NeighborTables};
use poem_core::radio::RadioConfig;
use poem_core::{ChannelId, EmuRng, NodeId, Point};

/// Workload sizing for one E15 run.
#[derive(Debug, Clone, Copy)]
pub struct HotpathConfig {
    /// Nodes in the mobility scene (work measurement).
    pub nodes: u32,
    /// Random single-node moves applied to it.
    pub moves: u32,
    /// Channels the nodes are striped over.
    pub channels: u16,
    /// Side length of the (square) arena.
    pub arena: f64,
    /// Radio range of every node.
    pub range: f64,
}

impl HotpathConfig {
    /// The acceptance-criteria configuration: 1 000 mobile nodes.
    pub fn full() -> Self {
        HotpathConfig { nodes: 1_000, moves: 1_000, channels: 4, arena: 2_000.0, range: 150.0 }
    }

    /// A seconds-scale configuration for CI smoke runs and tests.
    pub fn smoke() -> Self {
        HotpathConfig { nodes: 120, moves: 120, channels: 2, arena: 800.0, range: 150.0 }
    }
}

/// One E15 run's results (serialized as `BENCH_hotpath.json`).
#[derive(Debug, Clone, Copy)]
pub struct HotpathReport {
    /// Scene size of the work measurement.
    pub nodes: u32,
    /// Moves applied.
    pub moves: u32,
    /// Distance evaluations with the spatial grid.
    pub grid_work: u64,
    /// Distance evaluations with the full-channel scan.
    pub scan_work: u64,
    /// `scan_work / grid_work`.
    pub work_reduction: f64,
}

/// Builds the mobility scene for the work measurement and accumulates
/// `work` over `moves` random single-node relocations.
fn mobility_work(cfg: &HotpathConfig, grid: bool) -> u64 {
    let mut t =
        if grid { ChannelIndexedTables::new() } else { ChannelIndexedTables::without_grid() };
    let mut rng = EmuRng::seed(15);
    for i in 0..cfg.nodes {
        let pos = Point::new(rng.range_f64(0.0, cfg.arena), rng.range_f64(0.0, cfg.arena));
        let ch = ChannelId((i % cfg.channels as u32) as u16);
        t.insert_node(NodeId(i), pos, RadioConfig::single(ch, cfg.range));
    }
    t.reset_work();
    let mut rng = EmuRng::seed(16);
    for _ in 0..cfg.moves {
        let id = NodeId(rng.index(cfg.nodes as usize) as u32);
        let pos = Point::new(rng.range_f64(0.0, cfg.arena), rng.range_f64(0.0, cfg.arena));
        t.update_position(id, pos);
    }
    t.work()
}

/// Runs the E15 measurement.
pub fn run(cfg: &HotpathConfig) -> HotpathReport {
    let grid_work = mobility_work(cfg, true);
    let scan_work = mobility_work(cfg, false);
    HotpathReport {
        nodes: cfg.nodes,
        moves: cfg.moves,
        grid_work,
        scan_work,
        work_reduction: scan_work as f64 / (grid_work.max(1)) as f64,
    }
}

/// Every numeric field `BENCH_hotpath.json` must carry, in emission order.
const SCHEMA_FIELDS: &[&str] = &["nodes", "moves", "grid_work", "scan_work", "work_reduction"];

/// Serializes a report as the `BENCH_hotpath.json` document.
pub fn render_json(r: &HotpathReport) -> String {
    let mut s = String::from("{\n  \"experiment\": \"E15\",\n");
    let fields: &[(&str, f64)] = &[
        ("nodes", r.nodes as f64),
        ("moves", r.moves as f64),
        ("grid_work", r.grid_work as f64),
        ("scan_work", r.scan_work as f64),
        ("work_reduction", r.work_reduction),
    ];
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i + 1 == fields.len() { "\n" } else { ",\n" };
        s.push_str(&format!("  \"{k}\": {v:.4}{sep}"));
    }
    s.push_str("}\n");
    s
}

/// Extracts the numeric value following `"key":`, if present and finite.
fn field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Schema check for a `BENCH_hotpath.json` document: the experiment tag
/// and every numeric field must be present and finite. The acceptance
/// ratio is checked by the unit tests and reviewed in the committed
/// artifact.
pub fn validate(json: &str) -> Result<(), String> {
    if !json.contains("\"experiment\": \"E15\"") {
        return Err("missing experiment tag \"E15\"".into());
    }
    for key in SCHEMA_FIELDS {
        if field(json, key).is_none() {
            return Err(format!("missing or non-numeric field \"{key}\""));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cuts_mobility_work_at_least_five_fold() {
        // Deterministic counts — the acceptance ratio at a size small
        // enough for a debug-build test; the committed artifact carries
        // the full 1 000-node run.
        let cfg = HotpathConfig { nodes: 300, moves: 150, ..HotpathConfig::full() };
        let grid = mobility_work(&cfg, true);
        let scan = mobility_work(&cfg, false);
        assert!(grid * 5 <= scan, "grid {grid} vs scan {scan}");
        // Scan mode pays every other same-channel member per move.
        assert!(scan as f64 / cfg.moves as f64 > (cfg.nodes / cfg.channels as u32 / 2) as f64);
    }

    #[test]
    fn smoke_run_emits_a_valid_document() {
        let report = run(&HotpathConfig::smoke());
        assert!(report.grid_work > 0 && report.scan_work > 0);
        let json = render_json(&report);
        validate(&json).expect("smoke document validates");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"experiment\": \"E15\"}").is_err());
        let report =
            run(&HotpathConfig { nodes: 30, moves: 10, channels: 1, arena: 400.0, range: 150.0 });
        let good = render_json(&report);
        validate(&good).expect("good document");
        let broken = good.replace("\"scan_work\"", "\"scan_walk\"");
        assert!(validate(&broken).is_err());
    }
}

//! Channel-ID indexed neighbor tables (§4.2) — PoEm's key data structure —
//! and the unified single-table baseline it is contrasted with.
//!
//! The neighborhood model: for channel `k`,
//!
//! ```text
//! B ∈ NT(A, k)  ⇔  k ∈ CS(A) ∩ CS(B)  ∧  D(A, B) ≤ R(A, k)
//! ```
//!
//! i.e. `B` is a neighbor of `A` on channel `k` when both are tuned to `k`
//! and `B` sits within `A`'s radio range on `k`. Neighborhood is
//! *directional*: if `R(A,k) ≠ R(B,k)` one may hear the other but not vice
//! versa. (The emulation server forwards `A`'s packet to everything in
//! `NT(A,k)`, so `R(A,k)` plays the role of `A`'s transmission range.)
//!
//! Two implementations share the [`NeighborTables`] trait:
//!
//! * [`ChannelIndexedTables`] — the paper's scheme: one table per channel.
//!   A change to node `A` touches only the channels in `CS(A)`; "any change
//!   of node a won't cause the update between it and the nodes in the
//!   neighbor table indexed by channel 1 since its radio is on channel 2"
//!   (Fig. 6). On top of the channel partition, each per-channel table
//!   carries a uniform spatial grid (cell edge ≥ the largest radio range
//!   ever seen on the channel) so a relink only examines the 3×3 cell
//!   neighborhoods around the node's old and new positions instead of
//!   every channel member; a mobility step that moves a large share of a
//!   channel instead sweeps each pair of nearby members once
//!   ([`NeighborTables::update_positions`]) — see DESIGN.md "Hot-path
//!   performance". The grid can be disabled
//!   ([`ChannelIndexedTables::without_grid`]) to recover the paper's plain
//!   full-channel scan, which experiment E7 uses so its numbers isolate
//!   the channel-indexing claim.
//! * [`UnifiedTable`] — the contrasted scheme: "one unique neighbor table
//!   with multiple channel-ID marked units". Being one interleaved
//!   structure, an update to `A` must re-scan `A`'s units against every
//!   node over the whole channel universe.
//!
//! Both produce identical query results; they differ in *update cost*,
//! which each implementation meters via [`NeighborTables::work`] (number of
//! pair-wise distance evaluations) — the metric of experiment E7.

use crate::geom::Point;
use crate::ids::{ChannelId, NodeId};
use crate::radio::RadioConfig;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Everything a neighbor structure needs to know about one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// Current position.
    pub pos: Point,
    /// Current radio configuration.
    pub radios: RadioConfig,
}

/// Common interface of the two neighbor-table schemes.
pub trait NeighborTables {
    /// Adds a node. Replaces any prior state for the same id.
    fn insert_node(&mut self, id: NodeId, pos: Point, radios: RadioConfig);

    /// Removes a node entirely ("moving out some nodes", §2.2).
    fn remove_node(&mut self, id: NodeId);

    /// Moves a node to a new position.
    fn update_position(&mut self, id: NodeId, pos: Point);

    /// Moves many nodes at once — one mobility step. The result is that of
    /// [`NeighborTables::update_position`] on each entry in order: a
    /// repeated id ends at its last position, an unknown id is ignored.
    fn update_positions(&mut self, moves: &[(NodeId, Point)]) {
        for &(id, pos) in moves {
            self.update_position(id, pos);
        }
    }

    /// Replaces a node's radio configuration (channel switch, range
    /// change, radio add/remove).
    fn update_radios(&mut self, id: NodeId, radios: RadioConfig);

    /// Appends `NT(id, channel)` to `out` (sorted ascending).
    fn neighbors_into(&self, id: NodeId, channel: ChannelId, out: &mut Vec<NodeId>);

    /// `NT(id, channel)` as a fresh vector (sorted ascending).
    fn neighbors(&self, id: NodeId, channel: ChannelId) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.neighbors_into(id, channel, &mut v);
        v
    }

    /// Cumulative number of pair-wise distance evaluations performed by
    /// updates since construction or [`NeighborTables::reset_work`].
    fn work(&self) -> u64;

    /// Resets the work meter.
    fn reset_work(&mut self);

    /// The node's current snapshot, if present.
    fn snapshot(&self, id: NodeId) -> Option<&NodeSnapshot>;

    /// All node ids currently tracked, ascending.
    fn node_ids(&self) -> Vec<NodeId>;
}

/// Recomputes the complete neighbor relation from scratch — the reference
/// implementation every incremental scheme is property-tested against.
pub fn brute_force(
    nodes: &BTreeMap<NodeId, NodeSnapshot>,
) -> BTreeMap<(NodeId, ChannelId), BTreeSet<NodeId>> {
    let mut out: BTreeMap<(NodeId, ChannelId), BTreeSet<NodeId>> = BTreeMap::new();
    for (&a, sa) in nodes {
        for ch in sa.radios.channels() {
            out.entry((a, ch)).or_default();
        }
    }
    for (&a, sa) in nodes {
        for (&b, sb) in nodes {
            if a == b {
                continue;
            }
            for ch in sa.radios.channels() {
                if let (Some(ra), true) = (sa.radios.range_on(ch), sb.radios.listens_on(ch)) {
                    if sa.pos.distance(sb.pos) <= ra {
                        out.get_mut(&(a, ch)).unwrap().insert(b);
                    }
                }
            }
        }
    }
    out
}

/// The smallest admissible grid cell edge — guards the bucket-key division
/// against zero radio ranges.
const MIN_GRID_CELL: f64 = 1.0;

/// The cell edge a channel needs to admit a radio of `range`.
fn cell_for(range: f64) -> f64 {
    range.max(MIN_GRID_CELL)
}

/// A uniform spatial grid over one channel's members.
///
/// Invariants: `cell` is at least as large as every member's current range
/// on the channel (it only grows; a growth rebuilds every bucket), and each
/// member sits in the bucket keyed by its position at last link time —
/// which relinking keeps equal to its current position. Because
/// `D(A,B) ≤ R(·) ≤ cell` for every link, both endpoints of any link are
/// always within one cell index of each other, so a 3×3 cell neighborhood
/// is a superset of every node that can gain or lose a link when the
/// center node changes.
#[derive(Debug, Default, Clone)]
struct GridIndex {
    /// Cell edge length. `0.0` until the first member links.
    cell: f64,
    /// Members bucketed by `floor(pos / cell)`, each bucket ascending.
    buckets: BTreeMap<(i64, i64), Vec<NodeId>>,
    /// Member → position it was last linked at (its bucket key source).
    placed: BTreeMap<NodeId, Point>,
}

impl GridIndex {
    /// Bucket key of a position under the current cell size.
    fn key(&self, p: Point) -> (i64, i64) {
        ((p.x / self.cell).floor() as i64, (p.y / self.cell).floor() as i64)
    }

    /// Grows the cell edge to `cell` and re-buckets every member.
    fn rebuild(&mut self, cell: f64) {
        self.cell = cell;
        self.buckets.clear();
        // `placed` iterates ascending by id, so each bucket stays sorted.
        let members: Vec<(NodeId, Point)> = self.placed.iter().map(|(&id, &p)| (id, p)).collect();
        for (id, p) in members {
            let k = self.key(p);
            self.buckets.entry(k).or_default().push(id);
        }
    }

    /// Appends every member in the 3×3 cell neighborhood around `center`
    /// to `out`, skipping `skip`. Buckets are sorted but the concatenation
    /// across cells is not — callers sort.
    fn gather(&self, center: (i64, i64), skip: NodeId, out: &mut Vec<NodeId>) {
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                let k = (center.0.saturating_add(dx), center.1.saturating_add(dy));
                if let Some(bucket) = self.buckets.get(&k) {
                    out.extend(bucket.iter().copied().filter(|&b| b != skip));
                }
            }
        }
    }

    /// Re-homes `id` from its previous bucket (if any) to the bucket for
    /// `pos` and records `pos` as its linked position.
    fn place(&mut self, id: NodeId, pos: Point) {
        let new_key = self.key(pos);
        if let Some(old_pos) = self.placed.insert(id, pos) {
            let old_key = self.key(old_pos);
            if old_key == new_key {
                return;
            }
            self.remove_from_bucket(id, old_key);
        }
        let bucket = self.buckets.entry(new_key).or_default();
        if let Err(i) = bucket.binary_search(&id) {
            bucket.insert(i, id);
        }
    }

    /// Drops `id` from the bucket at `key`, pruning empty buckets.
    fn remove_from_bucket(&mut self, id: NodeId, key: (i64, i64)) {
        if let Some(bucket) = self.buckets.get_mut(&key) {
            if let Ok(i) = bucket.binary_search(&id) {
                bucket.remove(i);
            }
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }
}

/// One per-channel table: `NT(·, k)` for every member of `NS(k)`.
///
/// Rows are flat sorted vectors (cache-friendly iteration on the per-packet
/// route path); the grid accelerates relinks when the owning structure has
/// it enabled.
#[derive(Debug, Default, Clone)]
struct ChannelTable {
    /// Row per member: the member's out-neighbors on this channel,
    /// ascending.
    rows: BTreeMap<NodeId, Vec<NodeId>>,
    /// Spatial index over the members (unused in scan mode).
    grid: GridIndex,
}

/// A bulk relink sweeps a channel when `moved × SWEEP_SHARE ≥ members`
/// and relinks the moved members one at a time otherwise.
///
/// With `k` members per cell, the per-node relink of `m` movers costs about
/// `m × 9k` evaluations at ≈ 165 ns each (two map lookups, a binary search
/// and a row splice per candidate); the sweep about `members × 4.5k` at
/// ≈ 40 ns (flat arrays) plus ≈ 0.4 µs per member to flatten the channel
/// and put its rows back sorted. On a 256-node, 2-radio, 3-channel arena
/// (release build, x86-64) that is ≈ 10 µs per mover against ≈ 1.6 µs
/// per member: break-even near one mover in six, so one in four is
/// comfortably on the sweep's side.
const SWEEP_SHARE: usize = 4;

/// The cell offsets a sweep pairs a cell with besides itself: one of each
/// `±` pair of the eight neighbours, so every pair of adjacent cells is
/// visited exactly once.
const FORWARD: [(i64, i64); 4] = [(0, 1), (1, -1), (1, 0), (1, 1)];

/// One channel member as the sweep sees it.
#[derive(Debug, Clone, Copy)]
struct Member {
    id: NodeId,
    pos: Point,
    range: f64,
}

/// A grid cell flattened for the sweep: its key and its members' span in
/// [`SweepScratch::order`].
#[derive(Debug, Clone, Copy)]
struct FlatCell {
    key: (i64, i64),
    start: usize,
    end: usize,
}

/// Buffers reused by every bulk relink, so a steady-state mobility step
/// allocates nothing.
#[derive(Debug, Default)]
struct SweepScratch {
    /// `(channel, mover)` for every channel of every moved node, sorted.
    touched: Vec<(ChannelId, NodeId)>,
    /// The swept channel's members, ascending by id.
    members: Vec<Member>,
    /// Indices into `members`, grouped by cell in key order.
    order: Vec<usize>,
    /// The occupied cells, ascending by key.
    cells: Vec<FlatCell>,
    /// The swept channel's rows, lifted out of the table beside `members`.
    rows: Vec<Vec<NodeId>>,
}

/// The paper's channel-ID indexed scheme: a separate table per channel.
#[derive(Debug)]
pub struct ChannelIndexedTables {
    nodes: BTreeMap<NodeId, NodeSnapshot>,
    tables: BTreeMap<ChannelId, ChannelTable>,
    /// When set (the default), relinks consult the per-channel spatial
    /// grid instead of scanning every channel member.
    use_grid: bool,
    work: u64,
    /// Reusable candidate buffer — relinks allocate nothing in steady
    /// state.
    scratch: Vec<NodeId>,
    /// Reusable buffers of [`NeighborTables::update_positions`].
    sweep: SweepScratch,
}

impl Default for ChannelIndexedTables {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelIndexedTables {
    /// An empty structure with the spatial grid enabled.
    pub fn new() -> Self {
        ChannelIndexedTables {
            nodes: BTreeMap::new(),
            tables: BTreeMap::new(),
            use_grid: true,
            work: 0,
            scratch: Vec::new(),
            sweep: SweepScratch::default(),
        }
    }

    /// An empty structure that relinks by scanning every channel member —
    /// the paper's original update procedure. Experiment E7 uses this so
    /// its work counts isolate the channel-indexing claim from the grid.
    pub fn without_grid() -> Self {
        ChannelIndexedTables { use_grid: false, ..Self::new() }
    }

    /// Whether relinks use the spatial grid.
    pub fn grid_enabled(&self) -> bool {
        self.use_grid
    }

    /// The grid cell edge currently in force on `channel`, when the grid
    /// is enabled and the channel has members.
    pub fn grid_cell(&self, channel: ChannelId) -> Option<f64> {
        if !self.use_grid {
            return None;
        }
        self.tables.get(&channel).map(|t| t.grid.cell).filter(|&c| c > 0.0)
    }

    /// The node set `NS(k)` indexed by channel `k`, ascending.
    pub fn node_set(&self, channel: ChannelId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.tables.get(&channel).map(|t| t.rows.keys().copied().collect()).unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Channels that currently have at least one member.
    pub fn active_channels(&self) -> Vec<ChannelId> {
        let mut v: Vec<ChannelId> =
            self.tables.iter().filter(|(_, t)| !t.rows.is_empty()).map(|(&c, _)| c).collect();
        v.sort_unstable();
        v
    }

    /// Re-derives node `a`'s row and column inside channel `ch` only.
    ///
    /// Grid mode examines the 3×3 cell neighborhoods around `a`'s old and
    /// new positions — a superset of every possible link change, because
    /// the cell edge dominates every member's range (see [`GridIndex`]).
    /// Scan mode examines every channel member. Either way the work meter
    /// counts one unit per candidate distance evaluation.
    fn relink_in_channel(&mut self, a: NodeId, ch: ChannelId) {
        let Some(sa) = self.nodes.get(&a) else { return };
        let Some(ra) = sa.radios.range_on(ch) else { return };
        let pa = sa.pos;
        let table = self.tables.entry(ch).or_default();
        let mut cands = std::mem::take(&mut self.scratch);
        cands.clear();
        if self.use_grid {
            if table.grid.cell < cell_for(ra) {
                table.grid.rebuild(cell_for(ra));
            }
            let new_key = table.grid.key(pa);
            table.grid.gather(new_key, a, &mut cands);
            if let Some(&old_pos) = table.grid.placed.get(&a) {
                let old_key = table.grid.key(old_pos);
                if old_key != new_key {
                    table.grid.gather(old_key, a, &mut cands);
                }
            }
            cands.sort_unstable();
            cands.dedup();
            table.grid.place(a, pa);
        } else {
            // Keys iterate ascending, so `cands` (and thus the rebuilt
            // row) is already sorted.
            cands.extend(table.rows.keys().copied().filter(|&b| b != a));
        }
        // Reuse the allocation of a's previous row when one exists.
        let mut row = table.rows.remove(&a).unwrap_or_default();
        row.clear();
        for &b in &cands {
            let sb = &self.nodes[&b];
            self.work += 1;
            let d = pa.distance(sb.pos);
            if d <= ra {
                row.push(b);
            }
            let rb = sb.radios.range_on(ch).unwrap_or(0.0);
            let brow = table.rows.get_mut(&b).expect("member row exists");
            match brow.binary_search(&a) {
                Ok(i) => {
                    if d > rb {
                        brow.remove(i);
                    }
                }
                Err(i) => {
                    if d <= rb {
                        brow.insert(i, a);
                    }
                }
            }
        }
        table.rows.insert(a, row);
        self.scratch = cands;
    }

    /// Removes node `a` from channel `ch`'s table.
    ///
    /// Grid mode only visits the 3×3 neighborhood around `a`'s linked
    /// position — every row that can contain `a` (a link bounds the
    /// distance by a range, which the cell edge dominates) lives there.
    fn unlink_from_channel(&mut self, a: NodeId, ch: ChannelId) {
        let Some(table) = self.tables.get_mut(&ch) else { return };
        table.rows.remove(&a);
        if self.use_grid {
            if let Some(old_pos) = table.grid.placed.remove(&a) {
                let key = table.grid.key(old_pos);
                table.grid.remove_from_bucket(a, key);
                let mut cands = std::mem::take(&mut self.scratch);
                cands.clear();
                table.grid.gather(key, a, &mut cands);
                for &b in &cands {
                    if let Some(brow) = table.rows.get_mut(&b) {
                        if let Ok(i) = brow.binary_search(&a) {
                            brow.remove(i);
                        }
                    }
                }
                self.scratch = cands;
            }
        } else {
            for brow in table.rows.values_mut() {
                if let Ok(i) = brow.binary_search(&a) {
                    brow.remove(i);
                }
            }
        }
        if table.rows.is_empty() {
            self.tables.remove(&ch);
        }
    }

    /// Re-derives every row of channel `ch` after `movers` (whose new
    /// positions are already written) moved: re-buckets the movers, then
    /// evaluates each unordered pair of members in the same or adjacent
    /// cells exactly once, over the cell itself and its [`FORWARD`] half
    /// of the 3×3 neighborhood. `Point::distance` is symmetric to the
    /// bit, so one evaluation decides both `D ≤ R(a,k)` and `D ≤ R(b,k)`;
    /// the cell edge dominates every range, so no link spans more than
    /// adjacent cells. The work meter counts one unit per pair.
    fn sweep_channel(&mut self, ch: ChannelId, movers: &[(ChannelId, NodeId)]) {
        let Some(table) = self.tables.get_mut(&ch) else { return };
        let sw = &mut self.sweep;
        for &(_, id) in movers {
            if let Some(s) = self.nodes.get(&id) {
                table.grid.place(id, s.pos);
            }
        }
        // Lift the rows out beside their members, in id order, emptied
        // but keeping their allocations.
        sw.members.clear();
        sw.rows.clear();
        for (&id, row) in table.rows.iter_mut() {
            let Some(s) = self.nodes.get(&id) else { continue };
            let range = s.radios.range_on(ch).unwrap_or(0.0);
            sw.members.push(Member { id, pos: s.pos, range });
            let mut row = std::mem::take(row);
            row.clear();
            sw.rows.push(row);
        }
        sw.order.clear();
        sw.cells.clear();
        for (&key, bucket) in &table.grid.buckets {
            let start = sw.order.len();
            for id in bucket {
                if let Ok(i) = sw.members.binary_search_by_key(id, |m| m.id) {
                    sw.order.push(i);
                }
            }
            sw.cells.push(FlatCell { key, start, end: sw.order.len() });
        }
        let mut pairs = 0u64;
        for cell in &sw.cells {
            let here = &sw.order[cell.start..cell.end];
            for (k, &a) in here.iter().enumerate() {
                for &b in &here[k + 1..] {
                    link_pair(&sw.members, &mut sw.rows, a, b);
                }
            }
            pairs += (here.len() * here.len().saturating_sub(1) / 2) as u64;
            for (dx, dy) in FORWARD {
                let (Some(x), Some(y)) = (cell.key.0.checked_add(dx), cell.key.1.checked_add(dy))
                else {
                    continue;
                };
                let Ok(j) = sw.cells.binary_search_by_key(&(x, y), |c| c.key) else { continue };
                let there = &sw.order[sw.cells[j].start..sw.cells[j].end];
                for &a in here {
                    for &b in there {
                        link_pair(&sw.members, &mut sw.rows, a, b);
                    }
                }
                pairs += (here.len() * there.len()) as u64;
            }
        }
        self.work += pairs;
        // Put the rows back, sorted.
        let mut swept = sw.members.iter().zip(sw.rows.iter_mut()).peekable();
        for (&id, slot) in table.rows.iter_mut() {
            if let Some((_, row)) = swept.next_if(|(m, _)| m.id == id) {
                row.sort_unstable();
                *slot = std::mem::take(row);
            }
        }
    }
}

/// Evaluates the pair `(a, b)` of sweep members once, recording each
/// direction whose range covers the distance.
#[inline]
fn link_pair(members: &[Member], rows: &mut [Vec<NodeId>], a: usize, b: usize) {
    let (ma, mb) = (members[a], members[b]);
    let d = ma.pos.distance(mb.pos);
    if d <= ma.range {
        rows[a].push(mb.id);
    }
    if d <= mb.range {
        rows[b].push(ma.id);
    }
}

impl NeighborTables for ChannelIndexedTables {
    fn insert_node(&mut self, id: NodeId, pos: Point, radios: RadioConfig) {
        if self.nodes.contains_key(&id) {
            self.remove_node(id);
        }
        let channels = radios.channels();
        self.nodes.insert(id, NodeSnapshot { pos, radios });
        for ch in channels {
            self.relink_in_channel(id, ch);
        }
    }

    fn remove_node(&mut self, id: NodeId) {
        if let Some(s) = self.nodes.remove(&id) {
            for ch in s.radios.channels() {
                self.unlink_from_channel(id, ch);
            }
        }
    }

    fn update_position(&mut self, id: NodeId, pos: Point) {
        let Some(s) = self.nodes.get_mut(&id) else { return };
        s.pos = pos;
        let channels = s.radios.channels();
        // Only the channels in CS(id) are touched — the paper's claim.
        for ch in channels {
            self.relink_in_channel(id, ch);
        }
    }

    /// Writes every new position first, then relinks channel by channel:
    /// a channel where at least one member in [`SWEEP_SHARE`] moved is
    /// swept once ([`ChannelIndexedTables::sweep_channel`]), any other
    /// relinks its movers one at a time. Scan mode always takes the
    /// per-node path, keeping the paper's per-move work accounting.
    fn update_positions(&mut self, moves: &[(NodeId, Point)]) {
        if !self.use_grid {
            for &(id, pos) in moves {
                self.update_position(id, pos);
            }
            return;
        }
        let mut touched = std::mem::take(&mut self.sweep.touched);
        touched.clear();
        for &(id, pos) in moves {
            let Some(s) = self.nodes.get_mut(&id) else { continue };
            s.pos = pos;
            touched.extend(s.radios.radios().iter().map(|r| (r.channel, id)));
        }
        touched.sort_unstable();
        touched.dedup();
        for movers in touched.chunk_by(|a, b| a.0 == b.0) {
            let ch = movers[0].0;
            let members = self.tables.get(&ch).map_or(0, |t| t.rows.len());
            if movers.len() * SWEEP_SHARE >= members {
                self.sweep_channel(ch, movers);
            } else {
                for &(_, id) in movers {
                    self.relink_in_channel(id, ch);
                }
            }
        }
        self.sweep.touched = touched;
    }

    fn update_radios(&mut self, id: NodeId, radios: RadioConfig) {
        let Some(s) = self.nodes.get_mut(&id) else { return };
        let old = std::mem::replace(&mut s.radios, radios.clone());
        let old_cs = old.channels();
        let new_cs = radios.channels();
        for ch in old_cs.difference(&new_cs) {
            self.unlink_from_channel(id, *ch);
        }
        for &ch in &new_cs {
            // New channels need linking; retained channels need re-linking
            // only if the range on them changed.
            if !old_cs.contains(&ch) || old.range_on(ch) != self.nodes[&id].radios.range_on(ch) {
                self.relink_in_channel(id, ch);
            }
        }
    }

    fn neighbors_into(&self, id: NodeId, channel: ChannelId, out: &mut Vec<NodeId>) {
        if let Some(t) = self.tables.get(&channel) {
            if let Some(row) = t.rows.get(&id) {
                out.extend_from_slice(row);
            }
        }
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn reset_work(&mut self) {
        self.work = 0;
    }

    fn snapshot(&self, id: NodeId) -> Option<&NodeSnapshot> {
        self.nodes.get(&id)
    }

    fn node_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// The baseline scheme: one table whose units are channel-ID marked.
///
/// Queries are as fast as the indexed scheme (it keys on `(node, channel)`)
/// but *updates* cannot exploit channel locality: a change to node `A`
/// re-scans `A` against every node over the whole channel universe, because
/// the marked units for all channels live interleaved in the one table.
#[derive(Debug, Default)]
pub struct UnifiedTable {
    nodes: BTreeMap<NodeId, NodeSnapshot>,
    rows: BTreeMap<(NodeId, ChannelId), BTreeSet<NodeId>>,
    /// Every channel id with at least one tuned radio among the current
    /// nodes — the "channel universe" a full rescan must consider. Kept
    /// tight by [`UnifiedTable::shrink_universe`] so long-lived scenes
    /// don't pay forever for channels that have left the emulation.
    universe: BTreeSet<ChannelId>,
    work: u64,
}

impl UnifiedTable {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recomputes the channel universe from the surviving nodes and drops
    /// rows on dead channels. Without this, removals would leave stale
    /// empty rows behind and every later rescan would keep paying for
    /// channels nobody is tuned to, silently inflating the E7 work metric.
    fn shrink_universe(&mut self) {
        let mut live: BTreeSet<ChannelId> = BTreeSet::new();
        for s in self.nodes.values() {
            live.extend(s.radios.channels());
        }
        self.rows.retain(|&(_, ch), _| live.contains(&ch));
        self.universe = live;
    }

    /// Re-derives every unit involving node `a`, scanning the full node set
    /// across the full channel universe.
    fn rescan_node(&mut self, a: NodeId) {
        // Drop all of a's rows.
        self.rows.retain(|&(n, _), _| n != a);
        for row in self.rows.values_mut() {
            row.remove(&a);
        }
        let Some(sa) = self.nodes.get(&a).cloned() else { return };
        for ch in sa.radios.channels() {
            self.rows.entry((a, ch)).or_default();
        }
        let others: Vec<NodeId> = self.nodes.keys().copied().filter(|&b| b != a).collect();
        let universe: Vec<ChannelId> = self.universe.iter().copied().collect();
        for b in others {
            let sb = self.nodes[&b].clone();
            for &ch in &universe {
                // The unified structure cannot skip channels outside CS(a):
                // every marked unit is visited.
                self.work += 1;
                let d = sa.pos.distance(sb.pos);
                if let Some(ra) = sa.radios.range_on(ch) {
                    if sb.radios.listens_on(ch) && d <= ra {
                        self.rows.entry((a, ch)).or_default().insert(b);
                    }
                }
                if let Some(rb) = sb.radios.range_on(ch) {
                    if sa.radios.listens_on(ch) && d <= rb {
                        self.rows.entry((b, ch)).or_default().insert(a);
                    } else if let Some(row) = self.rows.get_mut(&(b, ch)) {
                        row.remove(&a);
                    }
                }
            }
        }
    }
}

impl NeighborTables for UnifiedTable {
    fn insert_node(&mut self, id: NodeId, pos: Point, radios: RadioConfig) {
        self.universe.extend(radios.channels());
        self.nodes.insert(id, NodeSnapshot { pos, radios });
        self.rescan_node(id);
    }

    fn remove_node(&mut self, id: NodeId) {
        if self.nodes.remove(&id).is_none() {
            return;
        }
        self.rows.retain(|&(n, _), _| n != id);
        for row in self.rows.values_mut() {
            row.remove(&id);
        }
        self.shrink_universe();
    }

    fn update_position(&mut self, id: NodeId, pos: Point) {
        if let Some(s) = self.nodes.get_mut(&id) {
            s.pos = pos;
            self.rescan_node(id);
        }
    }

    fn update_radios(&mut self, id: NodeId, radios: RadioConfig) {
        if let Some(s) = self.nodes.get_mut(&id) {
            s.radios = radios;
            // Channels the last holder just left die; new ones join.
            self.shrink_universe();
            self.rescan_node(id);
        }
    }

    fn neighbors_into(&self, id: NodeId, channel: ChannelId, out: &mut Vec<NodeId>) {
        if let Some(row) = self.rows.get(&(id, channel)) {
            out.extend(row.iter().copied());
        }
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn reset_work(&mut self) {
        self.work = 0;
    }

    fn snapshot(&self, id: NodeId) -> Option<&NodeSnapshot> {
        self.nodes.get(&id)
    }

    fn node_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Compares a live structure against the brute-force recomputation,
/// returning the first mismatch as a human-readable message.
pub fn check_against_brute_force<T: NeighborTables + ?Sized>(t: &T) -> Result<(), String> {
    let mut nodes = BTreeMap::new();
    for id in t.node_ids() {
        nodes.insert(id, t.snapshot(id).expect("listed node has snapshot").clone());
    }
    let expect = brute_force(&nodes);
    for (&(a, ch), want) in &expect {
        let got: BTreeSet<NodeId> = t.neighbors(a, ch).into_iter().collect();
        if &got != want {
            return Err(format!("NT({a},{ch}) mismatch: got {got:?}, want {want:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::EmuRng;

    fn fig6_setup<T: NeighborTables + Default>() -> T {
        // Fig. 6 spirit: some nodes on channel 1, node "a" on channel 2.
        let mut t = T::default();
        t.insert_node(NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(2), Point::new(50.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(3), Point::new(0.0, 50.0), RadioConfig::single(ChannelId(1), 100.0));
        // node a:
        t.insert_node(NodeId(10), Point::new(10.0, 10.0), RadioConfig::single(ChannelId(2), 100.0));
        t.insert_node(NodeId(11), Point::new(20.0, 10.0), RadioConfig::single(ChannelId(2), 100.0));
        t
    }

    #[test]
    fn basic_neighborhood_symmetric_ranges() {
        let mut t = ChannelIndexedTables::new();
        t.insert_node(NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(2), Point::new(60.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(3), Point::new(150.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        assert_eq!(t.neighbors(NodeId(1), ChannelId(1)), vec![NodeId(2)]);
        assert_eq!(t.neighbors(NodeId(2), ChannelId(1)), vec![NodeId(1), NodeId(3)]);
        assert_eq!(t.neighbors(NodeId(3), ChannelId(1)), vec![NodeId(2)]);
    }

    #[test]
    fn neighborhood_requires_common_channel() {
        // k ∈ CS(A) ∩ CS(B) is required.
        let mut t = ChannelIndexedTables::new();
        t.insert_node(NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(2), Point::new(10.0, 0.0), RadioConfig::single(ChannelId(2), 100.0));
        assert!(t.neighbors(NodeId(1), ChannelId(1)).is_empty());
        assert!(t.neighbors(NodeId(2), ChannelId(2)).is_empty());
        // A dual-radio node bridges them (Fig. 9's relay).
        t.insert_node(
            NodeId(3),
            Point::new(5.0, 0.0),
            RadioConfig::multi(&[ChannelId(1), ChannelId(2)], 100.0),
        );
        assert_eq!(t.neighbors(NodeId(1), ChannelId(1)), vec![NodeId(3)]);
        assert_eq!(t.neighbors(NodeId(3), ChannelId(1)), vec![NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(3), ChannelId(2)), vec![NodeId(2)]);
    }

    #[test]
    fn directional_ranges() {
        // D ≤ R(A,k) governs A's row: a long-range node hears further than
        // a short-range one can reply.
        let mut t = ChannelIndexedTables::new();
        t.insert_node(NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ChannelId(1), 200.0));
        t.insert_node(NodeId(2), Point::new(150.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        assert_eq!(t.neighbors(NodeId(1), ChannelId(1)), vec![NodeId(2)]);
        assert!(t.neighbors(NodeId(2), ChannelId(1)).is_empty());
    }

    #[test]
    fn table2_step2_shrinking_range_excludes_node() {
        // Table 2 step 2: "Shrink the radio range of VMN1 to exclude VMN3."
        let mut t = ChannelIndexedTables::new();
        let ch = ChannelId(1);
        t.insert_node(NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ch, 200.0));
        t.insert_node(NodeId(2), Point::new(100.0, 0.0), RadioConfig::single(ch, 200.0));
        t.insert_node(NodeId(3), Point::new(0.0, 150.0), RadioConfig::single(ch, 200.0));
        assert_eq!(t.neighbors(NodeId(1), ch), vec![NodeId(2), NodeId(3)]);
        t.update_radios(NodeId(1), RadioConfig::single(ch, 120.0));
        assert_eq!(t.neighbors(NodeId(1), ch), vec![NodeId(2)]);
        check_against_brute_force(&t).unwrap();
    }

    #[test]
    fn table2_step3_channel_split_disconnects() {
        // Table 2 step 3: different channels for VMN1 and VMN2 → no route.
        let mut t = ChannelIndexedTables::new();
        t.insert_node(NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ChannelId(1), 200.0));
        t.insert_node(NodeId(2), Point::new(100.0, 0.0), RadioConfig::single(ChannelId(1), 200.0));
        assert_eq!(t.neighbors(NodeId(1), ChannelId(1)), vec![NodeId(2)]);
        t.update_radios(NodeId(2), RadioConfig::single(ChannelId(2), 200.0));
        assert!(t.neighbors(NodeId(1), ChannelId(1)).is_empty());
        assert!(t.neighbors(NodeId(2), ChannelId(2)).is_empty());
        check_against_brute_force(&t).unwrap();
    }

    #[test]
    fn fig6_update_locality_channel_indexed() {
        // Moving node a (channel 2) must not evaluate any channel-1 pair.
        let mut t: ChannelIndexedTables = fig6_setup();
        t.reset_work();
        t.update_position(NodeId(10), Point::new(11.0, 11.0));
        // Only one other node (11) lives on channel 2 → exactly 1 check.
        assert_eq!(t.work(), 1);
    }

    #[test]
    fn fig6_unified_pays_for_all_channels() {
        let mut t: UnifiedTable = fig6_setup();
        t.reset_work();
        t.update_position(NodeId(10), Point::new(11.0, 11.0));
        // Unified: 4 other nodes × 2 channels in the universe = 8 checks.
        assert_eq!(t.work(), 8);
        check_against_brute_force(&t).unwrap();
    }

    #[test]
    fn both_schemes_agree_with_brute_force_after_random_ops() {
        let mut rng = EmuRng::seed(2024);
        let mut ci = ChannelIndexedTables::new();
        let mut un = UnifiedTable::new();
        let channels = [ChannelId(1), ChannelId(2), ChannelId(3)];
        for step in 0..400 {
            let id = NodeId(rng.range_u64(0, 12) as u32);
            match rng.index(4) {
                0 => {
                    let pos = Point::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0));
                    let n_radios = 1 + rng.index(2);
                    let mut radios = RadioConfig::none();
                    for _ in 0..n_radios {
                        radios.add(crate::radio::Radio::new(
                            channels[rng.index(3)],
                            rng.range_f64(50.0, 200.0),
                        ));
                    }
                    ci.insert_node(id, pos, radios.clone());
                    un.insert_node(id, pos, radios);
                }
                1 => {
                    ci.remove_node(id);
                    un.remove_node(id);
                }
                2 => {
                    let pos = Point::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0));
                    ci.update_position(id, pos);
                    un.update_position(id, pos);
                }
                _ => {
                    let radios =
                        RadioConfig::single(channels[rng.index(3)], rng.range_f64(50.0, 250.0));
                    ci.update_radios(id, radios.clone());
                    un.update_radios(id, radios);
                }
            }
            if step % 37 == 0 {
                check_against_brute_force(&ci).unwrap_or_else(|e| panic!("ci step {step}: {e}"));
                check_against_brute_force(&un).unwrap_or_else(|e| panic!("un step {step}: {e}"));
            }
        }
        check_against_brute_force(&ci).unwrap();
        check_against_brute_force(&un).unwrap();
        // Same final relation.
        for id in ci.node_ids() {
            for &ch in &channels {
                assert_eq!(ci.neighbors(id, ch), un.neighbors(id, ch), "{id} {ch}");
            }
        }
    }

    #[test]
    fn grid_and_scan_rows_agree_byte_for_byte_after_random_ops() {
        // The grid is a pure acceleration: the same op stream through a
        // grid-backed and a scanning structure must produce identical row
        // contents at every step, and both must match brute force.
        let mut rng = EmuRng::seed(4096);
        let mut grid = ChannelIndexedTables::new();
        let mut scan = ChannelIndexedTables::without_grid();
        assert!(grid.grid_enabled());
        assert!(!scan.grid_enabled());
        let channels = [ChannelId(1), ChannelId(2), ChannelId(3)];
        for step in 0..400 {
            let id = NodeId(rng.range_u64(0, 12) as u32);
            match rng.index(4) {
                0 => {
                    let pos = Point::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0));
                    let radios =
                        RadioConfig::single(channels[rng.index(3)], rng.range_f64(20.0, 250.0));
                    grid.insert_node(id, pos, radios.clone());
                    scan.insert_node(id, pos, radios);
                }
                1 => {
                    grid.remove_node(id);
                    scan.remove_node(id);
                }
                2 => {
                    let pos = Point::new(rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0));
                    grid.update_position(id, pos);
                    scan.update_position(id, pos);
                }
                _ => {
                    let radios =
                        RadioConfig::single(channels[rng.index(3)], rng.range_f64(20.0, 250.0));
                    grid.update_radios(id, radios.clone());
                    scan.update_radios(id, radios);
                }
            }
            if step % 29 == 0 {
                check_against_brute_force(&grid).unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
            for nid in grid.node_ids() {
                for &ch in &channels {
                    assert_eq!(
                        grid.neighbors(nid, ch),
                        scan.neighbors(nid, ch),
                        "step {step}: {nid} {ch}"
                    );
                }
            }
        }
        check_against_brute_force(&grid).unwrap();
    }

    #[test]
    fn grid_handles_exact_cell_and_range_boundaries() {
        // Range 100 → cell 100: these nodes sit exactly on cell corners
        // and exactly one range apart (both comparisons are inclusive).
        let mut t = ChannelIndexedTables::new();
        let ch = ChannelId(1);
        t.insert_node(NodeId(1), Point::new(100.0, 100.0), RadioConfig::single(ch, 100.0));
        t.insert_node(NodeId(2), Point::new(200.0, 100.0), RadioConfig::single(ch, 100.0));
        t.insert_node(NodeId(3), Point::new(0.0, 100.0), RadioConfig::single(ch, 100.0));
        assert_eq!(t.grid_cell(ch), Some(100.0));
        assert_eq!(t.neighbors(NodeId(1), ch), vec![NodeId(2), NodeId(3)]);
        check_against_brute_force(&t).unwrap();
        // Move onto a shared cell corner, exactly one range from node 2.
        t.update_position(NodeId(3), Point::new(200.0, 200.0));
        assert_eq!(t.neighbors(NodeId(3), ch), vec![NodeId(2)]);
        check_against_brute_force(&t).unwrap();
    }

    #[test]
    fn grid_cell_grows_for_longer_ranges() {
        // A late-arriving long-range radio forces the channel's cell edge
        // up (and a re-bucketing); links across many original cells work.
        let mut t = ChannelIndexedTables::new();
        let ch = ChannelId(1);
        for i in 0..10u32 {
            t.insert_node(
                NodeId(i),
                Point::new(i as f64 * 40.0, 0.0),
                RadioConfig::single(ch, 50.0),
            );
        }
        assert_eq!(t.grid_cell(ch), Some(50.0));
        t.insert_node(NodeId(99), Point::new(0.0, 300.0), RadioConfig::single(ch, 500.0));
        assert_eq!(t.grid_cell(ch), Some(500.0));
        // 99 hears all ten short-range nodes; none of them hears it back.
        assert_eq!(t.neighbors(NodeId(99), ch).len(), 10);
        check_against_brute_force(&t).unwrap();
        // Moves after the growth stay correct.
        t.update_position(NodeId(0), Point::new(30.0, 280.0));
        check_against_brute_force(&t).unwrap();
    }

    #[test]
    fn grid_reduces_update_work_at_least_five_fold() {
        // 300 nodes, range 150 over a 2000×2000 field: the 3×3 grid
        // neighborhood holds a small fraction of the channel.
        let build = |grid: bool| {
            let mut t = if grid {
                ChannelIndexedTables::new()
            } else {
                ChannelIndexedTables::without_grid()
            };
            let mut rng = EmuRng::seed(11);
            for i in 0..300u32 {
                let pos = Point::new(rng.range_f64(0.0, 2000.0), rng.range_f64(0.0, 2000.0));
                t.insert_node(NodeId(i), pos, RadioConfig::single(ChannelId(1), 150.0));
            }
            t
        };
        let mut g = build(true);
        let mut s = build(false);
        g.reset_work();
        s.reset_work();
        let mut rng = EmuRng::seed(12);
        for _ in 0..100 {
            let id = NodeId(rng.index(300) as u32);
            let pos = Point::new(rng.range_f64(0.0, 2000.0), rng.range_f64(0.0, 2000.0));
            g.update_position(id, pos);
            s.update_position(id, pos);
        }
        // Scan mode preserves the paper's exact work accounting: every
        // move checks all other channel members.
        assert_eq!(s.work(), 100 * 299);
        assert!(g.work() * 5 <= s.work(), "grid {} vs scan {}", g.work(), s.work());
        check_against_brute_force(&g).unwrap();
    }

    #[test]
    fn unified_removal_restores_pre_insert_work_cost() {
        // Inserting and removing a node on an otherwise unused channel
        // must not permanently widen the channel universe (it used to:
        // every later rescan kept paying for the dead channel).
        let mut t = UnifiedTable::new();
        t.insert_node(NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(2), Point::new(50.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.reset_work();
        t.update_position(NodeId(1), Point::new(1.0, 0.0));
        let baseline = t.work();
        assert_eq!(baseline, 1, "1 other node × 1 live channel");
        t.insert_node(NodeId(3), Point::new(500.0, 0.0), RadioConfig::single(ChannelId(9), 100.0));
        t.remove_node(NodeId(3));
        t.reset_work();
        t.update_position(NodeId(1), Point::new(2.0, 0.0));
        assert_eq!(t.work(), baseline, "dead channel 9 still in the universe");
        check_against_brute_force(&t).unwrap();
    }

    #[test]
    fn unified_retune_away_shrinks_universe() {
        // The same staleness can arrive via a retune instead of a removal.
        let mut t = UnifiedTable::new();
        t.insert_node(NodeId(1), Point::new(0.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(2), Point::new(50.0, 0.0), RadioConfig::single(ChannelId(7), 100.0));
        t.update_radios(NodeId(2), RadioConfig::single(ChannelId(1), 100.0));
        t.reset_work();
        t.update_position(NodeId(1), Point::new(1.0, 0.0));
        assert_eq!(t.work(), 1, "channel 7 left with its last radio");
        check_against_brute_force(&t).unwrap();
    }

    #[test]
    fn node_set_tracks_membership() {
        let mut t = ChannelIndexedTables::new();
        t.insert_node(NodeId(1), Point::ORIGIN, RadioConfig::single(ChannelId(1), 10.0));
        t.insert_node(
            NodeId(2),
            Point::ORIGIN,
            RadioConfig::multi(&[ChannelId(1), ChannelId(2)], 10.0),
        );
        assert_eq!(t.node_set(ChannelId(1)), vec![NodeId(1), NodeId(2)]);
        assert_eq!(t.node_set(ChannelId(2)), vec![NodeId(2)]);
        assert_eq!(t.active_channels(), vec![ChannelId(1), ChannelId(2)]);
        t.remove_node(NodeId(2));
        assert_eq!(t.node_set(ChannelId(2)), Vec::<NodeId>::new());
        assert_eq!(t.active_channels(), vec![ChannelId(1)]);
    }

    #[test]
    fn removing_unknown_node_is_noop() {
        let mut t = ChannelIndexedTables::new();
        t.remove_node(NodeId(5));
        t.update_position(NodeId(5), Point::new(1.0, 1.0));
        t.update_radios(NodeId(5), RadioConfig::single(ChannelId(1), 1.0));
        assert!(t.node_ids().is_empty());
        let mut u = UnifiedTable::new();
        u.remove_node(NodeId(5));
        u.update_position(NodeId(5), Point::new(1.0, 1.0));
        assert!(u.node_ids().is_empty());
    }

    #[test]
    fn reinserting_node_replaces_state() {
        let mut t = ChannelIndexedTables::new();
        t.insert_node(NodeId(1), Point::ORIGIN, RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(2), Point::new(50.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(1), Point::new(500.0, 0.0), RadioConfig::single(ChannelId(2), 100.0));
        assert!(t.neighbors(NodeId(2), ChannelId(1)).is_empty());
        assert!(t.neighbors(NodeId(1), ChannelId(2)).is_empty());
        check_against_brute_force(&t).unwrap();
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        // D(A,B) ≤ R(A,k): exact equality is still a neighbor.
        let mut t = ChannelIndexedTables::new();
        t.insert_node(NodeId(1), Point::ORIGIN, RadioConfig::single(ChannelId(1), 100.0));
        t.insert_node(NodeId(2), Point::new(100.0, 0.0), RadioConfig::single(ChannelId(1), 100.0));
        assert_eq!(t.neighbors(NodeId(1), ChannelId(1)), vec![NodeId(2)]);
    }

    #[test]
    fn update_radios_skips_unchanged_channels() {
        let mut t = ChannelIndexedTables::new();
        t.insert_node(
            NodeId(1),
            Point::ORIGIN,
            RadioConfig::multi(&[ChannelId(1), ChannelId(2)], 100.0),
        );
        for i in 2..10 {
            t.insert_node(
                NodeId(i),
                Point::new(i as f64 * 10.0, 0.0),
                RadioConfig::single(ChannelId(1), 100.0),
            );
        }
        t.reset_work();
        // Change only the channel-2 radio's range: channel-1 rows untouched.
        let mut new = RadioConfig::multi(&[ChannelId(1), ChannelId(2)], 100.0);
        new.set_range(crate::ids::RadioId(1), 50.0);
        t.update_radios(NodeId(1), new);
        assert_eq!(t.work(), 0, "no other node on channel 2 → no checks");
        check_against_brute_force(&t).unwrap();
    }
}

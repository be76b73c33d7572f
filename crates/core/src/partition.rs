//! Shard partitioning — the [`TilePartition`] the multi-process cluster
//! coordinator uses to decide which shard owns a node.
//!
//! The plane is cut into square tiles whose edge is at least the global
//! maximum radio range, each tile is owned by one shard, and a node is
//! owned by its tile's shard. Because tile edge ≥ range, every possible
//! link's endpoints lie within one tile index of each other (the same
//! invariant the per-channel spatial grid in
//! [`crate::neighbor::ChannelIndexedTables`] relies on), so a shard that
//! *mirrors* the 3×3 tile neighborhood around each node it owns sees
//! every neighbor any of its senders can reach — the **halo invariant**.
//! [`TilePartition::membership`] computes exactly that mirror set.
//!
//! Constraint-based placement (DUNE-style): nodes can be **pinned** to a
//! shard regardless of their tile, and whole tiles can be **reassigned**
//! via overrides — the greedy rebalancer's lever. Neither affects what is
//! computed, only where: forwarding decisions draw from the per-packet
//! [`crate::rng::decide_rng`] stream, so placement is free to change at
//! barrier points without perturbing results.

use crate::geom::Point;
use crate::ids::NodeId;
use crate::rng::splitmix64;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A tile address: the integer cell of a position under the tile edge.
pub type Tile = (i64, i64);

/// The spatial tiling: square tiles of edge `tile_edge`, owner =
/// deterministic mix of the tile address modulo the shard count, with
/// per-tile overrides (rebalancing) and per-node pins (placement
/// constraints) on top.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TilePartition {
    /// Shard count (≥ 1).
    shards: u32,
    /// Tile edge, units. Must be ≥ the longest radio range in the scene
    /// for the halo invariant to hold.
    tile_edge: f64,
    /// Tiles reassigned away from their default owner.
    overrides: BTreeMap<Tile, u32>,
    /// Nodes pinned to a shard regardless of position.
    pins: BTreeMap<NodeId, u32>,
}

/// One membership computation: owner per node, and per shard the mirror
/// set (owned nodes plus halo) its worker must hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Owner shard per node.
    pub owner: BTreeMap<NodeId, u32>,
    /// Per shard: every node the shard's worker needs (owned ∪ halo).
    pub members: BTreeMap<u32, BTreeSet<NodeId>>,
}

impl TilePartition {
    /// Builds a tiling. `shards` is clamped to ≥ 1; `tile_edge` is
    /// floored at 1.0 (mirroring the spatial grid's floor, so zero-range
    /// scenes cannot demand infinite resolution).
    pub fn new(shards: u32, tile_edge: f64) -> Self {
        TilePartition {
            shards: shards.max(1),
            tile_edge: if tile_edge.is_finite() && tile_edge > 1.0 { tile_edge } else { 1.0 },
            overrides: BTreeMap::new(),
            pins: BTreeMap::new(),
        }
    }

    /// Shard count.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The tile edge, units.
    pub fn tile_edge(&self) -> f64 {
        self.tile_edge
    }

    /// The tile containing `pos` (floor division, so negative
    /// coordinates tile correctly).
    pub fn tile_of(&self, pos: Point) -> Tile {
        ((pos.x / self.tile_edge).floor() as i64, (pos.y / self.tile_edge).floor() as i64)
    }

    /// The shard owning a tile: the override when one is installed, else
    /// a deterministic mix of the tile address modulo the shard count.
    pub fn owner_of_tile(&self, tile: Tile) -> u32 {
        if let Some(&s) = self.overrides.get(&tile) {
            return s;
        }
        let mixed = splitmix64((tile.0 as u64) ^ splitmix64(tile.1 as u64));
        (mixed % u64::from(self.shards)) as u32
    }

    /// The shard owning `node` at `pos`: its pin when one is installed,
    /// else its tile's owner.
    pub fn owner_of(&self, node: NodeId, pos: Point) -> u32 {
        if let Some(&s) = self.pins.get(&node) {
            return s;
        }
        self.owner_of_tile(self.tile_of(pos))
    }

    /// Pins `node` to `shard` (a DUNE-style placement constraint).
    /// Clamped to the shard count.
    pub fn pin(&mut self, node: NodeId, shard: u32) {
        self.pins.insert(node, shard.min(self.shards - 1));
    }

    /// Removes a pin.
    pub fn unpin(&mut self, node: NodeId) {
        self.pins.remove(&node);
    }

    /// Installed pins.
    pub fn pins(&self) -> &BTreeMap<NodeId, u32> {
        &self.pins
    }

    /// Reassigns a tile to `shard` (the rebalancer's move). Clamped to
    /// the shard count.
    pub fn reassign_tile(&mut self, tile: Tile, shard: u32) {
        self.overrides.insert(tile, shard.min(self.shards - 1));
    }

    /// Installed tile overrides.
    pub fn overrides(&self) -> &BTreeMap<Tile, u32> {
        &self.overrides
    }

    /// The 3×3 tile neighborhood around `tile` (row-major, includes
    /// `tile` itself) — the halo footprint of anything inside `tile`.
    pub fn halo_tiles(&self, tile: Tile) -> [Tile; 9] {
        let (tx, ty) = tile;
        [
            (tx - 1, ty - 1),
            (tx, ty - 1),
            (tx + 1, ty - 1),
            (tx - 1, ty),
            (tx, ty),
            (tx + 1, ty),
            (tx - 1, ty + 1),
            (tx, ty + 1),
            (tx + 1, ty + 1),
        ]
    }

    /// Computes ownership and the per-shard mirror sets for a node
    /// population: shard `s` must hold every node within one tile index
    /// (Chebyshev distance ≤ 1) of any node it owns — its owned nodes
    /// plus the halo ring around them. With tile edge ≥ max radio range
    /// this is a superset of every neighbor any owned sender can reach,
    /// so boundary neighbor lookups on the mirror are exact.
    pub fn membership<I>(&self, nodes: I) -> Membership
    where
        I: IntoIterator<Item = (NodeId, Point)>,
    {
        let nodes: Vec<(NodeId, Point)> = nodes.into_iter().collect();
        let mut by_tile: BTreeMap<Tile, Vec<usize>> = BTreeMap::new();
        for (i, (_, pos)) in nodes.iter().enumerate() {
            by_tile.entry(self.tile_of(*pos)).or_default().push(i);
        }
        let mut owner = BTreeMap::new();
        let mut members: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
        for s in 0..self.shards {
            members.insert(s, BTreeSet::new());
        }
        for &(id, pos) in &nodes {
            let own = self.owner_of(id, pos);
            owner.insert(id, own);
            if let Some(set) = members.get_mut(&own) {
                for t in self.halo_tiles(self.tile_of(pos)) {
                    if let Some(idxs) = by_tile.get(&t) {
                        for &i in idxs {
                            set.insert(nodes[i].0);
                        }
                    }
                }
            }
        }
        Membership { owner, members }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cheb(a: Tile, b: Tile) -> i64 {
        (a.0 - b.0).abs().max((a.1 - b.1).abs())
    }

    #[test]
    fn tiles_floor_divide_negative_coordinates() {
        let t = TilePartition::new(2, 100.0);
        assert_eq!(t.tile_of(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(t.tile_of(Point::new(-0.5, -0.5)), (-1, -1));
        assert_eq!(t.tile_of(Point::new(99.9, 100.0)), (0, 1));
    }

    #[test]
    fn every_node_has_exactly_one_owner_in_range() {
        let t = TilePartition::new(3, 50.0);
        let nodes: Vec<(NodeId, Point)> = (0..40)
            .map(|i| (NodeId(i), Point::new(f64::from(i) * 37.0 - 600.0, f64::from(i % 7) * 43.0)))
            .collect();
        let m = t.membership(nodes.iter().copied());
        assert_eq!(m.owner.len(), 40);
        for (&id, &s) in &m.owner {
            assert!(s < 3, "{id} owned by out-of-range shard {s}");
        }
    }

    #[test]
    fn membership_is_the_three_by_three_neighborhood() {
        let t = TilePartition::new(4, 60.0);
        let nodes: Vec<(NodeId, Point)> = (0..60)
            .map(|i| {
                (NodeId(i), Point::new(f64::from(i % 8) * 55.0, f64::from(i / 8) * 55.0 - 110.0))
            })
            .collect();
        let m = t.membership(nodes.iter().copied());
        // Exactness both ways: a shard holds node b iff it owns some node
        // a within one tile index of b.
        for &(b, bpos) in &nodes {
            for s in 0..4u32 {
                let held = m.members[&s].contains(&b);
                let needed = nodes.iter().any(|&(a, apos)| {
                    m.owner[&a] == s && cheb(t.tile_of(apos), t.tile_of(bpos)) <= 1
                });
                assert_eq!(held, needed, "shard {s}, node {b}");
            }
        }
    }

    #[test]
    fn pins_override_tiles_and_keep_the_halo() {
        let mut t = TilePartition::new(4, 80.0);
        // Pin node 0 far from anything shard 3 would own by tile.
        t.pin(NodeId(0), 3);
        let nodes = [
            (NodeId(0), Point::new(5.0, 5.0)),
            (NodeId(1), Point::new(70.0, 5.0)), /* in range */
        ];
        let m = t.membership(nodes.iter().copied());
        assert_eq!(m.owner[&NodeId(0)], 3);
        // Shard 3 mirrors node 1 (the pinned node's potential neighbor).
        assert!(m.members[&3].contains(&NodeId(1)));
        assert!(m.members[&3].contains(&NodeId(0)));
    }

    #[test]
    fn tile_reassignment_moves_ownership() {
        let mut t = TilePartition::new(2, 100.0);
        let pos = Point::new(10.0, 10.0);
        let tile = t.tile_of(pos);
        let before = t.owner_of(NodeId(9), pos);
        t.reassign_tile(tile, 1 - before);
        assert_eq!(t.owner_of(NodeId(9), pos), 1 - before);
    }

    #[test]
    fn tile_edge_is_floored() {
        let t = TilePartition::new(1, 0.0);
        assert_eq!(t.tile_edge(), 1.0);
        let t = TilePartition::new(1, f64::NAN);
        assert_eq!(t.tile_edge(), 1.0);
    }
}

//! Steady-state hot paths allocate (almost) nothing.
//!
//! E15 acceptance: the per-packet ingest path performs no heap allocation
//! beyond the delivery vector it returns. The budget is one allocation
//! per ingest (the `Vec<Delivery>` handed back to the caller) plus a small
//! slack for the recorder's amortized log growth. Routing, the RNG draws,
//! the per-delivery packet clones (refcounted payload) and the traffic
//! records themselves must all be allocation-free.
//!
//! The bulk relink of a mobility step allocates nothing once its rows,
//! buckets and scratch buffers have held a step's contents.
//!
//! A counting `GlobalAlloc` wrapper tallies the allocations each thread
//! makes while its counting flag is up; the tally is per thread, so the
//! tests here may run concurrently.

mod common;

use poem_core::linkmodel::LinkParams;
use poem_core::mobility::MobilityModel;
use poem_core::neighbor::{check_against_brute_force, NeighborTables};
use poem_core::packet::{Destination, HEADER_BYTES};
use poem_core::radio::RadioConfig;
use poem_core::scene::{Scene, SceneOp};
use poem_core::{ChannelId, EmuPacket, EmuRng, EmuTime, NodeId, PacketId, Point, RadioId};
use poem_record::Recorder;
use poem_server::Pipeline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pass-through to the system allocator plus a thread-local counter
// that never allocates; layouts and pointers are never changed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `alloc` — a counted pass-through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

fn grid_scene(n: u32) -> Scene {
    let mut s = Scene::new();
    let side = (n as f64).sqrt().ceil() as u32;
    for i in 0..n {
        s.apply(
            EmuTime::ZERO,
            &SceneOp::AddNode {
                id: NodeId(i),
                pos: Point::new((i % side) as f64 * 80.0, (i / side) as f64 * 80.0),
                radios: RadioConfig::single(ChannelId(1), 170.0),
                mobility: MobilityModel::Stationary,
                link: LinkParams::table3(),
            },
        )
        .expect("grid scene valid");
    }
    s
}

fn batch(nodes: u32, packets: usize) -> Vec<EmuPacket> {
    (0..packets)
        .map(|i| {
            EmuPacket::new(
                PacketId(i as u64),
                NodeId((i as u32) % nodes),
                Destination::Broadcast,
                ChannelId(1),
                RadioId(0),
                EmuTime::from_micros(i as u64),
                vec![0u8; 500 - HEADER_BYTES],
            )
        })
        .collect()
}

#[test]
fn steady_state_ingest_allocates_only_the_delivery_vector() {
    const NODES: u32 = 100;
    const MEASURED: usize = 1_000;

    let mut p = Pipeline::new(grid_scene(NODES), Arc::new(Recorder::new()), EmuRng::seed(1));
    let warmup = batch(NODES, MEASURED);
    let measured = batch(NODES, MEASURED);

    // Warm-up: sizes the routing scratch buffer and pre-grows the traffic
    // log so the measured window sees only steady-state behavior.
    let mut warm_deliveries = 0usize;
    for pkt in &warmup {
        warm_deliveries += p.ingest(pkt, pkt.sent_at).len();
    }
    assert!(warm_deliveries > 0, "warmup produced no deliveries");

    let (deliveries, allocs) = counted(|| {
        let mut deliveries = 0usize;
        for pkt in &measured {
            deliveries += p.ingest(pkt, pkt.sent_at).len();
        }
        deliveries
    });
    let allocs = allocs as usize;

    assert!(deliveries > MEASURED, "dense scene should fan out: {deliveries}");
    // One `Vec<Delivery>` per packet, plus slack for the recorder's
    // amortized (doubling) log growth across 2 000 appended records.
    let budget = MEASURED + 64;
    assert!(
        allocs <= budget,
        "steady-state ingest allocated {allocs} times for {MEASURED} packets \
         (budget {budget}: delivery vectors + amortized log growth)"
    );
    // Sanity that the counter works at all: the delivery vectors alone
    // account for one allocation per non-empty ingest.
    assert!(allocs > 0, "counter saw nothing — instrumentation broken?");
}

#[test]
fn steady_state_bulk_relink_allocates_nothing() {
    let mut scene = common::mobile_arena(0xA110C);
    let mut t = common::tables_of(&scene);
    let mut rng = EmuRng::seed(3);
    let before: Vec<(NodeId, Point)> = scene.nodes().map(|v| (v.id, v.pos)).collect();
    let after = common::step(&mut scene, 1, &mut rng);
    assert_eq!(after.len(), common::NODES as usize);
    // Warm-up: the step there and back, so every row, bucket and scratch
    // buffer has held the measured step's contents once. (A fresh step
    // can still push a row or bucket past its high-water mark — content
    // growth the per-node path pays alike, a few times per step here.)
    t.update_positions(&after);
    t.update_positions(&before);
    t.reset_work();
    let ((), allocs) = counted(|| t.update_positions(&after));
    assert!(t.work() > 0, "the step swept nothing");
    assert_eq!(allocs, 0, "a steady-state bulk relink allocated {allocs} times");
    check_against_brute_force(&t).expect("swept rows match brute force");
}

//! Criterion bench: the server's per-packet pipeline (§3.2 steps 2–4) —
//! the path whose throughput bounds how much traffic one PoEm server can
//! emulate (the paper's future-work concern about the single-server
//! bottleneck).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use poem_core::linkmodel::LinkParams;
use poem_core::mobility::MobilityModel;
use poem_core::packet::Destination;
use poem_core::radio::RadioConfig;
use poem_core::scene::{Scene, SceneOp};
use poem_core::{
    ChannelId, EmuPacket, EmuRng, EmuTime, ForwardSchedule, NodeId, PacketId, Point, RadioId,
};
use poem_record::Recorder;
use poem_server::Pipeline;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// A grid scene: `n` nodes on `channels` channels, ~8 neighbors each.
fn grid_scene(n: usize, channels: usize) -> Scene {
    let mut scene = Scene::new();
    let side = (n as f64).sqrt().ceil() as usize;
    for i in 0..n {
        let (gx, gy) = (i % side, i / side);
        scene
            .apply(
                EmuTime::ZERO,
                &SceneOp::AddNode {
                    id: NodeId(i as u32),
                    pos: Point::new(gx as f64 * 80.0, gy as f64 * 80.0),
                    radios: RadioConfig::single(ChannelId((i % channels) as u16), 170.0),
                    mobility: MobilityModel::Stationary,
                    link: LinkParams::table3(),
                },
            )
            .expect("grid scene valid");
    }
    scene
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_ingest");
    for &(n, channels) in &[(25usize, 1usize), (100, 1), (100, 4), (400, 4)] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_c{channels}")),
            &(n, channels),
            |b, &(n, channels)| {
                let mut p = Pipeline::new(
                    grid_scene(n, channels),
                    Arc::new(Recorder::new()),
                    EmuRng::seed(1),
                );
                let mut i = 0u64;
                b.iter(|| {
                    let src = NodeId((i % n as u64) as u32);
                    let pkt = EmuPacket::new(
                        PacketId(i),
                        src,
                        Destination::Broadcast,
                        ChannelId((src.0 % channels as u32) as u16),
                        RadioId(0),
                        EmuTime::from_nanos(i * 1000),
                        bytes::Bytes::from_static(&[0u8; 972]),
                    );
                    i += 1;
                    black_box(p.ingest(&pkt, EmuTime::from_nanos(i * 1000)))
                });
            },
        );
    }
    group.finish();
}

fn bench_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_schedule");
    group.bench_function("schedule_pop_1k", |b| {
        b.iter(|| {
            let mut s = ForwardSchedule::new();
            for i in 0..1000u64 {
                // Pseudo-shuffled due times.
                s.schedule(EmuTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = s.pop_next() {
                sum += v;
            }
            black_box(sum)
        });
    });
    group.finish();
}

fn bench_scene_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("scene_ops");
    group.bench_function("move_node_400", |b| {
        let mut p = Pipeline::new(grid_scene(400, 4), Arc::new(Recorder::new()), EmuRng::seed(1));
        let mut rng = EmuRng::seed(2);
        b.iter(|| {
            let id = NodeId(rng.index(400) as u32);
            let pos = Point::new(rng.range_f64(0.0, 1600.0), rng.range_f64(0.0, 1600.0));
            p.apply_op(EmuTime::ZERO, SceneOp::MoveNode { id, pos }).expect("valid move");
        });
    });
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(2))
        .sample_size(30)
}

criterion_group!(name = benches; config = quick(); targets = bench_ingest, bench_schedule, bench_scene_ops);
criterion_main!(benches);

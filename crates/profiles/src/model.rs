//! Empirical link-model backends: windowed traces and seeded Markov
//! regime chains, plus the library/book runtime that serves per-link
//! [`LinkSnapshot`]s to the pipeline.
//!
//! ## Determinism contract
//!
//! A profile never touches the pipeline's packet RNG. Markov regime
//! sequences are drawn from a dedicated stream forked off the scenario
//! seed (`seed ^ PROFILE_STREAM`, further mixed per `(profile, src, dst)`
//! link), and each chain caches its realized sequence so `regime(t)` is a
//! pure function of `(profile, seed)` regardless of query order. Trace
//! profiles are RNG-free by construction. The packet-level loss Bernoulli
//! still draws from the pipeline RNG — same as the analytic models — so a
//! profile-driven scenario replays byte-identically under a fixed seed.

use poem_core::{EmuDuration, EmuRng, EmuTime, LinkSnapshot, NodeId, ProfileId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// RNG stream salt for profile regime draws: forked from the scenario
/// seed so profile machinery never perturbs packet-level draws (the same
/// isolation trick as `poem_chaos::CHAOS_STREAM`).
pub const PROFILE_STREAM: u64 = 0xA076_1D64_78BD_642F;

/// The profile-stream RNG for a scenario seed.
pub fn profile_rng(seed: u64) -> EmuRng {
    EmuRng::seed(seed ^ PROFILE_STREAM)
}

/// Hard ceiling on cached regime steps per chain: with the parser's 1 ms
/// minimum dwell this covers more than an hour of emulated time; beyond
/// it the chain freezes in its last regime instead of growing unbounded.
pub const MAX_REGIME_STEPS: u64 = 1 << 22;

/// One row of a windowed trace: the link's quality from `at` until the
/// next row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRow {
    /// Window start, relative to scenario time zero.
    pub at: EmuDuration,
    /// Link quality during the window.
    pub link: LinkSnapshot,
}

/// A time-indexed empirical trace (ERRANT-style): piecewise-constant
/// loss/rate/delay windows, optionally looped with a fixed period (LEO
/// handover cycles, traffic-light cycles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Windows in strictly increasing `at` order; never empty.
    pub rows: Vec<TraceRow>,
    /// When set, time wraps modulo this period.
    pub period: Option<EmuDuration>,
}

impl TraceProfile {
    /// The link quality at offset `t`: the last row at or before `t`
    /// (the first row covers any gap before its own start).
    pub fn snapshot_at(&self, t: EmuDuration) -> Option<LinkSnapshot> {
        let mut ns = t.as_nanos().max(0);
        if let Some(p) = self.period {
            let pn = p.as_nanos();
            if pn > 0 {
                ns %= pn;
            }
        }
        let t = EmuDuration::from_nanos(ns);
        let idx = match self.rows.binary_search_by(|row| row.at.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        self.rows.get(idx).map(|row| row.link)
    }
}

/// One regime of a Markov profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovState {
    /// Human-readable regime name (`good`, `degraded`, `outage`, ...).
    pub name: String,
    /// Link quality while in this regime.
    pub link: LinkSnapshot,
    /// Transition probabilities to every state (indexed like
    /// [`MarkovProfile::states`]); sums to 1.
    pub next: Vec<f64>,
}

/// A regime-switching Markov chain: the chain starts in its first state
/// and re-draws a successor every `dwell`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovProfile {
    /// The regimes; never empty. The chain starts in `states[0]`.
    pub states: Vec<MarkovState>,
    /// Dwell time per step.
    pub dwell: EmuDuration,
}

impl MarkovProfile {
    /// The step index covering offset `t`, capped at
    /// [`MAX_REGIME_STEPS`].
    pub fn step_of(&self, t: EmuDuration) -> u64 {
        let dwell = self.dwell.as_nanos().max(1);
        let step = (t.as_nanos().max(0) / dwell) as u64;
        step.min(MAX_REGIME_STEPS)
    }
}

/// An empirical link profile: either backend produces a
/// [`LinkSnapshot`] for any point in scenario time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinkProfile {
    /// Windowed, optionally looping trace.
    Trace(TraceProfile),
    /// Seeded regime-switching chain.
    Markov(MarkovProfile),
}

impl LinkProfile {
    /// The smallest propagation delay any of the profile's rows or states
    /// can report — a lower bound on how soon after its stamp a packet
    /// decided under this profile can be forwarded.
    fn min_delay(&self) -> EmuDuration {
        let min = match self {
            LinkProfile::Trace(tr) => tr.rows.iter().map(|r| r.link.delay).min(),
            LinkProfile::Markov(mk) => mk.states.iter().map(|s| s.link.delay).min(),
        };
        min.unwrap_or(EmuDuration::ZERO)
    }

    /// The backend's name as it appears in profile files.
    pub fn kind(&self) -> &'static str {
        match self {
            LinkProfile::Trace(_) => "trace",
            LinkProfile::Markov(_) => "markov",
        }
    }
}

/// One link's realized regime sequence: an [`EmuRng`] plus the prefix of
/// states drawn so far. Extending on demand (never re-drawing) makes
/// `state_at` insensitive to query order — the sequence is fixed by the
/// chain's seed alone.
#[derive(Debug)]
pub struct RegimeChain {
    rng: EmuRng,
    seq: Vec<u32>,
}

impl RegimeChain {
    /// A fresh chain over the given (already stream-forked) RNG.
    pub fn new(rng: EmuRng) -> Self {
        RegimeChain { rng, seq: Vec::new() }
    }

    /// The state index at `step`, drawing and caching any missing prefix.
    pub fn state_at(&mut self, step: u64, profile: &MarkovProfile) -> usize {
        let step = step.min(MAX_REGIME_STEPS) as usize;
        while self.seq.len() <= step {
            let next = match self.seq.last() {
                None => 0,
                Some(&cur) => transition(profile, cur as usize, self.rng.unit()),
            };
            self.seq.push(next);
        }
        self.seq.get(step).copied().unwrap_or(0) as usize
    }
}

/// Inverse-CDF draw over `states[cur].next` for uniform `u`.
fn transition(profile: &MarkovProfile, cur: usize, u: f64) -> u32 {
    let Some(state) = profile.states.get(cur) else { return 0 };
    let mut acc = 0.0;
    for (i, &p) in state.next.iter().enumerate() {
        acc += p;
        if u < acc {
            return i as u32;
        }
    }
    // Rounding slack: fall back to the last state.
    profile.states.len().saturating_sub(1) as u32
}

/// The committed profile set of one scenario: an interning map from
/// profile names to dense [`ProfileId`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileLibrary {
    entries: Vec<(String, LinkProfile)>,
}

impl ProfileLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no profiles are loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a profile, returning its id; `None` if the name is taken.
    pub fn insert(&mut self, name: &str, profile: LinkProfile) -> Option<ProfileId> {
        if self.id_of(name).is_some() {
            return None;
        }
        let id = ProfileId(self.entries.len() as u32);
        self.entries.push((name.to_string(), profile));
        Some(id)
    }

    /// Resolves a profile name to its id.
    pub fn id_of(&self, name: &str) -> Option<ProfileId> {
        self.entries.iter().position(|(n, _)| n == name).map(|i| ProfileId(i as u32))
    }

    /// The profile behind an id.
    pub fn get(&self, id: ProfileId) -> Option<&LinkProfile> {
        self.entries.get(id.index() as usize).map(|(_, p)| p)
    }

    /// The name behind an id.
    pub fn name_of(&self, id: ProfileId) -> Option<&str> {
        self.entries.get(id.index() as usize).map(|(n, _)| n.as_str())
    }

    /// Profile names in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }
}

/// Runtime profile state for one emulation: the library plus every
/// per-link regime chain realized so far, all forked from the scenario
/// seed.
#[derive(Debug)]
pub struct ProfileBook {
    library: ProfileLibrary,
    seed: u64,
    chains: BTreeMap<(u32, u32, u32), RegimeChain>,
    /// `LinkProfile::min_delay` per profile, in id order.
    floors: Vec<EmuDuration>,
}

impl ProfileBook {
    /// A book over `library`, with regime draws forked from `seed`.
    pub fn new(library: ProfileLibrary, seed: u64) -> Self {
        let floors = library.entries.iter().map(|(_, p)| p.min_delay()).collect();
        ProfileBook { library, seed, chains: BTreeMap::new(), floors }
    }

    /// The smallest delay any snapshot of profile `pid` can carry — the
    /// least of its rows' or states' delays, computed once; `None` for an
    /// id the library does not know.
    pub fn delay_floor(&self, pid: ProfileId) -> Option<EmuDuration> {
        self.floors.get(pid.index() as usize).copied()
    }

    /// The underlying library.
    pub fn library(&self) -> &ProfileLibrary {
        &self.library
    }

    /// The link quality profile `pid` assigns to the `src → dst` link at
    /// emulated time `at`. `None` for an id the library does not know —
    /// the caller falls back to the analytic models.
    pub fn snapshot(
        &mut self,
        pid: ProfileId,
        src: NodeId,
        dst: NodeId,
        at: EmuTime,
    ) -> Option<LinkSnapshot> {
        let profile = self.library.entries.get(pid.index() as usize).map(|(_, p)| p)?;
        let t = EmuDuration::from_nanos(at.as_nanos().min(i64::MAX as u64) as i64);
        match profile {
            LinkProfile::Trace(tr) => tr.snapshot_at(t),
            LinkProfile::Markov(mk) => {
                let key = (pid.index(), src.index(), dst.index());
                let seed = chain_seed(self.seed, pid, src, dst);
                let chain =
                    self.chains.entry(key).or_insert_with(|| RegimeChain::new(EmuRng::seed(seed)));
                let idx = chain.state_at(mk.step_of(t), mk);
                mk.states.get(idx).map(|s| s.link)
            }
        }
    }
}

/// The seed of the `(profile, src, dst)` regime chain: scenario seed,
/// stream salt and link identity mixed through splitmix finalizers.
pub fn chain_seed(seed: u64, pid: ProfileId, src: NodeId, dst: NodeId) -> u64 {
    let mut h = seed ^ PROFILE_STREAM;
    h = splitmix(h ^ pid.index() as u64);
    h = splitmix(h ^ (((src.index() as u64) << 32) | dst.index() as u64));
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(loss: f64, bps: f64, delay_ms: i64) -> LinkSnapshot {
        LinkSnapshot { loss, bps, delay: EmuDuration::from_millis(delay_ms) }
    }

    fn two_state_markov(dwell_ms: i64) -> MarkovProfile {
        MarkovProfile {
            states: vec![
                MarkovState { name: "good".into(), link: snap(0.01, 8e6, 1), next: vec![0.7, 0.3] },
                MarkovState { name: "bad".into(), link: snap(0.6, 5e5, 20), next: vec![0.5, 0.5] },
            ],
            dwell: EmuDuration::from_millis(dwell_ms),
        }
    }

    #[test]
    fn trace_lookup_is_piecewise_constant() {
        let tr = TraceProfile {
            rows: vec![
                TraceRow { at: EmuDuration::ZERO, link: snap(0.0, 8e6, 1) },
                TraceRow { at: EmuDuration::from_secs(5), link: snap(0.5, 1e6, 10) },
            ],
            period: None,
        };
        assert_eq!(tr.snapshot_at(EmuDuration::ZERO).unwrap().loss, 0.0);
        assert_eq!(tr.snapshot_at(EmuDuration::from_secs(4)).unwrap().loss, 0.0);
        assert_eq!(tr.snapshot_at(EmuDuration::from_secs(5)).unwrap().loss, 0.5);
        assert_eq!(tr.snapshot_at(EmuDuration::from_secs(500)).unwrap().loss, 0.5);
    }

    #[test]
    fn trace_first_row_covers_early_gap() {
        let tr = TraceProfile {
            rows: vec![TraceRow { at: EmuDuration::from_secs(2), link: snap(0.2, 1e6, 1) }],
            period: None,
        };
        assert_eq!(tr.snapshot_at(EmuDuration::ZERO).unwrap().loss, 0.2);
    }

    #[test]
    fn looping_trace_wraps_time() {
        let tr = TraceProfile {
            rows: vec![
                TraceRow { at: EmuDuration::ZERO, link: snap(0.0, 8e6, 1) },
                TraceRow { at: EmuDuration::from_secs(8), link: snap(0.9, 1e5, 50) },
            ],
            period: Some(EmuDuration::from_secs(10)),
        };
        // 23 s ≡ 3 s into the cycle: connected window.
        assert_eq!(tr.snapshot_at(EmuDuration::from_secs(23)).unwrap().loss, 0.0);
        // 19 s ≡ 9 s: handover outage window.
        assert_eq!(tr.snapshot_at(EmuDuration::from_secs(19)).unwrap().loss, 0.9);
    }

    #[test]
    fn regime_chain_is_pure_in_seed_and_query_order_free() {
        let mk = two_state_markov(100);
        let mut fwd = RegimeChain::new(EmuRng::seed(42));
        let mut rev = RegimeChain::new(EmuRng::seed(42));
        let forward: Vec<usize> = (0..200).map(|s| fwd.state_at(s, &mk)).collect();
        let backward: Vec<usize> = (0..200).rev().map(|s| rev.state_at(s, &mk)).collect();
        let backward: Vec<usize> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        // A different seed realizes a different sequence.
        let mut other = RegimeChain::new(EmuRng::seed(43));
        let others: Vec<usize> = (0..200).map(|s| other.state_at(s, &mk)).collect();
        assert_ne!(forward, others);
    }

    #[test]
    fn regime_chain_visits_both_states() {
        let mk = two_state_markov(100);
        let mut chain = RegimeChain::new(EmuRng::seed(7));
        let seen: std::collections::BTreeSet<usize> =
            (0..500).map(|s| chain.state_at(s, &mk)).collect();
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn regime_steps_are_capped() {
        let mk = two_state_markov(1);
        let mut chain = RegimeChain::new(EmuRng::seed(1));
        let at_cap = chain.state_at(MAX_REGIME_STEPS, &mk);
        let beyond = chain.state_at(u64::MAX, &mk);
        assert_eq!(at_cap, beyond);
    }

    #[test]
    fn library_interns_names_and_rejects_duplicates() {
        let mut lib = ProfileLibrary::new();
        let a = lib.insert("urban", LinkProfile::Markov(two_state_markov(100))).unwrap();
        assert_eq!(a, ProfileId(0));
        assert!(lib.insert("urban", LinkProfile::Markov(two_state_markov(100))).is_none());
        assert_eq!(lib.id_of("urban"), Some(ProfileId(0)));
        assert_eq!(lib.name_of(ProfileId(0)), Some("urban"));
        assert!(lib.get(ProfileId(5)).is_none());
        assert_eq!(lib.names().collect::<Vec<_>>(), vec!["urban"]);
    }

    #[test]
    fn book_snapshots_replay_identically_per_seed() {
        let mut lib = ProfileLibrary::new();
        lib.insert("m", LinkProfile::Markov(two_state_markov(50)));
        let mut a = ProfileBook::new(lib.clone(), 99);
        let mut b = ProfileBook::new(lib.clone(), 99);
        let mut c = ProfileBook::new(lib, 100);
        let times: Vec<EmuTime> = (0..100).map(|i| EmuTime::from_millis(i * 37)).collect();
        let sa: Vec<_> = times
            .iter()
            .map(|&t| a.snapshot(ProfileId(0), NodeId(1), NodeId(2), t).unwrap().loss)
            .collect();
        let sb: Vec<_> = times
            .iter()
            .map(|&t| b.snapshot(ProfileId(0), NodeId(1), NodeId(2), t).unwrap().loss)
            .collect();
        let sc: Vec<_> = times
            .iter()
            .map(|&t| c.snapshot(ProfileId(0), NodeId(1), NodeId(2), t).unwrap().loss)
            .collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc, "seed must steer the regime draw");
    }

    #[test]
    fn distinct_links_get_distinct_chains() {
        assert_ne!(
            chain_seed(1, ProfileId(0), NodeId(1), NodeId(2)),
            chain_seed(1, ProfileId(0), NodeId(2), NodeId(1))
        );
        assert_ne!(
            chain_seed(1, ProfileId(0), NodeId(1), NodeId(2)),
            chain_seed(1, ProfileId(1), NodeId(1), NodeId(2))
        );
    }

    #[test]
    fn delay_floor_is_the_smallest_row_or_state_delay() {
        let mut lib = ProfileLibrary::new();
        lib.insert("m", LinkProfile::Markov(two_state_markov(50)));
        lib.insert(
            "t",
            LinkProfile::Trace(TraceProfile {
                rows: vec![
                    TraceRow { at: EmuDuration::ZERO, link: snap(0.0, 8e6, 9) },
                    TraceRow { at: EmuDuration::from_secs(5), link: snap(0.5, 1e6, 3) },
                ],
                period: None,
            }),
        );
        let book = ProfileBook::new(lib, 1);
        assert_eq!(book.delay_floor(ProfileId(0)), Some(EmuDuration::from_millis(1)));
        assert_eq!(book.delay_floor(ProfileId(1)), Some(EmuDuration::from_millis(3)));
        assert_eq!(book.delay_floor(ProfileId(2)), None);
    }

    #[test]
    fn unknown_profile_id_yields_none() {
        let mut book = ProfileBook::new(ProfileLibrary::new(), 1);
        assert!(book.snapshot(ProfileId(0), NodeId(1), NodeId(2), EmuTime::ZERO).is_none());
    }
}

//! Real-time scan-loop sleep policies and guard-band calibration.
//!
//! The §3.2 scanning thread must wake *at* each forward deadline, but an
//! OS sleep primitive only promises to wake *no earlier than* requested —
//! the actual wake-up error is the scheduler's timer slack plus run-queue
//! latency, typically tens of microseconds and spiky under load. The
//! real-time-scheduler literature (INET's RT scheduler, arXiv:1509.03105)
//! resolves this with a hybrid: sleep coarsely to `deadline − guard`,
//! then spin the last `guard` nanoseconds, where `guard` is calibrated
//! online from the wake-up error the host actually exhibits.
//!
//! This module holds the policy taxonomy ([`SleepPolicy`]) and the online
//! calibrator ([`GuardBand`]); the policies are *executed* by the server's
//! scan loop, which owns the condvar and the clock. Everything here is
//! pure arithmetic so both frontends and the tests can exercise it
//! deterministically.

use serde::{Deserialize, Serialize};

/// How the scanning thread waits for the next forward deadline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SleepPolicy {
    /// Plain condvar sleep with a fixed 50 µs floor and 50 ms cap — the
    /// pre-calibration behaviour, kept as the comparison baseline for E16.
    Naive,
    /// Coarse condvar sleep down to the calibrated guard band, then
    /// spin/yield to the deadline (the default).
    #[default]
    Hybrid,
    /// Spin/yield all the way to the deadline; lowest latency, one core
    /// pinned. Condvar-sleeps only while the schedule is empty.
    Spin,
    /// Hybrid while the loop keeps up; once the overload duty cycle over a
    /// sliding window crosses the engage threshold, fall back to coarse
    /// (naive) waits until the duty cycle decays below the disengage
    /// threshold ([`DutyCycle`] hysteresis). Trades wake precision for
    /// throughput exactly when precision is already lost to overload.
    Auto,
}

impl SleepPolicy {
    /// Stable lowercase name, used in CLI flags and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SleepPolicy::Naive => "naive",
            SleepPolicy::Hybrid => "hybrid",
            SleepPolicy::Spin => "spin",
            SleepPolicy::Auto => "auto",
        }
    }
}

impl std::fmt::Display for SleepPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SleepPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(SleepPolicy::Naive),
            "hybrid" => Ok(SleepPolicy::Hybrid),
            "spin" => Ok(SleepPolicy::Spin),
            "auto" => Ok(SleepPolicy::Auto),
            other => Err(format!("unknown sleep policy `{other}` (naive|hybrid|spin|auto)")),
        }
    }
}

/// Online guard-band calibrator.
///
/// Tracks the smoothed wake-up error and its mean deviation with the
/// classic RTO-style EWMA (gains 1/8 and 1/4) and derives the guard band
/// as `srt + 4·var`, clamped to `[min, max]`. A host with tight timers
/// converges to a narrow band (little spinning); a noisy host widens the
/// band so the spin phase still absorbs the oversleep.
#[derive(Debug, Clone)]
pub struct GuardBand {
    srt_ns: u64,
    var_ns: u64,
    min_ns: u64,
    max_ns: u64,
    samples: u64,
}

impl GuardBand {
    /// A calibrator starting at `initial_ns`, clamped to `[min_ns, max_ns]`.
    pub fn new(initial_ns: u64, min_ns: u64, max_ns: u64) -> Self {
        GuardBand {
            srt_ns: initial_ns.clamp(min_ns, max_ns),
            var_ns: initial_ns / 4,
            min_ns,
            max_ns: max_ns.max(min_ns),
            samples: 0,
        }
    }

    /// The server default: start at 200 µs, never narrower than 20 µs
    /// (below timer resolution the spin phase buys nothing) and never
    /// wider than 2 ms (bounds worst-case spin per event).
    pub fn standard() -> Self {
        GuardBand::new(200_000, 20_000, 2_000_000)
    }

    /// Feeds one observed wake-up error (nanoseconds the OS woke us past
    /// the requested instant).
    pub fn observe(&mut self, wake_error_ns: u64) {
        if self.samples == 0 {
            self.srt_ns = wake_error_ns;
            self.var_ns = wake_error_ns / 2;
        } else {
            let err = wake_error_ns as i64 - self.srt_ns as i64;
            self.var_ns = (self.var_ns as i64 + (err.abs() - self.var_ns as i64) / 4).max(0) as u64;
            self.srt_ns = (self.srt_ns as i64 + err / 8).max(0) as u64;
        }
        self.samples += 1;
    }

    /// Ages the estimate when no sample can arrive: `var −= var/8`,
    /// `srt −= srt/16`.
    ///
    /// A band wider than the gap between deadlines leaves the scan loop
    /// nothing but precision-phase spins, and a spin measures no wake-up
    /// error — one late wake-up would otherwise pin a core until traffic
    /// thins out. Called once per such spin, this walks the band back
    /// under the gap within a few deadlines; the first timed wait after
    /// that feeds [`observe`](Self::observe) again, so a host that really
    /// is that sloppy re-widens on its next sample.
    pub fn decay(&mut self) {
        self.var_ns -= self.var_ns / 8;
        self.srt_ns -= self.srt_ns / 16;
    }

    /// The current guard band in nanoseconds: `srt + 4·var`, clamped.
    pub fn current_ns(&self) -> u64 {
        self.srt_ns.saturating_add(self.var_ns.saturating_mul(4)).clamp(self.min_ns, self.max_ns)
    }

    /// Number of wake-up errors observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

impl Default for GuardBand {
    fn default() -> Self {
        GuardBand::standard()
    }
}

/// Overload duty-cycle tracker with hysteresis, driving
/// [`SleepPolicy::Auto`].
///
/// Each scan pass reports whether it found itself overloaded (lag past
/// the overload threshold). The tracker keeps the last `window` booleans
/// in a ring and exposes one engaged/disengaged bit: engaged when the
/// overloaded fraction rises to `engage` (default ½), released only when
/// it decays below `disengage` (default ¼). The gap between the two
/// thresholds prevents mode flapping when the duty cycle hovers near the
/// boundary — the expensive part of a mode switch is the precision loss,
/// so switching must be rarer than the noise.
#[derive(Debug, Clone)]
pub struct DutyCycle {
    ring: Vec<bool>,
    next: usize,
    filled: usize,
    overloaded: usize,
    engage_pct: u32,
    disengage_pct: u32,
    engaged: bool,
}

impl DutyCycle {
    /// A tracker over the last `window` passes with the given percentage
    /// thresholds. `window` is clamped to at least 1, and `disengage_pct`
    /// to below `engage_pct`.
    pub fn new(window: usize, engage_pct: u32, disengage_pct: u32) -> Self {
        let window = window.max(1);
        DutyCycle {
            ring: vec![false; window],
            next: 0,
            filled: 0,
            overloaded: 0,
            engage_pct: engage_pct.max(1),
            disengage_pct: disengage_pct.min(engage_pct.saturating_sub(1)),
            engaged: false,
        }
    }

    /// The server default: a 64-pass window, engage at 50 %, release
    /// below 25 %.
    pub fn standard() -> Self {
        DutyCycle::new(64, 50, 25)
    }

    /// Record one scan pass; returns the (possibly updated) engaged bit.
    pub fn observe(&mut self, overloaded: bool) -> bool {
        if self.filled == self.ring.len() {
            if self.ring[self.next] {
                self.overloaded -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.ring[self.next] = overloaded;
        if overloaded {
            self.overloaded += 1;
        }
        self.next = (self.next + 1) % self.ring.len();

        let pct = self.duty_pct();
        if self.engaged {
            if pct < self.disengage_pct {
                self.engaged = false;
            }
        } else if pct >= self.engage_pct {
            self.engaged = true;
        }
        self.engaged
    }

    /// Whether batch-drain mode is currently engaged.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Overloaded fraction of the observed window, in percent.
    pub fn duty_pct(&self) -> u32 {
        (self.overloaded * 100).checked_div(self.filled).unwrap_or(0) as u32
    }
}

impl Default for DutyCycle {
    fn default() -> Self {
        DutyCycle::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [SleepPolicy::Naive, SleepPolicy::Hybrid, SleepPolicy::Spin, SleepPolicy::Auto] {
            assert_eq!(p.name().parse::<SleepPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        assert!("busywait".parse::<SleepPolicy>().is_err());
        assert_eq!(SleepPolicy::default(), SleepPolicy::Hybrid);
    }

    #[test]
    fn duty_cycle_engages_at_half_and_releases_below_quarter() {
        let mut d = DutyCycle::new(8, 50, 25);
        // 3/8 overloaded: still under the engage threshold.
        for _ in 0..5 {
            assert!(!d.observe(false));
        }
        for _ in 0..3 {
            assert!(!d.observe(true));
        }
        // A 4th overload in the window tips the duty cycle to 50 %.
        assert!(d.observe(true));
        assert_eq!(d.duty_pct(), 50);
        // Hysteresis: a calm pass holds the window at 50 % — engaged.
        assert!(d.observe(false));
        // …only decaying below 25 % releases. Feed calm passes until all
        // but one overloaded entry age out of the ring (1/8 = 12 %).
        for _ in 0..6 {
            d.observe(false);
        }
        assert!(!d.engaged());
        assert_eq!(d.duty_pct(), 12);
    }

    #[test]
    fn duty_cycle_does_not_flap_at_the_boundary() {
        let mut d = DutyCycle::new(4, 50, 25);
        // Alternating passes hold the duty cycle at exactly 50 %: once
        // engaged it must stay engaged (50 % ≥ 25 %), not toggle per pass.
        let mut transitions = 0;
        let mut last = d.observe(true);
        for i in 0..64 {
            let now = d.observe(i % 2 == 0);
            if now != last {
                transitions += 1;
            }
            last = now;
        }
        assert!(last, "alternating load at 50% must keep batch mode engaged");
        assert!(transitions <= 1, "mode flapped {transitions} times");
    }

    #[test]
    fn guard_band_first_sample_seeds_estimate() {
        let mut g = GuardBand::new(500_000, 1_000, 10_000_000);
        assert_eq!(g.current_ns(), 500_000 + 4 * 125_000);
        g.observe(80_000);
        // srt = 80 µs, var = 40 µs → guard = 240 µs.
        assert_eq!(g.current_ns(), 240_000);
        assert_eq!(g.samples(), 1);
    }

    #[test]
    fn guard_band_converges_toward_stable_error() {
        let mut g = GuardBand::new(1_000_000, 1_000, 10_000_000);
        for _ in 0..200 {
            g.observe(50_000);
        }
        // Constant 50 µs error: srt → 50 µs, var → 0, guard → 50 µs-ish.
        let guard = g.current_ns();
        assert!((50_000..150_000).contains(&guard), "guard = {guard}");
    }

    #[test]
    fn guard_band_decays_out_of_a_latch_and_rewidens_on_the_next_sample() {
        const GAP_NS: u64 = 500_000;
        let mut g = GuardBand::standard();
        for _ in 0..50 {
            g.observe(40_000);
        }
        assert!(g.current_ns() < GAP_NS);
        // One 600 µs wake-up pushes the band past the gap between
        // deadlines: from here the loop only spins, and samples stop.
        g.observe(600_000);
        assert!(g.current_ns() > GAP_NS, "guard = {}", g.current_ns());
        let mut spins = 0;
        while g.current_ns() > GAP_NS {
            g.decay();
            spins += 1;
            assert!(spins <= 8, "still {} ns after {spins} spin-only passes", g.current_ns());
        }
        // Ageing never undercuts the clamp, however long the latch lasted.
        let mut aged = g.clone();
        for _ in 0..1_000 {
            aged.decay();
        }
        assert_eq!(aged.current_ns(), 20_000);
        // A host that really wakes 600 µs late widens again at once.
        g.observe(600_000);
        assert!(g.current_ns() > GAP_NS, "guard = {}", g.current_ns());
    }

    #[test]
    fn guard_band_widens_under_jitter_and_respects_clamp() {
        let mut g = GuardBand::new(10_000, 20_000, 300_000);
        // Alternate tight and terrible wake-ups; the band must stay within
        // the configured clamp despite the 5 ms outliers.
        for i in 0..100 {
            g.observe(if i % 2 == 0 { 5_000 } else { 5_000_000 });
        }
        assert_eq!(g.current_ns(), 300_000);
        let tight = GuardBand::new(1, 20_000, 300_000);
        assert_eq!(tight.current_ns(), 20_000);
    }
}

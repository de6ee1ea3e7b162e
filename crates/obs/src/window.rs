//! Sliding-window counters whose rotation is driven by an injectable
//! [`Clock`], so production uses the monotonic clock while tests use a
//! [`VirtualClock`] and get deterministic window counts. The drift
//! monitor is their one user; serving records cumulative counts only,
//! and the reader of `/metrics` derives windows from successive scrapes
//! ([`crate::slo`]).
//!
//! Time is measured in **ticks** (microseconds). A window is `slots`
//! ring slots of `slot_ticks` each; a sample recorded at tick `t`
//! lands in epoch `t / slot_ticks`, which maps to ring slot
//! `epoch % slots`. Rotation is lock-free: the first recorder to find
//! a stale slot CAS-claims it with a sentinel epoch, zeroes it, and
//! release-publishes the new epoch; concurrent recorders for the same
//! epoch spin on the sentinel (a few nanoseconds in practice — the
//! race window is one cache-line zeroing). Late samples for an epoch
//! the ring has already moved past are dropped, never misfiled.
//!
//! A count merges the slots whose epochs fall inside the window, so a
//! frozen [`VirtualClock`] yields exact totals regardless of how many
//! threads recorded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Ticks per second (ticks are microseconds).
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// A monotonic tick source. Windows rotate through it and serving
/// stamps request lifecycles with it, so tests drive both
/// deterministically (lint RA409 enforces the same discipline on the
/// serving request path).
pub trait Clock: Send + Sync {
    /// Microseconds since an arbitrary fixed origin.
    fn now_ticks(&self) -> u64;
}

/// Process start, fixed on first use: the origin for [`MonotonicClock`].
fn process_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Production clock: monotonic microseconds since process start.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_ticks(&self) -> u64 {
        process_origin().elapsed().as_micros() as u64
    }
}

/// Test clock: an atomic tick counter advanced explicitly. Frozen
/// between `advance` calls, so window rotation happens exactly when a
/// test says it does.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: AtomicU64,
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Move time forward by `ticks`.
    pub fn advance(&self, ticks: u64) {
        self.ticks.fetch_add(ticks, Ordering::SeqCst);
    }

    /// Jump to an absolute tick (tests only; never moves backwards in
    /// sanctioned use).
    pub fn set(&self, ticks: u64) {
        self.ticks.store(ticks, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_ticks(&self) -> u64 {
        self.ticks.load(Ordering::SeqCst)
    }
}

/// Shape of one sliding window: `slots` ring slots of `slot_ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Width of one ring slot, in ticks.
    pub slot_ticks: u64,
    /// Number of ring slots; the window covers `slots * slot_ticks`.
    pub slots: usize,
}

impl WindowSpec {
    /// `slots` slots of `slot_ticks` each.
    pub fn new(slot_ticks: u64, slots: usize) -> Self {
        WindowSpec {
            slot_ticks: slot_ticks.max(1),
            slots: slots.max(1),
        }
    }

    /// The serving default: a 60 s window of 1 s slots.
    pub fn serving() -> Self {
        WindowSpec::new(TICKS_PER_SEC, 60)
    }

    /// Window length in seconds.
    pub fn window_s(&self) -> f64 {
        (self.slot_ticks * self.slots as u64) as f64 / TICKS_PER_SEC as f64
    }
}

/// Slot epoch tag values: `0` = never used, [`ROTATING`] = mid-zeroing,
/// anything else = `epoch + 1`.
const EMPTY: u64 = 0;
const ROTATING: u64 = u64::MAX;

#[inline]
fn tag_of(epoch: u64) -> u64 {
    epoch + 1
}

/// Claim `slot_epoch` for `tag`, spinning out concurrent rotators.
/// Returns `true` when the slot now holds `tag` (the caller zeroed it
/// via `zero` if it won the claim), `false` when the slot has already
/// advanced past `tag` (the sample is late: drop it).
fn claim_slot(slot_epoch: &AtomicU64, tag: u64, zero: impl Fn()) -> bool {
    loop {
        let cur = slot_epoch.load(Ordering::Acquire);
        if cur == tag {
            return true;
        }
        if cur == ROTATING {
            std::hint::spin_loop();
            continue;
        }
        if cur != EMPTY && cur > tag {
            // The ring lapped this epoch already; the sample is stale.
            return false;
        }
        if slot_epoch
            .compare_exchange(cur, ROTATING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            zero();
            slot_epoch.store(tag, Ordering::Release);
            return true;
        }
    }
}

/// One ring slot of a [`WindowedCounter`].
#[derive(Debug)]
struct CounterSlot {
    epoch: AtomicU64,
    count: AtomicU64,
}

/// A sliding-window event counter.
pub struct WindowedCounter {
    clock: Arc<dyn Clock>,
    spec: WindowSpec,
    ring: Vec<CounterSlot>,
}

impl WindowedCounter {
    pub fn new(clock: Arc<dyn Clock>, spec: WindowSpec) -> Self {
        WindowedCounter {
            clock,
            spec,
            ring: (0..spec.slots)
                .map(|_| CounterSlot {
                    epoch: AtomicU64::new(EMPTY),
                    count: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Add `n` events at the current tick.
    pub fn add(&self, n: u64) {
        let epoch = self.clock.now_ticks() / self.spec.slot_ticks;
        let slot = &self.ring[(epoch % self.spec.slots as u64) as usize];
        if claim_slot(&slot.epoch, tag_of(epoch), || {
            slot.count.store(0, Ordering::Relaxed)
        }) {
            slot.count.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Events inside the window ending at the current tick.
    pub fn count(&self) -> u64 {
        let now_epoch = self.clock.now_ticks() / self.spec.slot_ticks;
        let oldest = now_epoch.saturating_sub(self.spec.slots as u64 - 1);
        self.ring
            .iter()
            .filter_map(|s| {
                let tag = s.epoch.load(Ordering::Acquire);
                if tag == EMPTY || tag == ROTATING {
                    return None;
                }
                let epoch = tag - 1;
                (epoch >= oldest && epoch <= now_epoch).then(|| s.count.load(Ordering::Relaxed))
            })
            .sum()
    }

    /// Events per second over the window.
    pub fn per_s(&self) -> f64 {
        self.count() as f64 / self.spec.window_s()
    }
}

impl std::fmt::Debug for WindowedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedCounter")
            .field("spec", &self.spec)
            .finish()
    }
}

/// Quantile `q` in `[0, 1]` over per-bucket counts (overflow last),
/// linearly interpolated inside the winning bucket; `0.0` when empty.
/// The overflow bucket reports the last bound. The one quantile
/// algorithm: cumulative histograms and the `/metrics` reader's bucket
/// deltas ([`crate::slo`]) both use it.
pub fn quantile_from_counts(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let top = bounds.last().copied().unwrap_or(0.0);
    let rank = (q.clamp(0.0, 1.0) * (total.saturating_sub(1)) as f64).round() as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if rank < seen + c {
            let hi = match bounds.get(i) {
                Some(&b) => b,
                // The overflow bucket has no upper edge; clamp to the top bound.
                None => return top,
            };
            let lo = if i == 0 {
                0.0
            } else {
                bounds.get(i - 1).copied().unwrap_or(0.0)
            };
            let frac = (rank - seen + 1) as f64 / c as f64;
            return lo + (hi - lo) * frac;
        }
        seen += c;
    }
    top
}

/// Population stability index between two bucketed distributions with
/// identical bucketing. Laplace-smoothed so empty buckets contribute a
/// finite term; `0.0` when either side has no mass. Conventional
/// reading: `< 0.1` stable, `0.1–0.25` drifting, `> 0.25` shifted.
pub fn psi(reference: &[u64], live: &[u64]) -> f64 {
    let n = reference.len().min(live.len());
    if n == 0 {
        return 0.0;
    }
    let ref_total: u64 = reference[..n].iter().sum();
    let live_total: u64 = live[..n].iter().sum();
    if ref_total == 0 || live_total == 0 {
        return 0.0;
    }
    let smooth = 0.5;
    let ref_denom = ref_total as f64 + smooth * n as f64;
    let live_denom = live_total as f64 + smooth * n as f64;
    let mut score = 0.0;
    for i in 0..n {
        let p_ref = (reference[i] as f64 + smooth) / ref_denom;
        let p_live = (live[i] as f64 + smooth) / live_denom;
        score += (p_live - p_ref) * (p_live / p_ref).ln();
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vclock() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::new())
    }

    #[test]
    fn counter_window_expires_exactly() {
        let clock = vclock();
        let c = WindowedCounter::new(clock.clone(), WindowSpec::new(10, 4));
        c.add(3);
        assert_eq!(c.count(), 3);
        // Advance to the last slot still covering the sample's epoch.
        clock.advance(30);
        c.inc();
        assert_eq!(c.count(), 4, "window still covers epoch 0");
        // One more slot: epoch 0 falls off, epoch 3 stays.
        clock.advance(10);
        assert_eq!(c.count(), 1, "epoch 0 expired exactly at +4 slots");
        // Far future: everything expired.
        clock.advance(1000);
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn counter_ring_reuses_slots() {
        let clock = vclock();
        let c = WindowedCounter::new(clock.clone(), WindowSpec::new(10, 2));
        c.add(5); // epoch 0 → slot 0
        clock.advance(20); // epoch 2 → slot 0 again
        c.add(7);
        assert_eq!(c.count(), 7, "slot reuse zeroed the stale epoch");
        assert!((c.per_s() - 7.0 / (20.0 / TICKS_PER_SEC as f64)).abs() < 1e-6);
    }

    #[test]
    fn late_samples_are_dropped_not_misfiled() {
        let clock = vclock();
        let c = WindowedCounter::new(clock.clone(), WindowSpec::new(10, 2));
        clock.set(50); // epoch 5 → slot 1
        c.add(2);
        // A recorder reading a stale clock value cannot happen through
        // the shared clock, but a lapped slot can: epoch 5's slot is
        // reused for epoch 7. Claiming for epoch 5 after that must fail.
        let slot = &c.ring[1];
        assert!(claim_slot(&slot.epoch, tag_of(7), || {
            slot.count.store(0, Ordering::Relaxed)
        }));
        assert!(
            !claim_slot(&slot.epoch, tag_of(5), || slot
                .count
                .store(0, Ordering::Relaxed)),
            "stale epoch must not reclaim a lapped slot"
        );
    }

    #[test]
    fn concurrent_records_sum_exactly_under_frozen_clock() {
        let clock = vclock();
        let c = Arc::new(WindowedCounter::new(clock.clone(), WindowSpec::serving()));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..5_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.count(), 40_000);
    }

    #[test]
    fn psi_orders_shifted_above_stable() {
        let reference = [100u64, 400, 400, 100];
        let stable = [26u64, 99, 101, 24];
        let shifted = [5u64, 20, 100, 125];
        let s0 = psi(&reference, &stable);
        let s1 = psi(&reference, &shifted);
        assert!(s0 < 0.1, "in-distribution PSI {s0} should be stable");
        assert!(s1 > 0.25, "shifted PSI {s1} should flag");
        assert_eq!(psi(&[], &[]), 0.0);
        assert_eq!(psi(&reference, &[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock;
        let a = c.now_ticks();
        let b = c.now_ticks();
        assert!(b >= a);
    }
}

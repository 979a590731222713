//! Fleet-scale continuous re-verification (the PIANO *continuum*).
//!
//! The paper's conclusion (Sec. VII) sketches continuous authentication:
//! a granted session should stay granted only while proximity keeps
//! holding. This module implements that policy loop at fleet scale,
//! built from three pieces:
//!
//! * [`TickWheel`] — a hierarchical timer wheel over abstract `u64`
//!   ticks. [`WHEEL_LEVELS`] cascading levels of [`WHEEL_SLOTS`] slots
//!   each cover a geometrically coarsening horizon (level `l` has slot
//!   granularity `256^l` ticks), so arming, lazy cancellation, and
//!   advancing are all O(1) amortized regardless of population — the
//!   generalization of the single-level hashed wheel the reactor uses
//!   for connection deadlines (`crates/net/src/wheel.rs` is now a thin
//!   clock-bearing adapter over this type). A million standing sessions
//!   are a million wheel entries; a tick advance touches only the slots
//!   the cursor crosses.
//!
//! * [`Continuum`] — the standing-session registry plus the **batched
//!   re-check engine**. Sessions due in the same tick are grouped by
//!   scan group and re-verified through *one* shared coarse pass over
//!   one hub recording via the [`AuthService`] scan-group machinery:
//!   the `detect_many` trick (one FFT sweep, many signatures) applied
//!   to re-verification. [`Continuum::recheck_via`] is the sequential
//!   reference — one member per private scan epoch over the same hub —
//!   and the batched engine is conformance-pinned bit-identical to it.
//!
//! * [`RiskPolicy`] — deterministic risk-adaptive periods. A marginal
//!   distance estimate (close to the threshold) shortens the next
//!   recheck interval; a strong one lengthens it; denials clamp it to
//!   the floor and a configurable run of them locks the session.
//!   Periods carry seeded, clock-free jitter so a fleet armed in one
//!   burst does not re-converge on one tick forever. Everything here is
//!   a pure function of (policy, key, check count, decision): no wall
//!   clock, no address-sensitive containers — the module sits in the
//!   decision-determinism lint scope and must replay bit-exactly.
//!
//! Wire-level re-challenge (`Message::Recheck` and friends) lives in
//! `crates/net`: the gateway re-verifies standing *remote* feeds over
//! their live connections using the same scan-epoch shape this module
//! drives for in-process sessions.

use std::collections::BTreeMap;

use rand_chacha::ChaCha8Rng;

use crate::error::PianoError;
use crate::piano::AuthDecision;
use crate::stream::{AuthService, SessionId};
use crate::wire::Message;

/// Number of cascading wheel levels. Level `l` has slot granularity
/// `WHEEL_SLOTS^l` ticks, so four levels cover `256^4 ≈ 4.3 × 10^9`
/// ticks before the top level starts round-counting — with a 1 s tick
/// that is ~136 years of horizon, and far-future deadlines beyond it
/// simply survive extra top-level rotations.
pub const WHEEL_LEVELS: usize = 4;

/// Slots per wheel level.
pub const WHEEL_SLOTS: usize = 256;

/// Bits of tick resolution one level spans (`log2(WHEEL_SLOTS)`).
const SLOT_BITS: u32 = 8;

#[derive(Clone, Copy, Debug)]
struct TickEntry<K> {
    /// Absolute expiry tick.
    at_tick: u64,
    /// Monotone arm sequence — the deterministic tiebreak for entries
    /// expiring on the same tick, preserved across cascades.
    seq: u64,
    key: K,
}

/// A hierarchical timer wheel over abstract `u64` ticks.
///
/// Pure bookkeeping: the wheel never reads a clock. The caller defines
/// what a tick means (the reactor adapter maps wall-clock instants onto
/// ticks; [`Continuum`] maps simulation seconds) and drives
/// [`advance`](Self::advance) with its own monotone `now`.
///
/// Properties (unit- and property-tested below against a naive sorted
/// list):
///
/// * **Never early, never lost** — an entry fires on the first
///   `advance(now)` with `now >= at_tick`, exactly once.
/// * **Deterministic order** — fired keys come out sorted by
///   `(at_tick, arm order)`.
/// * **O(1) amortized** — arming appends to one slot; an entry cascades
///   to a finer level at most [`WHEEL_LEVELS`]` - 1` times in its life;
///   an advance sweeps only the slots its cursor crosses (at most one
///   rotation per level, after which every slot has been visited once).
/// * **Lazy cancellation** — callers pair keys with a generation
///   counter and ignore stale firings; the wheel never searches for an
///   entry to delete.
#[derive(Debug)]
pub struct TickWheel<K> {
    /// `levels[l][slot]` holds entries whose expiry hashes there.
    levels: Vec<Vec<Vec<TickEntry<K>>>>,
    /// Per-level absolute index of the next unswept slot. `cursors[0]`
    /// is the next unswept tick: every stored entry has
    /// `at_tick >= cursors[0]`.
    cursors: [u64; WHEEL_LEVELS],
    /// Live entry count (stale-generation entries included — they are
    /// still stored until they fire).
    armed: usize,
    /// Next arm sequence number.
    seq: u64,
}

impl<K: Copy> TickWheel<K> {
    /// An empty wheel with its cursor at tick 0.
    pub fn new() -> Self {
        TickWheel {
            levels: (0..WHEEL_LEVELS)
                .map(|_| (0..WHEEL_SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            cursors: [0; WHEEL_LEVELS],
            armed: 0,
            seq: 0,
        }
    }

    /// Number of stored entries (including lazily cancelled ones).
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// The next unswept tick: every stored entry expires at or after it.
    pub fn cursor(&self) -> u64 {
        self.cursors[0]
    }

    /// Arms `key` to fire at `at_tick` (clamped to the cursor, so a
    /// deadline in the swept past fires on the next advance).
    pub fn insert(&mut self, at_tick: u64, key: K) {
        let at = at_tick.max(self.cursors[0]);
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.armed += 1;
        self.place(TickEntry {
            at_tick: at,
            seq,
            key,
        });
    }

    /// Files an entry at the finest level whose span still covers its
    /// delay, preserving its sequence number (used by both fresh arms
    /// and cascades).
    fn place(&mut self, e: TickEntry<K>) {
        let delta = e.at_tick - self.cursors[0].min(e.at_tick);
        let mut level = WHEEL_LEVELS - 1;
        for l in 0..WHEEL_LEVELS {
            // span(l) = WHEEL_SLOTS^(l+1) ticks.
            if (delta >> (SLOT_BITS * (l as u32 + 1))) == 0 {
                level = l;
                break;
            }
        }
        let slot = ((e.at_tick >> (SLOT_BITS * level as u32)) % WHEEL_SLOTS as u64) as usize;
        if let Some(bucket) = self.levels.get_mut(level).and_then(|s| s.get_mut(slot)) {
            bucket.push(e);
        }
    }

    /// A lower bound on the earliest stored expiry, for sleep bounding;
    /// `None` when the wheel is empty. Worst case this scans every
    /// non-pruned slot in one rotation per level — cheap at deadline
    /// populations (the reactor's), and unused by the bulk scheduling
    /// path, which drives `advance` directly.
    pub fn next_tick(&self) -> Option<u64> {
        if self.armed == 0 {
            return None;
        }
        let mut best = u64::MAX;
        for (l, slots) in self.levels.iter().enumerate() {
            let shift = SLOT_BITS * l as u32;
            let start = self.cursors.get(l).copied().unwrap_or(0);
            for s in start..start.saturating_add(WHEEL_SLOTS as u64) {
                // Entries in slot `s` expire at or after its base tick;
                // once that base passes the best found, stop this level.
                if s.checked_shl(shift).is_none_or(|base| base >= best) {
                    break;
                }
                if let Some(bucket) = slots.get((s % WHEEL_SLOTS as u64) as usize) {
                    for e in bucket {
                        best = best.min(e.at_tick);
                    }
                }
            }
        }
        if best == u64::MAX {
            // All entries sit beyond one rotation of their level; the
            // cursor still lower-bounds them.
            best = self.cursors[0];
        }
        Some(best.max(self.cursors[0]))
    }

    /// Sweeps every slot the cursor crosses up to `now_tick`, firing due
    /// entries in `(at_tick, arm order)` order and cascading not-yet-due
    /// entries whose slot has been reached down to finer levels.
    pub fn advance(&mut self, now_tick: u64) -> Vec<K> {
        if now_tick < self.cursors[0] {
            return Vec::new();
        }
        if self.armed == 0 {
            for (l, c) in self.cursors.iter_mut().enumerate() {
                *c = (now_tick >> (SLOT_BITS * l as u32)).saturating_add(1);
            }
            return Vec::new();
        }
        let mut fired: Vec<TickEntry<K>> = Vec::new();
        let mut cascades: Vec<TickEntry<K>> = Vec::new();
        for l in 0..WHEEL_LEVELS {
            let shift = SLOT_BITS * l as u32;
            let target = now_tick >> shift;
            let start = self.cursors[l];
            if target < start {
                continue;
            }
            // At most one rotation: beyond it every slot has been
            // visited once and later-rotation entries are retained by
            // the `at_tick` comparison anyway.
            let end = target.min(start.saturating_add(WHEEL_SLOTS as u64));
            for s in start..=end {
                let Some(bucket) = self
                    .levels
                    .get_mut(l)
                    .and_then(|v| v.get_mut((s % WHEEL_SLOTS as u64) as usize))
                else {
                    continue;
                };
                if bucket.is_empty() {
                    continue;
                }
                let mut kept = Vec::new();
                for e in bucket.drain(..) {
                    if e.at_tick <= now_tick {
                        fired.push(e);
                    } else if (e.at_tick >> shift) <= target {
                        // The cursor reached (or passed) this entry's
                        // own slot but the entry is not yet due: its
                        // remaining delay is under one slot of this
                        // level, so it re-files at a strictly finer
                        // level once the cursors move.
                        cascades.push(e);
                    } else {
                        kept.push(e);
                    }
                }
                *bucket = kept;
            }
            self.cursors[l] = target.saturating_add(1);
        }
        self.armed -= fired.len();
        for e in cascades {
            self.place(e);
        }
        fired.sort_by_key(|e| (e.at_tick, e.seq));
        fired.into_iter().map(|e| e.key).collect()
    }
}

impl<K: Copy> Default for TickWheel<K> {
    fn default() -> Self {
        TickWheel::new()
    }
}

/// Deterministic risk-adaptive recheck periods.
///
/// All transitions are pure functions of the policy, the standing key,
/// the check count, and the decision — replaying a fleet replays its
/// schedule bit-exactly. The rules, applied after every re-check:
///
/// | outcome | effect on the next period |
/// |---|---|
/// | granted, margin ≥ `strong_margin` | `period × lengthen`, clamped to `max_period_s` |
/// | granted, margin < `marginal_margin` | `period × shorten`, clamped to `min_period_s` |
/// | granted, margin in between | unchanged |
/// | denied, streak < `denials_to_lock` | `min_period_s` (re-verify urgently) |
/// | denied, streak = `denials_to_lock` | session locks; nothing is re-armed |
///
/// where `margin = (threshold − distance) / threshold` for a granted
/// decision (1 means the voucher is on top of the authenticator, 0
/// means it sits exactly at the threshold). A grant resets the denial
/// streak. The re-armed deadline is `now + period × jitter(key, checks)`
/// with jitter drawn from a seeded splitmix64 stream in
/// `[1 − jitter_frac, 1 + jitter_frac)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RiskPolicy {
    /// Period a session starts on, in (simulated) seconds.
    pub base_period_s: f64,
    /// Floor for shortened periods.
    pub min_period_s: f64,
    /// Ceiling for lengthened periods.
    pub max_period_s: f64,
    /// Grants with margin below this shorten the period.
    pub marginal_margin: f64,
    /// Grants with margin at or above this lengthen the period.
    pub strong_margin: f64,
    /// Multiplier applied when shortening (in (0, 1)).
    pub shorten: f64,
    /// Multiplier applied when lengthening (> 1).
    pub lengthen: f64,
    /// Consecutive denials required to lock (≥ 1).
    pub denials_to_lock: u32,
    /// Half-width of the multiplicative schedule jitter (0 disables).
    pub jitter_frac: f64,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
}

impl Default for RiskPolicy {
    fn default() -> Self {
        RiskPolicy {
            base_period_s: 60.0,
            min_period_s: 5.0,
            max_period_s: 900.0,
            marginal_margin: 0.25,
            strong_margin: 0.5,
            shorten: 0.5,
            lengthen: 2.0,
            denials_to_lock: 2,
            jitter_frac: 0.05,
            jitter_seed: 0x5EED_C047_1400_11AA,
        }
    }
}

/// splitmix64: the standard 64-bit finalizer-style mixer — a pure,
/// seedable stream good enough to decorrelate schedule phases, with no
/// clock and no allocation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RiskPolicy {
    /// Validates the policy's invariants.
    ///
    /// # Errors
    ///
    /// [`PianoError::InvalidConfig`] naming the first violated bound.
    pub fn validate(&self) -> Result<(), PianoError> {
        let fin = |v: f64| v.is_finite() && v > 0.0;
        if !fin(self.base_period_s) || !fin(self.min_period_s) || !fin(self.max_period_s) {
            return Err(PianoError::InvalidConfig(
                "risk policy periods must be positive and finite".into(),
            ));
        }
        if self.min_period_s > self.base_period_s || self.base_period_s > self.max_period_s {
            return Err(PianoError::InvalidConfig(
                "risk policy needs min_period_s <= base_period_s <= max_period_s".into(),
            ));
        }
        if !(self.shorten > 0.0 && self.shorten < 1.0) {
            return Err(PianoError::InvalidConfig(
                "risk policy shorten factor must be in (0, 1)".into(),
            ));
        }
        if !(self.lengthen > 1.0 && self.lengthen.is_finite()) {
            return Err(PianoError::InvalidConfig(
                "risk policy lengthen factor must be finite and > 1".into(),
            ));
        }
        if !(self.marginal_margin >= 0.0 && self.marginal_margin <= self.strong_margin) {
            return Err(PianoError::InvalidConfig(
                "risk policy needs 0 <= marginal_margin <= strong_margin".into(),
            ));
        }
        if self.denials_to_lock == 0 {
            return Err(PianoError::InvalidConfig(
                "risk policy needs at least one denial to lock".into(),
            ));
        }
        if !(self.jitter_frac >= 0.0 && self.jitter_frac < 1.0) {
            return Err(PianoError::InvalidConfig(
                "risk policy jitter_frac must be in [0, 1)".into(),
            ));
        }
        Ok(())
    }

    /// The next recheck period after a decision, per the table above.
    /// Pure; denials return the floor (the lock transition is the
    /// registry's job, which also tracks the streak).
    pub fn next_period_s(&self, period_s: f64, decision: &AuthDecision, threshold_m: f64) -> f64 {
        match decision {
            AuthDecision::Granted { distance_m } => {
                let margin = if threshold_m > 0.0 {
                    (threshold_m - distance_m) / threshold_m
                } else {
                    0.0
                };
                if margin >= self.strong_margin {
                    (period_s * self.lengthen).min(self.max_period_s)
                } else if margin < self.marginal_margin {
                    (period_s * self.shorten).max(self.min_period_s)
                } else {
                    period_s
                }
            }
            AuthDecision::Denied { .. } => self.min_period_s,
        }
    }

    /// The multiplicative schedule jitter for a session's next arm:
    /// deterministic in `(jitter_seed, key, checks)`.
    pub fn jitter(&self, key: u64, checks: u64) -> f64 {
        if self.jitter_frac == 0.0 {
            return 1.0;
        }
        let h = splitmix64(
            self.jitter_seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ checks.rotate_left(17),
        );
        // 53 uniform mantissa bits in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.jitter_frac * (2.0 * unit - 1.0)
    }
}

/// State of a standing session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandingState {
    /// Proximity keeps holding; access remains granted.
    Active,
    /// The configured run of denials locked the session out.
    Locked,
}

/// Handle to a session owned by a [`Continuum`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StandingKey(pub u64);

/// One standing session: policy counters plus its wheel arm.
#[derive(Clone, Debug)]
pub struct StandingSession {
    policy: RiskPolicy,
    state: StandingState,
    group: u32,
    consecutive_denials: u32,
    checks: u64,
    period_s: f64,
    next_check_s: f64,
    /// Lazy-cancellation generation: wheel firings carrying an older
    /// generation are ignored.
    gen: u64,
}

impl StandingSession {
    /// Current state.
    pub fn state(&self) -> StandingState {
        self.state
    }

    /// Scan-group label the session re-checks under.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// Re-verifications performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Current adaptive recheck period.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Scheduled time of the next re-verification.
    pub fn next_check_s(&self) -> f64 {
        self.next_check_s
    }
}

/// Sessions of one scan group due in the same advance, in firing order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DueBatch {
    /// The group label shared by every member.
    pub group: u32,
    /// Due members, earliest deadline first.
    pub members: Vec<StandingKey>,
}

/// One member of an in-flight recheck epoch: the service session opened
/// for it and the Step II challenge that session emitted. The host
/// relays the challenge to the member's voucher (in simulation: embeds
/// the reconstructed signals into the shared hub recording) and answers
/// with the voucher's time-difference report.
#[derive(Clone, Debug)]
pub struct RecheckSession {
    /// The standing session being re-verified.
    pub key: StandingKey,
    /// The per-epoch service session.
    pub id: SessionId,
    /// The wire session id the challenge and report carry.
    pub wire_session: u64,
    /// The `Message::ReferenceSignals` challenge.
    pub challenge: Message,
}

/// Outcome of one member's re-check within a batch.
#[derive(Clone, Debug)]
pub struct RecheckOutcome {
    /// The standing session.
    pub key: StandingKey,
    /// The protocol decision for this round.
    pub decision: AuthDecision,
    /// The session's state after applying the policy.
    pub state: StandingState,
}

/// The standing-session registry: a [`TickWheel`] arming every session's
/// next re-check plus the batched re-check engine over an
/// [`AuthService`].
///
/// The flow per advance:
///
/// 1. [`due`](Self::due) sweeps the wheel and groups due sessions by
///    scan-group label.
/// 2. [`begin_recheck`](Self::begin_recheck) opens one service session
///    per member (one scan epoch for the whole batch) and returns each
///    member's challenge.
/// 3. The host synthesizes (or records) ONE shared hub recording
///    carrying every member's signals, collects the vouchers'
///    time-difference reports, and calls
///    [`complete_recheck`](Self::complete_recheck): one coarse scan
///    pass re-verifies the entire batch, and each member's policy
///    transition re-arms the wheel.
///
/// The registry stores sessions in a `BTreeMap` and never reads a
/// clock: iteration order, wheel order, and policy jitter are all
/// deterministic, so identical inputs replay identical schedules.
#[derive(Debug, Default)]
pub struct Continuum {
    sessions: BTreeMap<u64, StandingSession>,
    wheel: TickWheel<(u64, u64)>,
    /// Tick resolution, in the host's (simulated) seconds.
    tick_s: f64,
    next_key: u64,
    standing: usize,
}

impl Continuum {
    /// An empty registry with `tick_s` seconds per wheel tick.
    ///
    /// # Errors
    ///
    /// [`PianoError::InvalidConfig`] unless `tick_s` is positive and
    /// finite.
    pub fn new(tick_s: f64) -> Result<Self, PianoError> {
        if !(tick_s.is_finite() && tick_s > 0.0) {
            return Err(PianoError::InvalidConfig(
                "continuum tick must be positive and finite".into(),
            ));
        }
        Ok(Continuum {
            sessions: BTreeMap::new(),
            wheel: TickWheel::new(),
            tick_s,
            next_key: 0,
            standing: 0,
        })
    }

    /// Sessions owned (standing or locked).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the registry owns no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Sessions still standing (not locked, not removed).
    pub fn standing(&self) -> usize {
        self.standing
    }

    /// Entries currently stored in the wheel (stale arms included).
    pub fn armed(&self) -> usize {
        self.wheel.armed()
    }

    /// Read access to a session.
    pub fn session(&self, key: StandingKey) -> Option<&StandingSession> {
        self.sessions.get(&key.0)
    }

    /// The wheel tick containing `t_s`, rounded up so an arm never fires
    /// before its deadline.
    fn tick_of(&self, t_s: f64) -> u64 {
        ((t_s / self.tick_s) as u64).saturating_add(1)
    }

    /// Opens a standing session under `policy` in scan group `group`,
    /// arming its first re-check at `now_s + base period × jitter`.
    ///
    /// # Errors
    ///
    /// [`PianoError::InvalidConfig`] for an invalid policy or a
    /// non-finite `now_s`.
    pub fn open(
        &mut self,
        policy: RiskPolicy,
        group: u32,
        now_s: f64,
    ) -> Result<StandingKey, PianoError> {
        policy.validate()?;
        if !now_s.is_finite() || now_s < 0.0 {
            return Err(PianoError::InvalidConfig(format!(
                "continuum open time must be finite and non-negative, got {now_s}"
            )));
        }
        let key = StandingKey(self.next_key);
        self.next_key += 1;
        let period = policy.base_period_s;
        let next = now_s + period * policy.jitter(key.0, 0);
        let session = StandingSession {
            policy,
            state: StandingState::Active,
            group,
            consecutive_denials: 0,
            checks: 0,
            period_s: period,
            next_check_s: next,
            gen: 0,
        };
        let at = self.tick_of(next);
        self.wheel.insert(at, (key.0, 0));
        self.sessions.insert(key.0, session);
        self.standing += 1;
        Ok(key)
    }

    /// Removes a session, cancelling its arm lazily (the wheel entry
    /// goes stale and is ignored when it fires).
    ///
    /// # Errors
    ///
    /// [`PianoError::Schedule`] if the key was never issued or already
    /// removed.
    pub fn remove(&mut self, key: StandingKey) -> Result<StandingSession, PianoError> {
        let session = self.sessions.remove(&key.0).ok_or_else(|| {
            PianoError::Schedule(format!("remove of unknown or removed standing key {key:?}"))
        })?;
        if session.state == StandingState::Active {
            self.standing -= 1;
        }
        Ok(session)
    }

    /// Sweeps the wheel up to `now_s` and returns the due sessions
    /// grouped by scan-group label (batches ordered by label, members
    /// by firing order). Stale arms — removed sessions, superseded
    /// generations, locked sessions — are discarded here.
    ///
    /// Every returned member is *unarmed* until
    /// [`complete_recheck`](Self::complete_recheck) (or
    /// [`rearm`](Self::rearm)) runs its policy transition; dropping a
    /// batch on the floor parks its members forever.
    pub fn due(&mut self, now_s: f64) -> Vec<DueBatch> {
        let now_tick = (now_s / self.tick_s) as u64;
        let fired = self.wheel.advance(now_tick);
        let mut batches: BTreeMap<u32, Vec<StandingKey>> = BTreeMap::new();
        for (raw, gen) in fired {
            let Some(session) = self.sessions.get(&raw) else {
                continue;
            };
            if session.gen != gen || session.state != StandingState::Active {
                continue;
            }
            batches
                .entry(session.group)
                .or_default()
                .push(StandingKey(raw));
        }
        batches
            .into_iter()
            .map(|(group, members)| DueBatch { group, members })
            .collect()
    }

    /// Re-arms a due session without re-checking it (a host shedding
    /// load under pressure still keeps the schedule alive).
    ///
    /// # Errors
    ///
    /// [`PianoError::Schedule`] for unknown keys or locked sessions.
    pub fn rearm(&mut self, key: StandingKey, now_s: f64) -> Result<(), PianoError> {
        let tick;
        {
            let session = self.sessions.get_mut(&key.0).ok_or_else(|| {
                PianoError::Schedule(format!("rearm of unknown standing key {key:?}"))
            })?;
            if session.state != StandingState::Active {
                return Err(PianoError::Schedule(format!(
                    "rearm of locked standing key {key:?}"
                )));
            }
            session.gen += 1;
            session.next_check_s =
                now_s + session.period_s * session.policy.jitter(key.0, session.checks);
            tick = session.next_check_s;
        }
        let at = self.tick_of(tick);
        if let Some(session) = self.sessions.get(&key.0) {
            self.wheel.insert(at, (key.0, session.gen));
        }
        Ok(())
    }

    /// Applies one re-check decision to a session: advances the denial
    /// streak, adapts the period per its [`RiskPolicy`], and re-arms the
    /// wheel (unless the session locks). Returns the new state.
    ///
    /// # Errors
    ///
    /// [`PianoError::Schedule`] for unknown keys, locked sessions, or a
    /// non-finite `now_s`.
    pub fn apply_outcome(
        &mut self,
        key: StandingKey,
        decision: &AuthDecision,
        threshold_m: f64,
        now_s: f64,
    ) -> Result<StandingState, PianoError> {
        if !now_s.is_finite() || now_s < 0.0 {
            return Err(PianoError::Schedule(format!(
                "apply_outcome time must be finite and non-negative, got {now_s}"
            )));
        }
        let (state, rearm_at) = {
            let session = self.sessions.get_mut(&key.0).ok_or_else(|| {
                PianoError::Schedule(format!(
                    "apply_outcome for unknown or removed standing key {key:?}"
                ))
            })?;
            if session.state != StandingState::Active {
                return Err(PianoError::Schedule(format!(
                    "apply_outcome for locked standing key {key:?}"
                )));
            }
            session.checks += 1;
            match decision {
                AuthDecision::Granted { .. } => session.consecutive_denials = 0,
                AuthDecision::Denied { .. } => session.consecutive_denials += 1,
            }
            if session.consecutive_denials >= session.policy.denials_to_lock {
                session.state = StandingState::Locked;
                (StandingState::Locked, None)
            } else {
                session.period_s =
                    session
                        .policy
                        .next_period_s(session.period_s, decision, threshold_m);
                session.gen += 1;
                session.next_check_s =
                    now_s + session.period_s * session.policy.jitter(key.0, session.checks);
                (
                    StandingState::Active,
                    Some((session.next_check_s, session.gen)),
                )
            }
        };
        match rearm_at {
            Some((next, gen)) => {
                let at = self.tick_of(next);
                self.wheel.insert(at, (key.0, gen));
            }
            None => self.standing -= 1,
        }
        Ok(state)
    }

    /// Opens one re-check scan epoch for a due batch: one service
    /// session per member (all in one scan group, so the later audio
    /// pass is ONE coarse scan for the whole batch), returning each
    /// member's challenge in member order.
    ///
    /// Call between scan epochs only — the service's group audio must
    /// not have started (the same contract every scan-group host obeys).
    ///
    /// # Errors
    ///
    /// [`PianoError::Schedule`] for unknown or locked members, or if a
    /// session produced no challenge.
    pub fn begin_recheck(
        &mut self,
        service: &mut AuthService,
        members: &[StandingKey],
        rng: &mut ChaCha8Rng,
    ) -> Result<Vec<RecheckSession>, PianoError> {
        let mut batch = Vec::with_capacity(members.len());
        for &key in members {
            let session = self.sessions.get(&key.0).ok_or_else(|| {
                PianoError::Schedule(format!("recheck of unknown standing key {key:?}"))
            })?;
            if session.state != StandingState::Active {
                return Err(PianoError::Schedule(format!(
                    "recheck of locked standing key {key:?}"
                )));
            }
            let id = service.open_session(false, rng);
            let challenge = service.poll_transmit(id).ok_or_else(|| {
                PianoError::Schedule(format!("recheck session {id:?} produced no challenge"))
            })?;
            let wire_session = match &challenge {
                Message::ReferenceSignals { session, .. } => *session,
                other => {
                    return Err(PianoError::Schedule(format!(
                        "recheck session {id:?} emitted {other:?} instead of a challenge"
                    )))
                }
            };
            batch.push(RecheckSession {
                key,
                id,
                wire_session,
                challenge,
            });
        }
        Ok(batch)
    }

    /// Completes a re-check epoch: routes each member's vouch report,
    /// streams the ONE shared hub recording through the service (one
    /// coarse pass re-verifies every member), then applies each member's
    /// policy transition and re-arms the wheel. Epoch sessions are
    /// closed on the way out. Returns per-member outcomes in member
    /// order.
    ///
    /// Decisions are bit-identical to running each member alone through
    /// [`Continuum::recheck_via`] over the same hub recording — the
    /// conformance pin lives in `tests/continuum_conformance.rs`.
    ///
    /// # Errors
    ///
    /// [`PianoError::Schedule`] if report and batch lengths disagree or
    /// a member failed to conclude; any [`PianoError`] the service
    /// surfaces while routing reports.
    pub fn complete_recheck(
        &mut self,
        service: &mut AuthService,
        batch: &[RecheckSession],
        vouch_diffs: &[f64],
        hub: &[f64],
        chunk: usize,
        now_s: f64,
    ) -> Result<Vec<RecheckOutcome>, PianoError> {
        if batch.len() != vouch_diffs.len() {
            return Err(PianoError::Schedule(format!(
                "recheck batch has {} members but {} reports",
                batch.len(),
                vouch_diffs.len()
            )));
        }
        let threshold_m = service.config().threshold_m;
        for (member, &diff) in batch.iter().zip(vouch_diffs) {
            service.handle_message(
                member.id,
                Message::TimeDiffReport {
                    session: member.wire_session,
                    vouch_diff_samples: Some(diff),
                },
            )?;
        }
        for piece in hub.chunks(chunk.max(1)) {
            service.push_audio(piece);
        }
        service.finish_audio();
        let mut outcomes = Vec::with_capacity(batch.len());
        for member in batch {
            let decision = service.decision(member.id).cloned().ok_or_else(|| {
                PianoError::Schedule(format!(
                    "recheck session {:?} did not conclude (missing report or scan)",
                    member.id
                ))
            })?;
            service.close_session(member.id);
            let state = self.apply_outcome(member.key, &decision, threshold_m, now_s)?;
            outcomes.push(RecheckOutcome {
                key: member.key,
                decision,
                state,
            });
        }
        Ok(outcomes)
    }

    /// The sequential reference for [`complete_recheck`](Self::complete_recheck):
    /// re-verifies ONE member of a batch through its own *private* scan
    /// epoch over the same hub recording.
    ///
    /// The caller hands a *fresh* service (same configuration) and a
    /// clone of the RNG the batched epoch consumed: this opens the same
    /// `group_size` sessions (identical draws → identical signals),
    /// closes every session except `member`'s, and scans the hub with
    /// only that member's signatures in the group. Per-signature scan
    /// independence makes the batched decisions bit-identical to this
    /// path — exactly the guarantee the `detect_many` conformance suite
    /// pins for one-shot detection.
    ///
    /// Pure with respect to `self` (it is a reference implementation,
    /// not a scheduling operation): no policy transition runs and no
    /// wheel arm moves.
    ///
    /// # Errors
    ///
    /// [`PianoError::Schedule`] for an out-of-range `member` index or a
    /// session that failed to conclude; service errors pass through.
    pub fn recheck_via(
        service: &mut AuthService,
        rng: &mut ChaCha8Rng,
        group_size: usize,
        member: usize,
        vouch_diff_samples: f64,
        hub: &[f64],
        chunk: usize,
    ) -> Result<AuthDecision, PianoError> {
        if member >= group_size {
            return Err(PianoError::Schedule(format!(
                "recheck_via member {member} out of range for group of {group_size}"
            )));
        }
        let ids: Vec<SessionId> = (0..group_size)
            .map(|_| service.open_session(false, rng))
            .collect();
        let mut kept = None;
        for (i, &id) in ids.iter().enumerate() {
            if i == member {
                kept = Some(id);
            } else {
                service.close_session(id);
            }
        }
        let id = kept.ok_or_else(|| {
            PianoError::Schedule(format!(
                "recheck_via member {member} missing from its own epoch"
            ))
        })?;
        let challenge = service.poll_transmit(id).ok_or_else(|| {
            PianoError::Schedule(format!("recheck session {id:?} produced no challenge"))
        })?;
        let wire_session = match &challenge {
            Message::ReferenceSignals { session, .. } => *session,
            other => {
                return Err(PianoError::Schedule(format!(
                    "recheck session {id:?} emitted {other:?} instead of a challenge"
                )))
            }
        };
        service.handle_message(
            id,
            Message::TimeDiffReport {
                session: wire_session,
                vouch_diff_samples: Some(vouch_diff_samples),
            },
        )?;
        for piece in hub.chunks(chunk.max(1)) {
            service.push_audio(piece);
        }
        service.finish_audio();
        let decision = service.decision(id).cloned().ok_or_else(|| {
            PianoError::Schedule(format!("recheck session {id:?} did not conclude"))
        })?;
        service.close_session(id);
        Ok(decision)
    }
}

/// Simulation fixtures for re-check epochs: the gateway-hub geometry the
/// fleet examples and benches use, kept here so core tests, net
/// fixtures, and benches agree on one layout.
pub mod sim {
    use super::RecheckSession;
    use crate::stream::{AuthService, SignalRole};

    /// Samples between consecutive members' signal embeddings in the
    /// shared hub recording.
    pub const STRIDE: usize = 12_288;
    /// Offset of a member's `S_A` within its stride.
    pub const SA_OFFSET: usize = 2_000;
    /// Offset of a member's `S_V` within its stride.
    pub const SV_OFFSET: usize = 8_000;
    /// Trailing room after the last member's embeddings.
    pub const TAIL: usize = 16_384;
    /// The hub-side arrival difference every member's geometry yields
    /// (`SV_OFFSET − SA_OFFSET` samples).
    pub const HUB_DIFF_SAMPLES: f64 = (SV_OFFSET - SA_OFFSET) as f64;

    /// Quantizes to the i16 grid exactly like the wire codec (round
    /// half away from zero, clamp), widened back to `f64` — hub
    /// recordings live on the same grid as wire audio so simulated and
    /// remote re-checks scan identical sample values.
    fn quantize(s: f64) -> f64 {
        let scaled = if s >= 0.0 {
            (s + 0.5).floor()
        } else {
            (s - 0.5).ceil()
        };
        let q = scaled.clamp(i16::MIN as f64, i16::MAX as f64) as i16;
        q as f64
    }

    /// Adds `wave` into `rec` starting at `offset`, scaled by `gain`.
    fn embed(rec: &mut [f64], wave: &[f64], offset: usize, gain: f64) {
        for (i, &w) in wave.iter().enumerate() {
            if let Some(slot) = rec.get_mut(offset + i) {
                *slot += gain * w;
            }
        }
    }

    /// The vouch-side arrival difference that makes a member measure
    /// `distance_m` under the hub geometry: Eq. 3 inverted,
    /// `diff_V = diff_A − 2·d·fs/c`.
    pub fn vouch_diff_for(distance_m: f64, sample_rate: f64, speed_of_sound: f64) -> f64 {
        HUB_DIFF_SAMPLES - 2.0 * distance_m * sample_rate / speed_of_sound
    }

    /// Synthesizes the ONE shared hub recording for a re-check epoch:
    /// member `i`'s signals embed at `i × STRIDE + SA_OFFSET` /
    /// `i × STRIDE + SV_OFFSET`, quantized to the wire grid. The same
    /// recording serves the batched pass and every sequential reference
    /// pass.
    pub fn hub_recording(service: &AuthService, batch: &[RecheckSession]) -> Vec<f64> {
        let mut rec = vec![0.0; batch.len() * STRIDE + TAIL];
        for (i, member) in batch.iter().enumerate() {
            let base = i * STRIDE;
            if let Some(session) = service.session(member.id) {
                if let Some(sa) = session.waveform_of(SignalRole::Auth) {
                    embed(&mut rec, &sa, base + SA_OFFSET, 0.4);
                }
                if let Some(sv) = session.waveform_of(SignalRole::Vouch) {
                    embed(&mut rec, &sv, base + SV_OFFSET, 0.3);
                }
            }
        }
        for s in &mut rec {
            *s = quantize(*s);
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::piano::{DenialReason, PianoConfig};
    use proptest::prelude::*;
    use rand::SeedableRng;

    // -- TickWheel ----------------------------------------------------

    #[test]
    fn fires_after_the_deadline_not_before() {
        let mut w: TickWheel<u32> = TickWheel::new();
        w.insert(5, 1);
        assert!(w.advance(4).is_empty(), "must not fire early");
        assert_eq!(w.advance(5), vec![1]);
        assert_eq!(w.armed(), 0);
        assert!(w.next_tick().is_none(), "wheel must disarm after firing");
    }

    #[test]
    fn fired_order_is_deadline_then_arm_order() {
        let mut w: TickWheel<u32> = TickWheel::new();
        w.insert(9, 2);
        w.insert(3, 1);
        w.insert(9, 3);
        assert_eq!(
            w.advance(20),
            vec![1, 2, 3],
            "expiry order follows deadlines, ties follow arm order"
        );
    }

    #[test]
    fn cascade_boundaries_fire_exactly_once_on_time() {
        // Entries straddling every level boundary, plus far-future ones
        // beyond the top-level span.
        let deadlines: Vec<u64> = vec![
            1,
            255,
            256,
            257,
            65_535,
            65_536,
            65_537,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            (1 << 32) + 5,
            (1 << 33) + 7,
        ];
        let mut w: TickWheel<usize> = TickWheel::new();
        for (i, &d) in deadlines.iter().enumerate() {
            w.insert(d, i);
        }
        let mut fired = Vec::new();
        let mut now = 0u64;
        while fired.len() < deadlines.len() {
            now = now.saturating_mul(2).saturating_add(129);
            for k in w.advance(now) {
                let at = deadlines[k];
                assert!(at <= now, "entry {k} fired {} ticks early", at - now);
                fired.push(k);
            }
            assert!(now < u64::MAX / 2, "wheel lost an entry");
        }
        fired.sort_unstable();
        assert_eq!(fired, (0..deadlines.len()).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_deadline_survives_many_rotations_and_fires_on_first_due_advance() {
        let mut w: TickWheel<u8> = TickWheel::new();
        let at = (1u64 << 34) + 12_345;
        w.insert(at, 7);
        // March the cursor in giant and tiny steps alike.
        let mut now = 0u64;
        for step in [1u64, 255, 256, 65_537, 1 << 20, 1 << 30] {
            now += step;
            assert!(w.advance(now).is_empty(), "fired early at {now}");
        }
        assert_eq!(w.advance(at), vec![7]);
    }

    #[test]
    fn past_deadlines_clamp_to_the_cursor_and_still_fire() {
        let mut w: TickWheel<u8> = TickWheel::new();
        assert!(w.advance(100).is_empty());
        w.insert(3, 1); // already in the swept past
        assert_eq!(w.next_tick(), Some(101));
        assert_eq!(w.advance(101), vec![1]);
    }

    #[test]
    fn next_tick_lower_bounds_every_entry() {
        let mut w: TickWheel<u32> = TickWheel::new();
        assert_eq!(w.next_tick(), None);
        w.insert(70_000, 1);
        let bound = w.next_tick().expect("armed");
        assert!(bound <= 70_000, "bound {bound} past the entry");
        w.insert(40, 2);
        let bound = w.next_tick().expect("armed");
        assert!(bound <= 40);
        assert!(w.advance(bound.saturating_sub(1)).is_empty());
    }

    /// The naive reference: a sorted list with eager semantics matching
    /// the wheel's contract (clamp to cursor, fire at `at <= now`,
    /// order by `(at, arm order)`).
    #[derive(Default)]
    struct NaiveWheel {
        entries: Vec<(u64, u64, u64)>, // (at, seq, key)
        cursor: u64,
        seq: u64,
    }

    impl NaiveWheel {
        fn insert(&mut self, at: u64, key: u64) {
            let at = at.max(self.cursor);
            self.entries.push((at, self.seq, key));
            self.seq += 1;
        }

        fn advance(&mut self, now: u64) -> Vec<u64> {
            if now < self.cursor {
                return Vec::new();
            }
            self.cursor = now.saturating_add(1);
            let mut due: Vec<(u64, u64, u64)> = Vec::new();
            self.entries.retain(|&(at, seq, key)| {
                if at <= now {
                    due.push((at, seq, key));
                    false
                } else {
                    true
                }
            });
            due.sort_unstable();
            due.into_iter().map(|(_, _, k)| k).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wheel_matches_naive_scheduler(
            ops in proptest::collection::vec(any::<u64>(), 1..200),
        ) {
            let mut wheel: TickWheel<u64> = TickWheel::new();
            let mut naive = NaiveWheel::default();
            let mut now = 0u64;
            let mut next_key = 0u64;
            for op in ops {
                let kind = op % 3;
                let arg = op >> 2;
                match kind {
                    0 => {
                        // Arm: deltas biased at cascade boundaries, the
                        // immediate past, and the far future.
                        let delta = match arg % 8 {
                            0 => arg % 4,
                            1 => 250 + arg % 12,
                            2 => 65_530 + arg % 12,
                            3 => (1 << 24) - 6 + arg % 12,
                            4 => (1u64 << 32) + arg % 1_000,
                            5 => (1u64 << 34) + arg % 1_000,
                            _ => arg % 10_000,
                        };
                        let at = now.saturating_add(delta);
                        wheel.insert(at, next_key);
                        naive.insert(at, next_key);
                        next_key += 1;
                    }
                    1 => {
                        // Advance: steps straddling slot and rotation
                        // boundaries, plus occasional giant jumps.
                        let step = match arg % 7 {
                            0 => 1,
                            1 => 255,
                            2 => 256,
                            3 => 257,
                            4 => 65_537,
                            5 => (1 << 16) + (arg % (1 << 10)),
                            _ => arg % 4_999 + 1,
                        };
                        now = now.saturating_add(step);
                        prop_assert_eq!(wheel.advance(now), naive.advance(now));
                        prop_assert_eq!(wheel.armed(), naive.entries.len());
                    }
                    _ => {
                        // Re-advance at the *same* now: must be a no-op
                        // on both sides.
                        prop_assert_eq!(wheel.advance(now), naive.advance(now));
                    }
                }
            }
            // Drain everything, in two final leaps past the top span.
            now = now.saturating_add(1 << 33);
            prop_assert_eq!(wheel.advance(now), naive.advance(now));
            now = now.saturating_add(1 << 35);
            prop_assert_eq!(wheel.advance(now), naive.advance(now));
            prop_assert_eq!(wheel.armed(), naive.entries.len());
        }
    }

    // -- RiskPolicy ---------------------------------------------------

    fn granted(distance_m: f64) -> AuthDecision {
        AuthDecision::Granted { distance_m }
    }

    fn denied() -> AuthDecision {
        AuthDecision::Denied {
            reason: DenialReason::SignalAbsent,
        }
    }

    #[test]
    fn policy_table_shortens_marginal_and_lengthens_strong() {
        let p = RiskPolicy::default();
        // margin 0.1 < 0.25: marginal → shorten.
        assert_eq!(p.next_period_s(60.0, &granted(0.9), 1.0), 30.0);
        // margin 0.5 >= 0.5: strong → lengthen.
        assert_eq!(p.next_period_s(60.0, &granted(0.5), 1.0), 120.0);
        // margin 0.3 in between: unchanged.
        assert_eq!(p.next_period_s(60.0, &granted(0.7), 1.0), 60.0);
        // Denial: floor.
        assert_eq!(p.next_period_s(60.0, &denied(), 1.0), p.min_period_s);
        // Clamps: a strong grant cannot push past the ceiling, a
        // marginal one cannot push past the floor.
        assert_eq!(p.next_period_s(800.0, &granted(0.1), 1.0), p.max_period_s);
        assert_eq!(p.next_period_s(8.0, &granted(0.99), 1.0), p.min_period_s);
    }

    #[test]
    fn policy_jitter_is_deterministic_and_bounded() {
        let p = RiskPolicy {
            jitter_frac: 0.05,
            jitter_seed: 77,
            ..RiskPolicy::default()
        };
        for key in 0..50u64 {
            for checks in 0..4u64 {
                let j = p.jitter(key, checks);
                assert_eq!(j, p.jitter(key, checks), "jitter must replay");
                assert!((0.95..1.05).contains(&j), "jitter {j} out of band");
            }
        }
        // Distinct keys decorrelate.
        assert_ne!(p.jitter(1, 0), p.jitter(2, 0));
        let none = RiskPolicy {
            jitter_frac: 0.0,
            ..p
        };
        assert_eq!(none.jitter(9, 9), 1.0);
    }

    #[test]
    fn policy_validation_rejects_bad_bounds() {
        let ok = RiskPolicy::default();
        assert!(ok.validate().is_ok());
        for bad in [
            RiskPolicy {
                min_period_s: 100.0,
                ..ok
            },
            RiskPolicy { shorten: 1.5, ..ok },
            RiskPolicy {
                lengthen: 0.5,
                ..ok
            },
            RiskPolicy {
                marginal_margin: 0.9,
                ..ok
            },
            RiskPolicy {
                denials_to_lock: 0,
                ..ok
            },
            RiskPolicy {
                jitter_frac: 1.5,
                ..ok
            },
            RiskPolicy {
                base_period_s: f64::INFINITY,
                ..ok
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
            // The registry refuses to open a session under it (a zero
            // denial budget or a never-due period would otherwise reach
            // the wheel).
            let mut c = Continuum::new(1.0).expect("tick");
            assert!(
                matches!(c.open(bad, 0, 0.0), Err(PianoError::InvalidConfig(_))),
                "{bad:?} must not open"
            );
            assert!(c.is_empty());
        }
    }

    // -- Continuum registry -------------------------------------------

    fn quiet_policy(base: f64) -> RiskPolicy {
        RiskPolicy {
            base_period_s: base,
            min_period_s: base / 8.0,
            max_period_s: base * 8.0,
            jitter_frac: 0.0,
            ..RiskPolicy::default()
        }
    }

    #[test]
    fn due_groups_by_label_and_ignores_stale_arms() {
        let mut c = Continuum::new(1.0).expect("tick");
        let a = c.open(quiet_policy(10.0), 0, 0.0).expect("open");
        let b = c.open(quiet_policy(10.0), 1, 0.0).expect("open");
        let gone = c.open(quiet_policy(10.0), 0, 0.0).expect("open");
        c.remove(gone).expect("remove");
        assert_eq!(c.standing(), 2);
        assert!(c.due(5.0).is_empty(), "nothing due yet");
        let batches = c.due(11.0);
        assert_eq!(
            batches,
            vec![
                DueBatch {
                    group: 0,
                    members: vec![a]
                },
                DueBatch {
                    group: 1,
                    members: vec![b]
                },
            ]
        );
        assert!(
            c.remove(gone).is_err(),
            "double remove must be a typed error"
        );

        // Within a group, members come out earliest deadline first, ties
        // in open order.
        let mut c = Continuum::new(1.0).expect("tick");
        let late = c.open(quiet_policy(30.0), 0, 0.0).expect("open");
        let early = c.open(quiet_policy(10.0), 0, 0.0).expect("open");
        let tied = c.open(quiet_policy(10.0), 0, 0.0).expect("open");
        assert_eq!(
            c.due(31.0),
            vec![DueBatch {
                group: 0,
                members: vec![early, tied, late]
            }]
        );
    }

    #[test]
    fn apply_outcome_adapts_period_and_locks_on_denial_streak() {
        let mut c = Continuum::new(1.0).expect("tick");
        let k = c.open(quiet_policy(64.0), 0, 0.0).expect("open");
        // Marginal grant at 0.9 m under τ = 1 m: period halves.
        let s = c.apply_outcome(k, &granted(0.9), 1.0, 64.0).expect("apply");
        assert_eq!(s, StandingState::Active);
        assert_eq!(c.session(k).expect("live").period_s(), 32.0);
        // Strong grant doubles it back.
        c.apply_outcome(k, &granted(0.3), 1.0, 96.0).expect("apply");
        assert_eq!(c.session(k).expect("live").period_s(), 64.0);
        // One denial does not lock, and a grant resets the streak.
        let s = c.apply_outcome(k, &denied(), 1.0, 128.0).expect("apply");
        assert_eq!(s, StandingState::Active, "one denial never locks");
        c.apply_outcome(k, &granted(0.5), 1.0, 136.0)
            .expect("apply");
        // Two consecutive denials lock (default denials_to_lock = 2).
        let s = c.apply_outcome(k, &denied(), 1.0, 160.0).expect("apply");
        assert_eq!(s, StandingState::Active, "the grant reset the streak");
        assert_eq!(c.session(k).expect("live").period_s(), 8.0, "denial floors");
        let s = c.apply_outcome(k, &denied(), 1.0, 168.0).expect("apply");
        assert_eq!(s, StandingState::Locked);
        assert_eq!(c.standing(), 0);
        // Retired, but still owned and queryable.
        assert_eq!(c.len(), 1);
        assert_eq!(c.session(k).expect("kept").state(), StandingState::Locked);
        assert!(
            c.apply_outcome(k, &granted(0.5), 1.0, 170.0).is_err(),
            "locked sessions take no further outcomes"
        );
        assert!(c.due(10_000.0).is_empty(), "locked sessions never come due");
    }

    #[test]
    fn schedule_replays_bit_exactly() {
        let run = || {
            let mut c = Continuum::new(0.5).expect("tick");
            let mut log = Vec::new();
            for i in 0..32 {
                c.open(RiskPolicy::default(), i % 3, i as f64)
                    .expect("open");
            }
            let mut now = 0.0;
            for _ in 0..6 {
                now += 40.0;
                for batch in c.due(now) {
                    for key in batch.members {
                        let d = if key.0 % 5 == 0 {
                            denied()
                        } else {
                            granted(0.4)
                        };
                        let s = c.apply_outcome(key, &d, 1.0, now).expect("apply");
                        log.push((key, s, c.session(key).expect("live").next_check_s()));
                    }
                }
            }
            log
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run(), "no clocks, no address-order: replays match");
    }

    // -- Batched engine over a real AuthService -----------------------

    #[test]
    fn batched_recheck_reverifies_a_group_in_one_epoch() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0_17);
        let mut service = AuthService::new(PianoConfig::with_threshold(1.0));
        let mut c = Continuum::new(1.0).expect("tick");
        let keys: Vec<StandingKey> = (0..4)
            .map(|_| c.open(quiet_policy(30.0), 0, 0.0).expect("open"))
            .collect();
        let batches = c.due(31.0);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].members, keys);
        let batch = c
            .begin_recheck(&mut service, &batches[0].members, &mut rng)
            .expect("begin");
        let cfg = service.config().action.clone();
        // Members 0/2/3 measure ~0.5 m; member 1 walked away (signal
        // absent would need a different hub — keep it granted-far
        // instead: ~0.96 m, a marginal grant).
        let diffs: Vec<f64> = [0.5, 0.96, 0.5, 0.5]
            .iter()
            .map(|&d| sim::vouch_diff_for(d, cfg.sample_rate, 343.0))
            .collect();
        let hub = sim::hub_recording(&service, &batch);
        let outcomes = c
            .complete_recheck(&mut service, &batch, &diffs, &hub, 16_384, 31.0)
            .expect("complete");
        assert_eq!(outcomes.len(), 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(
                o.decision.is_granted(),
                "member {i} denied: {:?}",
                o.decision
            );
            assert_eq!(o.state, StandingState::Active);
        }
        // The marginal member re-checks sooner than the strong ones.
        let strong = c.session(keys[0]).expect("live").period_s();
        let marginal = c.session(keys[1]).expect("live").period_s();
        assert!(
            marginal < strong,
            "marginal period {marginal} must undercut strong period {strong}"
        );
        assert_eq!(service.session_count(), 0, "epoch sessions are closed");
    }

    #[test]
    fn batched_decisions_match_the_sequential_reference() {
        let base_rng = ChaCha8Rng::seed_from_u64(0x5EC_0FF1);
        let mut rng = base_rng.clone();
        let mut service = AuthService::new(PianoConfig::with_threshold(1.0));
        let mut c = Continuum::new(1.0).expect("tick");
        let keys: Vec<StandingKey> = (0..3)
            .map(|_| c.open(quiet_policy(10.0), 0, 0.0).expect("open"))
            .collect();
        let batch = c
            .begin_recheck(&mut service, &keys, &mut rng)
            .expect("begin");
        let cfg = service.config().action.clone();
        let diffs: Vec<f64> = [0.3, 0.7, 0.5]
            .iter()
            .map(|&d| sim::vouch_diff_for(d, cfg.sample_rate, 343.0))
            .collect();
        let hub = sim::hub_recording(&service, &batch);
        let outcomes = c
            .complete_recheck(&mut service, &batch, &diffs, &hub, 4_096, 10.0)
            .expect("complete");
        for (i, o) in outcomes.iter().enumerate() {
            let mut seq_service = AuthService::new(PianoConfig::with_threshold(1.0));
            let mut seq_rng = base_rng.clone();
            let solo = Continuum::recheck_via(
                &mut seq_service,
                &mut seq_rng,
                keys.len(),
                i,
                diffs[i],
                &hub,
                4_096,
            )
            .expect("sequential");
            match (&o.decision, &solo) {
                (
                    AuthDecision::Granted { distance_m: a },
                    AuthDecision::Granted { distance_m: b },
                ) => assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "member {i}: batched distance must be bit-identical"
                ),
                (x, y) => assert_eq!(x, y, "member {i}: decisions diverge"),
            }
        }
    }

    #[test]
    fn typed_errors_on_stale_keys_and_mismatched_reports() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut service = AuthService::new(PianoConfig::default());
        let mut c = Continuum::new(1.0).expect("tick");
        let k = c.open(quiet_policy(10.0), 0, 0.0).expect("open");
        c.remove(k).expect("remove");
        assert!(matches!(
            c.begin_recheck(&mut service, &[k], &mut rng),
            Err(PianoError::Schedule(_))
        ));
        let live = c.open(quiet_policy(10.0), 0, 0.0).expect("open");
        let batch = c
            .begin_recheck(&mut service, &[live], &mut rng)
            .expect("begin");
        assert!(matches!(
            c.complete_recheck(&mut service, &batch, &[], &[], 64, 10.0),
            Err(PianoError::Schedule(_))
        ));
        assert!(matches!(c.rearm(k, 20.0), Err(PianoError::Schedule(_))));
    }
}

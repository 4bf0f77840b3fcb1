//! Crash-restart recovery: the journal's record type and image codec,
//! the recovery mode switch and the unified retry/deadline policy.
//!
//! A resource's journal is a `gridmine_store::Store` with one tree,
//! keyed by rule, whose values are full [`RuleRecord`]s
//! (see `SecureResource::arm_recovery`). The store's digest-chained WAL
//! makes log surgery detectable; the image adds the owner id and the
//! pinned chain head, which catches whole-record tail truncation — a
//! cut the store alone reads as a clean, shorter log.
//!
//! Restored state is **untrusted input**: the chain is keyless, so it
//! proves integrity, not honesty. The resource therefore re-screens every
//! restored record ([`RuleRecord::is_wellformed`]), re-audits its shares
//! and answers any failure with a `MaliciousResource` verdict — never a
//! panic.

use gridmine_arm::CandidateRule;
use gridmine_store::{splitmix64, MemBackend};

/// The journal store's one tree: rule display string → JSON [`RuleRecord`].
pub(crate) const JOURNAL_TREE: &str = "rules";

/// The restorable per-rule mining state: the accountant's cyclic-scan
/// position and oblivious-counter accumulators, plus the cached output-
/// SFE verdict (the resource's majority-vote position) when one exists.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RuleRecord {
    pub rule: CandidateRule,
    /// Transactions of the local database already folded into `sum`.
    pub frontier: u64,
    /// Net vote accumulated over the scanned prefix.
    pub sum: i64,
    /// Transactions counted over the scanned prefix.
    pub count: i64,
    /// The accountant's Lamport clock for this rule's counters.
    pub clock: i64,
    /// Last sum reported to the broker (`i64::MIN` = never reported).
    pub last_sum: i64,
    /// Cached output-SFE verdict, when the rule has been decided.
    pub output: Option<bool>,
}

impl RuleRecord {
    /// The key-free screen applied to every restored record: scan bounds
    /// must fit the local database and the accumulators must be
    /// achievable from `frontier` scanned transactions (each contributes
    /// at most ±1 to `sum` and `count`). The clock starts at 1.
    pub fn is_wellformed(&self, db_len: u64) -> bool {
        self.frontier <= db_len
            && self.sum.unsigned_abs() <= self.frontier
            && self.count.unsigned_abs() <= self.frontier
            && self.clock >= 1
    }
}

/// Spills a journal store: `owner ‖ head ‖ files` — the owning resource
/// id and the store's pinned chain head (little-endian `u64`s), then
/// [`MemBackend::encode`] of the store's files.
pub fn encode_image(owner: u64, head: u64, files: &MemBackend) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&owner.to_le_bytes());
    out.extend_from_slice(&head.to_le_bytes());
    out.extend_from_slice(&files.encode());
    out
}

/// Total decode of [`encode_image`] output into `(owner, head, files)`;
/// `None` for any byte string it could not have produced.
pub fn decode_image(bytes: &[u8]) -> Option<(u64, u64, MemBackend)> {
    let word = |at: usize| Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
    Some((word(0)?, word(8)?, MemBackend::decode(bytes.get(16..)?)?))
}

/// One home for the bounded-retry and timing constants that were
/// previously scattered across the drivers:
///
/// * `budget` — the broker↔controller SFE retry budget (a resource
///   degrades with `MuteController` once it is spent);
/// * `base_ms`/`cap_ms` — capped exponential backoff for threaded
///   channel receives ([`RetryPolicy::backoff_ms`]);
/// * `deadline_ms` — the threaded driver's recovery watchdog: a restore
///   that overruns it degrades the resource instead of aborting the run;
/// * `resend_every` — the anti-entropy / healing resend cadence, in
///   protocol rounds (sim steps or threaded ticks);
/// * `seed` — drives the deterministic backoff jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    pub budget: u64,
    pub base_ms: u64,
    pub cap_ms: u64,
    pub deadline_ms: u64,
    pub resend_every: u64,
    pub seed: u64,
}

impl RetryPolicy {
    /// The workspace defaults (these reproduce the constants the drivers
    /// used before the policy existed: budget 16, 1 ms drain timeout,
    /// anti-entropy every 5 rounds).
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        budget: 16,
        base_ms: 1,
        cap_ms: 16,
        deadline_ms: 1_000,
        resend_every: 5,
        seed: 0x9E37_79B9,
    };

    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Backoff for the `attempt`-th consecutive failure (0-based):
    /// capped exponential plus deterministic seeded jitter (≤ 25 % of the
    /// slot, so `backoff_ms(0)` with defaults is exactly `base_ms`).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self.base_ms.max(1).saturating_mul(1u64 << attempt.min(20));
        let slot = exp.min(self.cap_ms.max(self.base_ms.max(1)));
        let jitter = splitmix64(self.seed ^ u64::from(attempt)) % (slot / 4 + 1);
        slot + jitter
    }

    /// The watchdog deadline in nanoseconds (for `Instant`-based checks).
    pub fn deadline_nanos(&self) -> u128 {
        u128::from(self.deadline_ms) * 1_000_000
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Checkpoint-mode knobs: how often to snapshot-and-truncate the journal
/// and how fast a restored resource rescans its backlog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryPolicy {
    /// Snapshot + journal truncation cadence, in protocol rounds.
    pub checkpoint_every: u64,
    /// Per-round scan budget while a recovered resource catches up on
    /// its backlog (bounds the recovery burst).
    pub catchup_scan_budget: u64,
    pub retry: RetryPolicy,
}

impl RecoveryPolicy {
    pub const DEFAULT: RecoveryPolicy =
        RecoveryPolicy { checkpoint_every: 5, catchup_scan_budget: 8, retry: RetryPolicy::DEFAULT };

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// What a driver does with a resource scheduled to crash and recover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Legacy behavior: the driver keeps the resource object intact and
    /// merely silences it while "down" (no wipe, no journal).
    #[default]
    Disabled,
    /// Honest crash semantics without durability: volatile mining state
    /// is wiped at crash time and rebuilt from anti-entropy resends.
    ColdRestart,
    /// Wipe at crash time, then restore from the validated checkpoint +
    /// journal instead of starting cold.
    Checkpoint(RecoveryPolicy),
}

impl RecoveryMode {
    /// Whether crashes wipe volatile state (any non-legacy mode).
    pub fn wipes(&self) -> bool {
        !matches!(self, RecoveryMode::Disabled)
    }

    /// The checkpoint policy, when journaling is armed.
    pub fn policy(&self) -> Option<RecoveryPolicy> {
        match self {
            RecoveryMode::Checkpoint(p) => Some(*p),
            _ => None,
        }
    }

    /// The retry policy in force (defaults when journaling is off).
    pub fn retry(&self) -> RetryPolicy {
        self.policy().map_or(RetryPolicy::DEFAULT, |p| p.retry)
    }

    /// The catch-up scan budget in force.
    pub fn catchup_scan_budget(&self) -> u64 {
        self.policy().map_or(RecoveryPolicy::DEFAULT.catchup_scan_budget, |p| p.catchup_scan_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{ItemSet, Ratio, Rule};

    #[test]
    fn wellformedness_screen_bounds_the_accumulators() {
        let ok = RuleRecord {
            rule: CandidateRule {
                rule: Rule::frequency(ItemSet::of(&[1])),
                lambda: Ratio::new(1, 2),
            },
            frontier: 10,
            sum: -3,
            count: 10,
            clock: 2,
            last_sum: -3,
            output: None,
        };
        assert!(ok.is_wellformed(40));
        assert!(!ok.is_wellformed(5), "frontier beyond the database");
        let inflated = RuleRecord { sum: 11, ..ok.clone() };
        assert!(!inflated.is_wellformed(40), "sum unreachable from frontier");
        let dead_clock = RuleRecord { clock: 0, ..ok };
        assert!(!dead_clock.is_wellformed(40), "clock below genesis");
    }

    #[test]
    fn backoff_is_deterministic_capped_and_monotone_to_the_cap() {
        let p = RetryPolicy::DEFAULT;
        assert_eq!(p.backoff_ms(0), 1, "first retry keeps the legacy 1 ms drain timeout");
        for a in 0..24 {
            assert_eq!(p.backoff_ms(a), p.backoff_ms(a), "same attempt, same delay");
            // Slot ≤ cap, jitter ≤ 25% of slot.
            assert!(p.backoff_ms(a) <= p.cap_ms + p.cap_ms / 4);
        }
        // The exponential actually grows before the cap bites.
        assert!(p.backoff_ms(3) > p.backoff_ms(0));
    }

    #[test]
    fn jitter_depends_on_the_seed() {
        let a = RetryPolicy { seed: 1, ..RetryPolicy::DEFAULT };
        let b = RetryPolicy { seed: 2, ..RetryPolicy::DEFAULT };
        // Some attempt in the capped region must differ between seeds.
        assert!((4..24).any(|i| a.backoff_ms(i) != b.backoff_ms(i)), "seeded jitter never fired");
    }

    #[test]
    fn mode_accessors() {
        assert!(!RecoveryMode::Disabled.wipes());
        assert!(RecoveryMode::ColdRestart.wipes());
        let p = RecoveryPolicy { checkpoint_every: 3, ..RecoveryPolicy::DEFAULT };
        let m = RecoveryMode::Checkpoint(p);
        assert!(m.wipes());
        assert_eq!(m.policy(), Some(p));
        assert_eq!(m.retry(), RetryPolicy::DEFAULT);
        assert_eq!(RecoveryMode::ColdRestart.policy(), None);
        assert_eq!(RecoveryMode::ColdRestart.retry(), RetryPolicy::DEFAULT);
    }

    #[test]
    fn policies_roundtrip_through_serde() {
        let p = RecoveryPolicy { checkpoint_every: 7, ..RecoveryPolicy::DEFAULT };
        let json = serde_json::to_string(&p).expect("serializes");
        let back: RecoveryPolicy = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, p);
    }
}

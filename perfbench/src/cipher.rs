//! A timing [`HomCipher`] wrapper: the traced run's view of the `paillier`
//! layer, taken from outside the program.
//!
//! [`TimedCipher`] forwards every trait method to the wrapped cipher —
//! the batched forms (`decrypt_i64_many`, `verify_tags_batch`,
//! `all_wellformed`) and `with_recorder` included — so the protocol takes
//! exactly the code paths it takes untraced. Each forwarded call adds one
//! to its operation's call count. Busy time is the calls' wall time,
//! summed over calling threads. Reading the clock costs more than a
//! mock-cipher `add`, so a thread times every call of an operation until
//! it has seen [`TIME_ALL_FIRST`] of them, and from then on times only one
//! call in [`SAMPLE_EVERY`] of an operation whose timed mean is below
//! [`CHEAP_NANOS`]; busy time is then the timed mean times the calls.
//! What an empty timed region reads is subtracted from every sample.
//! Paillier operations stay above that mean and are timed on every call.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gridmine_core::GridKeys;
use gridmine_obs::SharedRecorder;
use gridmine_paillier::{CipherError, HomCipher};

/// The timed operations, in report order. The infallible and per-item
/// forms are counted with their sibling: `sub` with `try_sub`, `scalar`
/// with `try_scalar`, `is_wellformed` with `all_wellformed`, and `zero`
/// with `encrypt`.
pub const OP_NAMES: [&str; 9] = [
    "encrypt",
    "decrypt",
    "decrypt_many",
    "verify_tags_batch",
    "add",
    "try_sub",
    "try_scalar",
    "all_wellformed",
    "rerandomize",
];

#[derive(Clone, Copy)]
enum Op {
    Encrypt,
    Decrypt,
    DecryptMany,
    VerifyTagsBatch,
    Add,
    TrySub,
    TryScalar,
    AllWellformed,
    Rerandomize,
}

/// Shared per-operation tallies, updated by every [`TimedCipher`] handle
/// built over them. Each thread adds into its own cache-line-aligned
/// shard, so the simulator's worker threads, which make hundreds of
/// millions of mock-cipher calls, do not contend on one counter.
#[derive(Debug)]
pub struct OpStats {
    shards: Box<[Shard]>,
}

const SHARDS: usize = 64;

/// Calls of an operation a thread times before it may start sampling.
pub const TIME_ALL_FIRST: u64 = 256;
/// Operations whose timed mean is below this many ns are sampled.
pub const CHEAP_NANOS: u64 = 1_000;
/// One call in this many of a sampled operation is timed.
pub const SAMPLE_EVERY: u64 = 64;

#[derive(Debug, Default)]
#[repr(align(128))]
struct Shard {
    calls: [AtomicU64; OP_NAMES.len()],
    timed_calls: [AtomicU64; OP_NAMES.len()],
    timed_nanos: [AtomicU64; OP_NAMES.len()],
}

impl Shard {
    /// Estimated busy time of operation `i` on this shard.
    fn busy_nanos(&self, i: usize) -> u64 {
        let timed = self.timed_calls[i].load(Ordering::Relaxed);
        if timed == 0 {
            return 0;
        }
        let nanos = self.timed_nanos[i].load(Ordering::Relaxed) as u128;
        let calls = self.calls[i].load(Ordering::Relaxed) as u128;
        (nanos * calls / timed as u128) as u64
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index (threads beyond `SHARDS` share, which
    /// stays correct because the adds are atomic).
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// What timing an empty region reads, in ns (the median of 1,001
/// tries); subtracted from every timed call.
fn clock_floor() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut reads: Vec<u64> = (0..1_001)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(());
                start.elapsed().as_nanos() as u64
            })
            .collect();
        reads.sort_unstable();
        reads[reads.len() / 2]
    })
}

impl Default for OpStats {
    fn default() -> Self {
        OpStats { shards: (0..SHARDS).map(|_| Shard::default()).collect() }
    }
}

/// A frozen copy of [`OpStats`]: exact call counts and (estimated) busy
/// nanoseconds per operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTotals {
    pub calls: [u64; OP_NAMES.len()],
    pub nanos: [u64; OP_NAMES.len()],
}

impl OpStats {
    pub fn shared() -> Arc<OpStats> {
        Arc::new(OpStats::default())
    }

    pub fn totals(&self) -> OpTotals {
        OpTotals {
            calls: std::array::from_fn(|i| {
                self.shards.iter().map(|s| s.calls[i].load(Ordering::Relaxed)).sum()
            }),
            nanos: std::array::from_fn(|i| self.shards.iter().map(|s| s.busy_nanos(i)).sum()),
        }
    }

    /// Counts one call of `op` and runs it, timed or not as the sampling
    /// rule says. Statistics only: nothing else is published through
    /// these atomics.
    fn record<T>(&self, op: Op, f: impl FnOnce() -> T) -> T {
        let shard = &self.shards[SHARD.with(|s| *s)];
        let i = op as usize;
        let calls = shard.calls[i].fetch_add(1, Ordering::Relaxed);
        let timed = shard.timed_calls[i].load(Ordering::Relaxed);
        let cheap = timed > 0 && shard.timed_nanos[i].load(Ordering::Relaxed) < CHEAP_NANOS * timed;
        if calls >= TIME_ALL_FIRST && cheap && !calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let nanos = (start.elapsed().as_nanos() as u64).saturating_sub(clock_floor());
        shard.timed_nanos[i].fetch_add(nanos, Ordering::Relaxed);
        shard.timed_calls[i].fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl OpTotals {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &OpTotals) -> OpTotals {
        OpTotals {
            calls: std::array::from_fn(|i| self.calls[i] - earlier.calls[i]),
            nanos: std::array::from_fn(|i| self.nanos[i] - earlier.nanos[i]),
        }
    }

    /// Busy time over every operation.
    pub fn busy_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// A cipher handle that times every call into the wrapped one.
#[derive(Clone)]
pub struct TimedCipher<C> {
    inner: C,
    stats: Arc<OpStats>,
}

impl<C: HomCipher> TimedCipher<C> {
    fn timed<T>(&self, op: Op, f: impl FnOnce(&C) -> T) -> T {
        self.stats.record(op, || f(&self.inner))
    }
}

impl<C: HomCipher> HomCipher for TimedCipher<C> {
    type Ct = C::Ct;

    fn encrypt_i64(&self, m: i64) -> Self::Ct {
        self.timed(Op::Encrypt, |c| c.encrypt_i64(m))
    }

    fn decrypt_i64(&self, ct: &Self::Ct) -> i64 {
        self.timed(Op::Decrypt, |c| c.decrypt_i64(ct))
    }

    fn decrypt_i64_many(&self, cts: &[&Self::Ct]) -> Vec<i64> {
        self.timed(Op::DecryptMany, |c| c.decrypt_i64_many(cts))
    }

    fn verify_tags_batch(&self, tags: &[&Self::Ct], expected: &[i64]) -> bool {
        self.timed(Op::VerifyTagsBatch, |c| c.verify_tags_batch(tags, expected))
    }

    fn add(&self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct {
        self.timed(Op::Add, |c| c.add(a, b))
    }

    fn sub(&self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct {
        self.timed(Op::TrySub, |c| c.sub(a, b))
    }

    fn try_sub(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct, CipherError> {
        self.timed(Op::TrySub, |c| c.try_sub(a, b))
    }

    fn scalar(&self, m: i64, ct: &Self::Ct) -> Self::Ct {
        self.timed(Op::TryScalar, |c| c.scalar(m, ct))
    }

    fn try_scalar(&self, m: i64, ct: &Self::Ct) -> Result<Self::Ct, CipherError> {
        self.timed(Op::TryScalar, |c| c.try_scalar(m, ct))
    }

    fn is_wellformed(&self, ct: &Self::Ct) -> bool {
        self.timed(Op::AllWellformed, |c| c.is_wellformed(ct))
    }

    fn all_wellformed(&self, cts: &[&Self::Ct]) -> bool {
        self.timed(Op::AllWellformed, |c| c.all_wellformed(cts))
    }

    fn rerandomize(&self, ct: &Self::Ct) -> Self::Ct {
        self.timed(Op::Rerandomize, |c| c.rerandomize(ct))
    }

    fn zero(&self) -> Self::Ct {
        self.timed(Op::Encrypt, |c| c.zero())
    }

    fn can_decrypt(&self) -> bool {
        self.inner.can_decrypt()
    }

    fn with_recorder(self, rec: SharedRecorder) -> Self {
        TimedCipher { inner: self.inner.with_recorder(rec), stats: self.stats }
    }

    fn ct_bytes(c: &Self::Ct) -> usize {
        C::ct_bytes(c)
    }

    fn ct_encode(c: &Self::Ct) -> Vec<u8> {
        C::ct_encode(c)
    }

    fn ct_decode(bytes: &[u8]) -> Option<Self::Ct> {
        C::ct_decode(bytes)
    }
}

/// Wraps every role handle of `keys` (`enc`, `dec`, `pub_ops`) so all of
/// them report into `stats`.
pub fn timed_keys<C: HomCipher>(
    keys: GridKeys<C>,
    stats: &Arc<OpStats>,
) -> GridKeys<TimedCipher<C>> {
    let wrap = |inner: C| TimedCipher { inner, stats: stats.clone() };
    GridKeys {
        enc: wrap(keys.enc),
        dec: wrap(keys.dec),
        pub_ops: wrap(keys.pub_ops),
        tags: keys.tags,
    }
}

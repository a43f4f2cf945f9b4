//! Deterministic fault injection and bounded-retry policies.
//!
//! Production data paths fail in boring, reproducible ways — a NFS mount
//! times out, a torn write truncates a file, a DMA flips a bit — but the
//! *recovery* code for those failures is usually the least-tested code in
//! the system. This module makes every failure injectable and every
//! injection reproducible:
//!
//! * [`FaultPlan`] — a seeded description of which I/O operations fail and
//!   how. **Off by default**: a `FaultPlan::default()` injects nothing and
//!   the wrappers degrade to pass-throughs, so the happy path's numerics
//!   (and the host/device bit-identity invariant) are untouched.
//! * [`FaultySource`] / [`FaultySink`] — `Read + Seek` / `Write + Seek`
//!   wrappers that consult the plan on every operation. Decisions are a
//!   pure function of `(seed, operation index)` via SplitMix64, so a
//!   failing run replays exactly.
//! * [`RetryPolicy`] + [`with_retry`] — bounded exponential backoff for
//!   transient errors, used by [`crate::DczReader`] and the prefetch
//!   workers.
//!
//! Injected transient errors use [`std::io::ErrorKind::TimedOut`]:
//! `ErrorKind::Interrupted` would be retried silently inside
//! `Read::read_exact` and never reach the recovery code under test.

use std::io::{Read, Seek, SeekFrom, Write};
use std::time::Duration;

use crate::Result;

/// SplitMix64 — tiny, seedable, and good enough to decorrelate fault
/// decisions (no external RNG dependency in library code). Public because
/// every deterministic-injection layer in the workspace (store I/O faults,
/// accel step faults, serve wire faults) keys its decisions on it.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64-bit draw. Not an `Iterator`: the stream is infinite and
    /// callers draw scalars, never iterate.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeded, deterministic description of injected I/O faults.
///
/// Rates are per-operation probabilities in `[0, 1]`; the decision for
/// operation `k` depends only on `(seed, k)`, so runs replay bit-exactly.
/// The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-operation decisions.
    pub seed: u64,
    /// P(an operation fails with a transient [`std::io::ErrorKind::TimedOut`]).
    pub transient_rate: f64,
    /// P(a read returns fewer bytes than asked — exercises `read_exact`
    /// looping and any code that assumes one `read` fills the buffer).
    pub short_read_rate: f64,
    /// P(one bit of the bytes returned by a read is flipped).
    pub bit_flip_rate: f64,
    /// Simulate a truncated file: reads at or past this logical offset see
    /// EOF (sources), writes past it fail (sinks).
    pub truncate_at: Option<u64>,
    /// Panic on exactly this operation index (worker-crash testing).
    pub panic_on_op: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            short_read_rate: 0.0,
            bit_flip_rate: 0.0,
            truncate_at: None,
            panic_on_op: None,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (same as `default()`, named for intent).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Transient-only plan: each operation fails with probability `rate`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultPlan { seed, transient_rate: rate, ..FaultPlan::default() }
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.transient_rate > 0.0
            || self.short_read_rate > 0.0
            || self.bit_flip_rate > 0.0
            || self.truncate_at.is_some()
            || self.panic_on_op.is_some()
    }

    /// Per-operation decision stream: a fresh RNG keyed on `(seed, op)`.
    fn rng(&self, op: u64) -> SplitMix64 {
        let mut mix = SplitMix64(self.seed ^ op.wrapping_mul(0xA076_1D64_78BD_642F));
        mix.next(); // discard one to decorrelate nearby seeds
        mix
    }
}

fn injected_transient() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::TimedOut, "injected transient fault")
}

/// `Read + Seek` wrapper injecting faults per a [`FaultPlan`].
///
/// With an inactive plan every call forwards untouched, so wrapping is
/// free to leave in place permanently (the prefetch workers do).
#[derive(Debug)]
pub struct FaultySource<R> {
    inner: R,
    plan: FaultPlan,
    op: u64,
    pos: u64,
}

impl<R> FaultySource<R> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultySource { inner, plan, op: 0, pos: 0 }
    }

    /// Operations performed so far (reads + seeks).
    pub fn operations(&self) -> u64 {
        self.op
    }

    /// Swap the plan and reset the operation counter, so decisions are a
    /// pure function of `(seed, operations since arming)`. This is how
    /// callers arm injection only *after* setup I/O: open the container
    /// through an inactive wrapper, then `set_plan` to target steady-state
    /// reads deterministically, independent of how many operations the
    /// header/index parse took.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.op = 0;
    }

    /// Unwrap the inner source.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultySource<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let op = self.op;
        self.op += 1;
        if !self.plan.is_active() {
            let n = self.inner.read(buf)?;
            self.pos += n as u64;
            return Ok(n);
        }
        if self.plan.panic_on_op == Some(op) {
            panic!("injected fault: panic at I/O operation {op}");
        }
        let mut rng = self.plan.rng(op);
        if rng.uniform() < self.plan.transient_rate {
            return Err(injected_transient());
        }
        let mut limit = buf.len();
        if let Some(t) = self.plan.truncate_at {
            if self.pos >= t {
                return Ok(0); // injected EOF
            }
            limit = limit.min((t - self.pos) as usize);
        }
        if limit > 1 && rng.uniform() < self.plan.short_read_rate {
            limit = 1 + (rng.next() as usize) % (limit - 1);
        }
        let n = self.inner.read(&mut buf[..limit])?;
        if n > 0 && rng.uniform() < self.plan.bit_flip_rate {
            let byte = (rng.next() as usize) % n;
            let bit = (rng.next() as usize) % 8;
            buf[byte] ^= 1 << bit;
        }
        self.pos += n as u64;
        Ok(n)
    }
}

impl<R: Seek> Seek for FaultySource<R> {
    fn seek(&mut self, to: SeekFrom) -> std::io::Result<u64> {
        let op = self.op;
        self.op += 1;
        if self.plan.is_active() {
            if self.plan.panic_on_op == Some(op) {
                panic!("injected fault: panic at I/O operation {op}");
            }
            if self.plan.rng(op).uniform() < self.plan.transient_rate {
                return Err(injected_transient());
            }
        }
        let pos = self.inner.seek(to)?;
        self.pos = pos;
        Ok(pos)
    }
}

/// `Write + Seek` wrapper injecting faults per a [`FaultPlan`].
///
/// `truncate_at` models a crash / full disk: every write at or past the
/// offset fails hard (`WriteZero`), which is how the kill-mid-pack tests
/// interrupt [`crate::writer::DczFileWriter`] at a chosen byte.
#[derive(Debug)]
pub struct FaultySink<W> {
    inner: W,
    plan: FaultPlan,
    op: u64,
    pos: u64,
}

impl<W> FaultySink<W> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        FaultySink { inner, plan, op: 0, pos: 0 }
    }

    /// Unwrap the inner sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultySink<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let op = self.op;
        self.op += 1;
        if self.plan.is_active() {
            if self.plan.panic_on_op == Some(op) {
                panic!("injected fault: panic at I/O operation {op}");
            }
            if let Some(t) = self.plan.truncate_at {
                if self.pos + buf.len() as u64 > t {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "injected crash: sink truncated",
                    ));
                }
            }
            if self.plan.rng(op).uniform() < self.plan.transient_rate {
                return Err(injected_transient());
            }
        }
        let n = self.inner.write(buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<W: Seek> Seek for FaultySink<W> {
    fn seek(&mut self, to: SeekFrom) -> std::io::Result<u64> {
        let pos = self.inner.seek(to)?;
        self.pos = pos;
        Ok(pos)
    }
}

/// Bounded retry with exponential backoff for transient I/O errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `0` is treated as `1`.
    pub max_attempts: u32,
    /// Sleep before retry `k` is `backoff << k`, capped at 64× backoff.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff: Duration::from_micros(500) }
    }
}

impl RetryPolicy {
    /// Never retry.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, backoff: Duration::ZERO }
    }
}

/// Run `f`, retrying transient errors ([`crate::StoreError::is_transient`]) up to
/// the policy's attempt budget. Non-transient errors return immediately.
pub fn with_retry<T>(policy: RetryPolicy, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let attempts = policy.max_attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt + 1 < attempts => {
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * (1u32 << attempt.min(6)));
                }
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop ran at least once before exhausting attempts"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreError;
    use std::io::Cursor;

    #[test]
    fn inactive_plan_is_passthrough() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut src = FaultySource::new(Cursor::new(data.clone()), FaultPlan::none());
        let mut out = Vec::new();
        src.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            transient_rate: 0.3,
            bit_flip_rate: 0.2,
            short_read_rate: 0.2,
            ..FaultPlan::default()
        };
        let data: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(7)).collect();
        let run = || {
            let mut src = FaultySource::new(Cursor::new(data.clone()), plan);
            let mut log = Vec::new();
            let mut buf = [0u8; 16];
            for _ in 0..40 {
                match src.read(&mut buf) {
                    Ok(n) => log.push(Ok((n, buf[..n].to_vec()))),
                    Err(e) => log.push(Err(e.kind())),
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn truncation_injects_eof() {
        let plan = FaultPlan { truncate_at: Some(10), ..FaultPlan::default() };
        let mut src = FaultySource::new(Cursor::new(vec![1u8; 100]), plan);
        let mut out = Vec::new();
        src.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn transient_errors_are_timed_out_not_interrupted() {
        // read_exact retries Interrupted internally; the injection must be
        // observable by callers.
        let plan = FaultPlan::transient(7, 1.0);
        let mut src = FaultySource::new(Cursor::new(vec![0u8; 8]), plan);
        let mut buf = [0u8; 4];
        let e = src.read_exact(&mut buf).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
    }

    #[test]
    fn sink_truncation_fails_writes() {
        let plan = FaultPlan { truncate_at: Some(4), ..FaultPlan::default() };
        let mut sink = FaultySink::new(Cursor::new(Vec::new()), plan);
        sink.write_all(&[1, 2, 3]).unwrap();
        assert!(sink.write_all(&[4, 5]).is_err());
    }

    #[test]
    fn retry_recovers_from_transients() {
        let mut failures = 2;
        let policy = RetryPolicy { max_attempts: 4, backoff: Duration::ZERO };
        let out = with_retry(policy, || {
            if failures > 0 {
                failures -= 1;
                Err(StoreError::Io(injected_transient()))
            } else {
                Ok(17)
            }
        });
        assert_eq!(out.unwrap(), 17);
    }

    #[test]
    fn retry_gives_up_and_skips_hard_errors() {
        let policy = RetryPolicy { max_attempts: 3, backoff: Duration::ZERO };
        let out: Result<()> = with_retry(policy, || Err(StoreError::Io(injected_transient())));
        assert!(out.unwrap_err().is_transient());

        let mut calls = 0;
        let out: Result<()> = with_retry(policy, || {
            calls += 1;
            Err(StoreError::Format("hard".into()))
        });
        assert!(matches!(out, Err(StoreError::Format(_))));
        assert_eq!(calls, 1, "non-transient errors must not be retried");
    }
}

//! The run loop: runs one simulation over `ctx.shards()` router
//! shards, one per thread, bit-identical at every shard count.
//!
//! Each shard owns a contiguous range of routers ([`Shard`]). A
//! simulated cycle is one compute phase per shard followed by a single
//! barrier:
//!
//! 1. **Drain** — pull cross-shard events published during the previous
//!    cycle from this shard's mailboxes (in ascending source-shard
//!    order; event delivery is order-insensitive — see the engine
//!    docs — so drain order cannot matter).
//! 2. **Step** — generation, delivery, and switch allocation over the
//!    shard's routers (`Shard::step`).
//! 3. **Publish** — swap each non-empty outbox into the destination
//!    shard's mailbox and post this shard's cumulative progress
//!    counters.
//! 4. **Barrier** — after it, every shard reads the same progress
//!    snapshot and makes the same watchdog and drain-exit decision.
//!
//! One barrier per cycle is enough because every cross-router effect
//! (packet arrival, credit return) is scheduled at least one cycle in
//! the future — packet serialization takes ≥ 1 cycle. Mailboxes and
//! progress slots are double-buffered by cycle parity: events emitted
//! in cycle `c` land in parity `c & 1` and are drained in cycle `c + 1`
//! from parity `(c + 1) & 1 ^ 1`; the buffers of parity `c & 1` are not
//! written again until cycle `c + 2`, by which time the barrier at the
//! end of cycle `c + 1` has ordered the drain before the write.
//!
//! A one-shard run takes the same loop on the caller's thread with the
//! caller's monitor: it has no mailbox to touch, and its barrier and
//! progress slots cost a few uncontended atomic operations per cycle.

use crate::engine::{Ctx, Ev, Shard, ShardStats};
use crate::monitor::{ShardableMonitor, SimMonitor};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sense-reversing spin barrier. Waiters spin briefly then yield — the
/// engine must stay live even when threads exceed cores.
pub(crate) struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    pub(crate) fn new(total: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    pub(crate) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arriver: reset the count for the next round, then
            // release everyone. The count reset is sequenced before the
            // generation bump, which waiters acquire.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// One shard's progress snapshot for the exit decision, padded to a
/// cache line. Cumulative counters — written before the barrier, read
/// by every shard after it.
#[repr(align(64))]
#[derive(Default)]
struct Progress {
    generated: AtomicU64,
    ejected: AtomicU64,
    faulted: AtomicU64,
    delivered: AtomicU64,
    active: AtomicBool,
}

/// Network-wide sum of one cycle's [`Progress`] slots.
#[derive(Default)]
struct Totals {
    generated: u64,
    ejected: u64,
    faulted: u64,
    delivered: u64,
    any_active: bool,
}

type Mailbox = Mutex<Vec<(u64, Ev)>>;

/// What the shards share: the cycle barrier, the cross-shard mailboxes
/// (`mailboxes[parity][dst][src]`) and the progress slots
/// (`progress[parity * shards + shard]`).
struct Exchange {
    shards: usize,
    barrier: SpinBarrier,
    mailboxes: [Vec<Vec<Mailbox>>; 2],
    progress: Vec<Progress>,
}

impl Exchange {
    fn new(shards: usize) -> Self {
        let mailboxes = || {
            (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect()
        };
        Exchange {
            shards,
            barrier: SpinBarrier::new(shards),
            mailboxes: [mailboxes(), mailboxes()],
            progress: (0..2 * shards).map(|_| Progress::default()).collect(),
        }
    }

    /// Sum the progress slots every shard posted for cycle parity
    /// `parity`; call after the barrier.
    fn totals(&self, parity: usize) -> Totals {
        let mut t = Totals::default();
        for p in &self.progress[parity * self.shards..(parity + 1) * self.shards] {
            t.generated += p.generated.load(Ordering::Relaxed);
            t.ejected += p.ejected.load(Ordering::Relaxed);
            t.faulted += p.faulted.load(Ordering::Relaxed);
            t.delivered += p.delivered.load(Ordering::Relaxed);
            t.any_active |= p.active.load(Ordering::Relaxed);
        }
        t
    }
}

/// Run the simulation over `ctx.shards()` shards and return the merged
/// statistics and the cycle count. One shard runs on the caller's
/// thread with `monitor` itself; more shards run one thread each, every
/// thread reporting into a fork of `monitor` that is absorbed back in
/// shard order.
pub(crate) fn run<M: ShardableMonitor>(
    ctx: &Ctx,
    sample_every: Option<u64>,
    monitor: &mut M,
) -> (ShardStats, u64) {
    let x = Exchange::new(ctx.shards());
    if x.shards == 1 {
        return run_shard(ctx, &x, 0, sample_every, monitor);
    }
    let results: Vec<(ShardStats, u64, M)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..x.shards)
            .map(|id| {
                let mut mon = monitor.fork();
                let x = &x;
                scope.spawn(move || {
                    let (stats, cycles) = run_shard(ctx, x, id, sample_every, &mut mon);
                    (stats, cycles, mon)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });

    let mut merged = ShardStats::default();
    let mut cycles = ctx.hard_end;
    for (stats, c, mon) in results {
        merged.merge(stats);
        monitor.absorb(mon);
        cycles = c;
    }
    (merged, cycles)
}

/// The cycle loop of shard `id`: drain, step, publish, barrier, then
/// the watchdog and drain-exit decision. Returns the shard's statistics
/// and the cycle count, which every shard computes identically.
fn run_shard<M: SimMonitor>(
    ctx: &Ctx,
    x: &Exchange,
    id: usize,
    sample_every: Option<u64>,
    mon: &mut M,
) -> (ShardStats, u64) {
    let mut shard = Shard::new(ctx, id);
    let mut scratch: Vec<(u64, Ev)> = Vec::new();
    // Watchdog state: every shard derives it from the same post-barrier
    // snapshot, so all shards reach the same stall verdict at the same
    // cycle.
    let mut last_delivered = 0u64;
    let mut stalled = 0u64;
    let mut now = 0u64;
    let mut cycles = ctx.hard_end;
    while now < ctx.hard_end {
        let parity = (now & 1) as usize;
        // 1. Drain events published last cycle. A shard never mails
        //    itself, so its own slot is skipped.
        for (src, inbox) in x.mailboxes[parity ^ 1][id].iter().enumerate() {
            if src == id {
                continue;
            }
            {
                let mut slot = inbox.lock().expect("mailbox poisoned by a panicked shard");
                std::mem::swap(&mut *slot, &mut scratch);
            }
            for (at, ev) in scratch.drain(..) {
                shard.enqueue_local(at, ev);
            }
        }
        // 2. Compute this cycle.
        shard.step(ctx, now, sample_every, mon);
        // 3. Publish outboxes and progress.
        for (dst, row) in x.mailboxes[parity].iter().enumerate() {
            if dst == id {
                continue;
            }
            let out = shard.outbox_mut(dst);
            if out.is_empty() {
                continue;
            }
            let mut slot = row[id]
                .lock()
                .expect("mailbox poisoned by a panicked shard");
            debug_assert!(slot.is_empty());
            std::mem::swap(&mut *slot, out);
        }
        let p = &x.progress[parity * x.shards + id];
        p.generated
            .store(shard.stats.measured_generated(), Ordering::Relaxed);
        p.ejected
            .store(shard.stats.measured_ejected(), Ordering::Relaxed);
        p.faulted
            .store(shard.stats.measured_faulted(), Ordering::Relaxed);
        p.delivered
            .store(shard.stats.delivered_total(), Ordering::Relaxed);
        p.active.store(!shard.active.is_empty(), Ordering::Relaxed);
        // 4. Everyone sees everyone's publishes.
        x.barrier.wait();
        let t = x.totals(parity);
        // Watchdog: `active` empties whenever nothing is buffered, so a
        // growing stall counter means packets sit while nothing moves.
        if let Some(wd) = ctx.cfg.watchdog_cycles {
            if t.delivered == last_delivered && t.any_active {
                stalled += 1;
                if stalled >= wd {
                    mon.on_watchdog(&shard.watchdog_diag(now + 1, stalled));
                    shard.stats.set_watchdog_fired();
                    cycles = now + 1;
                    break;
                }
            } else {
                stalled = 0;
                last_delivered = t.delivered;
            }
        }
        // Early exit once everything measured has drained (in-flight
        // fault drops count as resolved).
        if now + 1 >= ctx.end_measure && t.generated == t.ejected + t.faulted && !t.any_active {
            cycles = now + 1;
            break;
        }
        now += 1;
    }
    (shard.take_stats(), cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_synchronizes_counter_phases() {
        let threads = 4;
        let rounds = 200;
        let barrier = SpinBarrier::new(threads);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for round in 0..rounds {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Between barriers every thread observes the
                        // full round's increments.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(
                            seen >= (round + 1) * threads as u64,
                            "round {round}: saw {seen}"
                        );
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), rounds * threads as u64);
    }
}

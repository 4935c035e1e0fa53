//! A fixed reference job that gauges how fast the host is right now.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by more than a third over minutes as other tenants come and go. Every
//! timed pass is bracketed by runs of this job, and the time-based
//! end-to-end metrics are reported relative to the mean of the two, so most
//! host drift cancels and the simulator's own speed remains. The job is a small
//! discrete-event loop that does not call the simulator: a binary-heap
//! calendar over per-entity state, with one small allocation per event. A
//! change to the simulator cannot move it. Its data (320 KiB) stays in a
//! core's own L2 cache. Timed after every pass next to each workload, a job
//! of this size slowed with the simulator nearly one for one. Jobs over
//! 4 MiB or 34 MiB, or mixes with them, followed some workloads better and
//! others worse, and a register-only loop did not slow at all.
//!
//! With several threads the job is cut into tickets that the threads claim
//! from a shared counter, as `ntier_runner` hands out specs, so its time
//! follows the pool's total speed rather than its slowest thread's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Entities whose state a thread touches (8 B each: 256 KiB).
const ENTITIES: usize = 1 << 15;
/// Pending events held in a thread's calendar (16 B each: 64 KiB).
const PENDING: usize = 1 << 12;
/// Events handled per ticket.
const TICKET_EVENTS: u64 = 50_000;
/// Tickets per thread in one run of the job.
const TICKETS_PER_THREAD: usize = 16;

/// A round figure near the job's time on the host where the benchmark's
/// bounds were set. Set-up time relative to the job, times this, reads as
/// seconds at that host's reference speed.
pub const NOMINAL_S: f64 = 0.1;

/// A thread's side of the job: it claims tickets until none are left and
/// returns a checksum.
fn worker(seed: u64, next_ticket: &AtomicUsize, tickets: usize) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        // xorshift64*
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut state = vec![0u64; ENTITIES];
    let mut calendar = BinaryHeap::with_capacity(PENDING);
    for _ in 0..PENDING {
        let r = next();
        calendar.push(Reverse((r >> 44, (r as usize) % ENTITIES)));
    }
    let mut sum = 0u64;
    while next_ticket.fetch_add(1, Relaxed) < tickets {
        for _ in 0..TICKET_EVENTS {
            let Reverse((now, entity)) = calendar.pop().expect("the calendar never drains");
            let payload = vec![now; 1 + entity % 7];
            state[entity] = state[entity].wrapping_add(payload.iter().sum::<u64>());
            sum = sum.wrapping_add(state[entity]);
            let r = next();
            calendar.push(Reverse((now + (r >> 50), (r as usize) % ENTITIES)));
        }
    }
    sum
}

/// Host seconds for one run of the job on `threads` threads.
pub fn seconds(threads: usize) -> f64 {
    let tickets = TICKETS_PER_THREAD * threads;
    let next_ticket = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let next_ticket = &next_ticket;
        let others: Vec<_> = (1..threads)
            .map(|t| s.spawn(move || worker(t as u64, next_ticket, tickets)))
            .collect();
        black_box(worker(0, next_ticket, tickets));
        for h in others {
            black_box(h.join().expect("the reference job does not panic"));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Each pass's time over the mean of the reference runs just before and
/// just after it: `refs` holds one more run than `times`.
pub fn relative(times: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(
        refs.len(),
        times.len() + 1,
        "a pass needs a run on each side"
    );
    times
        .iter()
        .zip(refs.windows(2))
        .map(|(w, r)| w / ((r[0] + r[1]) / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ticket_is_handled_once() {
        let next_ticket = AtomicUsize::new(0);
        let one = worker(3, &next_ticket, 2);
        assert_eq!(next_ticket.load(Relaxed), 3);
        assert_eq!(one, worker(3, &AtomicUsize::new(0), 2));
        assert!(seconds(2) > 0.0);
    }

    #[test]
    fn relative_divides_by_the_bracketing_mean() {
        let r = relative(&[3.0, 1.0], &[1.0, 2.0, 0.5]);
        assert_eq!(r, vec![2.0, 0.8]);
    }
}

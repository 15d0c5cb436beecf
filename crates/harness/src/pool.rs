//! Work-stealing shard pool for many-cell runs.
//!
//! The matrix and sweep runners fan independent simulation cells out over
//! worker threads. The original implementation was a single shared counter
//! over one flat job list — correct, but every pop contended on one atomic
//! and the assignment order was fixed. This module replaces it with a
//! sharded deque pool: jobs are dealt round-robin into per-worker deques,
//! each worker drains its own shard LIFO (newest first, so a worker keeps
//! cache-warm state from the cell it just finished), and an idle worker
//! steals FIFO from the front of a victim's deque (oldest first, so thief
//! and owner touch opposite ends and rarely collide).
//!
//! Cells never spawn new cells, so termination is simple: a worker that
//! finds every shard empty can exit — no new work can appear.
//!
//! Results are returned **in job order** regardless of which worker ran
//! which cell or in what sequence: every job carries its index and writes
//! its result into that slot. Combined with deterministic, isolated cells
//! this makes the pool bit-identical to a sequential `map` — the property
//! the randomized model test below and the golden-digest CI job pin.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::knob::Knob;

/// Worker-thread count for the shard pool: the `SEMLOC_POOL_THREADS`
/// environment variable if set, else the host's available parallelism.
///
/// # Panics
///
/// Panics if `SEMLOC_POOL_THREADS` is set but is not a positive integer —
/// a typo'd knob should fail loudly, not silently serialise the run.
pub fn pool_threads() -> usize {
    match Knob::PoolThreads.int(1..=u64::from(u32::MAX)) {
        Ok(Some(n)) => n as usize,
        Ok(None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Err(e) => panic!("{e} (unset it to size the pool to the host)"),
    }
}

/// Run every job through `run` on a pool of `threads` workers with
/// per-worker deques and work stealing. Returns the results in job order.
///
/// `run` must be safe to call concurrently from multiple threads; each job
/// is executed exactly once. With deterministic `run`, the output is
/// bit-identical to `jobs.into_iter().map(run).collect()`.
pub fn run_sharded<J, R, F>(threads: usize, jobs: Vec<J>, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let n_jobs = jobs.len();
    let threads = threads.max(1).min(n_jobs.max(1));
    if threads == 1 {
        // Degenerate pool: no workers to steal from, so skip the thread
        // machinery entirely (also keeps single-thread profiles clean).
        return jobs.into_iter().map(run).collect();
    }

    // Deal jobs round-robin into per-worker shards, each job tagged with
    // its slot in the output.
    let mut shards: Vec<VecDeque<(usize, J)>> = (0..threads)
        .map(|_| VecDeque::with_capacity(n_jobs / threads + 1))
        .collect();
    for (i, job) in jobs.into_iter().enumerate() {
        shards[i % threads].push_back((i, job));
    }
    let shards: Vec<Mutex<VecDeque<(usize, J)>>> = shards.into_iter().map(Mutex::new).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..threads {
            let shards = &shards;
            let slots = &slots;
            let run = &run;
            scope.spawn(move || loop {
                // Own shard first, newest job first (LIFO keeps the
                // worker on freshly dealt, cache-adjacent cells).
                let mut next = shards[me]
                    .lock()
                    .expect("no panics hold a shard lock")
                    .pop_back();
                if next.is_none() {
                    // Steal oldest-first from the other shards, starting
                    // just past our own so thieves spread out.
                    for k in 1..threads {
                        let victim = (me + k) % threads;
                        next = shards[victim]
                            .lock()
                            .expect("no panics hold a shard lock")
                            .pop_front();
                        if next.is_some() {
                            break;
                        }
                    }
                }
                let Some((idx, job)) = next else {
                    // Every shard was empty and cells never enqueue new
                    // cells, so there is nothing left to wait for.
                    break;
                };
                let r = run(job);
                *slots[idx].lock().expect("no panics hold a slot lock") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("workers finished")
                .expect("every job was dealt to exactly one shard and ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[test]
    fn empty_and_single_job_lists() {
        assert_eq!(run_sharded(4, Vec::<u64>::new(), splitmix), vec![]);
        assert_eq!(run_sharded(4, vec![7u64], splitmix), vec![splitmix(7)]);
    }

    #[test]
    fn results_stay_in_job_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = jobs.iter().map(|&j| splitmix(j)).collect();
        for threads in [1, 2, 3, 8, 300] {
            assert_eq!(run_sharded(threads, jobs.clone(), splitmix), expect);
        }
    }

    #[test]
    fn randomized_model_matches_sequential_map() {
        // Randomized shard-pool model test: arbitrary job lists and
        // thread counts must be bit-identical to a sequential map, even
        // with deliberately uneven per-job workloads forcing steals.
        let mut seed = 0xA11C_E5ED_u64;
        for round in 0..32 {
            seed = splitmix(seed);
            let n = (seed % 97) as usize;
            let threads = (splitmix(seed ^ round) % 9 + 1) as usize;
            let jobs: Vec<u64> = (0..n as u64).map(|i| splitmix(seed ^ i)).collect();
            let work = |j: u64| {
                // Uneven workload: some jobs iterate 1000x longer than
                // others, so fast workers run dry and must steal.
                let spins = j % 1024;
                let mut acc = j;
                for _ in 0..spins {
                    acc = splitmix(acc);
                }
                acc
            };
            let expect: Vec<u64> = jobs.iter().map(|&j| work(j)).collect();
            assert_eq!(
                run_sharded(threads, jobs, work),
                expect,
                "pool diverged from sequential map (round {round}, {n} jobs, {threads} threads)"
            );
        }
    }
}

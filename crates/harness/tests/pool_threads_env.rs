//! `pool_threads` reads `SEMLOC_POOL_THREADS`.
//!
//! Writing the environment while another thread reads it is a data race in
//! libc, so this test is the only one in its binary: no other thread of
//! the process reads the environment while it writes.

use semloc_harness::pool_threads;

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the one environment write, alone in its test process"
)]
fn pool_threads_reads_the_env_knob() {
    std::env::set_var("SEMLOC_POOL_THREADS", "3");
    assert_eq!(pool_threads(), 3);
    std::env::remove_var("SEMLOC_POOL_THREADS");
    assert!(pool_threads() >= 1);
}

//! Offline stand-in for the `rayon` crate.
//!
//! The workspace fans out through its own fork-join engine
//! (`tg_blas::threads::run_tasks`); the only rayon API it still calls is
//! [`current_num_threads`], which sizes the default worker count.

/// Size of the (real) rayon global pool.
///
/// Resolution order mirrors how a real rayon global pool would be sized in
/// this workspace: `RAYON_NUM_THREADS` (rayon's own override), then
/// `TG_THREADS` (the workspace convention, see `tg_blas::threads`), then
/// the machine's `available_parallelism`. Re-read on every call so tests
/// can steer the fan-out per-case.
pub fn current_num_threads() -> usize {
    for var in ["RAYON_NUM_THREADS", "TG_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

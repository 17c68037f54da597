//! The worker half of `wd_dist::proc`: one process, one shard attempt.
//!
//! Spawned by [`wd_dist::proc::ProcCampaign`] with `--work-dir --slot
//! --generation --start --end`; all behaviour (lease checks, segment appends,
//! injected faults) lives in [`wd_dist::proc::worker_main`] so the
//! library tests exercise the exact code this binary runs.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(wd_dist::proc::worker_main(&args));
}

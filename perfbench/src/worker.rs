//! The worker process of the proc-resume workload: the same entry point as the
//! repository's `wd-worker` binary, built inside the benchmark package so the
//! benchmark needs no second build of the repository workspace.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(wd_dist::proc::worker_main(&args));
}

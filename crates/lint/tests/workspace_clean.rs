//! The analyzer against its own workspace: the real repository must check clean
//! (modulo the grandfathered `lint.allow` budgets), and the contract-coverage pass
//! must actually see the real delta/observed entry points — guarding against the
//! scope rotting silently out from under the lint.

use std::collections::BTreeSet;
use std::path::PathBuf;

use wd_lint::config::{load_workspace, Config};
use wd_lint::lints::contract;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

#[test]
fn the_workspace_checks_clean() {
    let outcome = wd_lint::check(&repo_root()).unwrap();
    assert!(
        outcome.errors.is_empty(),
        "workspace has lint errors:\n{}",
        outcome
            .errors
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale.is_empty(),
        "lint.allow has stale budgets — regenerate with `cargo run -p wd-lint -- baseline .`:\n{}",
        outcome.stale.join("\n")
    );
    assert!(outcome.files_checked > 50);
}

#[test]
fn contract_scope_sees_the_real_entry_points() {
    let root = repo_root();
    let conf = std::fs::read_to_string(root.join("lint.conf")).unwrap();
    let config = Config::parse(&conf).unwrap();
    let files = load_workspace(&root, &config).unwrap();

    let symbols: BTreeSet<(String, String)> = files
        .iter()
        .filter(|f| !f.is_test_file)
        .flat_map(|f| contract::symbols_in(&config, f))
        .map(|s| (s.owner, s.method))
        .collect();

    for (owner, method) in [
        ("SimulatedAnnealing", "run_delta"),
        ("SimulatedAnnealing", "run_delta_observed"),
        ("SimulatedAnnealing", "run_observed"),
        ("ShardedCampaign", "run_observed"),
        ("ShardedCampaign", "run_supervised_observed"),
        ("ConfigurationSpace", "neighbor_move"),
        ("ConfigurationSpace", "crossover_move"),
        ("GridSpace", "neighbor_move"),
        ("GridSpace", "crossover_move"),
        ("SearchSpace", "neighbor_move"),
        ("SearchSpace", "crossover_move"),
    ] {
        assert!(
            symbols.contains(&(owner.to_string(), method.to_string())),
            "contract scope lost `{owner}::{method}` — did a file move out of contract-src?"
        );
    }
}

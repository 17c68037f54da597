//! Thread-affinity policies and the placements they induce.
//!
//! The paper treats thread affinity as a categorical tuning parameter with the values
//! exposed by the Intel OpenMP runtime: `none`, `scatter` and `compact` on the host and
//! `balanced`, `scatter` and `compact` on the Xeon Phi.  This module turns a policy plus
//! a thread count into a concrete [`Placement`] — how many hardware threads land on each
//! physical core — which is what the performance model consumes.

use std::fmt;

use crate::topology::Topology;

/// Thread-affinity policy (`KMP_AFFINITY` style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Affinity {
    /// No explicit binding; the OS scheduler spreads threads (modelled as `scatter`
    /// with a small efficiency penalty and extra run-to-run jitter).
    None,
    /// Round-robin threads across sockets and cores, maximising cache/bandwidth per thread.
    Scatter,
    /// Pack threads onto as few cores (and sockets) as possible.
    Compact,
    /// Spread threads evenly across cores while keeping consecutive thread ids on the
    /// same core (Xeon Phi specific policy).
    Balanced,
}

impl Affinity {
    /// All policies, in a stable order.
    pub const ALL: [Affinity; 4] = [
        Affinity::None,
        Affinity::Scatter,
        Affinity::Compact,
        Affinity::Balanced,
    ];

    /// The policies the paper considers for the host CPU (Table I).
    pub const HOST: [Affinity; 3] = [Affinity::None, Affinity::Scatter, Affinity::Compact];

    /// The policies the paper considers for the accelerator (Table I).
    pub const DEVICE: [Affinity; 3] = [Affinity::Balanced, Affinity::Scatter, Affinity::Compact];

    /// Short lowercase name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Affinity::None => "none",
            Affinity::Scatter => "scatter",
            Affinity::Compact => "compact",
            Affinity::Balanced => "balanced",
        }
    }

    /// Parse a policy from its lowercase name.
    pub fn parse(s: &str) -> Option<Affinity> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" => Some(Affinity::None),
            "scatter" => Some(Affinity::Scatter),
            "compact" => Some(Affinity::Compact),
            "balanced" => Some(Affinity::Balanced),
            _ => None,
        }
    }

    /// Whether this policy is available on the host CPU in the paper's setup.
    pub fn valid_for_host(&self) -> bool {
        Self::HOST.contains(self)
    }

    /// Whether this policy is available on the accelerator in the paper's setup.
    pub fn valid_for_device(&self) -> bool {
        Self::DEVICE.contains(self)
    }

    /// Compute the placement of `threads` hardware threads on `topology` under this policy.
    ///
    /// The returned placement always accounts for exactly `min(threads, max_threads)`
    /// threads; callers validate the thread count separately.
    pub fn place(&self, topology: &Topology, threads: u32) -> Placement {
        let threads = threads.min(topology.max_threads());
        match self {
            Affinity::Compact => place_compact(topology, threads),
            Affinity::Scatter | Affinity::None => place_scatter(topology, threads),
            Affinity::Balanced => place_balanced(topology, threads),
        }
    }
}

impl fmt::Display for Affinity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Concrete assignment of hardware threads to physical cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `threads_per_core[c]` = number of hardware threads placed on usable core `c`.
    threads_per_core: Vec<u32>,
    /// Copy of the topology used to build the placement.
    topology: Topology,
}

impl Placement {
    fn new(topology: Topology) -> Self {
        Placement {
            threads_per_core: vec![0; topology.usable_cores() as usize],
            topology,
        }
    }

    /// Number of threads on core `core`.
    pub fn threads_on_core(&self, core: u32) -> u32 {
        self.threads_per_core[core as usize]
    }

    /// Per-core thread counts.
    pub fn per_core(&self) -> &[u32] {
        &self.threads_per_core
    }

    /// Total number of placed threads.
    pub fn total_threads(&self) -> u32 {
        self.threads_per_core.iter().sum()
    }

    /// Number of active cores on the given socket.
    pub fn active_cores_on_socket(&self, socket: u32) -> u32 {
        self.threads_per_core
            .iter()
            .enumerate()
            .filter(|(core, &t)| t > 0 && self.topology.socket_of_core(*core as u32) == socket)
            .count() as u32
    }

    /// The topology this placement refers to.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

fn place_compact(topology: &Topology, threads: u32) -> Placement {
    let mut placement = Placement::new(*topology);
    let mut remaining = threads;
    for core in topology.cores_compact_order() {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(topology.threads_per_core());
        placement.threads_per_core[core as usize] = take;
        remaining -= take;
    }
    placement
}

fn place_scatter(topology: &Topology, threads: u32) -> Placement {
    let mut placement = Placement::new(*topology);
    let mut remaining = threads;
    let order = topology.cores_scatter_order();
    'outer: for _round in 0..topology.threads_per_core() {
        for &core in &order {
            if remaining == 0 {
                break 'outer;
            }
            placement.threads_per_core[core as usize] += 1;
            remaining -= 1;
        }
    }
    placement
}

fn place_balanced(topology: &Topology, threads: u32) -> Placement {
    let mut placement = Placement::new(*topology);
    let cores = topology.usable_cores();
    if threads == 0 {
        return placement;
    }
    if threads <= cores {
        // one thread per core, consecutive cores
        for core in 0..threads {
            placement.threads_per_core[core as usize] = 1;
        }
    } else {
        let base = threads / cores;
        let extra = threads % cores;
        for core in 0..cores {
            let t = base + u32::from(core < extra);
            placement.threads_per_core[core as usize] = t.min(topology.threads_per_core());
        }
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Topology {
        Topology::new(2, 12, 2, 0)
    }

    fn phi() -> Topology {
        Topology::new(1, 61, 4, 1)
    }

    /// `(active cores, active sockets)` of `p`, from the per-socket counts the
    /// performance model reads.
    fn active(p: &Placement) -> (u32, u32) {
        let per_socket: Vec<u32> = (0..p.topology().sockets())
            .map(|socket| p.active_cores_on_socket(socket))
            .collect();
        let sockets = per_socket.iter().filter(|&&cores| cores > 0).count();
        (per_socket.iter().sum(), sockets as u32)
    }

    #[test]
    fn names_round_trip() {
        for a in Affinity::ALL {
            assert_eq!(Affinity::parse(a.name()), Some(a));
        }
        assert_eq!(Affinity::parse("bogus"), None);
        assert_eq!(Affinity::parse("  Scatter "), Some(Affinity::Scatter));
    }

    #[test]
    fn host_and_device_policy_sets_match_table_i() {
        assert!(Affinity::None.valid_for_host());
        assert!(!Affinity::Balanced.valid_for_host());
        assert!(Affinity::Balanced.valid_for_device());
        assert!(!Affinity::None.valid_for_device());
        assert!(Affinity::Scatter.valid_for_host() && Affinity::Scatter.valid_for_device());
        assert!(Affinity::Compact.valid_for_host() && Affinity::Compact.valid_for_device());
    }

    #[test]
    fn compact_uses_fewest_cores() {
        let p = Affinity::Compact.place(&host(), 6);
        assert_eq!(p.total_threads(), 6);
        assert_eq!(active(&p), (3, 1)); // 2 threads per core
    }

    #[test]
    fn scatter_uses_most_cores_and_both_sockets() {
        let p = Affinity::Scatter.place(&host(), 6);
        assert_eq!(p.total_threads(), 6);
        assert_eq!(active(&p), (6, 2)); // 1 thread per core
    }

    #[test]
    fn none_places_like_scatter() {
        let s = Affinity::Scatter.place(&host(), 17);
        let n = Affinity::None.place(&host(), 17);
        assert_eq!(s, n);
    }

    #[test]
    fn scatter_wraps_to_second_hardware_thread() {
        let p = Affinity::Scatter.place(&host(), 30);
        assert_eq!(p.total_threads(), 30);
        assert_eq!(active(&p).0, 24);
        // 30 - 24 = 6 cores carry a second hyper-thread
        let twos = p.per_core().iter().filter(|&&t| t == 2).count();
        assert_eq!(twos, 6);
    }

    #[test]
    fn balanced_spreads_evenly_on_phi() {
        let p = Affinity::Balanced.place(&phi(), 120);
        assert_eq!(p.total_threads(), 120);
        assert_eq!(active(&p).0, 60);
        assert!(p.per_core().iter().all(|&t| t == 2));
    }

    #[test]
    fn balanced_with_few_threads_uses_one_thread_per_core() {
        let p = Affinity::Balanced.place(&phi(), 30);
        assert_eq!(active(&p).0, 30);
        assert!(p.per_core().iter().all(|&t| t <= 1));
    }

    #[test]
    fn compact_on_phi_fills_cores_four_deep() {
        let p = Affinity::Compact.place(&phi(), 16);
        assert_eq!(active(&p).0, 4);
        assert!(p.per_core().iter().take(4).all(|&t| t == 4));
    }

    #[test]
    fn placement_never_exceeds_capacity() {
        for topology in [host(), phi()] {
            for affinity in Affinity::ALL {
                for threads in [0, 1, 2, 7, 24, 48, 61, 240, 500] {
                    let p = affinity.place(&topology, threads);
                    assert_eq!(p.total_threads(), threads.min(topology.max_threads()));
                    assert!(p
                        .per_core()
                        .iter()
                        .all(|&t| t <= topology.threads_per_core()));
                }
            }
        }
    }

    #[test]
    fn full_machine_is_identical_for_all_policies() {
        let topology = host();
        let full = topology.max_threads();
        let compact = Affinity::Compact.place(&topology, full);
        let scatter = Affinity::Scatter.place(&topology, full);
        let balanced = Affinity::Balanced.place(&topology, full);
        assert_eq!(compact.per_core(), scatter.per_core());
        assert_eq!(scatter.per_core(), balanced.per_core());
    }
}

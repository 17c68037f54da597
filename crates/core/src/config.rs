//! System configurations and the discrete configuration space (the paper's Table I),
//! generalised from host + 1 accelerator to host + N accelerators.
//!
//! The paper's architecture allows one to eight accelerators per node; its evaluation
//! fixes N = 1.  A [`SystemConfiguration`] therefore carries one [`DeviceSetting`]
//! (threads, affinity, workload share) *per accelerator*, and a [`ConfigurationSpace`]
//! carries one [`DeviceAxis`] per accelerator plus an explicit list of candidate
//! workload splits.  Shares are stored in permille on a discrete simplex
//! (`host + Σ devices = 1000`), so configurations stay `Eq + Hash` and the space stays
//! exactly enumerable — the properties every method in [`wd_opt`] relies on.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use hetero_platform::{Affinity, ExecutionConfig, Partition};
use rand::rngs::StdRng;
use rand::Rng;
use wd_opt::SearchSpace;

/// Tuning knobs of one accelerator: thread count, affinity and its workload share in
/// permille.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceSetting {
    /// Number of threads on this accelerator.
    pub threads: u32,
    /// Thread affinity on this accelerator.
    pub affinity: Affinity,
    /// Share of the workload processed by this accelerator, in permille (0..=1000).
    pub permille: u32,
}

impl DeviceSetting {
    /// Convenience constructor.
    pub fn new(threads: u32, affinity: Affinity, permille: u32) -> Self {
        DeviceSetting {
            threads,
            affinity,
            permille,
        }
    }

    /// This device's share as a fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        f64::from(self.permille) / 1000.0
    }
}

/// One *system configuration*: the tuning knobs the paper optimizes, for a node with
/// one host and any number of accelerators.
///
/// Workload shares are stored in permille (0..=1000) so that both the paper's
/// 1 %-granularity search space and its 2.5 %-granularity enumeration grid can be
/// represented exactly with integer (hashable) configurations.  The share fields are
/// private and maintained under the invariant
/// `host_permille + Σ device permilles == 1000`; constructing a configuration with
/// out-of-range or non-summing shares is an error, so two distinct in-memory values
/// can never describe the same semantic split (which used to create duplicate records
/// in persistent stores).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemConfiguration {
    /// Number of threads on the host CPUs.
    pub host_threads: u32,
    /// Thread affinity on the host (`none` / `scatter` / `compact`).
    pub host_affinity: Affinity,
    host_permille: u32,
    devices: Devices,
}

/// The accelerator settings of a [`SystemConfiguration`]: the paper's single
/// accelerator is stored inline, more go on the heap.  Equality, hashing and `Debug`
/// go through the slice, so they match a `Vec<DeviceSetting>` exactly (store keys,
/// cache hashes and `Debug` text do not depend on the representation).
#[derive(Clone)]
enum Devices {
    One(DeviceSetting),
    Many(Box<[DeviceSetting]>),
}

impl Devices {
    fn as_slice(&self) -> &[DeviceSetting] {
        match self {
            Devices::One(device) => std::slice::from_ref(device),
            Devices::Many(devices) => devices,
        }
    }
}

impl FromIterator<DeviceSetting> for Devices {
    fn from_iter<I: IntoIterator<Item = DeviceSetting>>(devices: I) -> Self {
        let mut devices = devices.into_iter();
        match (devices.next(), devices.next()) {
            (Some(one), None) => Devices::One(one),
            (first, second) => {
                Devices::Many(first.into_iter().chain(second).chain(devices).collect())
            }
        }
    }
}

impl PartialEq for Devices {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Devices {}

impl Hash for Devices {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Devices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl SystemConfiguration {
    /// Build a configuration from explicit shares.
    ///
    /// Fails unless every share lies in `0..=1000` and
    /// `host_permille + Σ devices[i].permille == 1000`, and at least one accelerator
    /// is described.
    pub fn new(
        host_threads: u32,
        host_affinity: Affinity,
        host_permille: u32,
        devices: Vec<DeviceSetting>,
    ) -> Result<Self, String> {
        if devices.is_empty() {
            return Err("a system configuration needs at least one accelerator".to_string());
        }
        if host_permille > 1000 || devices.iter().any(|d| d.permille > 1000) {
            return Err(format!(
                "shares must lie in 0..=1000 permille, got host {host_permille}, devices {:?}",
                devices.iter().map(|d| d.permille).collect::<Vec<_>>()
            ));
        }
        let sum: u32 = host_permille + devices.iter().map(|d| d.permille).sum::<u32>();
        if sum != 1000 {
            return Err(format!(
                "shares must sum to 1000 permille, got {sum} (host {host_permille}, devices {:?})",
                devices.iter().map(|d| d.permille).collect::<Vec<_>>()
            ));
        }
        Ok(SystemConfiguration {
            host_threads,
            host_affinity,
            host_permille,
            devices: devices.into_iter().collect(),
        })
    }

    /// Create a single-accelerator configuration from a host percentage.
    ///
    /// Percentages above 100 are normalized to 100 (everything on the host), so every
    /// constructible configuration satisfies the share invariant.
    pub fn with_host_percent(
        host_threads: u32,
        host_affinity: Affinity,
        device_threads: u32,
        device_affinity: Affinity,
        host_percent: u32,
    ) -> Self {
        let host_permille = host_percent.min(100) * 10;
        SystemConfiguration {
            host_threads,
            host_affinity,
            host_permille,
            devices: Devices::One(DeviceSetting::new(
                device_threads,
                device_affinity,
                1000 - host_permille,
            )),
        }
    }

    /// Internal constructor for values expected to satisfy the invariant (space
    /// enumeration and moves).  The invariant is still checked in every build
    /// profile, so a bad split list can never mint invalid configurations and
    /// resurrect the duplicate-store-key bug the invariant exists to prevent.
    fn from_validated(
        host_threads: u32,
        host_affinity: Affinity,
        host_permille: u32,
        devices: Devices,
    ) -> Self {
        assert_eq!(
            host_permille + devices.as_slice().iter().map(|d| d.permille).sum::<u32>(),
            1000,
            "shares must sum to 1000 permille (is a ConfigurationSpace split invalid?)"
        );
        SystemConfiguration {
            host_threads,
            host_affinity,
            host_permille,
            devices,
        }
    }

    /// Host share in permille (0..=1000).
    pub fn host_permille(&self) -> u32 {
        self.host_permille
    }

    /// Per-accelerator settings.
    pub fn devices(&self) -> &[DeviceSetting] {
        self.devices.as_slice()
    }

    /// Settings of accelerator `index`.
    pub fn device(&self, index: usize) -> DeviceSetting {
        self.devices()[index]
    }

    /// Number of accelerators this configuration describes.
    pub fn accelerator_count(&self) -> usize {
        self.devices().len()
    }

    /// Thread count of the first accelerator (the paper's single-device view).
    pub fn device_threads(&self) -> u32 {
        self.devices()[0].threads
    }

    /// Affinity of the first accelerator (the paper's single-device view).
    pub fn device_affinity(&self) -> Affinity {
        self.devices()[0].affinity
    }

    /// Host share as a fraction in `[0, 1]`.
    pub fn host_fraction(&self) -> f64 {
        f64::from(self.host_permille) / 1000.0
    }

    /// Host share as a percentage in `[0, 100]`.
    pub fn host_percent(&self) -> f64 {
        self.host_fraction() * 100.0
    }

    /// Does the host receive any work?
    pub fn uses_host(&self) -> bool {
        self.host_permille > 0
    }

    /// Does any accelerator receive work?
    pub fn uses_device(&self) -> bool {
        self.host_permille < 1000
    }

    /// The N-way workload partition this configuration describes.  The share invariant
    /// guarantees the partition passes [`Partition::new`]'s validation.
    pub fn partition(&self) -> Partition {
        let mut fractions = Vec::with_capacity(self.accelerator_count() + 1);
        fractions.push(self.host_fraction());
        fractions.extend(self.devices().iter().map(DeviceSetting::fraction));
        Partition::new(fractions).expect("the share invariant implies a valid partition")
    }

    /// Host execution configuration (threads + affinity).
    pub fn host_execution(&self) -> ExecutionConfig {
        ExecutionConfig::new(self.host_threads, self.host_affinity)
    }

    /// Execution configuration of the first accelerator.
    pub fn device_execution(&self) -> ExecutionConfig {
        ExecutionConfig::new(self.device_threads(), self.device_affinity())
    }

    /// Execution configurations of all accelerators, in device order.
    pub fn device_executions(&self) -> Vec<ExecutionConfig> {
        self.devices()
            .iter()
            .map(|d| ExecutionConfig::new(d.threads, d.affinity))
            .collect()
    }

    /// The CPU-only baseline configuration used by the paper's Table VIII
    /// (48 host threads, everything on the host).
    pub fn host_only_baseline() -> Self {
        Self::host_only_baseline_for(1)
    }

    /// The CPU-only baseline for a platform with `accelerators` accelerators.
    pub fn host_only_baseline_for(accelerators: usize) -> Self {
        assert!(accelerators >= 1, "at least one accelerator is required");
        SystemConfiguration {
            host_threads: 48,
            host_affinity: Affinity::Scatter,
            host_permille: 1000,
            devices: std::iter::repeat_n(
                DeviceSetting::new(2, Affinity::Balanced, 0),
                accelerators,
            )
            .collect(),
        }
    }

    /// The accelerator-only baseline of the paper's Table IX (all 240 usable device
    /// threads, everything on the first accelerator).
    pub fn device_only_baseline() -> Self {
        Self::device_only_baseline_for(1)
    }

    /// The accelerator-only baseline for a platform with `accelerators` accelerators
    /// (everything on the first one).
    pub fn device_only_baseline_for(accelerators: usize) -> Self {
        assert!(accelerators >= 1, "at least one accelerator is required");
        let mut devices = vec![DeviceSetting::new(2, Affinity::Balanced, 0); accelerators];
        devices[0] = DeviceSetting::new(240, Affinity::Balanced, 1000);
        SystemConfiguration {
            host_threads: 2,
            host_affinity: Affinity::Scatter,
            host_permille: 0,
            devices: devices.into_iter().collect(),
        }
    }

    /// The share vector `[host, device1, ..., deviceN]` in permille.
    pub fn split(&self) -> Vec<u32> {
        self.shares().collect()
    }

    /// [`SystemConfiguration::split`] without the allocation.
    fn shares(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        std::iter::once(self.host_permille).chain(self.devices().iter().map(|d| d.permille))
    }

    /// Every side's `(threads, affinity)`, the host first, then each accelerator.
    fn knobs(&self) -> impl Iterator<Item = (u32, Affinity)> + '_ {
        std::iter::once((self.host_threads, self.host_affinity))
            .chain(self.devices().iter().map(|d| (d.threads, d.affinity)))
    }
}

impl fmt::Display for SystemConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let [device] = self.devices() {
            write!(
                f,
                "host {{threads: {}, affinity: {}}}, device {{threads: {}, affinity: {}}}, split {:.1}/{:.1}",
                self.host_threads,
                self.host_affinity,
                device.threads,
                device.affinity,
                self.host_percent(),
                100.0 - self.host_percent(),
            )
        } else {
            write!(
                f,
                "host {{threads: {}, affinity: {}}}",
                self.host_threads, self.host_affinity
            )?;
            for (i, device) in self.devices().iter().enumerate() {
                write!(
                    f,
                    ", device{} {{threads: {}, affinity: {}}}",
                    i + 1,
                    device.threads,
                    device.affinity
                )?;
            }
            write!(f, ", split {:.1}", self.host_percent())?;
            for device in self.devices() {
                write!(f, "/{:.1}", device.fraction() * 100.0)?;
            }
            Ok(())
        }
    }
}

/// Candidate thread counts and affinities of one accelerator — one axis of the
/// configuration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceAxis {
    /// Candidate thread counts on this accelerator.
    pub threads: Vec<u32>,
    /// Candidate affinities on this accelerator.
    pub affinities: Vec<Affinity>,
}

impl DeviceAxis {
    /// Convenience constructor.
    pub fn new(threads: Vec<u32>, affinities: Vec<Affinity>) -> Self {
        DeviceAxis {
            threads,
            affinities,
        }
    }

    /// The paper's Xeon Phi axis: thread counts {2, 4, 8, 16, 30, 60, 120, 180, 240}
    /// and the three device affinities.
    pub fn paper_phi() -> Self {
        DeviceAxis::new(
            vec![2, 4, 8, 16, 30, 60, 120, 180, 240],
            Affinity::DEVICE.to_vec(),
        )
    }

    /// An axis from an arbitrary thread-count ladder: values below `max_threads` are
    /// kept and the capacity itself is appended as the top candidate.
    pub fn with_ladder(ladder: &[u32], max_threads: u32, affinities: Vec<Affinity>) -> Self {
        let mut threads: Vec<u32> = ladder
            .iter()
            .copied()
            .filter(|&t| t < max_threads)
            .collect();
        threads.push(max_threads);
        DeviceAxis::new(threads, affinities)
    }
}

/// The `(threads, affinities)` axis of side `side` of a node described by a host axis
/// and one [`DeviceAxis`] per accelerator: side 0 is the host and side `d + 1`
/// accelerator `d`, which is also the side's position in a split vector.
pub(crate) fn side_axis<'a>(
    host: (&'a [u32], &'a [Affinity]),
    device_axes: &'a [DeviceAxis],
    side: usize,
) -> (&'a [u32], &'a [Affinity]) {
    match side.checked_sub(1) {
        None => host,
        Some(device) => (
            &device_axes[device].threads,
            &device_axes[device].affinities,
        ),
    }
}

/// The discrete space of system configurations (the paper's Table I, generalised to
/// host + N accelerators), which also serves as the [`SearchSpace`] explored by
/// simulated annealing and the other heuristics.
///
/// Workload splits are an explicit list of permille share vectors
/// (`[host, device1, ..., deviceN]`, each summing to 1000) — for one accelerator this
/// is the paper's scalar "workload fraction" parameter, for N accelerators it is a
/// discrete simplex (see [`ConfigurationSpace::multi_accelerator`]).
///
/// The split list is fixed at construction ([`ConfigurationSpace::splits`] reads it),
/// so the split-move index the neighbour moves use, built on first use and shared by
/// clones, can never go stale.  Equality and `Debug` ignore the index.
#[derive(Clone)]
pub struct ConfigurationSpace {
    /// Candidate host thread counts.
    pub host_threads: Vec<u32>,
    /// Candidate host affinities.
    pub host_affinities: Vec<Affinity>,
    /// One axis per accelerator.
    pub device_axes: Vec<DeviceAxis>,
    splits: Vec<Vec<u32>>,
    split_moves: Arc<OnceLock<SplitMoves>>,
}

impl PartialEq for ConfigurationSpace {
    fn eq(&self, other: &Self) -> bool {
        self.host_threads == other.host_threads
            && self.host_affinities == other.host_affinities
            && self.device_axes == other.device_axes
            && self.splits == other.splits
    }
}

impl Eq for ConfigurationSpace {}

impl fmt::Debug for ConfigurationSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConfigurationSpace")
            .field("host_threads", &self.host_threads)
            .field("host_affinities", &self.host_affinities)
            .field("device_axes", &self.device_axes)
            .field("splits", &self.splits)
            .finish()
    }
}

/// How many L1-nearest splits a local split move draws from (`2 × 8`).
const SPLIT_WINDOW: usize = 16;

/// The split-move index of a [`ConfigurationSpace`]: where a configuration's split
/// first occurs in the split list (one hash probe instead of a scan), and per list
/// position the [`SPLIT_WINDOW`] L1-nearest other positions a local move draws from
/// (filled on the position's first move, instead of a scan and a sort per move).
struct SplitMoves {
    /// Open-addressing table over the distinct splits, probed linearly from the
    /// Fibonacci hash of the shares: each slot holds the position of a split's first
    /// occurrence, [`SplitMoves::EMPTY`] marks a free slot.  At most half full.
    slots: Box<[u32]>,
    /// `64 − log2(slots.len())`: the hash's top bits pick the first slot.
    shift: u32,
    /// `min(SPLIT_WINDOW, splits − 1)`: how many neighbours every position has.
    window: usize,
    /// Per list position, its nearest other positions in `(distance, position)`
    /// order (the first `window` entries are used).
    nearest: Box<[OnceLock<[u32; SPLIT_WINDOW]>]>,
}

impl SplitMoves {
    const EMPTY: u32 = u32::MAX;

    fn new(splits: &[Vec<u32>]) -> Self {
        assert!(
            splits.len() < Self::EMPTY as usize,
            "too many splits for the split-move index"
        );
        let bits = (2 * splits.len())
            .max(2)
            .next_power_of_two()
            .trailing_zeros();
        let mut moves = SplitMoves {
            slots: vec![Self::EMPTY; 1 << bits].into_boxed_slice(),
            shift: 64 - bits,
            window: SPLIT_WINDOW.min(splits.len().saturating_sub(1)),
            nearest: splits.iter().map(|_| OnceLock::new()).collect(),
        };
        for (position, split) in splits.iter().enumerate() {
            let slot = moves.probe(splits, split.iter().copied());
            // a duplicate finds its first occurrence and leaves it in place
            if moves.slots[slot] == Self::EMPTY {
                moves.slots[slot] = position as u32;
            }
        }
        moves
    }

    /// The slot holding `shares`, or the free slot where it would go.
    fn probe(&self, splits: &[Vec<u32>], shares: impl Iterator<Item = u32> + Clone) -> usize {
        let hash = shares.clone().fold(0u64, |hash, share| {
            (hash.rotate_left(5) ^ u64::from(share)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        });
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                Self::EMPTY => return slot,
                position if splits[position as usize].iter().copied().eq(shares.clone()) => {
                    return slot
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The position of `config`'s split's first occurrence in the list, 0 if absent.
    fn position(&self, splits: &[Vec<u32>], config: &SystemConfiguration) -> usize {
        match self.slots[self.probe(splits, config.shares())] {
            Self::EMPTY => 0,
            position => position as usize,
        }
    }

    /// The `window` L1-nearest positions to `current` (never `current` itself), in
    /// `(distance, position)` order.
    fn nearest(&self, splits: &[Vec<u32>], current: usize) -> &[u32] {
        let nearest = self.nearest[current].get_or_init(|| {
            let here = &splits[current];
            // insertion into a sorted buffer: positions arrive in increasing order, so
            // a tie never displaces an earlier position
            let mut best = [(u64::MAX, u32::MAX); SPLIT_WINDOW];
            let last = self.window - 1;
            for (position, split) in splits.iter().enumerate() {
                if position == current {
                    continue;
                }
                let distance: u64 = split
                    .iter()
                    .zip(here)
                    .map(|(&a, &b)| u64::from(a.abs_diff(b)))
                    .sum();
                let candidate = (distance, position as u32);
                if candidate < best[last] {
                    let mut slot = last;
                    while slot > 0 && candidate < best[slot - 1] {
                        best[slot] = best[slot - 1];
                        slot -= 1;
                    }
                    best[slot] = candidate;
                }
            }
            best.map(|(_, position)| position)
        });
        &nearest[..self.window]
    }
}

impl ConfigurationSpace {
    fn from_parts(
        host_threads: Vec<u32>,
        host_affinities: Vec<Affinity>,
        device_axes: Vec<DeviceAxis>,
        splits: Vec<Vec<u32>>,
    ) -> Self {
        ConfigurationSpace {
            host_threads,
            host_affinities,
            device_axes,
            splits,
            split_moves: Arc::default(),
        }
    }

    /// A single-accelerator space from the paper's parameterization: explicit host
    /// permille candidates, one device axis.
    pub fn two_way(
        host_threads: Vec<u32>,
        host_affinities: Vec<Affinity>,
        device_threads: Vec<u32>,
        device_affinities: Vec<Affinity>,
        host_permilles: Vec<u32>,
    ) -> Self {
        Self::from_parts(
            host_threads,
            host_affinities,
            vec![DeviceAxis::new(device_threads, device_affinities)],
            host_permilles
                .into_iter()
                .map(|p| {
                    assert!(p <= 1000, "host permille {p} out of range");
                    vec![p, 1000 - p]
                })
                .collect(),
        )
    }

    /// A multi-accelerator space: the paper's host axis, one [`DeviceAxis`] per
    /// accelerator and all workload splits on the uniform `step_permille` simplex.
    pub fn multi_accelerator(
        host_threads: Vec<u32>,
        host_affinities: Vec<Affinity>,
        device_axes: Vec<DeviceAxis>,
        step_permille: u32,
    ) -> Self {
        let steps = vec![step_permille; device_axes.len() + 1];
        Self::multi_accelerator_heterogeneous(host_threads, host_affinities, device_axes, &steps)
    }

    /// A multi-accelerator space with **per-device split granularity**: one
    /// `step_permille` per simplex position (`steps_permille[0]` is the host,
    /// `steps_permille[i]` accelerator `i − 1`, so
    /// `steps_permille.len() == device_axes.len() + 1`).
    ///
    /// Coarse steps for slow devices shrink the N-way split simplex multiplicatively —
    /// a host + 2-accelerator space at a uniform 2.5 % step has 861 splits, while
    /// 2.5 % host / 10 % fast device / 25 % slow device keeps 55 — which shortens both
    /// enumeration grids and the annealer's warm-up over the split axis.
    pub fn multi_accelerator_heterogeneous(
        host_threads: Vec<u32>,
        host_affinities: Vec<Affinity>,
        device_axes: Vec<DeviceAxis>,
        steps_permille: &[u32],
    ) -> Self {
        assert_eq!(
            steps_permille.len(),
            device_axes.len() + 1,
            "one step per simplex position: host + {} accelerators, got {} steps",
            device_axes.len(),
            steps_permille.len()
        );
        let splits = Self::simplex_splits_heterogeneous(steps_permille);
        Self::from_parts(host_threads, host_affinities, device_axes, splits)
    }

    /// All share vectors `[host, device1, ..., deviceN]` summing to 1000 in which
    /// every position is a multiple of *its own* `steps_permille` entry (host
    /// first) — the discrete simplex the N-way splits live on.
    ///
    /// Every step must divide 1000 (so the simplex is never empty — the
    /// all-on-the-last-device vector always qualifies).  Positions before the last
    /// iterate their own step grid and the last device takes the remainder, which is
    /// kept only when it lands on that device's grid; with uniform steps this prunes
    /// nothing.  Vectors are ordered lexicographically (host share ascending, then
    /// device shares), so for one accelerator the order matches the paper's
    /// ascending workload-fraction list.
    fn simplex_splits_heterogeneous(steps_permille: &[u32]) -> Vec<Vec<u32>> {
        assert!(
            steps_permille.len() >= 2,
            "a split needs the host plus at least one accelerator, got {} positions",
            steps_permille.len()
        );
        for &step in steps_permille {
            assert!(
                step >= 1 && 1000 % step == 0,
                "every step must divide 1000 permille, got {step}"
            );
        }
        let mut splits = Vec::new();
        let mut current = Vec::with_capacity(steps_permille.len());
        fn recurse(steps: &[u32], remaining: u32, current: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if steps.len() == 1 {
                // the last device absorbs the remainder — but only onto its own grid
                if remaining.is_multiple_of(steps[0]) {
                    current.push(remaining);
                    out.push(current.clone());
                    current.pop();
                }
                return;
            }
            let mut share = 0;
            while share <= remaining {
                current.push(share);
                recurse(&steps[1..], remaining - share, current, out);
                current.pop();
                share += steps[0];
            }
        }
        recurse(steps_permille, 1000, &mut current, &mut splits);
        splits
    }

    /// The search space of the paper's Table I: host threads {2, 4, 6, 12, 24, 36, 48},
    /// device threads {2, 4, 8, 16, 30, 60, 120, 180, 240}, three affinities per side
    /// and a workload fraction with 1 % granularity (0..=100).
    pub fn paper() -> Self {
        Self::two_way(
            vec![2, 4, 6, 12, 24, 36, 48],
            Affinity::HOST.to_vec(),
            vec![2, 4, 8, 16, 30, 60, 120, 180, 240],
            Affinity::DEVICE.to_vec(),
            (0..=100).map(|p| p * 10).collect(),
        )
    }

    /// The enumeration grid used by the paper's EM/EML reference methods
    /// (Section IV-C): host threads {2, 6, 12, 24, 36, 48}, the same device threads and
    /// affinities, and the workload fraction in 2.5 % steps, for a total of
    /// 6 × 3 × 9 × 3 × 41 = 19 926 configurations.
    pub fn enumeration_grid() -> Self {
        Self::two_way(
            vec![2, 6, 12, 24, 36, 48],
            Affinity::HOST.to_vec(),
            vec![2, 4, 8, 16, 30, 60, 120, 180, 240],
            Affinity::DEVICE.to_vec(),
            (0..=40).map(|s| s * 25).collect(),
        )
    }

    /// A deliberately small space for unit tests and quick examples.
    pub fn tiny() -> Self {
        Self::two_way(
            vec![4, 24, 48],
            vec![Affinity::Scatter, Affinity::Compact],
            vec![30, 120, 240],
            vec![Affinity::Balanced, Affinity::Compact],
            (0..=10).map(|p| p * 100).collect(),
        )
    }

    /// A small two-accelerator space over the Emil-with-GPU platform
    /// ([`hetero_platform::HeterogeneousPlatform::emil_with_gpu`]): host + Xeon Phi +
    /// GPU with 10 % split granularity.  Used by the multi-accelerator example and
    /// tests.
    pub fn tiny_multi() -> Self {
        ConfigurationSpace::multi_accelerator(
            vec![12, 48],
            vec![Affinity::Scatter],
            vec![
                DeviceAxis::new(vec![60, 240], vec![Affinity::Balanced]),
                DeviceAxis::new(vec![112, 448], vec![Affinity::Balanced]),
            ],
            100,
        )
    }

    /// Number of accelerators this space describes.
    pub fn accelerator_count(&self) -> usize {
        self.device_axes.len()
    }

    /// Candidate workload splits (`[host, device1, ..., deviceN]` permille vectors,
    /// each summing to 1000, each of length `device_axes.len() + 1`).
    pub fn splits(&self) -> &[Vec<u32>] {
        &self.splits
    }

    fn split_moves(&self) -> &SplitMoves {
        self.split_moves
            .get_or_init(|| SplitMoves::new(&self.splits))
    }

    /// Side `side`'s candidate `(threads, affinities)` (see [`side_axis`]).
    fn side(&self, side: usize) -> (&[u32], &[Affinity]) {
        side_axis(
            (&self.host_threads, &self.host_affinities),
            &self.device_axes,
            side,
        )
    }

    /// Every side's axis in side order, the host first (see
    /// [`ConfigurationSpace::side`]).
    pub(crate) fn sides(
        &self,
    ) -> impl DoubleEndedIterator<Item = (&[u32], &[Affinity])> + ExactSizeIterator {
        (0..self.device_axes.len() + 1).map(|side| self.side(side))
    }

    /// Number of configurations in the space (the paper's Eq. 1: the product of the
    /// parameter value-range sizes).
    pub fn total_configurations(&self) -> u128 {
        self.sides()
            .map(|(threads, affinities)| threads.len() as u128 * affinities.len() as u128)
            .product::<u128>()
            * self.splits.len() as u128
    }

    fn sample_index<T>(values: &[T], rng: &mut StdRng) -> usize {
        debug_assert!(!values.is_empty());
        rng.gen_range(0..values.len())
    }

    fn nudge_index<T>(values: &[T], current: usize, max_step: usize, rng: &mut StdRng) -> usize {
        if values.len() <= 1 {
            return 0;
        }
        // Mostly local moves, with an occasional uniform jump so the walk can escape
        // corner optima (e.g. "everything on the host") that local moves reach slowly.
        if rng.gen_bool(0.1) {
            return rng.gen_range(0..values.len());
        }
        let step = rng.gen_range(1..=max_step.max(1)) as i64;
        let direction = if rng.gen_bool(0.5) { 1 } else { -1 };
        (current as i64 + direction * step).clamp(0, values.len() as i64 - 1) as usize
    }

    fn index_of<T: PartialEq>(values: &[T], value: &T) -> usize {
        values.iter().position(|v| v == value).unwrap_or(0)
    }

    /// A local move on the split list: pick uniformly among the [`SPLIT_WINDOW`]
    /// splits *nearest by L1 distance* to the current one (ties broken by list order),
    /// with the usual occasional uniform jump.
    ///
    /// Nudging the *index* instead would be wrong for N ≥ 2 accelerators: the simplex
    /// list is ordered lexicographically, so index-adjacent entries straddling a
    /// host-share boundary are semantically distant (`[0, 1000, 0]` is next to
    /// `[100, 0, 900]`) and a "small" nudge would teleport an entire device share.
    /// For one accelerator on an evenly spaced list the window holds the 8 splits on
    /// each side of the current one, each drawn with probability 1/16; within 8
    /// positions of either end it reaches further into the open side so it still
    /// holds 16, and a list of at most 16 splits puts all the others in it.  A local
    /// move therefore never stays put and never piles up on the end split.
    fn nudge_split(&self, current: usize, rng: &mut StdRng) -> usize {
        if self.splits.len() <= 1 {
            return 0;
        }
        if rng.gen_bool(0.1) {
            return rng.gen_range(0..self.splits.len());
        }
        let nearest = self.split_moves().nearest(&self.splits, current);
        nearest[rng.gen_range(0..nearest.len())] as usize
    }

    /// The brute-force split move the index replaces: a scan for the split's
    /// position, then a distance sort of every other split on each local move.
    #[cfg(test)]
    fn split_position_by_scan(&self, config: &SystemConfiguration) -> usize {
        Self::index_of(&self.splits, &config.split())
    }

    #[cfg(test)]
    fn nearest_splits_by_scan(&self, current: usize, max_step: usize) -> Vec<usize> {
        let here = &self.splits[current];
        let mut by_distance: Vec<(u64, usize)> = self
            .splits
            .iter()
            .enumerate()
            .filter(|&(index, _)| index != current)
            .map(|(index, split)| {
                let distance: u64 = split
                    .iter()
                    .zip(here)
                    .map(|(&a, &b)| u64::from(a.abs_diff(b)))
                    .sum();
                (distance, index)
            })
            .collect();
        let window = (2 * max_step.max(1)).min(by_distance.len());
        by_distance.select_nth_unstable(window - 1);
        by_distance.truncate(window);
        by_distance.sort_unstable();
        by_distance.into_iter().map(|(_, index)| index).collect()
    }

    #[cfg(test)]
    fn nudge_split_by_scan(&self, current: usize, max_step: usize, rng: &mut StdRng) -> usize {
        if self.splits.len() <= 1 {
            return 0;
        }
        if rng.gen_bool(0.1) {
            return rng.gen_range(0..self.splits.len());
        }
        let nearest = self.nearest_splits_by_scan(current, max_step);
        nearest[rng.gen_range(0..nearest.len())]
    }

    /// Build a configuration from one `(threads, affinity)` per side and a split
    /// vector, both in side order.
    fn build(&self, values: &[(u32, Affinity)], split: &[u32]) -> SystemConfiguration {
        debug_assert_eq!(values.len(), self.device_axes.len() + 1);
        debug_assert_eq!(split.len(), values.len());
        let devices = values[1..]
            .iter()
            .zip(&split[1..])
            .map(|(&(threads, affinity), &permille)| {
                DeviceSetting::new(threads, affinity, permille)
            })
            .collect();
        let (host_threads, host_affinity) = values[0];
        SystemConfiguration::from_validated(host_threads, host_affinity, split[0], devices)
    }
}

impl SearchSpace for ConfigurationSpace {
    type Config = SystemConfiguration;

    fn random(&self, rng: &mut StdRng) -> SystemConfiguration {
        let values: Vec<(u32, Affinity)> = self
            .sides()
            .map(|(threads, affinities)| {
                (
                    threads[Self::sample_index(threads, rng)],
                    affinities[Self::sample_index(affinities, rng)],
                )
            })
            .collect();
        let split = &self.splits[Self::sample_index(&self.splits, rng)];
        self.build(&values, split)
    }

    /// Perturb one parameter (occasionally two): a thread count or affinity of one
    /// side, or the split.  A split move changes every side whose share actually
    /// moved — for one accelerator that is host + device, for N accelerators usually
    /// a small subset.
    fn neighbor_move(&self, config: &SystemConfiguration, rng: &mut StdRng) -> SystemConfiguration {
        let mut values: Vec<(u32, Affinity)> = config.knobs().collect();
        debug_assert_eq!(values.len(), self.device_axes.len() + 1);
        let mut split_index = self.split_moves().position(&self.splits, config);

        // perturb one parameter most of the time, occasionally two, so the walk can
        // escape ridges that require coordinated changes.  Parameter 2 is the split;
        // the others are each side's threads and affinity in side order: 0/1 the
        // host's, 3 + 2d / 4 + 2d accelerator d's.
        let parameters = 3 + 2 * self.device_axes.len() as u8;
        let changes = if rng.gen_bool(0.2) { 2 } else { 1 };
        for _ in 0..changes {
            let parameter = rng.gen_range(0..parameters);
            if parameter == 2 {
                split_index = self.nudge_split(split_index, rng);
                continue;
            }
            let knob = usize::from(parameter - u8::from(parameter > 2));
            let (threads, affinities) = self.side(knob / 2);
            let value = &mut values[knob / 2];
            if knob % 2 == 0 {
                let i = Self::index_of(threads, &value.0);
                value.0 = threads[Self::nudge_index(threads, i, 2, rng)];
            } else {
                value.1 = affinities[Self::sample_index(affinities, rng)];
            }
        }
        self.build(&values, &self.splits[split_index])
    }

    fn space_len(&self) -> Option<usize> {
        usize::try_from(self.total_configurations()).ok()
    }

    /// Decode the mixed-radix enumeration index — host threads are the most
    /// significant digit, the split the least, matching exactly the nested-loop order
    /// of [`SearchSpace::enumerate`] below.  This is the only way the enumeration
    /// drivers read the space: they stream N-way grids through it in fixed-size
    /// chunks instead of allocating the whole cross product.
    fn config_at(&self, index: usize) -> Option<SystemConfiguration> {
        let len = self.space_len()?;
        if index >= len {
            return None;
        }
        let mut rest = index;
        let split_index = rest % self.splits.len();
        rest /= self.splits.len();
        // one (threads, affinity) digit pair per side, the last side least significant
        let mut values = vec![(0u32, Affinity::None); self.device_axes.len() + 1];
        for (value, (threads, affinities)) in values.iter_mut().zip(self.sides()).rev() {
            let affinity_index = rest % affinities.len();
            rest /= affinities.len();
            let thread_index = rest % threads.len();
            rest /= threads.len();
            *value = (threads[thread_index], affinities[affinity_index]);
        }
        debug_assert_eq!(rest, 0);
        Some(self.build(&values, &self.splits[split_index]))
    }

    /// The reference enumeration order, built as nested loops; tests check
    /// [`SearchSpace::config_at`] against it.  No driver calls it.
    fn enumerate(&self) -> Option<Vec<SystemConfiguration>> {
        // cross product over the device axes, axis-major (threads outer, affinity
        // inner), matching the single-accelerator enumeration order of the paper grid
        let mut device_combos: Vec<Vec<(u32, Affinity)>> = vec![Vec::new()];
        for axis in &self.device_axes {
            let mut extended = Vec::with_capacity(
                device_combos.len() * axis.threads.len() * axis.affinities.len(),
            );
            for combo in &device_combos {
                for &threads in &axis.threads {
                    for &affinity in &axis.affinities {
                        let mut next = combo.clone();
                        next.push((threads, affinity));
                        extended.push(next);
                    }
                }
            }
            device_combos = extended;
        }

        let mut all = Vec::with_capacity(self.total_configurations().min(1 << 24) as usize);
        for &host_threads in &self.host_threads {
            for &host_affinity in &self.host_affinities {
                for combo in &device_combos {
                    let mut values = vec![(host_threads, host_affinity)];
                    values.extend_from_slice(combo);
                    for split in &self.splits {
                        all.push(self.build(&values, split));
                    }
                }
            }
        }
        Some(all)
    }

    /// Uniform crossover: each thread count and affinity comes from either parent,
    /// and the split is inherited wholesale from one of them.
    fn crossover_move(
        &self,
        parent_a: &SystemConfiguration,
        parent_b: &SystemConfiguration,
        rng: &mut StdRng,
    ) -> SystemConfiguration {
        debug_assert_eq!(parent_a.accelerator_count(), parent_b.accelerator_count());
        let values: Vec<(u32, Affinity)> = parent_a
            .knobs()
            .zip(parent_b.knobs())
            .map(|(a, b)| {
                (
                    if rng.gen_bool(0.5) { a.0 } else { b.0 },
                    if rng.gen_bool(0.5) { a.1 } else { b.1 },
                )
            })
            .collect();
        // the split is inherited wholesale: mixing permilles element-wise would leave
        // the simplex
        let split = if rng.gen_bool(0.5) {
            parent_a.split()
        } else {
            parent_b.split()
        };
        self.build(&values, &split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fraction_accessors_are_consistent() {
        let cfg = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            120,
            Affinity::Balanced,
            60,
        );
        assert_eq!(cfg.host_permille(), 600);
        assert!((cfg.host_fraction() - 0.6).abs() < 1e-12);
        assert!(cfg.uses_host() && cfg.uses_device());
        assert!((cfg.partition().host_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(cfg.host_execution().threads, 24);
        assert_eq!(cfg.device_execution().threads, 120);
        assert_eq!(cfg.accelerator_count(), 1);
        assert_eq!(cfg.split(), vec![600, 400]);
    }

    #[test]
    fn construction_enforces_the_share_invariant() {
        // Regression: `host_permille` used to be a public field with no invariant, so
        // an out-of-range value (e.g. 1200) evaluated identically to 1000 but produced
        // a distinct persistent-store key.  Out-of-range and non-summing shares are
        // now rejected at construction.
        assert!(SystemConfiguration::new(
            48,
            Affinity::Scatter,
            1200,
            vec![DeviceSetting::new(240, Affinity::Balanced, 0)]
        )
        .is_err());
        assert!(SystemConfiguration::new(
            48,
            Affinity::Scatter,
            600,
            vec![DeviceSetting::new(240, Affinity::Balanced, 300)]
        )
        .is_err());
        assert!(SystemConfiguration::new(48, Affinity::Scatter, 1000, vec![]).is_err());
        let ok = SystemConfiguration::new(
            48,
            Affinity::Scatter,
            500,
            vec![
                DeviceSetting::new(240, Affinity::Balanced, 300),
                DeviceSetting::new(448, Affinity::Balanced, 200),
            ],
        )
        .unwrap();
        assert_eq!(ok.accelerator_count(), 2);
        assert_eq!(ok.split(), vec![500, 300, 200]);
        // and `with_host_percent` normalizes over-range percentages instead of
        // storing them
        let clamped = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            120,
        );
        assert_eq!(clamped.host_permille(), 1000);
    }

    #[test]
    fn baselines_are_exclusive() {
        let host_only = SystemConfiguration::host_only_baseline();
        assert!(host_only.uses_host() && !host_only.uses_device());
        assert_eq!(host_only.host_threads, 48);
        let device_only = SystemConfiguration::device_only_baseline();
        assert!(!device_only.uses_host() && device_only.uses_device());
        assert_eq!(device_only.device_threads(), 240);

        // multi-accelerator variants keep the invariant and the right arity
        let host_only2 = SystemConfiguration::host_only_baseline_for(2);
        assert_eq!(host_only2.accelerator_count(), 2);
        assert_eq!(host_only2.partition().device_fractions(), &[0.0, 0.0]);
        let device_only2 = SystemConfiguration::device_only_baseline_for(2);
        assert_eq!(device_only2.split(), vec![0, 1000, 0]);
    }

    #[test]
    fn display_mentions_the_split() {
        let cfg =
            SystemConfiguration::with_host_percent(48, Affinity::None, 240, Affinity::Compact, 70);
        let text = cfg.to_string();
        assert!(text.contains("70.0/30.0"));
        assert!(text.contains("none"));
        assert!(text.contains("compact"));

        let multi = SystemConfiguration::new(
            48,
            Affinity::Scatter,
            500,
            vec![
                DeviceSetting::new(240, Affinity::Balanced, 300),
                DeviceSetting::new(448, Affinity::Balanced, 200),
            ],
        )
        .unwrap();
        let text = multi.to_string();
        assert!(text.contains("device1"));
        assert!(text.contains("device2"));
        assert!(text.contains("50.0/30.0/20.0"));
    }

    #[test]
    fn paper_space_cardinality_matches_eq_1() {
        let space = ConfigurationSpace::paper();
        assert_eq!(
            space.total_configurations(),
            7 * 3 * 9 * 3 * 101,
            "product of the Table I value-range sizes"
        );
    }

    #[test]
    fn enumeration_grid_has_19926_configurations() {
        let grid = ConfigurationSpace::enumeration_grid();
        assert_eq!(grid.total_configurations(), 19_926);
        let all = grid.enumerate().unwrap();
        assert_eq!(all.len(), 19_926);
        // no duplicates
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn simplex_splits_cover_exactly_the_step_grid() {
        // one accelerator: the simplex is the paper's scalar fraction list
        let one = ConfigurationSpace::simplex_splits_heterogeneous(&[25, 25]);
        assert_eq!(one.len(), 41);
        assert_eq!(one.first().unwrap(), &vec![0, 1000]);
        assert_eq!(one.last().unwrap(), &vec![1000, 0]);

        // two accelerators with 10 % steps: C(12, 2) = 66 compositions
        let two = ConfigurationSpace::simplex_splits_heterogeneous(&[100, 100, 100]);
        assert_eq!(two.len(), 66);
        for split in &two {
            assert_eq!(split.len(), 3);
            assert_eq!(split.iter().sum::<u32>(), 1000);
            assert!(split.iter().all(|&s| s % 100 == 0));
        }
        // no duplicates
        let unique: std::collections::HashSet<_> = two.iter().collect();
        assert_eq!(unique.len(), two.len());

        // three accelerators with 25 % steps: C(4 + 3, 3) = 35 compositions
        assert_eq!(
            ConfigurationSpace::simplex_splits_heterogeneous(&[250, 250, 250, 250]).len(),
            35
        );
    }

    #[test]
    fn heterogeneous_steps_prune_to_each_devices_grid() {
        // host at 25 %, one device at 10 %: only remainders on the 10 % grid survive
        // (750 and 250 are not multiples of 100, so those host shares are pruned)
        let splits = ConfigurationSpace::simplex_splits_heterogeneous(&[250, 100]);
        assert_eq!(splits, vec![vec![0, 1000], vec![500, 500], vec![1000, 0]]);

        // host 25 %, device at 100 %: only the two corners and the 0-remainder rows
        let coarse = ConfigurationSpace::simplex_splits_heterogeneous(&[250, 1000]);
        assert_eq!(coarse, vec![vec![0, 1000], vec![1000, 0]]);

        // three positions, mixed granularity: every entry is on its own grid, the sum
        // invariant holds, the order is host-ascending lexicographic, no duplicates
        let steps = [100u32, 250, 500];
        let mixed = ConfigurationSpace::simplex_splits_heterogeneous(&steps);
        assert!(!mixed.is_empty());
        for split in &mixed {
            assert_eq!(split.len(), 3);
            assert_eq!(split.iter().sum::<u32>(), 1000);
            for (share, step) in split.iter().zip(steps) {
                assert_eq!(share % step, 0, "{split:?}");
            }
        }
        let mut sorted = mixed.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, mixed, "lexicographic order, no duplicates");
        // and the coarse slow device shrinks the simplex well below the uniform grid
        assert!(
            mixed.len() < ConfigurationSpace::simplex_splits_heterogeneous(&[100, 100, 100]).len()
        );
    }

    #[test]
    fn heterogeneous_space_enumerates_and_anneals() {
        use rand::SeedableRng as _;
        let space = ConfigurationSpace::multi_accelerator_heterogeneous(
            vec![12, 48],
            vec![Affinity::Scatter],
            vec![
                DeviceAxis::new(vec![60, 240], vec![Affinity::Balanced]),
                DeviceAxis::new(vec![112, 448], vec![Affinity::Balanced]),
            ],
            &[100, 200, 500],
        );
        let all = space.enumerate().unwrap();
        assert_eq!(all.len() as u128, space.total_configurations());
        for (index, config) in all.iter().enumerate() {
            assert_eq!(space.config_at(index).as_ref(), Some(config));
            assert_eq!(config.split().iter().sum::<u32>(), 1000);
        }
        // the walk stays inside the pruned simplex
        let mut rng = StdRng::seed_from_u64(11);
        let mut config = space.random(&mut rng);
        for _ in 0..300 {
            config = space.neighbor_move(&config, &mut rng);
            assert!(space.splits.contains(&config.split()));
        }
    }

    #[test]
    #[should_panic(expected = "one step per simplex position")]
    fn heterogeneous_steps_must_match_the_device_count() {
        let _ = ConfigurationSpace::multi_accelerator_heterogeneous(
            vec![48],
            vec![Affinity::Scatter],
            vec![DeviceAxis::new(vec![240], vec![Affinity::Balanced])],
            &[100, 100, 100],
        );
    }

    #[test]
    fn multi_accelerator_space_enumerates_valid_configurations() {
        let space = ConfigurationSpace::tiny_multi();
        assert_eq!(space.accelerator_count(), 2);
        let all = space.enumerate().unwrap();
        assert_eq!(all.len() as u128, space.total_configurations());
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        for config in &all {
            assert_eq!(config.accelerator_count(), 2);
            assert_eq!(config.split().iter().sum::<u32>(), 1000);
            // every enumerated configuration yields a partition `Partition::new` accepts
            let partition = config.partition();
            assert_eq!(partition.accelerator_count(), 2);
        }
    }

    #[test]
    fn random_configurations_stay_within_the_space() {
        let space = ConfigurationSpace::paper();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let cfg = space.random(&mut rng);
            assert!(space.host_threads.contains(&cfg.host_threads));
            assert!(space.host_affinities.contains(&cfg.host_affinity));
            assert!(space.device_axes[0].threads.contains(&cfg.device_threads()));
            assert!(space.device_axes[0]
                .affinities
                .contains(&cfg.device_affinity()));
            assert!(space.splits.contains(&cfg.split()));
        }
    }

    #[test]
    fn neighbors_stay_within_the_space_and_differ_slightly() {
        for space in [
            ConfigurationSpace::paper(),
            ConfigurationSpace::tiny_multi(),
        ] {
            let mut rng = StdRng::seed_from_u64(2);
            let mut cfg = space.random(&mut rng);
            for _ in 0..1000 {
                let next = space.neighbor_move(&cfg, &mut rng);
                assert!(space.host_threads.contains(&next.host_threads));
                assert!(space.host_affinities.contains(&next.host_affinity));
                for (axis, device) in space.device_axes.iter().zip(next.devices()) {
                    assert!(axis.threads.contains(&device.threads));
                    assert!(axis.affinities.contains(&device.affinity));
                }
                assert!(space.splits.contains(&next.split()));
                // at most two of the parameters change per move (threads, affinity or
                // the whole split vector)
                let changed = usize::from(next.host_threads != cfg.host_threads)
                    + usize::from(next.host_affinity != cfg.host_affinity)
                    + usize::from(next.split() != cfg.split())
                    + next
                        .devices()
                        .iter()
                        .zip(cfg.devices())
                        .map(|(n, c)| {
                            usize::from(n.threads != c.threads)
                                + usize::from(n.affinity != c.affinity)
                        })
                        .sum::<usize>();
                assert!(changed <= 2, "{changed} parameters changed in one move");
                cfg = next;
            }
        }
    }

    #[test]
    fn neighbor_fraction_moves_are_mostly_local() {
        let space = ConfigurationSpace::paper();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            60,
            Affinity::Balanced,
            50,
        );
        let mut large_moves = 0usize;
        let samples = 1000;
        for _ in 0..samples {
            let next = space.neighbor_move(&cfg, &mut rng);
            let delta = (next.host_permille() as i64 - cfg.host_permille() as i64).abs();
            if delta > 160 {
                large_moves += 1;
            }
        }
        // local nudges dominate; the occasional uniform jump (~10 % of fraction moves,
        // i.e. a few percent of all moves) keeps the walk ergodic
        assert!(
            large_moves < samples / 10,
            "{large_moves}/{samples} moves were long-range jumps"
        );
    }

    #[test]
    fn crossover_only_mixes_parent_values() {
        let space = ConfigurationSpace::paper();
        let mut rng = StdRng::seed_from_u64(4);
        let a = SystemConfiguration::with_host_percent(2, Affinity::None, 2, Affinity::Compact, 0);
        let b = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            100,
        );
        for _ in 0..100 {
            let child = space.crossover_move(&a, &b, &mut rng);
            assert!(child.host_threads == 2 || child.host_threads == 48);
            assert!(child.device_threads() == 2 || child.device_threads() == 240);
            assert!(child.host_permille() == 0 || child.host_permille() == 1000);
            assert_eq!(child.split().iter().sum::<u32>(), 1000);
        }
    }

    #[test]
    fn config_at_matches_the_enumeration_order_exactly() {
        // the indexed decoder and the nested-loop enumeration are two independent
        // implementations of the same order; they must agree element by element
        for space in [
            ConfigurationSpace::tiny(),
            ConfigurationSpace::tiny_multi(),
            ConfigurationSpace::multi_accelerator(
                vec![12, 48],
                vec![Affinity::Scatter, Affinity::Compact],
                vec![
                    DeviceAxis::new(vec![60, 240], vec![Affinity::Balanced, Affinity::Scatter]),
                    DeviceAxis::new(vec![448], vec![Affinity::Balanced]),
                    DeviceAxis::new(vec![30, 60], vec![Affinity::Compact]),
                ],
                250,
            ),
        ] {
            let all = space.enumerate().unwrap();
            assert_eq!(space.space_len(), Some(all.len()));
            for (index, config) in all.iter().enumerate() {
                assert_eq!(
                    space.config_at(index).as_ref(),
                    Some(config),
                    "index {index}"
                );
            }
            assert_eq!(space.config_at(all.len()), None);
        }
    }

    #[test]
    fn tiny_space_is_enumerable_quickly() {
        let space = ConfigurationSpace::tiny();
        let all = space.enumerate().unwrap();
        assert_eq!(all.len() as u128, space.total_configurations());
        assert!(all.len() < 1000);
    }

    #[test]
    fn hand_built_spaces_cannot_mint_invalid_configurations() {
        // a bad split entry must fail loudly (in every build profile) instead of
        // silently producing a configuration that evaluates like another split but
        // occupies its own persistent-store key
        let tiny = ConfigurationSpace::tiny();
        let mut splits = tiny.splits().to_vec();
        splits.push(vec![1200, 0]);
        let space = ConfigurationSpace::from_parts(
            tiny.host_threads,
            tiny.host_affinities,
            tiny.device_axes,
            splits,
        );
        assert!(std::panic::catch_unwind(|| space.enumerate()).is_err());
    }

    #[test]
    fn multi_accelerator_split_moves_are_local_in_l1_distance() {
        // Regression: nudging the *index* into the lexicographically ordered simplex
        // list teleports across host-share boundaries for N >= 2 accelerators
        // ([0,1000,0] is index-adjacent to [100,0,900]); moves must be local in the
        // split itself, not in the list order.
        let space = ConfigurationSpace::tiny_multi();
        let start = space
            .enumerate()
            .unwrap()
            .into_iter()
            .find(|c| c.split() == vec![0, 1000, 0])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let samples = 1000;
        let mut far_moves = 0usize;
        for _ in 0..samples {
            let next = space.neighbor_move(&start, &mut rng);
            let l1: u64 = next
                .split()
                .iter()
                .zip(start.split())
                .map(|(&a, b)| u64::from(a.abs_diff(b)))
                .sum();
            if l1 > 600 {
                far_moves += 1;
            }
        }
        // only the occasional uniform jump may travel far across the simplex
        assert!(
            far_moves < samples / 10,
            "{far_moves}/{samples} split moves teleported across the simplex"
        );
    }

    /// Checks the split-move index of `space` against the brute-force scans: the
    /// position of every listed split (and of an unlisted one), every position's
    /// window, and the draws of a few split moves from every position.
    fn assert_split_moves_match_the_scans(space: &ConfigurationSpace, seed: u64) {
        let moves = space.split_moves();
        let host = (space.host_threads[0], space.host_affinities[0]);
        let devices = |split: &[u32]| -> Vec<DeviceSetting> {
            space
                .device_axes
                .iter()
                .zip(&split[1..])
                .map(|(axis, &permille)| {
                    DeviceSetting::new(axis.threads[0], axis.affinities[0], permille)
                })
                .collect()
        };
        let mut unlisted = vec![0; space.accelerator_count() + 1];
        unlisted[0] = 1;
        *unlisted.last_mut().unwrap() += 999;
        let configs = space.splits().iter().chain([&unlisted]).map(|split| {
            SystemConfiguration::new(host.0, host.1, split[0], devices(split)).unwrap()
        });
        for config in configs {
            assert_eq!(
                moves.position(space.splits(), &config),
                space.split_position_by_scan(&config),
                "{:?}",
                config.split()
            );
        }
        for current in 0..space.splits().len() {
            if space.splits().len() > 1 {
                let nearest: Vec<usize> = moves
                    .nearest(space.splits(), current)
                    .iter()
                    .map(|&position| position as usize)
                    .collect();
                assert_eq!(
                    nearest,
                    space.nearest_splits_by_scan(current, 8),
                    "position {current}"
                );
            }
            let mut indexed = StdRng::seed_from_u64(seed ^ current as u64);
            let mut scanned = indexed.clone();
            for _ in 0..8 {
                assert_eq!(
                    space.nudge_split(current, &mut indexed),
                    space.nudge_split_by_scan(current, 8, &mut scanned)
                );
            }
            assert_eq!(indexed.gen::<u64>(), scanned.gen::<u64>());
        }
    }

    /// Smallest step per accelerator count, so a three-accelerator simplex stays at
    /// a few hundred splits.
    const MIN_STEPS: [u32; 3] = [10, 50, 100];
    const STEPS: [u32; 8] = [10, 25, 50, 100, 125, 200, 250, 500];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The split-move index is exact on simplex spaces with 1–3 accelerators,
        /// uniform or per-device steps, in list order or shuffled with duplicates.
        #[test]
        fn split_move_index_matches_the_brute_force_scans(
            accelerators in 1usize..=3,
            steps in proptest::collection::vec(0usize..8, 4),
            uniform in 0u8..2,
            scramble in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            let steps: Vec<u32> = (0..=accelerators)
                .map(|position| {
                    let step = if uniform == 1 { steps[0] } else { steps[position] };
                    STEPS[step].max(MIN_STEPS[accelerators - 1])
                })
                .collect();
            let axis = DeviceAxis::new(vec![60, 240], vec![Affinity::Balanced]);
            let mut space = ConfigurationSpace::multi_accelerator_heterogeneous(
                vec![12, 48],
                vec![Affinity::Scatter],
                vec![axis; accelerators],
                &steps,
            );
            if scramble == 1 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut splits = space.splits().to_vec();
                for _ in 0..splits.len() / 2 + 1 {
                    let duplicate = splits[rng.gen_range(0..splits.len())].clone();
                    splits.push(duplicate);
                }
                for i in (1..splits.len()).rev() {
                    splits.swap(i, rng.gen_range(0..=i));
                }
                space = ConfigurationSpace::from_parts(
                    space.host_threads,
                    space.host_affinities,
                    space.device_axes,
                    splits,
                );
            }
            assert_split_moves_match_the_scans(&space, seed);
        }

        /// The same on hand-built one-accelerator lists: unsorted, with duplicates,
        /// from a single split (no split move at all) to fewer than 16 (the window
        /// is every other split) to more.
        #[test]
        fn split_move_index_matches_the_scans_on_hand_built_lists(
            host_shares in proptest::collection::vec(0u32..=40, 1..40),
            seed in 0u64..1_000_000,
        ) {
            let space = ConfigurationSpace::two_way(
                vec![4, 48],
                vec![Affinity::Scatter],
                vec![60, 240],
                vec![Affinity::Balanced],
                host_shares.into_iter().map(|share| share * 25).collect(),
            );
            assert_split_moves_match_the_scans(&space, seed);
        }
    }

    #[test]
    fn a_space_equals_its_clone_after_its_index_is_built() {
        let space = ConfigurationSpace::tiny_multi();
        let pristine = space.clone();
        let mut rng = StdRng::seed_from_u64(9);
        let mut config = space.random(&mut rng);
        for _ in 0..200 {
            config = space.neighbor_move(&config, &mut rng);
        }
        assert!(
            space.split_moves.get().is_some(),
            "the walk built the index"
        );
        assert_eq!(space, space.clone());
        assert_eq!(space, pristine);
        assert_eq!(format!("{space:?}"), format!("{pristine:?}"));
        // a fresh space over the same lists is equal too, index or not
        assert_eq!(space, ConfigurationSpace::tiny_multi());
    }

    #[test]
    fn one_accelerator_configurations_round_trip_through_inline_devices() {
        let inline = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            60,
            Affinity::Compact,
            40,
        );
        let built = SystemConfiguration::new(
            24,
            Affinity::Scatter,
            400,
            vec![DeviceSetting::new(60, Affinity::Compact, 600)],
        )
        .unwrap();
        assert!(matches!(inline.devices, Devices::One(_)));
        assert_eq!(inline, built);
        // `Debug` and `Hash` see the slice, exactly as for a `Vec<DeviceSetting>`
        assert!(format!("{inline:?}").contains("devices: [DeviceSetting { threads: 60"));
        fn hash_of(value: &impl Hash) -> u64 {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            value.hash(&mut hasher);
            hasher.finish()
        }
        let as_vec = (
            24u32,
            Affinity::Scatter,
            400u32,
            vec![DeviceSetting::new(60, Affinity::Compact, 600)],
        );
        assert_eq!(hash_of(&inline), hash_of(&as_vec));
        let two = SystemConfiguration::device_only_baseline_for(2);
        assert!(matches!(two.devices, Devices::Many(_)));
        assert_eq!(two.accelerator_count(), 2);
    }

    #[test]
    fn device_axis_with_ladder_clips_and_appends_capacity() {
        let ladder = [8, 30, 60, 120, 240];
        let axis = DeviceAxis::with_ladder(&ladder, 240, vec![Affinity::Balanced]);
        assert_eq!(axis.threads, vec![8, 30, 60, 120, 240]);
        let small = DeviceAxis::with_ladder(&ladder, 100, vec![Affinity::Balanced]);
        assert_eq!(small.threads, vec![8, 30, 60, 100]);
        let gpu = DeviceAxis::with_ladder(&ladder, 448, vec![Affinity::Balanced]);
        assert_eq!(gpu.threads.last(), Some(&448));
        assert!(gpu.threads.contains(&240));
    }
}

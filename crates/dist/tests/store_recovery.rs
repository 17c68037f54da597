//! Crash-consistency property tests for [`JsonlStore`]: a log truncated at **every
//! possible byte offset** still opens, loads exactly the records whose lines
//! survived complete (bit-exact), and reports the torn tail via `skipped_lines()`.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use wd_dist::{JsonlStore, ResultStore};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn unique_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "wd_dist-{tag}-{}-{}.jsonl",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Truncate the log after every prefix length in bytes: the store must load
    /// the records of every complete line (bit-exact) and count the torn tail as
    /// at most one skipped line.
    #[test]
    fn truncation_at_every_byte_offset_loads_a_valid_prefix(
        energies in proptest::collection::vec(-4.0f64..4.0, 1..20),
        offset_salt in 0u64..u64::MAX,
    ) {
        let path = unique_path("truncation");
        let _ = std::fs::remove_file(&path);

        // write the full log: one header line, then one record per key in call order
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        for (key, &energy) in energies.iter().enumerate() {
            store.record(&(key as u32), energy);
        }
        store.flush().unwrap();
        drop(store);
        let full = std::fs::read(&path).unwrap();
        // line boundaries: newline positions delimit complete lines
        let newline_ends: Vec<usize> = full
            .iter()
            .enumerate()
            .filter(|&(_, &byte)| byte == b'\n')
            .map(|(at, _)| at + 1)
            .collect();
        let header_end = newline_ends[0];

        // exhaustively truncating every offset keeps the proptest case count low
        // while still covering every tear position of this log; the salt only
        // rotates which offset goes first so early failures vary across cases
        let rotate = (offset_salt % (full.len() as u64 + 1)) as usize;
        for step in 0..=full.len() {
            let offset = (step + rotate) % (full.len() + 1);
            let truncated = unique_path("truncated");
            std::fs::write(&truncated, &full[..offset]).unwrap();

            // records on complete lines (header excluded) survive; one torn tail
            // (or torn header) is at most one skipped line
            let complete_lines = newline_ends.iter().filter(|&&end| end <= offset).count();
            let has_header = offset >= header_end;
            let prefix_records = complete_lines - usize::from(has_header);
            // at most one line can be torn: the partial tail (which, below the
            // first newline, is the header itself).  A torn record tail whose
            // fields all survived intact (e.g. only the closing brace was lost)
            // may still load — but then it must load the TRUE value; anything
            // less than bit-exact must be skipped, never guessed at.
            let torn_tail = !newline_ends.contains(&offset) && offset > 0;

            let reopened: JsonlStore<u32> = JsonlStore::open(&truncated).unwrap();
            let loaded = reopened.len();
            prop_assert!(
                loaded == prefix_records || (torn_tail && loaded == prefix_records + 1),
                "offset {}: {} records loaded from a {}-complete-line prefix",
                offset,
                loaded,
                prefix_records
            );
            // the torn tail resolves exactly one way: loaded intact (all fields
            // survived), recognised as intact metadata (header/stats), or skipped —
            // and a clean prefix never skips anything
            prop_assert!(
                reopened.skipped_lines() <= usize::from(torn_tail),
                "offset {}: {} lines skipped without a torn tail",
                offset,
                reopened.skipped_lines()
            );
            for (key, energy) in energies.iter().enumerate().take(loaded) {
                prop_assert_eq!(
                    reopened.lookup(&(key as u32)).map(f64::to_bits),
                    Some(energy.to_bits()),
                    "offset {}: record {} must survive bit-identically",
                    offset,
                    key
                );
            }
            drop(reopened);
            let _ = std::fs::remove_file(&truncated);
        }
        let _ = std::fs::remove_file(&path);
    }
}

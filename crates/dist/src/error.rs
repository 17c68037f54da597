//! Campaign-level errors: everything that can stop a sharded campaign from
//! producing a merged result.
//!
//! The coordinator used to panic on these conditions; they are ordinary runtime
//! situations for a long-lived service (a caller handing over the wrong kind of
//! space, a full disk under the result store), so they surface as values instead.

use std::fmt;
use std::io;
use std::ops::Range;

/// Why a sharded campaign could not produce (or persist) a merged result.
#[derive(Debug)]
pub enum CampaignError {
    /// The search space reported zero configurations — there is nothing to merge.
    EmptySpace,
    /// The search space has no indexed access ([`wd_opt::SearchSpace::space_len`]
    /// returns `None`); a sharded scan partitions the index range, so it needs one.
    NotEnumerable,
    /// The space promised `space_len()` configurations but `config_at(index)`
    /// returned `None` inside that range — a contract violation in the space
    /// implementation.
    MissingConfig {
        /// The global enumeration index that failed to materialise.
        index: usize,
    },
    /// Flushing the result store failed.  A persistent campaign that cannot persist
    /// is not resumable, so the error is surfaced rather than swallowed (the merged
    /// result would silently re-evaluate everything next run).
    Store(io::Error),
    /// A campaign ran out of retry budget: this index range exhausted the tries
    /// of its own slot and of the slot that stole it, or no live slot was left
    /// to take it.
    RangeAbandoned {
        /// The global enumeration-index range left uncovered.
        range: Range<usize>,
    },
    /// The multi-process transport failed outside the store itself: spawning a
    /// worker process, writing a lease or manifest file, or the campaign not
    /// settling within its wall-clock budget.
    Transport(io::Error),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::EmptySpace => write!(f, "cannot run a campaign over an empty space"),
            CampaignError::NotEnumerable => {
                write!(
                    f,
                    "sharded campaigns require an enumerable search space (one with space_len())"
                )
            }
            CampaignError::MissingConfig { index } => write!(
                f,
                "search space broke its indexing contract: space_len() covers index \
                 {index} but config_at({index}) returned None"
            ),
            CampaignError::Store(error) => {
                write!(f, "failed to flush the campaign result store: {error}")
            }
            CampaignError::RangeAbandoned { range } => write!(
                f,
                "index range {}..{} was abandoned after exhausting every retry and \
                 work-stealing path",
                range.start, range.end
            ),
            CampaignError::Transport(error) => {
                write!(f, "campaign process transport failed: {error}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Store(error) | CampaignError::Transport(error) => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for CampaignError {
    fn from(error: io::Error) -> Self {
        CampaignError::Store(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_condition() {
        assert!(CampaignError::EmptySpace.to_string().contains("empty"));
        assert!(CampaignError::NotEnumerable
            .to_string()
            .contains("enumerable"));
        assert!(CampaignError::MissingConfig { index: 7 }
            .to_string()
            .contains("config_at(7)"));
        let wrapped = CampaignError::from(io::Error::other("disk full"));
        assert!(wrapped.to_string().contains("disk full"));
        assert!(std::error::Error::source(&wrapped).is_some());
        assert!(CampaignError::RangeAbandoned { range: 3..9 }
            .to_string()
            .contains("3..9"));
        let transport = CampaignError::Transport(io::Error::other("spawn refused"));
        assert!(transport.to_string().contains("transport"));
        assert!(transport.to_string().contains("spawn refused"));
        assert!(std::error::Error::source(&transport).is_some());
    }
}

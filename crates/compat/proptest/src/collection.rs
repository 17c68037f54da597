//! Collection strategies (`proptest::collection`).

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::Rng;

use crate::Strategy;

/// Length specification for [`vec()`]: a range of admissible lengths.
#[derive(Debug, Clone)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty size range");
        SizeRange {
            min: range.start,
            max_inclusive: range.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(range: RangeInclusive<usize>) -> Self {
        assert!(range.start() <= range.end(), "empty size range");
        SizeRange {
            min: *range.start(),
            max_inclusive: *range.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(len: usize) -> Self {
        SizeRange {
            min: len,
            max_inclusive: len,
        }
    }
}

/// Strategy producing vectors whose elements come from `element` and whose length is
/// drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.min..=self.size.max_inclusive);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

//! The traffic generator's macro-command language.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::pattern::DataPattern;

/// One macro command of a traffic generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MacroCommand {
    /// Write the pattern sequentially over a word range.
    Write {
        /// Start word offset (inclusive).
        start: u64,
        /// Number of words.
        count: u64,
        /// Pattern to write.
        pattern: DataPattern,
    },
    /// Read a word range sequentially and compare each word with the
    /// pattern, recording 1→0 and 0→1 flips.
    ReadCheck {
        /// Start word offset (inclusive).
        start: u64,
        /// Number of words.
        count: u64,
        /// Pattern the range is expected to hold.
        pattern: DataPattern,
    },
    /// Read a word range sequentially without checking (bandwidth traffic).
    Read {
        /// Start word offset (inclusive).
        start: u64,
        /// Number of words.
        count: u64,
    },
    /// Read `count` words starting at `start` with a fixed stride
    /// (row-crossing traffic for the access-timing experiments).
    ReadStrided {
        /// Start word offset (inclusive).
        start: u64,
        /// Number of words.
        count: u64,
        /// Stride between consecutive reads, in words.
        stride: u64,
    },
    /// Read `count` pseudo-random words within `[0, span)`, reproducibly
    /// derived from `seed` (pointer-chase-like traffic).
    ReadRandom {
        /// Stream seed.
        seed: u64,
        /// Number of words.
        count: u64,
        /// Exclusive upper bound of the offsets.
        span: u64,
    },
}

impl MacroCommand {
    /// The word offset the `i`-th access of a random-read command touches.
    #[must_use]
    pub fn random_offset(seed: u64, span: u64, i: u64) -> u64 {
        // xorshift64* keyed by (seed, i); span must be non-zero.
        let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5BF0_3635;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % span.max(1)
    }
}

/// An ordered list of macro commands executed by one traffic generator.
///
/// # Examples
///
/// ```
/// use hbm_traffic::{DataPattern, MacroProgram};
///
/// // The reliability tester's program: write the pattern, read it back.
/// let program = MacroProgram::write_then_check(0..8192, DataPattern::AllOnes);
/// assert_eq!(program.commands().len(), 2);
/// assert_eq!(program.words_touched(), 2 * 8192);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct MacroProgram {
    commands: Vec<MacroCommand>,
}

impl MacroProgram {
    /// An empty program.
    #[must_use]
    pub fn new() -> Self {
        MacroProgram::default()
    }

    /// The study's reliability-test kernel: write `pattern` across `range`,
    /// then read it back checking every bit (Algorithm 1's inner loops).
    #[must_use]
    pub fn write_then_check(range: Range<u64>, pattern: DataPattern) -> Self {
        let (start, count) = (range.start, range.end.saturating_sub(range.start));
        MacroProgram {
            commands: vec![
                MacroCommand::Write {
                    start,
                    count,
                    pattern,
                },
                MacroCommand::ReadCheck {
                    start,
                    count,
                    pattern,
                },
            ],
        }
    }

    /// A pure bandwidth workload: repeatedly stream reads over a range.
    #[must_use]
    pub fn streaming_reads(range: Range<u64>, repeats: u32) -> Self {
        let (start, count) = (range.start, range.end.saturating_sub(range.start));
        MacroProgram {
            commands: (0..repeats)
                .map(|_| MacroCommand::Read { start, count })
                .collect(),
        }
    }

    /// A strided workload: `count` reads separated by `stride` words (one
    /// access per row when the stride equals the row size).
    #[must_use]
    pub fn strided_reads(start: u64, count: u64, stride: u64) -> Self {
        MacroProgram {
            commands: vec![MacroCommand::ReadStrided {
                start,
                count,
                stride,
            }],
        }
    }

    /// A random-access workload: `count` reproducible pseudo-random reads
    /// within `[0, span)`.
    #[must_use]
    pub fn random_reads(seed: u64, count: u64, span: u64) -> Self {
        MacroProgram {
            commands: vec![MacroCommand::ReadRandom { seed, count, span }],
        }
    }

    /// Appends a command (builder style).
    #[must_use]
    pub fn then(mut self, command: MacroCommand) -> Self {
        self.commands.push(command);
        self
    }

    /// The commands in execution order.
    #[must_use]
    pub fn commands(&self) -> &[MacroCommand] {
        &self.commands
    }

    /// Total number of words the program touches (reads + writes), the
    /// quantity bandwidth accounting is based on.
    #[must_use]
    pub fn words_touched(&self) -> u64 {
        self.commands
            .iter()
            .map(|c| match *c {
                MacroCommand::Write { count, .. }
                | MacroCommand::ReadCheck { count, .. }
                | MacroCommand::Read { count, .. }
                | MacroCommand::ReadStrided { count, .. }
                | MacroCommand::ReadRandom { count, .. } => count,
            })
            .sum()
    }

    /// `true` if the program performs no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words_touched() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_check_structure() {
        let p = MacroProgram::write_then_check(10..20, DataPattern::AllZeros);
        match p.commands() {
            [MacroCommand::Write {
                start: 10,
                count: 10,
                pattern: DataPattern::AllZeros,
            }, MacroCommand::ReadCheck {
                start: 10,
                count: 10,
                pattern: DataPattern::AllZeros,
            }] => {}
            other => panic!("unexpected program: {other:?}"),
        }
    }

    #[test]
    fn streaming_reads_repeat() {
        let p = MacroProgram::streaming_reads(0..100, 5);
        assert_eq!(p.commands().len(), 5);
        assert_eq!(p.words_touched(), 500);
    }

    #[test]
    fn builder_appends() {
        let p = MacroProgram::new()
            .then(MacroCommand::Write {
                start: 0,
                count: 4,
                pattern: DataPattern::AllOnes,
            })
            .then(MacroCommand::Read { start: 0, count: 4 });
        assert_eq!(p.commands().len(), 2);
        assert_eq!(p.words_touched(), 8);
        assert!(!p.is_empty());
    }

    #[test]
    fn strided_and_random_builders() {
        let strided = MacroProgram::strided_reads(0, 100, 32);
        assert_eq!(strided.words_touched(), 100);
        assert!(matches!(
            strided.commands()[0],
            MacroCommand::ReadStrided { stride: 32, .. }
        ));

        let random = MacroProgram::random_reads(5, 64, 8192);
        assert_eq!(random.words_touched(), 64);
        // Random offsets are reproducible and within the span.
        for i in 0..64 {
            let a = MacroCommand::random_offset(5, 8192, i);
            assert_eq!(a, MacroCommand::random_offset(5, 8192, i));
            assert!(a < 8192);
        }
        // Different seeds give different sequences.
        let differs = (0..64).any(|i| {
            MacroCommand::random_offset(5, 8192, i) != MacroCommand::random_offset(6, 8192, i)
        });
        assert!(differs);
        // Zero span is safe (degenerates to offset 0).
        assert_eq!(MacroCommand::random_offset(1, 0, 3), 0);
    }

    #[test]
    fn empty_programs() {
        assert!(MacroProgram::new().is_empty());
        assert!(MacroProgram::write_then_check(5..5, DataPattern::AllOnes).is_empty());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = MacroProgram::write_then_check(10..0, DataPattern::AllOnes);
        assert!(reversed.is_empty());
    }
}

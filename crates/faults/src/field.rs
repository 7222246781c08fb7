//! Fault-field regimes: how per-bit randomness is keyed across a voltage
//! sweep.
//!
//! The legacy regime ([`FaultFieldMode::PerVoltage`]) derives every draw
//! from `(seed, pc, word, bit)` through voltage-free hashes but rebuilds
//! each point's working set from scratch. The coupled regime
//! ([`FaultFieldMode::MonotoneCoupled`]) gives each bit one persistent
//! threshold in `[0, 1)`; the bit is faulty at supply `v` exactly when its
//! class-conditional fault probability `c(v)` exceeds that threshold. Fault
//! sets are then inclusion-monotone across descending voltage *by
//! construction*, so one hash pass finds every bit's first failing voltage
//! along a whole descent ([`crate::MaskKernel::knot_descent`]).

use serde::{Deserialize, Serialize};

/// How the fault injector keys per-bit randomness across a sweep.
///
/// Both regimes share the same analytic model (response curves, variation
/// shifts, polarity shares), so their *expected* fault rates are identical;
/// they differ only in which concrete bits fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultFieldMode {
    /// The legacy field: per-bit draws hashed from `(seed, pc, word, bit)`
    /// behind per-word gate draws. The default, bit-compatible with every
    /// existing fault map and determinism test.
    #[default]
    PerVoltage,
    /// The coupled field: each `(pc, word, bit)` owns a persistent threshold
    /// drawn once from a counter-based hash; the bit is faulty at voltage
    /// `v` iff its class's fault probability `c(v)` crosses the threshold.
    /// Fault sets grow monotonically as voltage descends, which enables the
    /// one-pass descent kernels ([`crate::MaskKernel::count_descent`],
    /// [`crate::MaskKernel::knot_descent`]).
    MonotoneCoupled,
}

impl FaultFieldMode {
    /// Stable CLI/config token for this mode (`per-voltage` / `coupled`).
    #[must_use]
    pub fn as_token(self) -> &'static str {
        match self {
            FaultFieldMode::PerVoltage => "per-voltage",
            FaultFieldMode::MonotoneCoupled => "coupled",
        }
    }

    /// Parses the stable token produced by [`FaultFieldMode::as_token`].
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "per-voltage" => Some(FaultFieldMode::PerVoltage),
            "coupled" => Some(FaultFieldMode::MonotoneCoupled),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_tokens_round_trip() {
        for mode in [FaultFieldMode::PerVoltage, FaultFieldMode::MonotoneCoupled] {
            assert_eq!(FaultFieldMode::from_token(mode.as_token()), Some(mode));
        }
        assert_eq!(FaultFieldMode::from_token("bogus"), None);
        assert_eq!(FaultFieldMode::default(), FaultFieldMode::PerVoltage);
    }

    #[test]
    fn mode_serde_round_trip() {
        for mode in [FaultFieldMode::PerVoltage, FaultFieldMode::MonotoneCoupled] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: FaultFieldMode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mode);
        }
    }
}

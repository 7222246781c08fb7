//! Voltage-dependent fault model for HBM undervolting.
//!
//! This crate is the synthetic stand-in for the physical fault behaviour the
//! DATE 2021 study measures on real HBM silicon. It reproduces the
//! phenomenology the paper characterizes:
//!
//! - **a guardband**: zero faults at or above V_min = 0.98 V;
//! - **exponential onset**: below V_min the per-bit fault probability grows
//!   exponentially (linearly in decades per volt) until essentially every
//!   bit is faulty by ≈0.84 V;
//! - **polarity asymmetry**: the first 1→0 flips appear at 0.97 V, the first
//!   0→1 flips at 0.96 V, and averaged over the unsafe region the 0→1 rate
//!   is ≈21 % higher;
//! - **process variation**: HBM1 is ≈13 % more fault-prone than HBM0, some
//!   pseudo channels (PC4, PC5, PC18–PC20) are distinctly weaker, and banks
//!   vary mildly;
//! - **clustering**: faults concentrate in small "weak" row regions;
//! - **determinism**: every bit's failure voltage is a pure function of the
//!   device seed and the bit's address, so fault maps are stable and the
//!   faulty-bit set grows monotonically as the voltage drops.
//!
//! The model works in the *voltage domain*: every source of variation is a
//! shift of the bit's local effective voltage, so all variation composes
//! cleanly and saturation (all bits faulty) is preserved.
//!
//! # Model summary
//!
//! Each bit belongs to a fixed polarity class (stuck-at-0 with probability
//! `stuck0_share`, else stuck-at-1). Its class has a response curve
//! `c(v) = min(1, 10^(−D·(v − v_sat)))` giving the probability that a bit of
//! that class is faulty at effective voltage `v`. A deterministic hash of
//! `(seed, address)` supplies the bit's uniform draw; the bit is faulty at
//! `v` iff the draw is below `c(v − shift(address))`, which is equivalent to
//! assigning each bit a fixed failure voltage.
//!
//! # Examples
//!
//! ```
//! use hbm_device::{HbmGeometry, PcIndex, Word256, WordOffset};
//! use hbm_faults::{FaultInjector, FaultModelParams};
//! use hbm_units::Millivolts;
//!
//! # fn main() -> Result<(), hbm_device::DeviceError> {
//! let injector = FaultInjector::new(FaultModelParams::date21(), HbmGeometry::vcu128(), 7);
//! let pc = PcIndex::new(0)?;
//!
//! // In the guardband, reads are exact.
//! let safe = injector.observe(Word256::ONES, pc, WordOffset(0), Millivolts(980));
//! assert_eq!(safe, Word256::ONES);
//!
//! // Near total failure, almost everything flips.
//! let broken = injector.observe(Word256::ONES, pc, WordOffset(0), Millivolts(820));
//! assert!(broken.diff_bits(Word256::ONES) > 0);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the bit-sliced word loops enter their AVX2
// and AVX-512 compiles through one `unsafe` call each, made after a runtime
// feature probe under a scoped allow (`kernel::bitsliced::run`). Everything
// else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod analytic;
mod error;
mod fault_map;
pub mod hash;
mod injector;
mod kernel;
mod landmarks;
pub mod math;
mod params;
mod response;
mod variation;

pub use analytic::RatePredictor;
pub use error::FaultModelError;
pub use fault_map::{FaultMap, PcRateEntry, PcRateProfile};
pub use injector::FaultInjector;
pub use kernel::{Exposure, FieldKernel, InstructionSet, KernelBackend, MaskKernel, Written};
pub use landmarks::VoltageLandmarks;
pub use params::FaultModelParams;
pub use response::ResponseCurve;
pub use variation::{ShiftTable, VariationModel};

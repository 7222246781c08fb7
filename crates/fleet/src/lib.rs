//! Fleet-scale HBM undervolting characterization.
//!
//! The paper characterizes one board; this crate characterizes a
//! *population*. `N` simulated devices — each a seed-varied instance of
//! the process-variation model in `hbm-faults` — are swept through the
//! count descent by a work-stealing thread pool, and the results land in a
//! compact columnar binary artifact
//! ([`artifact::encode`] / [`FleetStore`]) that readers can seek without
//! parsing. On top sit population statistics ([`PopulationSummary`]), a
//! compressed parametric fault model per device ([`model::DeviceModel`])
//! that shrinks the artifact ~27× while keeping queries answerable, and a
//! long-lived typed serving surface ([`api::FleetRequest`] /
//! [`serve::FleetService`]) shared by every `hbmctl` fleet entry point.
//!
//! # Determinism
//!
//! Every [`DeviceRecord`] is a pure function of `(FleetConfig,
//! device_id)`: per-device seeds derive from the base seed through the
//! same counter-based hash discipline as the injector's bits, workers only ever
//! partition the device-ID space, and the merge sorts by device ID.
//! Records, artifacts and population percentiles are therefore
//! bit-identical across worker counts and steal interleavings — the
//! property the fleet proptests pin.
//!
//! ```
//! use hbm_fleet::{FleetConfig, FleetStore};
//! use hbm_units::Millivolts;
//!
//! let cfg = FleetConfig {
//!     devices: 4,
//!     words_per_pc: 8,
//!     from: Millivolts(980),
//!     down_to: Millivolts(900),
//!     step: Millivolts(40),
//!     weak_reference: Millivolts(900),
//!     ..FleetConfig::default()
//! };
//! let report = hbm_fleet::sweep::run(&cfg).unwrap();
//! let store = FleetStore::from_bytes(hbm_fleet::artifact::encode(&cfg, &report.records)).unwrap();
//! let service = hbm_fleet::serve::FleetService::new(store);
//! let response = service.handle(&hbm_fleet::api::FleetRequest::Recommend {
//!     device_id: 2,
//!     target_rate: 1e-3,
//!     min_pcs: 16,
//! });
//! match response {
//!     hbm_fleet::api::FleetResponse::Recommendation(rec) => {
//!         assert!(rec.voltage_mv >= rec.crash_mv);
//!     }
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod artifact;
pub mod config;
pub mod model;
pub mod pipeline;
pub mod population;
pub mod query;
pub mod record;
pub mod serve;
pub mod sweep;

pub use api::{ApiError, FleetRequest, FleetResponse, API_VERSION};
pub use artifact::{
    ArtifactMeta, Column, FleetExport, FleetStore, ARTIFACT_MAGIC, ARTIFACT_VERSION,
};
pub use config::{DeviceSpec, FleetConfig, FleetError};
pub use model::{DeviceModel, FidelityReport, OPERATING_TARGET_RATE};
pub use pipeline::{
    serve_concurrent, LatencyStats, PipelineOptions, PipelineStats, MAX_LINE_BYTES,
};
pub use population::{FleetCostModel, PopulationSummary};
pub use query::Recommendation;
pub use record::{DeviceRecord, CRASHED_KNOT, NO_VMIN};
pub use serve::{FleetService, ServeStats, DEFAULT_RESCAN_CACHE_BYTES};
pub use sweep::{characterize_device, FleetReport, FleetRunStats};

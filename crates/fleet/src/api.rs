//! The versioned, typed fleet query surface.
//!
//! Every way of asking a fleet artifact a question — the one-shot
//! `hbmctl fleet` subcommands and the long-lived `hbmctl serve` loop —
//! routes through one request/response pair: [`FleetRequest`] in,
//! [`FleetResponse`] out, serialized with the vendored serde shim as
//! externally-tagged JSON (`{"Recommend": {...}}`, `"Summary"`). The CLI
//! replay test pins that the two transports stay byte-identical.
//!
//! Validation lives here too, so malformed queries are rejected the same
//! way regardless of transport: an [`ApiError`] with `kind: "config"`
//! maps to exit code 2 and a usage block in the CLI, every other kind to
//! exit code 1.

use serde::{Deserialize, Serialize};

use crate::artifact::FleetExport;
use crate::config::FleetError;
use crate::model::FidelityReport;
use crate::population::PopulationSummary;
use crate::query::Recommendation;

/// Version of the request/response schema. Bumped when a variant is
/// added, removed, or its payload changes shape.
pub const API_VERSION: u32 = 1;

/// One typed fleet query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetRequest {
    /// Recommend an operating voltage for one device: the lowest knot at
    /// or above the crash floor that keeps ≥ `min_pcs` pseudo channels at
    /// a union fault rate ≤ `target_rate`.
    Recommend {
        /// Device to look up.
        device_id: u32,
        /// Highest acceptable union fault rate per pseudo channel,
        /// strictly inside `(0, 1)` — an exact-zero or exact-one target
        /// degenerates to the V_min / crash landmarks already stored in
        /// the artifact's scalar columns.
        target_rate: f64,
        /// Minimum pseudo channels that must stay usable.
        min_pcs: u32,
    },
    /// Population summary from the scalar columns.
    Summary,
    /// Fidelity report of the compressed models against the exact
    /// columns (requires both in the artifact).
    Fidelity,
    /// Full JSON export of the exact fault map.
    Export,
}

impl FleetRequest {
    /// Validates request parameters against an artifact's geometry.
    ///
    /// # Errors
    ///
    /// An [`ApiError`] with `kind: "config"` describing the violation.
    pub fn validate(&self, pc_count: u32) -> Result<(), ApiError> {
        match *self {
            FleetRequest::Recommend {
                target_rate,
                min_pcs,
                ..
            } => {
                if !(target_rate > 0.0 && target_rate < 1.0) {
                    return Err(ApiError::config(format!(
                        "target rate must be strictly inside (0, 1), got {target_rate}; \
                         use the artifact's V_min column for zero tolerance and its \
                         crash column for the no-tolerance bound"
                    )));
                }
                if min_pcs > pc_count {
                    return Err(ApiError::config(format!(
                        "min-pcs {min_pcs} exceeds the artifact's {pc_count} pseudo channels"
                    )));
                }
                Ok(())
            }
            FleetRequest::Summary | FleetRequest::Fidelity | FleetRequest::Export => Ok(()),
        }
    }
}

/// The answer to one [`FleetRequest`], variant-matched to the request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetResponse {
    /// Answer to [`FleetRequest::Recommend`].
    Recommendation(Recommendation),
    /// Answer to [`FleetRequest::Summary`].
    Summary(PopulationSummary),
    /// Answer to [`FleetRequest::Fidelity`].
    Fidelity(FidelityReport),
    /// Answer to [`FleetRequest::Export`].
    Export(FleetExport),
    /// The request could not be answered.
    Error(ApiError),
}

impl FleetResponse {
    /// The canonical wire form: one compact JSON document, no trailing
    /// newline. Both transports — the `serve` LDJSON loop and the
    /// one-shot `--format json` subcommands — emit exactly this, so the
    /// replay test can compare them byte for byte.
    ///
    /// # Errors
    ///
    /// Serialization failures surface as a `runtime` [`ApiError`].
    pub fn to_json(&self) -> Result<String, ApiError> {
        serde_json::to_string(self).map_err(|err| ApiError::runtime(err.to_string()))
    }
}

/// A typed error reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApiError {
    /// Machine-readable class: `config` (caller error, CLI exit 2),
    /// `unknown-device`, `artifact`, `version`, `io`, `parse`, `runtime`,
    /// `internal`.
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// A caller error: malformed parameters (CLI exit 2).
    #[must_use]
    pub fn config(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: "config".into(),
            message: message.into(),
        }
    }

    /// A request line that was not valid request JSON.
    #[must_use]
    pub fn parse(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: "parse".into(),
            message: message.into(),
        }
    }

    /// A serving-side failure unrelated to the request's shape.
    #[must_use]
    pub fn runtime(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: "runtime".into(),
            message: message.into(),
        }
    }

    /// A request whose handling panicked: a defect of the service, not of
    /// the request. The session answers it and goes on.
    #[must_use]
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: "internal".into(),
            message: message.into(),
        }
    }
}

impl From<&FleetError> for ApiError {
    fn from(err: &FleetError) -> ApiError {
        let kind = match err {
            FleetError::Config(_) => "config",
            FleetError::UnknownDevice(_) => "unknown-device",
            FleetError::Artifact(_) => "artifact",
            FleetError::Version { .. } => "version",
            FleetError::Io(_) => "io",
        };
        ApiError {
            kind: kind.into(),
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let requests = [
            FleetRequest::Recommend {
                device_id: 3,
                target_rate: 1e-3,
                min_pcs: 16,
            },
            FleetRequest::Summary,
            FleetRequest::Fidelity,
            FleetRequest::Export,
        ];
        for req in requests {
            let json = serde_json::to_string(&req).unwrap();
            let back: FleetRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "{json}");
        }
        assert_eq!(
            serde_json::to_string(&FleetRequest::Summary).unwrap(),
            "\"Summary\""
        );
    }

    #[test]
    fn boundary_targets_are_config_errors() {
        for target in [0.0, 1.0, -0.25, 1.5, f64::NAN] {
            let req = FleetRequest::Recommend {
                device_id: 0,
                target_rate: target,
                min_pcs: 1,
            };
            let err = req.validate(32).unwrap_err();
            assert_eq!(err.kind, "config", "target {target}");
        }
        let req = FleetRequest::Recommend {
            device_id: 0,
            target_rate: 0.5,
            min_pcs: 33,
        };
        assert_eq!(req.validate(32).unwrap_err().kind, "config");
        assert!(req.validate(64).is_ok());
    }

    #[test]
    fn fleet_errors_map_to_kinds() {
        assert_eq!(
            ApiError::from(&FleetError::Config("x".into())).kind,
            "config"
        );
        assert_eq!(
            ApiError::from(&FleetError::UnknownDevice(9)).kind,
            "unknown-device"
        );
        assert_eq!(
            ApiError::from(&FleetError::Version {
                found: 3,
                expected: 2
            })
            .kind,
            "version"
        );
    }
}

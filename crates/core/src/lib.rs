//! `hmc-core` — the public API of the `hmcsim` HMC characterization
//! laboratory.
//!
//! This crate assembles the substrate crates (device model, host model,
//! thermal and power models, DDR baseline) into a full system and exposes
//! the paper's experiments as reusable functions:
//!
//! * [`system`] — [`System`]: the host + device co-simulation with
//!   deterministic event interleaving, a one-cube [`ChainSystem`].
//! * [`pattern`] — [`AccessPattern`]: the paper's *k*-bank / *k*-vault
//!   targeted access patterns expressed as GUPS address masks.
//! * [`measure`] — warm-up/window measurement runner producing a
//!   [`Measurement`] (bandwidth, MRPS, latency, device activity).
//! * [`experiments`] — one module per paper table/figure: address-mask
//!   sweeps (Fig 6), bandwidth by pattern and size (Figs 7, 8), thermal
//!   and power sweeps (Figs 9–12, Table III), page-policy contrasts
//!   (Fig 13), latency deconstruction and load studies (Figs 14–18), and
//!   the DDR baseline comparison.
//! * [`observe`] — observed runs: merged host+device lifecycle traces
//!   ([`TraceReport`]), exact latency attribution tables, Chrome
//!   trace-event export, and metrics-series JSON.
//! * [`analysis`] — Little's-law readings and saturation-knee detection.
//! * [`sanitize`] — sanitized runs: the Figure 9 bandwidth subset under
//!   the runtime protocol sanitizer, with bit-identity fingerprints.
//! * [`report`] — plain-text table rendering for the benchmark harness.
//!
//! # Quickstart
//!
//! ```
//! use hmc_core::{Measurement, SystemConfig};
//! use hmc_core::measure::{run_measurement, MeasureConfig};
//! use hmc_host::Workload;
//! use hmc_types::{RequestKind, RequestSize};
//!
//! let m: Measurement = run_measurement(
//!     &SystemConfig::default(),
//!     &Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(128)?),
//!     &MeasureConfig::quick(),
//! );
//! assert!(m.bandwidth_gbs > 10.0, "measured {}", m.bandwidth_gbs);
//! # Ok::<(), hmc_types::HmcError>(())
//! ```

pub mod analysis;
pub mod backends;
pub mod builder;
pub mod experiments;
pub mod measure;
pub mod observe;
pub mod pattern;
pub mod report;
pub mod sanitize;
pub mod system;
pub mod topology;

pub use backends::AnyBackend;
pub use builder::SystemBuilder;
pub use measure::{BackendMeasurement, MeasureConfig, Measurement};
pub use observe::{ObservedChain, ObservedStream, ObservedWindow, TraceReport};
pub use pattern::AccessPattern;
pub use report::{JsonReport, Table};
pub use sanitize::{SanitizedPoint, SanitizedRun};
pub use system::{System, SystemConfig};
pub use topology::{Arrangement, ChainSystem, RecoveryRecord, Topology};

// Re-export the substrate crates so downstream users need only hmc-core.
pub use hmc_host;
pub use hmc_mem;
pub use hmc_power;
pub use hmc_thermal;
pub use hmc_types;
pub use mem_backend;
pub use sim_engine;

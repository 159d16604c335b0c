//! Flit-level discrete-event model of a Hybrid Memory Cube device.
//!
//! The model reproduces the internal organization the paper's measurements
//! expose (Section II of the paper):
//!
//! * [`dram`] — closed-page DRAM banks with explicit ACT/CAS/PRE timing and
//!   an optional open-page ablation mode.
//! * [`vault`] — one memory controller per vault: a small input FIFO, one
//!   queue per bank, and the 32 B-granular TSV data bus whose ~10 GB/s
//!   ceiling shapes Figures 6, 7, and 18.
//! * [`xbar`] — the quadrant switch: accesses to a vault in the link's own
//!   quadrant are faster than remote-quadrant accesses.
//! * [`link`] — device-side SerDes link layer: per-packet serialization and
//!   processing time, plus the posted-write drain limit that makes `wo`
//!   traffic slower than `ro` (the paper observes this asymmetry but could
//!   not attribute it; see DESIGN.md).
//! * [`store`] — a sparse backing store carrying write tokens so stream
//!   GUPS can verify data integrity end to end.
//! * [`device`] — the assembled [`HmcDevice`], an event-driven component
//!   the host model drives through `submit` / `advance`.
//!
//! # Example
//!
//! ```
//! use hmc_mem::{HmcDevice, MemConfig};
//! use hmc_types::{Address, CubeId, MemoryRequest, PortId, RequestId, RequestSize, Tag, TenantTag, Time};
//! use hmc_types::packet::OpKind;
//!
//! let mut dev = HmcDevice::new(MemConfig::default());
//! let req = MemoryRequest {
//!     id: RequestId::new(0),
//!     port: PortId::new(0),
//!     tag: Tag::new(0),
//!     op: OpKind::Read,
//!     size: RequestSize::new(128)?,
//!     cube: CubeId::new(0),
//!     addr: Address::new(0),
//!     issued_at: Time::ZERO,
//!     data_token: 0,
//!     tenant: TenantTag::NONE,
//! };
//! dev.submit(0, req, Time::ZERO).unwrap();
//! let mut out = Vec::new();
//! dev.advance(Time::from_ps(10_000_000), &mut out);
//! assert_eq!(out.len(), 1); // the read came back
//! # Ok::<(), hmc_types::HmcError>(())
//! ```

pub mod config;
pub mod device;
pub mod dram;
pub mod hbm;
pub mod link;
pub mod store;
pub mod vault;
pub mod xbar;

pub use config::{
    DramTiming, LinkLayerConfig, MemConfig, PagePolicy, RefreshConfig, VaultConfig, XbarConfig,
};
pub use device::{DeviceOutput, DeviceStats, HmcDevice};
pub use hbm::{HbmConfig, HbmDevice};
pub use store::SparseStore;

//! The backend preset vocabulary behind [`SystemBuilder::backend`].
//!
//! [`AnyBackend`] is the runtime-selected device model: the four
//! [`BackendKind`] presets (`hmc`, `hmc-gen3`, `ddr3-1600`, `hbm`)
//! instantiate into one of its variants, and `System<AnyBackend>` runs
//! the identical host pipeline against whichever technology was picked
//! — the honest-comparison requirement of the paper's Section V.
//!
//! Construction is split into three steps the builder composes:
//! [`apply_preset`] rewrites the system configuration to the preset's
//! geometry (Gen3 swaps in four full-width links and 16 GB of address
//! space; HBM swaps in the 32-vault HMC 2.0 geometry its pseudo-channel
//! count mirrors), [`instantiate`] constructs the device from the
//! rewritten config, and [`host_layout`] derives the address bit-field
//! layout the host's generators assume so the builder can run the
//! fail-fast [`AddressLayout`] handshake.
//!
//! [`SystemBuilder::backend`]: crate::builder::SystemBuilder::backend

use hmc_mem::{DdrConfig, DdrDevice, HbmConfig, HbmDevice, HmcDevice};
use hmc_types::{HmcSpec, HmcVersion, LinkConfig, MemoryRequest, Time};
use mem_backend::{AddressLayout, BackendKind, BackendOutput, CoreStats, MemoryBackend};
use sim_engine::{FaultKind, MetricsSampler, Sanitizer, Tracer};

use crate::system::SystemConfig;

/// A runtime-selected memory backend: one enum the `repro` binary and
/// the builder's preset path use so every technology runs behind the
/// same monomorphized host pipeline.
///
/// The Gen3 preset is the [`AnyBackend::Hmc`] variant constructed from
/// a Gen3-geometry config — same protocol machinery, bigger device.
// One `AnyBackend` exists per simulated system (never collections of
// them), so the size skew between device variants buys nothing back.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyBackend {
    /// The packetized HMC device (Gen2 or Gen3 geometry).
    Hmc(HmcDevice),
    /// The event-driven DDR3 DIMM controller.
    Ddr(DdrDevice),
    /// The HBM-style pseudo-channel stack.
    Hbm(HbmDevice),
}

macro_rules! delegate {
    ($self:ident, $d:ident => $e:expr) => {
        match $self {
            AnyBackend::Hmc($d) => $e,
            AnyBackend::Ddr($d) => $e,
            AnyBackend::Hbm($d) => $e,
        }
    };
}

impl MemoryBackend for AnyBackend {
    fn label(&self) -> &'static str {
        delegate!(self, d => MemoryBackend::label(d))
    }

    fn num_links(&self) -> usize {
        delegate!(self, d => MemoryBackend::num_links(d))
    }

    fn address_layout(&self) -> AddressLayout {
        delegate!(self, d => MemoryBackend::address_layout(d))
    }

    fn can_accept(&self, link: usize) -> bool {
        delegate!(self, d => MemoryBackend::can_accept(d, link))
    }

    fn free_slots(&self, link: usize) -> usize {
        delegate!(self, d => MemoryBackend::free_slots(d, link))
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        delegate!(self, d => MemoryBackend::submit(d, link, req, now))
    }

    fn next_time(&self) -> Option<Time> {
        delegate!(self, d => MemoryBackend::next_time(d))
    }

    fn now(&self) -> Time {
        delegate!(self, d => MemoryBackend::now(d))
    }

    fn pending_events(&self) -> usize {
        delegate!(self, d => MemoryBackend::pending_events(d))
    }

    fn advance(&mut self, until: Time, out: &mut Vec<BackendOutput>) {
        delegate!(self, d => MemoryBackend::advance(d, until, out))
    }

    fn events_processed(&self) -> u64 {
        delegate!(self, d => MemoryBackend::events_processed(d))
    }

    fn total_queued(&self) -> usize {
        delegate!(self, d => MemoryBackend::total_queued(d))
    }

    fn channels_in_flight(&self, now: Time) -> usize {
        delegate!(self, d => MemoryBackend::channels_in_flight(d, now))
    }

    fn core_stats(&self) -> CoreStats {
        delegate!(self, d => MemoryBackend::core_stats(d))
    }

    fn sample_metrics(&self, at: Time, s: &mut MetricsSampler) {
        delegate!(self, d => MemoryBackend::sample_metrics(d, at, s))
    }

    fn tracer(&self) -> &Tracer {
        delegate!(self, d => MemoryBackend::tracer(d))
    }

    fn tracer_mut(&mut self) -> &mut Tracer {
        delegate!(self, d => MemoryBackend::tracer_mut(d))
    }

    fn enable_sanitizer(&mut self) {
        delegate!(self, d => MemoryBackend::enable_sanitizer(d))
    }

    fn sanitizer(&self) -> &Sanitizer {
        delegate!(self, d => MemoryBackend::sanitizer(d))
    }

    fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        delegate!(self, d => MemoryBackend::sanitizer_mut(d))
    }

    fn diagnostic_dump(&self, at: Time) -> String {
        delegate!(self, d => MemoryBackend::diagnostic_dump(d, at))
    }

    fn schedule_fault(&mut self, at: Time, kind: FaultKind) {
        delegate!(self, d => MemoryBackend::schedule_fault(d, at, kind))
    }

    fn reset_after_shutdown(&mut self, resume: Time) {
        delegate!(self, d => MemoryBackend::reset_after_shutdown(d, resume))
    }

    fn set_refresh_multiplier(&mut self, m: u32) {
        delegate!(self, d => MemoryBackend::set_refresh_multiplier(d, m))
    }

    fn refresh_multiplier(&self) -> u32 {
        delegate!(self, d => MemoryBackend::refresh_multiplier(d))
    }

    fn wipe_data(&mut self) {
        delegate!(self, d => MemoryBackend::wipe_data(d))
    }
}

/// Rewrites a system configuration to a preset's geometry, so the host's
/// address space, link arrangement, and affinity masks agree with the
/// device the preset instantiates.
///
/// `hmc` and `ddr3-1600` leave the configuration untouched (the DIMM
/// sits behind the host's default two ports and the default 4 GB address
/// space); `hmc-gen3` installs the Gen3 geometry with four full-width
/// links; `hbm` installs the 32-vault HMC 2.0 geometry whose vault count
/// the pseudo-channels mirror.
pub fn apply_preset(kind: BackendKind, cfg: &mut SystemConfig) {
    match kind {
        BackendKind::Hmc | BackendKind::Ddr3_1600 => {}
        BackendKind::HmcGen3 => {
            cfg.mem.spec = HmcSpec::of(HmcVersion::Gen3);
            cfg.mem.links = LinkConfig::gen3();
            cfg.host.links = cfg.mem.links;
            cfg.host.memory_capacity = cfg.mem.spec.capacity_bytes();
        }
        BackendKind::Hbm => {
            cfg.mem.spec = HmcSpec::of(HmcVersion::Hmc2);
            cfg.host.memory_capacity = cfg.mem.spec.capacity_bytes();
        }
    }
}

/// Constructs the preset's device from an already-rewritten
/// configuration (see [`apply_preset`]).
pub fn instantiate(kind: BackendKind, cfg: &SystemConfig) -> AnyBackend {
    match kind {
        BackendKind::Hmc | BackendKind::HmcGen3 => AnyBackend::Hmc(HmcDevice::new(cfg.mem.clone())),
        BackendKind::Ddr3_1600 => {
            let mut ddr = DdrConfig::ddr3_1600();
            ddr.ports.num_ports = cfg.host.links.num_links() as usize;
            AnyBackend::Ddr(DdrDevice::new(ddr))
        }
        BackendKind::Hbm => {
            let mut hbm = HbmConfig {
                spec: cfg.mem.spec,
                mapping: cfg.mem.mapping,
                dram: cfg.mem.dram,
                ..HbmConfig::default()
            };
            hbm.ports.num_ports = cfg.host.links.num_links() as usize;
            AnyBackend::Hbm(HbmDevice::new(hbm))
        }
    }
}

/// The address bit-field layout the host's generators assume toward
/// this preset — the other side of the build-time handshake.
///
/// HMC-family and HBM presets share the configured interleave (the host
/// draws addresses through the same mapping the device decodes). The
/// DIMM preset returns an empty `host-linear` layout: the host makes no
/// vault/bank interleave assumption toward a rank-addressed DIMM, so
/// only a backend that *claims* interleave fields can conflict.
pub fn host_layout(kind: BackendKind, cfg: &SystemConfig) -> AddressLayout {
    match kind {
        BackendKind::Ddr3_1600 => AddressLayout::new("host-linear"),
        _ => AddressLayout::of_mapping("host-interleave", cfg.mem.mapping, &cfg.mem.spec),
    }
}

/// The fail-fast half of the handshake: panics at build time with the
/// [`AddressLayout::check_against_host`] diagnostic (naming both
/// bit-fields) when the backend decodes any shared field differently
/// than the host generates it.
///
/// # Panics
///
/// Panics with the mismatch diagnostic; a silent disagreement would not
/// crash anything downstream, it would quietly bend every parallelism
/// measurement.
pub fn assert_layout_compatible<B: MemoryBackend>(device: &B, host: &AddressLayout) {
    if let Err(diag) = device.address_layout().check_against_host(host) {
        panic!("{diag}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::address::MaxBlockSize;
    use hmc_types::AddressMapping;

    #[test]
    fn presets_instantiate_and_pass_the_handshake() {
        for kind in BackendKind::ALL {
            let mut cfg = SystemConfig::default();
            apply_preset(kind, &mut cfg);
            let dev = instantiate(kind, &cfg);
            assert_eq!(dev.label(), kind.label());
            assert_layout_compatible(&dev, &host_layout(kind, &cfg));
            assert_eq!(dev.num_links(), cfg.host.links.num_links() as usize);
        }
    }

    #[test]
    fn gen3_preset_grows_the_address_space() {
        let mut cfg = SystemConfig::default();
        apply_preset(BackendKind::HmcGen3, &mut cfg);
        assert_eq!(cfg.host.memory_capacity, 16 << 30);
        assert_eq!(cfg.host.links.num_links(), 4);
    }

    #[test]
    fn mismatched_mapping_fails_the_handshake() {
        // A device decoding a 32 B-block interleave against a host
        // generating the default 128 B-block interleave: the vault
        // field lands on different bits.
        let cfg = SystemConfig::default();
        let dev = AnyBackend::Hbm(HbmDevice::new(HbmConfig {
            mapping: AddressMapping::new(MaxBlockSize::B32),
            ..HbmConfig::default()
        }));
        let host = AddressLayout::of_mapping("host-interleave", cfg.mem.mapping, &cfg.mem.spec);
        let err = dev.address_layout().check_against_host(&host).unwrap_err();
        assert!(err.contains("hbm-pseudo-channel"), "{err}");
        assert!(err.contains("host-interleave"), "{err}");
        assert!(err.contains("`vault`"), "{err}");
    }
}

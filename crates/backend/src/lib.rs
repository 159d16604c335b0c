//! The pluggable memory-backend interface.
//!
//! The paper's central claim is comparative: HMC's packetized,
//! high-concurrency interior behaves unlike conventional DRAM under the
//! same access streams. Making that comparison honest requires running
//! *identical* host pipelines, workloads, observability, and fault
//! planes against different device models. [`MemoryBackend`] is the
//! seam: the submit / advance-to-time / drain-outputs / next-event-time
//! / stats-and-gauges surface the HMC device model already implemented
//! de facto, lifted into a trait that `System` and `ChainSystem` are
//! generic over.
//!
//! Contract in one paragraph: the **host owns global time** and drives
//! the backend with `advance_instant(t, ..)` at monotonically
//! non-decreasing instants chosen from `next_time()`; the backend owns
//! everything behind its ports (queues, banks, links) and reports
//! completions as [`BackendOutput`]s tagged with the port they emerge
//! from. Flow control is credit-shaped: the host checks
//! [`free_slots`](MemoryBackend::free_slots) before
//! [`submit`](MemoryBackend::submit), and a submit may still bounce the
//! request back (`Err(req)`) when a race consumed the slot — the host
//! retries later. Every implementation must be deterministic: two runs
//! from the same seed produce bit-identical outputs and stats.
//!
//! The crate also carries [`AddressLayout`], the build-time handshake
//! that catches a silent host/device address-interleave mismatch (the
//! hwgc-soft lesson: a DRAM model wired to a different bit layout than
//! the address generator produces plausible but meaningless bank
//! conflicts), and [`BackendKind`], the preset vocabulary the
//! `SystemBuilder` and `repro` expose.

use std::fmt;

use hmc_types::{AddressMapping, HmcSpec, MemoryRequest, MemoryResponse, Time};
use sim_engine::{FaultKind, MetricsSampler, Sanitizer, Tracer};

/// A completed response leaving a backend, tagged with the port (link)
/// it emerges from and the instant it is on the wire toward the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendOutput {
    /// The response payload.
    pub resp: MemoryResponse,
    /// Port (external link) index the response leaves on.
    pub link: usize,
    /// When the response reaches the host side.
    pub at: Time,
}

/// The technology-neutral core counters every backend reports — the
/// subset of the HMC device's stats block the generic system layers
/// (thermal spike gating, compare tables, conservation checks) read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Read requests fully serviced.
    pub reads_completed: u64,
    /// Write requests fully serviced.
    pub writes_completed: u64,
    /// Payload bytes read out of the memory arrays.
    pub data_read_bytes: u64,
    /// Payload bytes written into the memory arrays.
    pub data_write_bytes: u64,
    /// Request bytes received host-to-device across the backend's
    /// ports, including any protocol overhead the technology imposes
    /// ("up" into the device, matching the HMC stats convention).
    pub bytes_up: u64,
    /// Response bytes sent device-to-host across the backend's ports,
    /// including any protocol overhead.
    pub bytes_down: u64,
}

impl CoreStats {
    /// Total requests fully serviced.
    pub fn completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Total payload bytes moved (the figure-of-merit bandwidth
    /// numerator the paper uses).
    pub fn data_bytes(&self) -> u64 {
        self.data_read_bytes + self.data_write_bytes
    }
}

/// One named bit-field of an address layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressField {
    /// Field name (`"vault"`, `"bank"`, `"row"`, `"channel"`, ...).
    pub name: &'static str,
    /// Lowest bit of the field.
    pub shift: u32,
    /// Field width in bits.
    pub width: u32,
}

impl fmt::Display for AddressField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` = bits {}..{}",
            self.name,
            self.shift,
            self.shift + self.width
        )
    }
}

/// A named address bit-field layout: which address bits a decoder treats
/// as which structural coordinate.
///
/// Backends report the layout they decode with; the `SystemBuilder`
/// compares it against the host's interleave at build time and fails
/// fast with a diagnostic naming both bit-fields when they disagree —
/// a mismatch would not crash anything, it would silently bend every
/// parallelism measurement (the hwgc-soft DRAMsim3 address-mapping
/// lesson).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressLayout {
    scheme: &'static str,
    fields: Vec<AddressField>,
}

impl AddressLayout {
    /// Creates an empty layout named after its decoding scheme.
    pub fn new(scheme: &'static str) -> Self {
        AddressLayout {
            scheme,
            fields: Vec::new(),
        }
    }

    /// Adds one named bit-field (builder style).
    #[must_use]
    pub fn field(mut self, name: &'static str, shift: u32, width: u32) -> Self {
        self.fields.push(AddressField { name, shift, width });
        self
    }

    /// The canonical layout of the low-order interleaved HMC mapping
    /// (Figure 3) for a given device geometry — also the layout of the
    /// host's address generators, which draw through the same mapping.
    pub fn of_mapping(scheme: &'static str, mapping: AddressMapping, spec: &HmcSpec) -> Self {
        AddressLayout::new(scheme)
            .field("vault", mapping.vault_shift_for(spec), spec.vault_bits())
            .field("bank", mapping.bank_shift(spec), spec.bank_bits())
            .field("row", mapping.row_shift(spec), 64 - mapping.row_shift(spec))
    }

    /// The scheme name (used in mismatch diagnostics).
    pub fn scheme(&self) -> &'static str {
        self.scheme
    }

    /// The named bit-fields.
    pub fn fields(&self) -> &[AddressField] {
        &self.fields
    }

    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<AddressField> {
        self.fields.iter().copied().find(|f| f.name == name)
    }

    /// Checks this (backend) layout against the host's interleave:
    /// every field name both sides define must occupy identical bits.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming both bit-fields on the first
    /// mismatch, e.g. `address-layout mismatch: backend 'ddr3-1600'
    /// decodes field 'bank' = bits 11..14 but host interleave
    /// 'hmc-low-interleave' generates field 'bank' = bits 13..17`.
    pub fn check_against_host(&self, host: &AddressLayout) -> Result<(), String> {
        for mine in &self.fields {
            if let Some(theirs) = host.get(mine.name) {
                if mine.shift != theirs.shift || mine.width != theirs.width {
                    return Err(format!(
                        "address-layout mismatch: backend '{}' decodes field {} \
                         but host interleave '{}' generates field {}",
                        self.scheme, mine, host.scheme, theirs
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for AddressLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.scheme)?;
        for field in &self.fields {
            write!(f, " {field}")?;
        }
        Ok(())
    }
}

/// The backend preset vocabulary `SystemBuilder::backend` and
/// `repro sweep --backend` / `repro compare` select from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The characterized HMC 1.1 (Gen2) device — the default.
    #[default]
    Hmc,
    /// The projected HMC Gen3 geometry: four full-width links, 64
    /// vaults.
    HmcGen3,
    /// A conventional DDR3-1600 DIMM behind the same host path.
    Ddr3_1600,
    /// An HBM-style stack: 32 pseudo-channels, wide slow PHY, no
    /// packet-link/SerDes layer.
    Hbm,
}

impl BackendKind {
    /// Every selectable backend, in compare-table order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Hmc,
        BackendKind::HmcGen3,
        BackendKind::Ddr3_1600,
        BackendKind::Hbm,
    ];

    /// The command-line name.
    pub const fn label(self) -> &'static str {
        match self {
            BackendKind::Hmc => "hmc",
            BackendKind::HmcGen3 => "hmc-gen3",
            BackendKind::Ddr3_1600 => "ddr3-1600",
            BackendKind::Hbm => "hbm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        BackendKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One memory device model behind the host: the submit / advance /
/// drain-outputs / next-event-time / stats-and-gauges surface.
///
/// # Time ownership
///
/// The *system* owns global time. It computes the next interesting
/// instant as the minimum of the host's and the backend's
/// [`next_time`](MemoryBackend::next_time) and calls
/// [`advance_instant`](MemoryBackend::advance_instant) with
/// non-decreasing instants; the backend must never act on an event later
/// than the instant it was given. [`advance`](MemoryBackend::advance)
/// is the batch form (process everything `<= until`).
///
/// # Flow control
///
/// Ports are credit-shaped: [`free_slots`](MemoryBackend::free_slots)
/// is the number of requests port `link` can take right now, and
/// [`submit`](MemoryBackend::submit) either accepts the request or
/// hands it back unchanged. All interior queues must be bounded; a
/// backend may never allocate proportionally to the number of
/// in-flight requests beyond its declared depths.
///
/// # Determinism
///
/// Everything observable — outputs, their order, stats, gauges — must
/// be a pure function of the submitted request stream and the config.
/// No wall-clock, no ambient randomness.
pub trait MemoryBackend: Send + fmt::Debug + 'static {
    /// Short technology label (`"hmc"`, `"ddr3-1600"`, ...) used in
    /// tables and diagnostics.
    fn label(&self) -> &'static str;

    /// Number of host-facing ports (external links). Port indices in
    /// [`submit`](MemoryBackend::submit) and [`BackendOutput::link`]
    /// are `0..num_links()`.
    fn num_links(&self) -> usize;

    /// The address bit-field layout this backend decodes requests
    /// with, checked against the host's interleave at build time.
    fn address_layout(&self) -> AddressLayout;

    /// True if port `link` can take another request right now.
    fn can_accept(&self, link: usize) -> bool {
        self.free_slots(link) > 0
    }

    /// Free request slots on port `link` (the credit count the host's
    /// flow control sees).
    fn free_slots(&self, link: usize) -> usize;

    /// Offers a request to port `link` at `now`. Returns the request
    /// unchanged if the port cannot take it.
    ///
    /// # Errors
    ///
    /// `Err(req)` hands the request back untouched; the host retries
    /// after the next credit notification.
    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest>;

    /// Earliest pending internal event, if any. The system pumps the
    /// backend at exactly these instants (or earlier host instants).
    fn next_time(&self) -> Option<Time>;

    /// The backend's current local time (the last instant it was
    /// advanced to).
    fn now(&self) -> Time;

    /// Pending internal events (diagnostics and watchdog heuristics).
    fn pending_events(&self) -> usize;

    /// Processes every internal event at or before `until`, appending
    /// completed responses to `out` in deterministic order.
    fn advance(&mut self, until: Time, out: &mut Vec<BackendOutput>);

    /// Processes exactly the events at instant `t` (the PDES-friendly
    /// single-instant form; `t` must be `>=` [`now`](MemoryBackend::now)).
    ///
    /// A chain shard calls this only at instants where
    /// [`next_time`](MemoryBackend::next_time) is `t` (or the sanitizer is
    /// armed), so between calls [`now`](MemoryBackend::now) may lag the
    /// shard's clock. Implementations must therefore take time from their
    /// arguments (`submit`'s `now`, this `t`), never from their own clock.
    ///
    /// `t` must be the exact next-event time, so every pending event at or
    /// before `t` sits at exactly `t`; under that contract the default,
    /// [`advance(t, ..)`](MemoryBackend::advance), processes exactly this
    /// instant, including the events its handlers schedule at `t`.
    fn advance_instant(&mut self, t: Time, out: &mut Vec<BackendOutput>) {
        debug_assert!(
            self.next_time().is_none_or(|next| next >= t),
            "advance_instant needs the exact next-event time"
        );
        self.advance(t, out);
    }

    /// Total internal events processed (simulation-throughput metric).
    fn events_processed(&self) -> u64;

    /// Requests currently queued anywhere inside the backend.
    fn total_queued(&self) -> usize;

    /// Structurally independent service channels with work in flight at
    /// `now` — vaults for HMC, banks for a DIMM, pseudo-channels for
    /// HBM. The cross-technology concurrency gauge of the compare
    /// table.
    fn channels_in_flight(&self, now: Time) -> usize;

    /// Technology-neutral core counters.
    fn core_stats(&self) -> CoreStats;

    /// Records this backend's gauges into the shared sampler.
    fn sample_metrics(&self, at: Time, s: &mut MetricsSampler);

    /// The lifecycle tracer (disabled tracers cost nothing).
    fn tracer(&self) -> &Tracer;

    /// Mutable access to the lifecycle tracer (to arm it).
    fn tracer_mut(&mut self) -> &mut Tracer;

    /// Arms the protocol sanitizer. Armed runs must stay bit-identical
    /// to unarmed runs.
    fn enable_sanitizer(&mut self);

    /// The protocol sanitizer.
    fn sanitizer(&self) -> &Sanitizer;

    /// Mutable access to the protocol sanitizer (drain-time checks).
    fn sanitizer_mut(&mut self) -> &mut Sanitizer;

    /// A human-readable snapshot of all interior state at `at`, for
    /// watchdog dumps.
    fn diagnostic_dump(&self, at: Time) -> String;

    /// Schedules a fault-plane event. Backends without the modeled
    /// hardware (links, refresh engines) ignore kinds that do not
    /// apply; the default ignores everything.
    fn schedule_fault(&mut self, at: Time, kind: FaultKind) {
        let _ = (at, kind);
    }

    /// Clears interior queues after a thermal shutdown and restarts at
    /// `resume`. The default is a no-op for backends without a thermal
    /// plane.
    fn reset_after_shutdown(&mut self, resume: Time) {
        let _ = resume;
    }

    /// Sets the refresh-rate multiplier (thermal throttling). The
    /// default ignores it.
    fn set_refresh_multiplier(&mut self, m: u32) {
        let _ = m;
    }

    /// The current refresh-rate multiplier.
    fn refresh_multiplier(&self) -> u32 {
        1
    }

    /// Drops any retained data-payload state (chain rebalancing). The
    /// default is a no-op.
    fn wipe_data(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::address::MaxBlockSize;

    #[test]
    fn layout_mismatch_names_both_fields() {
        let host = AddressLayout::new("hmc-low-interleave")
            .field("vault", 11, 4)
            .field("bank", 15, 4);
        let backend = AddressLayout::new("ddr3-1600")
            .field("bank", 11, 3)
            .field("row", 14, 50);
        let err = backend.check_against_host(&host).unwrap_err();
        assert!(err.contains("ddr3-1600"), "{err}");
        assert!(err.contains("hmc-low-interleave"), "{err}");
        assert!(err.contains("`bank` = bits 11..14"), "{err}");
        assert!(err.contains("`bank` = bits 15..19"), "{err}");
    }

    #[test]
    fn layout_compatible_when_shared_fields_agree() {
        let host = AddressLayout::new("host")
            .field("vault", 11, 4)
            .field("bank", 15, 4)
            .field("row", 19, 45);
        let backend = AddressLayout::new("hbm")
            .field("vault", 11, 4)
            .field("channel", 11, 5);
        // `channel` has no host counterpart: only shared names are
        // compared.
        assert!(backend.check_against_host(&host).is_ok());
    }

    #[test]
    fn mapping_layout_matches_figure_3() {
        let spec = HmcSpec::default();
        let map = AddressMapping::new(MaxBlockSize::B128);
        let l = AddressLayout::of_mapping("hmc", map, &spec);
        assert_eq!(l.get("vault").unwrap().shift, map.vault_shift_for(&spec));
        assert_eq!(l.get("bank").unwrap().shift, map.bank_shift(&spec));
        assert_eq!(l.get("row").unwrap().shift, map.row_shift(&spec));
        assert!(l.to_string().contains("vault"));
    }

    #[test]
    fn backend_kind_round_trip() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.label()), Some(k));
            assert_eq!(k.to_string(), k.label());
        }
        assert_eq!(BackendKind::parse("dimm"), None);
        assert_eq!(BackendKind::default(), BackendKind::Hmc);
    }

    #[test]
    fn core_stats_totals() {
        let s = CoreStats {
            reads_completed: 3,
            writes_completed: 2,
            data_read_bytes: 384,
            data_write_bytes: 256,
            ..CoreStats::default()
        };
        assert_eq!(s.completed(), 5);
        assert_eq!(s.data_bytes(), 640);
    }
}

//! The single construction path for simulated systems.
//!
//! Historically every runner wired its own sequence of `System::new` plus
//! `enable_*` mutator calls, and each new observability feature (tracing,
//! metrics, sanitizer, faults, failure policies, now topologies) grew the
//! permutations. [`SystemBuilder`] consolidates them: declare everything
//! up front, then [`build`](SystemBuilder::build) a single-cube
//! [`System`] or [`build_chain`](SystemBuilder::build_chain) a multi-cube
//! [`ChainSystem`]. Every variant constructs a [`ChainSystem`] (a
//! `System` is one cube of it) and applies the knobs in one function.
//!
//! ```
//! use hmc_core::builder::SystemBuilder;
//! use hmc_core::topology::Topology;
//! use hmc_core::SystemConfig;
//! use hmc_types::TimeDelta;
//!
//! // A sanitized, metric-sampled two-cube chain in one expression.
//! let chain = SystemBuilder::new(SystemConfig::default())
//!     .metrics(TimeDelta::from_us(10))
//!     .sanitizer()
//!     .topology(Topology::chain(2))
//!     .build_chain();
//! assert_eq!(chain.cubes(), 2);
//! assert!(chain.sanitizer_enabled());
//! ```

use hmc_mem::HmcDevice;
use hmc_thermal::FailurePolicy;
use hmc_types::TimeDelta;
use mem_backend::{BackendKind, MemoryBackend};
use sim_engine::FaultScenario;

use crate::backends::{self, AnyBackend};
use crate::system::{System, SystemConfig};
use crate::topology::{ChainSystem, Topology};

/// Declarative constructor for [`System`] and [`ChainSystem`].
///
/// Every observability and fault knob that used to require a post-`new`
/// `enable_*` call is a chainable method here; every `build` variant
/// applies them in one fixed order (policy, tracing, metrics, sanitizer,
/// faults), so all construction paths behave identically.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    cfg: SystemConfig,
    backend: BackendKind,
    topo: Topology,
    tracing: Option<u64>,
    metrics: Option<TimeDelta>,
    /// `Some(None)` = default watchdog span, `Some(Some(d))` = explicit.
    sanitizer: Option<Option<TimeDelta>>,
    /// Scenarios to install: `None` cube = every cube of the topology.
    faults: Vec<(Option<usize>, FaultScenario)>,
    policy: Option<FailurePolicy>,
}

impl SystemBuilder {
    /// Starts a builder from a system configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        SystemBuilder {
            cfg,
            backend: BackendKind::default(),
            topo: Topology::single(),
            tracing: None,
            metrics: None,
            sanitizer: None,
            faults: Vec::new(),
            policy: None,
        }
    }

    /// Selects the memory-backend preset (the default is
    /// [`BackendKind::Hmc`], the characterized Gen2 device).
    ///
    /// This is the single selection path: the preset rewrites the
    /// configuration's geometry at build time (see
    /// [`backends::apply_preset`]) and picks the device model. HMC-family
    /// presets work with every build variant; `ddr3-1600` and `hbm`
    /// require [`build_any`](Self::build_any).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Enables lifecycle tracing; one request in `sample_every` lands in
    /// the exportable event log.
    pub fn tracing(mut self, sample_every: u64) -> Self {
        self.tracing = Some(sample_every);
        self
    }

    /// Installs a periodic gauge sampler (one per cube in a chain).
    pub fn metrics(mut self, period: TimeDelta) -> Self {
        self.metrics = Some(period);
        self
    }

    /// Arms the protocol sanitizer and forward-progress watchdog with the
    /// default span.
    pub fn sanitizer(mut self) -> Self {
        self.sanitizer = Some(None);
        self
    }

    /// [`sanitizer`](SystemBuilder::sanitizer) with an explicit watchdog
    /// span.
    pub fn sanitizer_span(mut self, span: TimeDelta) -> Self {
        self.sanitizer = Some(Some(span));
        self
    }

    /// Installs a fault scenario — on the single system, or on *every*
    /// cube of a chain (matching how a chain shares one workload).
    /// Scenarios compose; call repeatedly to merge schedules.
    pub fn faults(mut self, scenario: &FaultScenario) -> Self {
        self.faults.push((None, scenario.clone()));
        self
    }

    /// Installs a fault scenario on one specific cube of a chain.
    pub fn faults_on(mut self, cube: usize, scenario: &FaultScenario) -> Self {
        self.faults.push((Some(cube), scenario.clone()));
        self
    }

    /// Replaces the thermal limits evaluated at spikes.
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Enables the host fault-robustness layer (per-request deadlines,
    /// bounded retransmission, link-death rerouting) with its configured
    /// parameters.
    pub fn robust(mut self) -> Self {
        self.cfg.host.robust.enabled = true;
        self
    }

    /// Attaches the open-loop multi-tenant arrival frontend with
    /// admission control to every host. In a chain, each sharded host
    /// receives a clone (so the config's `offered_rps` is per shard) and
    /// draws decorrelated arrivals through its `rng_salt`.
    pub fn open_loop(mut self, open: hmc_host::OpenLoopConfig) -> Self {
        self.cfg.host.openloop = Some(open);
        self
    }

    /// Selects the cube topology ([`Topology::single`] by default).
    /// Multi-cube topologies require [`build_chain`](Self::build_chain).
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topo = topo;
        self
    }

    /// Applies the declared observability and fault knobs to a built
    /// chain, in the one fixed order every build variant shares.
    fn apply<B: MemoryBackend>(self, mut sys: ChainSystem<B>) -> ChainSystem<B> {
        if let Some(policy) = self.policy {
            sys.set_failure_policy(policy);
        }
        if let Some(sample_every) = self.tracing {
            sys.enable_tracing(sample_every);
        }
        if let Some(period) = self.metrics {
            sys.enable_metrics(period);
        }
        match self.sanitizer {
            Some(Some(span)) => sys.enable_sanitizer_with_span(span),
            Some(None) => sys.enable_sanitizer(),
            None => {}
        }
        for (cube, scenario) in &self.faults {
            match cube {
                Some(c) => sys.install_faults(*c, scenario),
                None => {
                    for c in 0..sys.cubes() {
                        sys.install_faults(c, scenario);
                    }
                }
            }
        }
        sys
    }

    /// Rejects a multi-cube [`topology`](SystemBuilder::topology) in a
    /// single-cube build variant.
    fn assert_single_cube(&self) {
        assert_eq!(
            self.topo.cubes(),
            1,
            "multi-cube topology requires build_chain()"
        );
    }

    /// Wraps `device` in a one-cube system with every knob applied.
    fn single<B: MemoryBackend>(self, device: B) -> System<B> {
        let mut device = Some(device);
        let chain = ChainSystem::with_devices(self.cfg.clone(), Topology::single(), |_, _| {
            device.take().expect("a single topology builds one device")
        });
        System::from_chain(self.apply(chain))
    }

    /// Builds a single-cube [`System`] with the concrete HMC device
    /// (the statically-typed fast path every existing caller uses).
    ///
    /// # Panics
    ///
    /// Panics if a multi-cube [`topology`](SystemBuilder::topology) was
    /// selected — use [`build_chain`](SystemBuilder::build_chain) — or
    /// if a non-HMC [`backend`](SystemBuilder::backend) preset was
    /// selected — use [`build_any`](SystemBuilder::build_any).
    pub fn build(mut self) -> System {
        self.assert_single_cube();
        assert!(
            matches!(self.backend, BackendKind::Hmc | BackendKind::HmcGen3),
            "backend preset '{}' requires build_any()",
            self.backend
        );
        backends::apply_preset(self.backend, &mut self.cfg);
        let device = HmcDevice::new(self.cfg.mem.clone());
        self.single(device)
    }

    /// Builds a single-cube system around the selected
    /// [`backend`](SystemBuilder::backend) preset, after the build-time
    /// address-layout handshake.
    ///
    /// # Panics
    ///
    /// Panics on a multi-cube topology, or with a diagnostic naming
    /// both bit-fields when the instantiated backend decodes a shared
    /// address field differently than the host generates it.
    pub fn build_any(mut self) -> System<AnyBackend> {
        self.assert_single_cube();
        backends::apply_preset(self.backend, &mut self.cfg);
        let device = backends::instantiate(self.backend, &self.cfg);
        backends::assert_layout_compatible(
            &device,
            &backends::host_layout(self.backend, &self.cfg),
        );
        self.single(device)
    }

    /// Builds a single-cube system around a caller-constructed backend
    /// — the checked entry point for custom device models that share
    /// the host's interleave (DIMM-style backends with no interleave
    /// contract go through [`build_any`](Self::build_any) presets).
    ///
    /// # Panics
    ///
    /// Panics on a multi-cube topology, or with a diagnostic naming
    /// both bit-fields when `device` decodes a shared address field
    /// differently than the host's configured mapping generates it.
    pub fn build_with<B: MemoryBackend>(self, device: B) -> System<B> {
        self.assert_single_cube();
        let host = mem_backend::AddressLayout::of_mapping(
            "host-interleave",
            self.cfg.mem.mapping,
            &self.cfg.mem.spec,
        );
        backends::assert_layout_compatible(&device, &host);
        self.single(device)
    }

    /// Builds a [`ChainSystem`] of the selected topology (any cube count,
    /// including the single-cube identity topology).
    ///
    /// # Panics
    ///
    /// Panics if a non-HMC [`backend`](SystemBuilder::backend) preset
    /// was selected: cube chaining is an HMC-specification feature (the
    /// hop links are HMC pass-through serializers), so chains are
    /// HMC-family only.
    pub fn build_chain(mut self) -> ChainSystem {
        assert!(
            matches!(self.backend, BackendKind::Hmc | BackendKind::HmcGen3),
            "backend preset '{}' cannot form a cube chain; chaining is HMC-family only",
            self.backend
        );
        backends::apply_preset(self.backend, &mut self.cfg);
        let chain = ChainSystem::new(self.cfg.clone(), self.topo);
        self.apply(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which knobs reached cube 0: sanitizer, metrics, host tracer,
    /// device tracer.
    fn armed<B: MemoryBackend>(sys: &ChainSystem<B>) -> [bool; 4] {
        [
            sys.sanitizer_enabled(),
            sys.metrics(0).is_some(),
            sys.host(0).tracer().is_enabled(),
            sys.device(0).tracer().is_enabled(),
        ]
    }

    #[test]
    fn builder_matches_mutator_path() {
        let knobs = || {
            SystemBuilder::new(SystemConfig::default())
                .tracing(8)
                .metrics(TimeDelta::from_us(10))
                .sanitizer()
        };
        let mut mutated = System::new(SystemConfig::default());
        mutated.enable_tracing(8);
        mutated.enable_metrics(TimeDelta::from_us(10));
        mutated.enable_sanitizer();
        assert_eq!(armed(&mutated), [true; 4]);
        let variants = [
            ("build", armed(&knobs().build())),
            (
                "build_any",
                armed(&knobs().backend(BackendKind::Hbm).build_any()),
            ),
            (
                "build_with",
                armed(&knobs().build_with(HmcDevice::new(SystemConfig::default().mem))),
            ),
            ("build_chain", armed(&knobs().build_chain())),
        ];
        for (name, got) in variants {
            assert_eq!(got, armed(&mutated), "{name} dropped a knob");
        }
    }

    #[test]
    fn builder_installs_faults_on_every_cube() {
        let scenario = FaultScenario::builtin("noisy-link").expect("builtin");
        let chain = SystemBuilder::new(SystemConfig::default())
            .faults(&scenario)
            .topology(Topology::chain(2))
            .build_chain();
        assert_eq!(chain.cubes(), 2);
    }

    #[test]
    fn robust_flag_reaches_the_hosts() {
        let chain = SystemBuilder::new(SystemConfig::default())
            .robust()
            .topology(Topology::chain(2))
            .build_chain();
        assert_eq!(chain.cubes(), 2);
    }

    #[test]
    #[should_panic(expected = "build_chain")]
    fn build_rejects_multi_cube_topologies() {
        let _ = SystemBuilder::new(SystemConfig::default())
            .topology(Topology::chain(2))
            .build();
    }
}

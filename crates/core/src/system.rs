//! The full-system co-simulation: one FPGA host driving one memory
//! device, advanced in lockstep with deterministic event interleaving.
//!
//! A [`System`] is a one-cube [`ChainSystem`]: the same construction
//! path, event pump, and tracing, metrics, sanitizer, fault,
//! thermal-recovery and watchdog wiring. It adds only the no-index
//! accessors a single cube needs, and derefs to the chain for the rest.

use std::ops::{Deref, DerefMut};

use hmc_host::{Host, HostConfig};
use hmc_mem::{HmcDevice, MemConfig};
use hmc_types::Time;
use mem_backend::MemoryBackend;
use sim_engine::{FaultScenario, MetricsSampler};

use crate::topology::{ChainSystem, Topology};

/// Configuration of the whole modelled system.
#[derive(Debug, Clone, Default)]
pub struct SystemConfig {
    /// Device-side configuration.
    pub mem: MemConfig,
    /// Host-side configuration.
    pub host: HostConfig,
}

/// The co-simulated system: an FPGA host driving an HMC device (or any
/// other [`MemoryBackend`]).
///
/// ```
/// use hmc_core::{System, SystemConfig};
/// use hmc_host::Workload;
/// use hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
///
/// let mut sys = System::new(SystemConfig::default());
/// sys.host_mut().apply_workload(&Workload::read_stream(
///     4,
///     RequestSize::new(64)?,
/// ));
/// sys.host_mut().start(Time::ZERO);
/// sys.run_until_idle(TimeDelta::from_us(100));
/// assert_eq!(sys.host().stats().reads_completed, 4);
/// # Ok::<(), hmc_types::HmcError>(())
/// ```
#[derive(Debug)]
pub struct System<B: MemoryBackend = HmcDevice>(ChainSystem<B>);

impl System {
    /// Builds an idle system around the characterized HMC device.
    pub fn new(cfg: SystemConfig) -> Self {
        System(ChainSystem::new(cfg, Topology::single()))
    }
}

impl<B: MemoryBackend> System<B> {
    /// Wraps a one-cube chain.
    pub(crate) fn from_chain(chain: ChainSystem<B>) -> Self {
        debug_assert_eq!(chain.cubes(), 1, "a System has exactly one cube");
        System(chain)
    }

    /// Installs a fault scenario: device-level faults are translated into
    /// device events immediately; thermal spikes are queued as time
    /// barriers for [`step_until`](System::step_until). Scenarios compose
    /// — calling this twice merges the schedules.
    ///
    /// Deprecated construction path: prefer
    /// [`SystemBuilder::faults`](crate::SystemBuilder::faults) when the
    /// scenario is known up front.
    pub fn install_faults(&mut self, scenario: &FaultScenario) {
        self.0.install_faults(0, scenario);
    }

    /// The gauge sampler, if metrics are enabled.
    pub fn metrics(&self) -> Option<&MetricsSampler> {
        self.0.metrics(0)
    }

    /// The host model.
    pub fn host(&self) -> &Host {
        self.0.host(0)
    }

    /// Mutable host access (workload installation, stat windows).
    pub fn host_mut(&mut self) -> &mut Host {
        self.0.host_mut(0)
    }

    /// The device model.
    pub fn device(&self) -> &B {
        self.0.device(0)
    }

    /// Mutable device access (refresh coupling, data wipes).
    pub fn device_mut(&mut self) -> &mut B {
        self.0.device_mut(0)
    }

    /// The system clock (time of the last processed event). Inherent,
    /// like [`step_until`](System::step_until), so `System::now` names
    /// this method even where a trait with the same name is in scope.
    pub fn now(&self) -> Time {
        self.0.now()
    }

    /// Advances host and device until no event at or before `end`
    /// remains (see [`ChainSystem::step_until`]).
    pub fn step_until(&mut self, end: Time) {
        self.0.step_until(end);
    }
}

impl<B: MemoryBackend> Deref for System<B> {
    type Target = ChainSystem<B>;

    fn deref(&self) -> &ChainSystem<B> {
        &self.0
    }
}

impl<B: MemoryBackend> DerefMut for System<B> {
    fn deref_mut(&mut self) -> &mut ChainSystem<B> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_host::Workload;
    use hmc_types::{RequestKind, RequestSize, TimeDelta};

    #[test]
    fn stream_of_reads_completes() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut()
            .apply_workload(&Workload::read_stream(8, RequestSize::MAX));
        sys.host_mut().start(Time::ZERO);
        assert!(sys.run_until_idle(TimeDelta::from_us(100)));
        let s = sys.host().stats();
        assert_eq!(s.reads_completed, 8);
        assert_eq!(s.integrity_failures, 0);
        assert!(s.read_latency.min().unwrap().as_ns_f64() > 300.0);
    }

    #[test]
    fn continuous_workload_reaches_steady_state() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut().apply_workload(&Workload::full_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
        ));
        sys.host_mut().start(Time::ZERO);
        sys.run_for(TimeDelta::from_us(200));
        let s = sys.host().stats();
        assert!(s.reads_completed > 10_000, "{}", s.reads_completed);
        // Outstanding is bounded by the tag pools.
        assert!(sys.host().outstanding() <= 9 * 64);
    }

    #[test]
    fn device_and_host_agree_on_completions() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut().apply_workload(&Workload::full_scale(
            RequestKind::ReadModifyWrite,
            RequestSize::new(64).unwrap(),
        ));
        sys.host_mut().start(Time::ZERO);
        sys.run_for(TimeDelta::from_us(100));
        sys.host_mut().stop_generation();
        assert!(sys.run_until_idle(TimeDelta::from_ms(10)), "drain stalled");
        let h = sys.host().stats();
        let d = sys.device().stats();
        assert_eq!(h.reads_completed, d.reads_completed);
        assert_eq!(h.writes_completed, d.writes_completed);
        assert!(h.writes_completed > 0, "rw produced writes");
    }

    #[test]
    fn write_only_is_drain_limited_not_stuck() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut().apply_workload(&Workload::full_scale(
            RequestKind::WriteOnly,
            RequestSize::MAX,
        ));
        sys.host_mut().start(Time::ZERO);
        sys.run_for(TimeDelta::from_us(200));
        let s = sys.host().stats();
        assert!(s.writes_completed > 5_000, "{}", s.writes_completed);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let mut sys = System::new(SystemConfig::default());
            sys.host_mut().apply_workload(&Workload::full_scale(
                RequestKind::ReadOnly,
                RequestSize::new(32).unwrap(),
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(100));
            let s = sys.host().stats();
            (s.reads_completed, s.counted_bytes)
        };
        assert_eq!(run(), run());
    }
}

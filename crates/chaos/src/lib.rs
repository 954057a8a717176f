//! # retina-chaos
//!
//! Deterministic, seeded fault injection for the Retina pipeline.
//!
//! Everything a 100GbE deployment fears — mempool exhaustion, RX-ring
//! stalls, truncated and corrupted frames, duplicated and reordered
//! TCP segments, panicking protocol parsers, worker cores losing the
//! CPU — expressed as a declarative [`FaultPlan`] and injected at
//! three levels:
//!
//! * **wire**: [`ChaosSource`] wraps any
//!   [`TrafficSource`](retina_core::runtime::TrafficSource) and
//!   mangles frames (truncate / corrupt / duplicate / reorder);
//! * **device**: [`ChaosHooks`] implements
//!   [`retina_nic::FaultHooks`] (mempool squeezes, ring stalls, worker
//!   slowdowns) and installs onto a `VirtualNic` via [`install`];
//! * **parser**: [`ChaosParser`] panics on chosen payloads, proving
//!   the runtime's panic containment. Its modulus travels with the
//!   parser: register [`chaos_parser_factory`] with the plan's
//!   [`FaultPlan::parser_panic_modulus`] in the runtime's parser
//!   registry.
//!
//! The determinism contract: every injection decision is a pure
//! function of the plan seed and an event the workload itself drives
//! (ingress sequence number, per-queue poll count, frame index,
//! payload content). No wall-clock, no global RNG. Two runs of the
//! same plan over the same workload perturb exactly the same events,
//! which is what lets chaos tests assert accounting invariants and
//! replay failures bit for bit.
//!
//! ```
//! use std::sync::Arc;
//! use retina_chaos::{install, ChaosSource, FaultPlan};
//! use retina_nic::{DeviceConfig, VirtualNic};
//! use retina_trafficgen::campus::{generate, CampusConfig};
//! use retina_trafficgen::PreloadedSource;
//!
//! let nic = Arc::new(VirtualNic::new(&DeviceConfig {
//!     num_queues: 2,
//!     ..Default::default()
//! }));
//! let source = PreloadedSource::new(generate(&CampusConfig::small(0xC0FFEE)));
//! let plan = FaultPlan::from_seed(0xC0FFEE, source.len() as u64, nic.num_queues());
//! println!("{}", plan.describe());
//! let hooks = install(&nic, &plan); // device-level faults
//! let source = ChaosSource::new(source, &plan); // wire-level faults
//! // runtime.run(source) would now see both fault levels; afterwards:
//! nic.clear_fault_hooks();
//! # let _ = (hooks, source);
//! ```

#![warn(missing_docs)]

pub mod hooks;
pub mod parser;
pub mod plan;
pub mod source;

use std::sync::Arc;

use retina_nic::VirtualNic;

pub use hooks::ChaosHooks;
pub use parser::{chaos_parser_factory, content_hash, ChaosParser};
pub use plan::{Fault, FaultPlan};
pub use source::ChaosSource;

/// Builds [`ChaosHooks`] for `plan` and installs them on the device.
/// Returns the hooks so callers can inspect poll counters; call
/// [`VirtualNic::clear_fault_hooks`] when the experiment ends. Parser
/// panics are not device faults: they come from a [`ChaosParser`] in
/// the runtime's parser registry (see [`chaos_parser_factory`]).
pub fn install(nic: &Arc<VirtualNic>, plan: &FaultPlan) -> Arc<ChaosHooks> {
    let hooks = Arc::new(ChaosHooks::new(plan.clone(), nic.num_queues()));
    nic.set_fault_hooks(Arc::<ChaosHooks>::clone(&hooks));
    hooks
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_nic::DeviceConfig;

    #[test]
    fn install_wires_hooks() {
        let nic = Arc::new(VirtualNic::new(&DeviceConfig {
            num_queues: 2,
            ..Default::default()
        }));
        let plan = FaultPlan::new(5)
            .with(Fault::RingStall {
                queue: 0,
                start_poll: 0,
                polls: 4,
            })
            .with(Fault::ParserPanic { modulus: 16 });
        let hooks = install(&nic, &plan);
        // The stall window is live: the first polls on queue 0 deliver
        // nothing even though nothing was ingested (and count as polls).
        let mut out = Vec::new();
        assert_eq!(nic.rx_burst(0, &mut out, 32), 0);
        assert_eq!(hooks.polls_seen(0), 1);
        nic.clear_fault_hooks();
        assert_eq!(nic.faults_in_flight(), 0);
    }
}

//! End-to-end runs through the production runtime: set-up, the live
//! closed loop, and the NIC-staged RX-core run.
//!
//! Every runtime has one RX core (`RuntimeConfig::with_cores(1)`),
//! inline callbacks and paced ingest, so a live run is two threads —
//! the ingest thread and the RX worker — and a staged run is the RX
//! worker alone.

use std::time::Instant;

use retina_core::{CompiledFilter, MultiRuntime, RunReport, RuntimeBuilder, RuntimeConfig};
use retina_nic::IngestOutcome;
use retina_support::bytes::Bytes;
use retina_trafficgen::PreloadedSource;

use crate::workload::Workload;

/// The runtime configuration users get: one RX core, default rings.
pub fn live_config() -> RuntimeConfig {
    RuntimeConfig::with_cores(1)
}

/// [`live_config`] with a descriptor ring and mempool that hold the
/// whole workload, so it can be ingested before the RX core starts.
pub fn staged_config(frames: usize) -> RuntimeConfig {
    let mut config = live_config();
    config.device.ring_capacity = frames.max(1);
    config.device.mempool_capacity = frames.max(1);
    config
}

/// Builds the workload's runtime; returns it with the wall time of
/// `RuntimeBuilder::build` in seconds.
///
/// # Errors
/// Fails if the runtime does not build.
pub fn build(
    workload: Workload,
    config: RuntimeConfig,
) -> Result<(MultiRuntime<CompiledFilter>, f64), String> {
    let builder = workload
        .subs()
        .iter()
        .fold(RuntimeBuilder::new(config), |b, s| s.register(b));
    let t0 = Instant::now();
    let runtime = builder.build().map_err(|e| e.to_string())?;
    Ok((runtime, t0.elapsed().as_secs_f64()))
}

/// One measured run.
#[derive(Debug)]
pub struct Run {
    /// The runtime's report.
    pub report: RunReport,
    /// Wall time of `MultiRuntime::run`, seconds.
    pub secs: f64,
}

/// The live closed loop: `run()` over the workload's frames, the ingest
/// thread pacing the source on a full ring.
///
/// # Errors
/// Fails if the runtime does not build.
pub fn live(workload: Workload, source: &PreloadedSource) -> Result<Run, String> {
    let (mut runtime, _) = build(workload, live_config())?;
    let t0 = Instant::now();
    let report = runtime.run(source.clone());
    let secs = t0.elapsed().as_secs_f64();
    Ok(Run { report, secs })
}

/// The NIC-staged run: every frame is pushed through
/// `VirtualNic::ingest` first, then `run()` drains the rings with an
/// empty source, so its wall time is the RX core's alone.
///
/// # Errors
/// Fails if the runtime does not build or a frame is lost while staging.
pub fn staged(workload: Workload, frames: &[(Bytes, u64)]) -> Result<Run, String> {
    let (mut runtime, _) = build(workload, staged_config(frames.len()))?;
    for (seq, (frame, ts)) in frames.iter().enumerate() {
        match runtime.nic().ingest(frame.clone(), *ts) {
            IngestOutcome::Delivered(_) | IngestOutcome::HwDropped => {}
            other => return Err(format!("staging lost frame {seq}: {other:?}")),
        }
    }
    let t0 = Instant::now();
    let report = runtime.run(PreloadedSource::new(Vec::new()));
    let secs = t0.elapsed().as_secs_f64();
    Ok(Run { report, secs })
}

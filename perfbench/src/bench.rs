//! One benchmark invocation: generate the workload, measure it, check
//! the outputs, and collect every metric.

use std::time::{Duration, Instant};

use retina_core::RunReport;
use retina_support::bytes::Bytes;
use retina_trafficgen::PreloadedSource;

use crate::measure;
use crate::metrics::{median, Metric};
use crate::replay;
use crate::spans::Budget;
use crate::traced::{self, layer, TracedRun, LAYERS};
use crate::workload::{Workload, SUB_NAMES};

/// Runtime builds timed for `setup_s`.
const SETUP_BUILDS: usize = 500;
/// Fewest live and staged runs per invocation, however short `seconds`.
const MIN_RUNS: usize = 3;
/// Fewest traced (and untraced) driver runs with `--trace 1`.
const MIN_TRACED: usize = 2;

/// Command-line settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload to run.
    pub workload: Workload,
    /// Generator seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: u64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// One row of the per-layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer name (`unattributed` for loop glue).
    pub name: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, cycles.
    pub self_cycles: u64,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Frames in the workload.
    pub frames: usize,
    /// Wire bytes in the workload.
    pub wire_bytes: u64,
    /// Per-repetition `gbps` of the live runs.
    pub live_gbps: Vec<f64>,
    /// Per-repetition `rx_gbps` of the staged runs.
    pub staged_gbps: Vec<f64>,
    /// Frames offered to a NIC, over every run.
    pub attempted: u64,
    /// Frames lost at a NIC, over every run.
    pub failed: u64,
    /// Every correctness violation found (empty when correct).
    pub errors: Vec<String>,
    /// Per-subscription delivered counts, `(name, delivered)`.
    pub delivered: Vec<(String, u64)>,
    /// End-to-end metrics, including the reported-only ones.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty without `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// The per-layer budget table (empty without `--trace 1`).
    pub budget: Vec<LayerRow>,
    /// Traced cycles over every traced run.
    pub traced_total: u64,
    /// Traced runs behind the budget.
    pub traced_runs: usize,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[allow(clippy::cast_precision_loss)]
fn gbit_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 * 8.0 / secs / 1e9
}

/// Collects correctness findings; every run's per-subscription counts
/// must equal the first run's.
#[derive(Default)]
struct Checker {
    reference: Option<Vec<(String, u64)>>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, what: &str, report: &RunReport) {
        if let Err(e) = report.check_accounting() {
            self.errors.push(format!("{what}: accounting: {e}"));
        }
        let lost = report.nic.rx_missed + report.nic.rx_nombuf;
        self.attempted += report.nic.rx_offered;
        self.failed += lost;
        if lost != 0 {
            self.errors
                .push(format!("{what}: {lost} frames lost at the NIC"));
        }
        if report.nic.sunk != 0 {
            self.errors
                .push(format!("{what}: {} frames sunk", report.nic.sunk));
        }
        for sub in &report.subs {
            if sub.cb_executed != sub.delivered {
                self.errors.push(format!(
                    "{what}: sub {} delivered {} but ran {} callbacks",
                    sub.name, sub.delivered, sub.cb_executed
                ));
            }
        }
        let counts: Vec<(String, u64)> = report
            .subs
            .iter()
            .map(|s| (s.name.clone(), s.delivered))
            .collect();
        match &self.reference {
            None => self.reference = Some(counts),
            Some(r) if *r != counts => self.errors.push(format!(
                "{what}: per-subscription counts {counts:?} differ from {r:?}"
            )),
            Some(_) => {}
        }
    }
}

/// Per-repetition samples of the runs through `MultiRuntime`.
#[derive(Default)]
struct Samples {
    live_gbps: Vec<f64>,
    staged_gbps: Vec<f64>,
    arena_mb: Vec<f64>,
    mbuf_high_water: Vec<f64>,
}

/// Wall times of `SETUP_BUILDS` builds of the workload's runtime.
fn setup_times(w: Workload) -> Result<Vec<f64>, String> {
    (0..SETUP_BUILDS)
        .map(|_| measure::build(w, measure::live_config()).map(|(_, secs)| secs))
        .collect()
}

/// Live and staged runs alternating (so both see the same drift in
/// machine load) until the deadline; with `once`, one of each.
#[allow(clippy::cast_precision_loss)]
fn runtime_runs(
    w: Workload,
    frames: &[(Bytes, u64)],
    wire_bytes: u64,
    deadline: Instant,
    once: bool,
    checker: &mut Checker,
) -> Result<Samples, String> {
    let source = PreloadedSource::new(frames.to_vec());
    let mut s = Samples::default();
    loop {
        let live = measure::live(w, &source)?;
        checker.check("live run", &live.report);
        s.live_gbps.push(gbit_per_s(wire_bytes, live.secs));
        s.mbuf_high_water.push(live.report.mbuf_high_water as f64);
        let staged = measure::staged(w, frames)?;
        checker.check("staged run", &staged.report);
        s.staged_gbps.push(gbit_per_s(wire_bytes, staged.secs));
        s.arena_mb.push(staged.report.conn_arena_bytes as f64 / 1e6);
        if once || (s.live_gbps.len() >= MIN_RUNS && Instant::now() >= deadline) {
            return Ok(s);
        }
    }
}

/// The end-to-end metrics: medians of the samples, and the loss share.
fn end_to_end(samples: &Samples, setup_s: &[f64], checker: &Checker) -> Vec<Metric> {
    vec![
        metric("gbps", "Gbit/s", median(&samples.live_gbps)),
        metric("rx_gbps", "Gbit/s", median(&samples.staged_gbps)),
        metric("setup_s", "s", median(setup_s)),
        metric(
            "loss_frac",
            "ratio",
            ratio(checker.failed, checker.attempted),
        ),
        metric("conn_arena_mb", "MB", median(&samples.arena_mb)),
    ]
}

/// Output of the single-threaded traced replay (see `traced.rs`).
struct DriverRuns {
    /// The first run (counts and rules are the same in every run).
    first: TracedRun,
    /// Summed budget of the traced runs.
    budget: Budget,
    traced: usize,
    outputs: u64,
    on_cycles: Vec<f64>,
    off_cycles: Vec<f64>,
}

/// Replay runs: one untraced pass for the cross-check, or with `trace`
/// traced and untraced passes alternating until the deadline.
#[allow(clippy::cast_precision_loss)]
fn driver_runs(
    w: Workload,
    frames: &[(Bytes, u64)],
    deadline: Instant,
    trace: bool,
    checker: &mut Checker,
) -> Result<DriverRuns, String> {
    let mut first: Option<TracedRun> = None;
    let mut budget = Budget {
        self_cycles: vec![0; LAYERS.len()],
        calls: vec![0; LAYERS.len()],
        total: 0,
    };
    let (mut traced_runs, mut outputs) = (0, 0);
    let (mut on_cycles, mut off_cycles) = (Vec::new(), Vec::new());
    loop {
        let off = traced::run(w, frames, false)?;
        checker.check("untraced driver run", &off.report);
        off_cycles.push(off.wall_cycles as f64);
        first.get_or_insert(off);
        if !trace {
            break;
        }
        let t = traced::run(w, frames, true)?;
        checker.check("traced run", &t.report);
        on_cycles.push(t.wall_cycles as f64);
        let b = Budget::of(&t.spans, LAYERS.len());
        if !b.adds_up() {
            checker.errors.push(format!(
                "budget identity: layer self times sum to {} cycles, traced total is {}",
                b.self_cycles.iter().sum::<u64>(),
                b.total
            ));
        }
        for l in 0..LAYERS.len() {
            budget.self_cycles[l] += b.self_cycles[l];
            budget.calls[l] += b.calls[l];
        }
        budget.total += b.total;
        outputs += t.outputs;
        traced_runs += 1;
        if traced_runs >= MIN_TRACED && Instant::now() >= deadline {
            break;
        }
    }
    Ok(DriverRuns {
        first: first.expect("the loop makes at least one driver run"),
        budget,
        traced: traced_runs,
        outputs,
        on_cycles,
        off_cycles,
    })
}

/// Per-layer metrics and the budget table of the traced runs.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn per_layer(
    w: Workload,
    frames: &[(Bytes, u64)],
    samples: &Samples,
    runs: &DriverRuns,
) -> Result<(Vec<Metric>, Vec<LayerRow>), String> {
    let b = &runs.budget;
    let first = &runs.first;
    let cores = &first.report.cores;
    let n = runs.traced as u64;
    let offered = frames.len() as u64 * n;
    let received = cores.rx_packets * n;
    let own = |l: u16| b.self_cycles[l as usize];
    let per_call = |l: u16| ratio(own(l), b.calls[l as usize]);
    let unattributed = own(layer::RUN) + own(layer::BURST);

    let pkts = replay::parsed(frames);
    let patterns: Vec<String> = w
        .subs()
        .iter()
        .flat_map(|s| replay::regex_literals(s.filter))
        .collect();
    let rematch = replay::rematch_cycles(&patterns, &replay::tls_snis(frames))?;
    let caps = measure::live_config().device.caps;

    let mut m = vec![
        metric(
            "nic.ingest.cycles_per_pkt",
            "cycles",
            per_call(layer::INGEST),
        ),
        metric(
            "nic.rss.cycles_per_pkt",
            "cycles",
            replay::rss_cycles(&pkts),
        ),
        metric(
            "nic.hw_rule.cycles_per_pkt",
            "cycles",
            replay::hw_rule_cycles(&pkts, &first.rules, caps)?,
        ),
        metric(
            "nic.rx_poll.cycles_per_pkt",
            "cycles",
            ratio(own(layer::RX_POLL), received),
        ),
        metric(
            "wire.parse.cycles_per_pkt",
            "cycles",
            per_call(layer::PARSE),
        ),
        metric(
            "filter.packet.cycles_per_pkt",
            "cycles",
            per_call(layer::FILTER),
        ),
        metric(
            "core.bypass.cycles_per_pkt",
            "cycles",
            per_call(layer::BYPASS),
        ),
        metric(
            "core.tracker.process.cycles_per_call",
            "cycles",
            per_call(layer::PROCESS),
        ),
        metric(
            "core.tracker.advance.cycles_per_pkt",
            "cycles",
            ratio(own(layer::ADVANCE), received),
        ),
        metric(
            "core.tracker.drain.cycles_per_pkt",
            "cycles",
            ratio(own(layer::DRAIN), received),
        ),
        metric(
            "core.deliver.cycles_per_output",
            "cycles",
            ratio(own(layer::DELIVER), runs.outputs),
        ),
        metric(
            "conntrack.table.cycles_per_op",
            "cycles",
            replay::table_cycles(&pkts),
        ),
        metric(
            "support.rematch.cycles_per_match",
            "cycles",
            rematch.unwrap_or(0.0),
        ),
        metric("traced.cycles_per_pkt", "cycles", ratio(b.total, offered)),
        metric(
            "unattributed.cycles_per_pkt",
            "cycles",
            ratio(unattributed, offered),
        ),
        metric(
            "trace_overhead_frac",
            "ratio",
            median(&runs.on_cycles) / median(&runs.off_cycles) - 1.0,
        ),
        metric(
            "filter.packet.pass_frac",
            "ratio",
            ratio(first.filter_passed, cores.packet_filter.runs),
        ),
        metric(
            "filter.conn.discard_frac",
            "ratio",
            ratio(cores.discard_conn_filter, cores.conns_created),
        ),
        metric(
            "filter.session.runs",
            "count",
            cores.session_filter.runs as f64,
        ),
        metric(
            "filter.session.discard_frac",
            "ratio",
            ratio(cores.discard_session_filter, cores.session_filter.runs),
        ),
        metric(
            "conntrack.conns_created",
            "count",
            cores.conns_created as f64,
        ),
        metric("conntrack.conns_peak", "count", cores.conns_peak as f64),
        metric(
            "conntrack.conns_expired",
            "count",
            cores.conns_expired as f64,
        ),
        metric(
            "conntrack.reassembly.runs",
            "count",
            cores.reassembly.runs as f64,
        ),
        metric("conntrack.arena_mb", "MB", median(&samples.arena_mb)),
        metric(
            "protocols.parse.runs",
            "count",
            cores.app_parsing.runs as f64,
        ),
        metric(
            "nic.hw_drop_frac",
            "ratio",
            ratio(first.report.nic.hw_dropped, first.report.nic.rx_offered),
        ),
        metric(
            "nic.mbuf_high_water",
            "count",
            median(&samples.mbuf_high_water),
        ),
    ];
    for name in SUB_NAMES {
        let delivered = first
            .report
            .subs
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.delivered);
        m.push(metric(
            &format!("core.deliver.outputs.{name}"),
            "count",
            delivered as f64,
        ));
    }

    let mut rows: Vec<LayerRow> = (layer::INGEST..=layer::DELIVER)
        .map(|l| LayerRow {
            name: LAYERS[l as usize],
            calls: b.calls[l as usize],
            self_cycles: own(l),
        })
        .collect();
    rows.push(LayerRow {
        name: "unattributed",
        calls: b.calls[layer::RUN as usize] + b.calls[layer::BURST as usize],
        self_cycles: unattributed,
    });
    Ok((m, rows))
}

/// Runs one invocation.
///
/// # Errors
/// Fails when a run cannot be made at all (a runtime does not build, a
/// frame is lost while staging, the span buffer overflows). Correctness
/// findings on completed runs are returned in [`Outcome::errors`].
pub fn run(settings: Settings) -> Result<Outcome, String> {
    let w = settings.workload;
    // Set-up does not depend on the traffic: time it first, before the
    // frames fill the heap.
    let setup_s = setup_times(w)?;
    let frames = w.frames(settings.seed);
    if frames.is_empty() {
        return Err("the generator produced no frames".into());
    }
    let deadline = Instant::now() + Duration::from_secs(settings.seconds);
    let mut checker = Checker::default();
    // With --trace 1 the measuring time goes to the traced driver; one
    // live and one staged run remain for the cross-check.
    let wire_bytes: u64 = frames.iter().map(|(f, _)| f.len() as u64).sum();
    let samples = runtime_runs(
        w,
        &frames,
        wire_bytes,
        deadline,
        settings.trace,
        &mut checker,
    )?;
    let runs = driver_runs(w, &frames, deadline, settings.trace, &mut checker)?;

    let end_to_end = end_to_end(&samples, &setup_s, &checker);
    let (per_layer, budget) = if settings.trace {
        per_layer(w, &frames, &samples, &runs)?
    } else {
        (Vec::new(), Vec::new())
    };
    let delivered = runs
        .first
        .report
        .subs
        .iter()
        .map(|s| (s.name.clone(), s.delivered))
        .collect();
    Ok(Outcome {
        frames: frames.len(),
        wire_bytes,
        live_gbps: samples.live_gbps,
        staged_gbps: samples.staged_gbps,
        attempted: checker.attempted,
        failed: checker.failed,
        errors: checker.errors,
        delivered,
        end_to_end,
        per_layer,
        budget,
        traced_total: runs.budget.total,
        traced_runs: runs.traced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{valid_name, END_TO_END};

    #[test]
    fn end_to_end_names_are_valid_and_cover_the_result_line() {
        let samples = Samples {
            live_gbps: vec![1.0],
            staged_gbps: vec![2.0],
            arena_mb: vec![0.0],
            mbuf_high_water: vec![1.0],
        };
        let metrics = end_to_end(&samples, &[1e-5], &Checker::default());
        for m in &metrics {
            assert!(valid_name(&m.name), "{}", m.name);
        }
        for (name, unit) in END_TO_END {
            assert!(metrics.iter().any(|m| m.name == name && m.unit == unit));
        }
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.name == "loss_frac")
                .unwrap()
                .value,
            0.0
        );
    }
}

//! `retina-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a readable report, writes it as JSON under `results/` in this
//! package, and ends with one JSON result line. Exits non-zero on any
//! correctness violation.

use std::process::ExitCode;

use retina_perfbench::bench::{self, Outcome, Settings};
use retina_perfbench::metrics::{
    self, json_num, json_str, result_line, select, END_TO_END, PER_LAYER,
};
use retina_perfbench::workload::Workload;

/// Seed used when `--seed` is not given (the campus generator's own
/// default).
const DEFAULT_SEED: u64 = 0x00C0_FFEE;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: retina-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(Settings {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
    })
}

fn print_report(settings: &Settings, out: &Outcome) {
    println!(
        "workload {}  seed {}  frames {}  wire bytes {}  live runs {}  staged runs {}",
        settings.workload.name(),
        settings.seed,
        out.frames,
        out.wire_bytes,
        out.live_gbps.len(),
        out.staged_gbps.len()
    );
    println!("end to end (medians):");
    for m in &out.end_to_end {
        println!("  {:<16} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let subs: Vec<String> = out
        .delivered
        .iter()
        .map(|(n, d)| format!("{n}={d}"))
        .collect();
    println!("delivered per subscription: {}", subs.join(" "));
    if out.budget.is_empty() {
        return;
    }
    #[allow(clippy::cast_precision_loss)]
    let per_frame = |c: u64| c as f64 / (out.frames * out.traced_runs) as f64;
    println!("per-layer cycle budget (self time, traced run):");
    println!(
        "  {:<22} {:>12} {:>16} {:>12} {:>8}",
        "layer", "calls", "self cycles", "cyc/frame", "share"
    );
    for row in &out.budget {
        #[allow(clippy::cast_precision_loss)]
        let share = row.self_cycles as f64 / out.traced_total as f64;
        println!(
            "  {:<22} {:>12} {:>16} {:>12.1} {:>7.2}%",
            row.name,
            row.calls,
            row.self_cycles,
            per_frame(row.self_cycles),
            share * 100.0
        );
    }
    println!(
        "  {:<22} {:>12} {:>16} {:>12.1} {:>7.2}%",
        "traced total",
        "",
        out.traced_total,
        per_frame(out.traced_total),
        100.0
    );
    println!("per-layer metrics:");
    for m in &out.per_layer {
        println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn numbers(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| json_num(*v))
        .collect::<Vec<_>>()
        .join(", ")
}

fn report_json(settings: &Settings, out: &Outcome) -> String {
    let rows: Vec<String> = out
        .budget
        .iter()
        .map(|r| {
            format!(
                "{{\"layer\": {}, \"calls\": {}, \"self_cycles\": {}}}",
                json_str(r.name),
                r.calls,
                r.self_cycles
            )
        })
        .collect();
    let subs: Vec<String> = out
        .delivered
        .iter()
        .map(|(n, d)| format!("{}: {d}", json_str(n)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"frames\": {}, \"wire_bytes\": {}, \
         \"live_runs\": {}, \"staged_runs\": {}, \"delivered\": {{{}}}, \
         \"end_to_end\": {}, \"samples\": {{\"gbps\": [{}], \"rx_gbps\": [{}]}}, \
         \"per_layer\": {}, \"budget\": {{\"traced_cycles\": {}, \"layers\": [{}]}}, \
         \"errors\": [{}]}}\n",
        json_str(settings.workload.name()),
        settings.seed,
        out.frames,
        out.wire_bytes,
        out.live_gbps.len(),
        out.staged_gbps.len(),
        subs.join(", "),
        metrics::metrics_object(&out.end_to_end),
        numbers(&out.live_gbps),
        numbers(&out.staged_gbps),
        metrics::metrics_object(&out.per_layer),
        out.traced_total,
        rows.join(", "),
        out.errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn write_results(settings: &Settings, out: &Outcome) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        settings.workload.name(),
        settings.seed,
        u8::from(settings.trace)
    ));
    std::fs::write(&path, report_json(settings, out))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out = match bench::run(settings) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&settings, &out);
    if let Err(e) = write_results(&settings, &out) {
        eprintln!("cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    let wanted: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let selected = match select(
        if settings.trace {
            &out.per_layer
        } else {
            &out.end_to_end
        },
        wanted,
    ) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.errors.is_empty();
    for e in &out.errors {
        eprintln!("INCORRECT: {e}");
    }
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &selected)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

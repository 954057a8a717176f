//! The traced driver replays the RX worker's calls from outside; on
//! small campus traffic it must deliver what the runtime's own stepped
//! driver delivers, subscription by subscription, for every workload's
//! subscription shapes.

use retina_core::{RunReport, StepConfig};
use retina_perfbench::measure;
use retina_perfbench::spans::Budget;
use retina_perfbench::traced::{self, LAYERS};
use retina_perfbench::workload::{scan_config, Workload};
use retina_support::bytes::Bytes;
use retina_trafficgen::campus::{generate, CampusConfig};

fn small_frames(w: Workload, seed: u64) -> Vec<(Bytes, u64)> {
    match w {
        Workload::CampusPackets | Workload::CampusMulti => generate(&CampusConfig::small(seed)),
        Workload::ScanChurn => generate(&scan_config(seed, 20_000)),
    }
}

fn counts(report: &RunReport) -> Vec<(String, u64)> {
    report
        .subs
        .iter()
        .map(|s| (s.name.clone(), s.delivered))
        .collect()
}

#[test]
fn traced_driver_matches_run_stepped_per_subscription() {
    for w in Workload::ALL {
        for seed in [1, 7] {
            let frames = small_frames(w, seed);
            let (runtime, _) = measure::build(w, measure::live_config()).unwrap();
            let stepped = runtime.run_stepped(&frames, &StepConfig::default());
            stepped.check_accounting().unwrap();

            let traced = traced::run(w, &frames, true).unwrap();
            traced.report.check_accounting().unwrap();
            assert_eq!(
                counts(&traced.report),
                counts(&stepped),
                "{} seed {seed}: traced driver and run_stepped disagree",
                w.name()
            );
            assert!(
                traced.report.subs.iter().any(|s| s.delivered > 0),
                "{} seed {seed}: nothing delivered",
                w.name()
            );
            for sub in &traced.report.subs {
                assert_eq!(sub.delivered, sub.cb_executed, "{}", sub.name);
            }
            assert!(Budget::of(&traced.spans, LAYERS.len()).adds_up());

            let untraced = traced::run(w, &frames, false).unwrap();
            assert!(untraced.spans.is_empty());
            assert_eq!(counts(&untraced.report), counts(&stepped));
        }
    }
}

#[test]
fn staged_and_live_runs_match_the_traced_driver() {
    let w = Workload::CampusMulti;
    let frames = small_frames(w, 3);
    let traced = traced::run(w, &frames, false).unwrap();
    let staged = measure::staged(w, &frames).unwrap();
    staged.report.check_accounting().unwrap();
    assert_eq!(counts(&staged.report), counts(&traced.report));
    let live = measure::live(w, &retina_trafficgen::PreloadedSource::new(frames)).unwrap();
    live.report.check_accounting().unwrap();
    assert_eq!(counts(&live.report), counts(&traced.report));
    assert_eq!(live.report.nic.rx_missed + live.report.nic.rx_nombuf, 0);
}

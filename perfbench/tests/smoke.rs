//! The benchmark's own tests, on a 100-vertex grid city: every workload
//! runs a handful of ops, prints each metric once with its unit, answers
//! correctly, and repeats its counts for a repeated seed.

use fedroad_core::jsonio::Value;
use fedroad_perfbench::metrics::{END_TO_END, PER_LAYER};
use fedroad_perfbench::workload::WorkloadSpec;
use fedroad_perfbench::{host_cores, run, Options, Outcome};

fn tiny(spec: WorkloadSpec, seed: u64, trace: bool) -> Options {
    let updater = spec.updater;
    Options {
        max_ops: Some(6),
        ticks: updater.then_some(3),
        ..Options::new(spec.on_tiny_city(), seed, 60.0, trace)
    }
}

/// Runs `opts`, or returns `None` when the host has too few cores for it
/// (after checking that the benchmark refuses).
fn run_if_it_fits(opts: &Options) -> Option<Outcome> {
    if opts.spec.threads() > host_cores() {
        assert!(run(opts).is_err(), "must refuse to oversubscribe the host");
        return None;
    }
    Some(run(opts).expect("fits the host"))
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(list)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));
}

#[test]
fn every_workload_prints_each_metric_once_with_its_unit() {
    for spec in WorkloadSpec::all() {
        for trace in [false, true] {
            let Some(outcome) = run_if_it_fits(&tiny(spec.clone(), 3, trace)) else {
                continue;
            };
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert!(outcome.correct, "{} trace={trace}", spec.name);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 6);

            let line = outcome.result_line();
            let doc = Value::parse(&line).expect("the result line is JSON");
            assert!(matches!(doc.get("correct").unwrap(), Value::Bool(true)));
            let Value::Obj(metrics) = doc.get("metrics").unwrap() else {
                panic!("metrics is an object")
            };
            let printed: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(k, v)| (k.as_str(), v.get("unit").unwrap().as_str().unwrap()))
                .collect();
            assert_eq!(printed, expected, "{} trace={trace}", spec.name);

            let report = outcome.report_lines().join("\n");
            for (name, unit) in expected {
                let rows: Vec<&str> = report
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name))
                    .collect();
                assert_eq!(rows.len(), 1, "{name} printed once in {}", spec.name);
                assert!(rows[0].ends_with(&format!(" {unit}")), "{}", rows[0]);
            }
        }
    }
}

#[test]
fn traced_answers_equal_untraced_and_parts_sum_to_the_wall() {
    for spec in WorkloadSpec::all() {
        let Some(outcome) = run_if_it_fits(&tiny(spec.clone(), 5, true)) else {
            continue;
        };
        let traced = &outcome.phases[1];
        assert!(!traced.ops.is_empty());
        for op in &traced.ops {
            let answer = op.result.as_ref().expect("no op panics");
            assert_eq!(answer.matches_untraced, Some(true), "{}", spec.name);
            let s = op.split.as_ref().expect("traced ops carry a split");
            assert_eq!(
                s.potential + s.spsp_self + s.fedsac + s.unattributed,
                s.wall
            );
            assert_eq!(op.wall_ns, s.wall);
            assert!(s.blocked <= s.fedsac);
            assert_eq!(answer.fedsac, s.fedsac_pairs());
        }
    }
}

#[test]
fn one_seed_twice_repeats_the_counts() {
    let short = WorkloadSpec::named("fla-short").unwrap();
    let a = run(&tiny(short.clone(), 11, false)).unwrap();
    let b = run(&tiny(short, 11, false)).unwrap();
    for name in ["fedsac_per_query", "bytes_per_query"] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }

    let live = WorkloadSpec::named("fla-live").unwrap();
    let opts = tiny(live, 11, false);
    let (Some(a), Some(b)) = (run_if_it_fits(&opts), run_if_it_fits(&opts)) else {
        return;
    };
    let per_epoch = |o: &Outcome| -> Vec<u64> {
        o.phases[0]
            .ticks
            .iter()
            .map(|t| t.customize_fedsac)
            .collect()
    };
    assert_eq!(per_epoch(&a).len(), 3);
    assert_eq!(per_epoch(&a), per_epoch(&b));
    assert!(per_epoch(&a).iter().any(|&n| n > 0));
}

#[test]
fn a_different_seed_gives_different_od_pairs() {
    for spec in WorkloadSpec::all() {
        let spec = spec.on_tiny_city();
        let graph = spec.city.generate();
        let pairs = spec.od_pairs(&graph, 1);
        assert_eq!(pairs, spec.od_pairs(&graph, 1), "{}", spec.name);
        assert_ne!(pairs, spec.od_pairs(&graph, 2), "{}", spec.name);
    }
}

#[test]
fn refuses_more_threads_than_cores() {
    let mut spec = WorkloadSpec::named("cal-long").unwrap().on_tiny_city();
    spec.clients = host_cores() + 1;
    let err = run(&Options::new(spec, 1, 1.0, false))
        .err()
        .expect("refused");
    assert!(err.contains("cores"), "{err}");
}

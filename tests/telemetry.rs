//! Integration tests for the `recipe-obs` observability layer: counter
//! sharding stays exact under the real worker pool at several thread
//! counts, histogram bucket boundaries behave at the API surface, a
//! trained pipeline exports a schema-valid telemetry snapshot, and
//! profile exports (collapsed-stack folds, profile JSON, stage diffs)
//! and the serving view derived from two cumulative scrapes are
//! byte-identical across worker counts.
//!
//! Tests in this binary share the process-wide tracing switch and the
//! global registry, so the ones that touch them serialize on a lock.

use recipe_core::pipeline::{PipelineConfig, TrainedPipeline};
use recipe_corpus::{CorpusSpec, RecipeCorpus};
use recipe_runtime::Runtime;
use std::sync::{Mutex, MutexGuard};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn counter_totals_are_exact_across_worker_counts() {
    // Sharded counters must never lose increments, whatever the worker
    // count: the total over a parallel map equals the item count exactly.
    for &threads in &[1usize, 4, 8] {
        let reg = recipe_obs::Registry::new();
        let counter = reg.counter("test.items");
        let items: Vec<u64> = (0..10_000).collect();
        let rt = Runtime::new(threads);
        let doubled = rt.par_map(&items, |_, x| {
            counter.inc();
            x * 2
        });
        assert_eq!(doubled.len(), items.len());
        assert_eq!(
            counter.get(),
            items.len() as u64,
            "lost increments at {threads} threads"
        );
        counter.reset();
        assert_eq!(counter.get(), 0);
    }
}

#[test]
fn counter_totals_are_exact_under_global_thread_setting() {
    // Same exactness through the `RECIPE_THREADS`-equivalent process-wide
    // default that the CLI `--threads` flag installs.
    let _lock = obs_lock();
    for &threads in &[1usize, 4, 8] {
        recipe_runtime::set_global_threads(threads);
        let reg = recipe_obs::Registry::new();
        let counter = reg.counter("test.global_items");
        let items: Vec<u64> = (0..4_096).collect();
        let rt = Runtime::global();
        rt.par_map(&items, |_, _| counter.add(3));
        assert_eq!(
            counter.get(),
            3 * items.len() as u64,
            "at {threads} threads"
        );
    }
    recipe_runtime::set_global_threads(0);
}

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper() {
    // A bucket with upper bound b counts values <= b; the first larger
    // value falls into the next bucket; values beyond the last bound land
    // in the overflow bucket but keep exact min/max/sum.
    let h = recipe_obs::Histogram::new(&[1.0, 2.0, 5.0]);
    for v in [0.5, 1.0, 1.5, 2.0, 5.0, 80.0] {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 6);
    assert!((snap.sum - 90.0).abs() < 1e-6, "{snap:?}");
    assert!((snap.min - 0.5).abs() < 1e-12, "{snap:?}");
    assert!((snap.max - 80.0).abs() < 1e-12, "{snap:?}");
    // Everything at or below 2.0 sits in the first two buckets: the
    // median interpolates within bound 1.0..=2.0.
    assert!(snap.p50 <= 2.0, "{snap:?}");
    // The single overflow sample keeps the tail quantiles pinned at the
    // last finite bound; the exact max is still tracked separately.
    assert!(snap.p99 >= 5.0, "{snap:?}");
}

#[test]
fn default_latency_bounds_cover_microseconds_to_seconds() {
    let h = recipe_obs::Histogram::new(&recipe_obs::DEFAULT_LATENCY_BOUNDS);
    for v in [2e-6, 5e-4, 0.02, 1.5] {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 4);
    assert!(snap.p50 >= 1e-6 && snap.p50 <= 0.1, "{snap:?}");
}

#[test]
fn trained_pipeline_exports_schema_valid_telemetry() {
    let _lock = obs_lock();
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(11));
    let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());

    recipe_obs::reset();
    recipe_obs::set_enabled(true);
    let models = pipeline.model_recipes(&corpus.recipes, &Runtime::new(4));
    recipe_obs::span::flush_local();
    let telemetry = recipe_obs::Telemetry::gather(&[pipeline.inference.metrics_registry()]);
    recipe_obs::set_enabled(false);
    recipe_obs::reset();

    assert_eq!(models.len(), corpus.recipes.len());
    assert!(telemetry.enabled);
    assert!(!telemetry.stages.is_empty(), "no stages aggregated");
    let mut names: Vec<&str> = Vec::new();
    fn collect<'t>(nodes: &'t [recipe_obs::StageNode], out: &mut Vec<&'t str>) {
        for n in nodes {
            out.push(n.name.as_str());
            collect(&n.children, out);
        }
    }
    collect(&telemetry.stages, &mut names);
    assert!(
        names.iter().any(|n| n.starts_with("pipeline.")),
        "{names:?}"
    );
    assert!(names.iter().any(|n| n.starts_with("ner.")), "{names:?}");

    let phrases = telemetry.counters.get("ner.decode.phrases").copied();
    assert!(phrases.unwrap_or(0) > 0, "{:?}", telemetry.counters);
    assert!(
        telemetry.counters.contains_key("cache.ingredient.misses"),
        "{:?}",
        telemetry.counters
    );
    assert!(
        telemetry
            .histograms
            .contains_key("latency.ingredient_phrase_s"),
        "{:?}",
        telemetry.histograms.keys()
    );

    // The serialized block passes the exported-schema validator.
    let value = serde_json::to_value(&telemetry);
    recipe_obs::validate_telemetry(&value).expect("schema-valid telemetry");
}

#[test]
fn windowed_counter_buckets_expire_exactly_on_slot_boundaries() {
    // 4 slots of 1 s: an event recorded in epoch 0 stays visible through
    // epoch 3 and disappears the instant the clock enters epoch 4.
    use recipe_obs::window::{Clock, TICKS_PER_SEC};
    let clock = std::sync::Arc::new(recipe_obs::window::VirtualClock::new());
    let spec = recipe_obs::window::WindowSpec::new(TICKS_PER_SEC, 4);
    let counter =
        recipe_obs::window::WindowedCounter::new(clock.clone() as std::sync::Arc<dyn Clock>, spec);

    counter.add(5); // epoch 0
    assert_eq!(counter.count(), 5);

    clock.set(3 * TICKS_PER_SEC); // epoch 3: epoch 0 is the oldest in-window slot
    counter.add(7);
    assert_eq!(counter.count(), 12);
    assert!((counter.per_s() - 12.0 / 4.0).abs() < 1e-12);

    clock.set(4 * TICKS_PER_SEC - 1); // last tick of epoch 3
    assert_eq!(counter.count(), 12);

    clock.set(4 * TICKS_PER_SEC); // epoch 4: the epoch-0 slot just expired
    assert_eq!(counter.count(), 7);

    clock.set(7 * TICKS_PER_SEC - 1); // epoch 6: epoch 3 still counts
    assert_eq!(counter.count(), 7);

    clock.set(7 * TICKS_PER_SEC); // epoch 7: window is empty
    assert_eq!(counter.count(), 0);
    assert_eq!(counter.per_s(), 0.0);
}

#[test]
fn interval_percentiles_follow_bucket_deltas_between_scrapes() {
    // Old samples fall out of the interval's quantiles exactly: the
    // reader differences the cumulative buckets of two scrapes, so a
    // bimodal history collapses to the mode recorded between them.
    use recipe_obs::slo::{derive, LATENCY_HISTOGRAM, UPTIME_GAUGE};
    let reg = recipe_obs::Registry::new();
    let hist = reg.histogram(LATENCY_HISTOGRAM, &[1.0, 10.0, 100.0]);
    let scrape = |uptime_s: f64| {
        reg.gauge(UPTIME_GAUGE).set(uptime_s);
        let t = recipe_obs::Telemetry::from_parts(Vec::new(), reg.snapshot());
        recipe_obs::Scrape::from_telemetry(&serde_json::to_value(&t))
    };
    let pairs = recipe_obs::BurnWindow::production();

    for _ in 0..90 {
        hist.record(0.5); // first bucket
    }
    let fast = scrape(1.0);
    for _ in 0..10 {
        hist.record(50.0); // third bucket
    }
    let mixed = scrape(2.0);

    // Since launch: the bulk is fast, the p99 sits in the slow bucket.
    let since_launch = derive(std::slice::from_ref(&mixed), &pairs).interval;
    assert_eq!(since_launch.requests, 100);
    assert!(since_launch.p50_s <= 1.0, "{since_launch:?}");
    assert!(
        since_launch.p99_s > 10.0 && since_launch.p99_s <= 100.0,
        "{since_launch:?}"
    );

    // Between the scrapes: only the ten slow samples, and the
    // interpolated values are exact, not approximate.
    let interval = derive(&[fast, mixed.clone()], &pairs).interval;
    assert_eq!(interval.requests, 10);
    let expected =
        recipe_obs::window::quantile_from_counts(&[1.0, 10.0, 100.0], &[0, 0, 10, 0], 0.50);
    assert_eq!(interval.p50_s, expected);
    assert!(interval.p50_s > 10.0 && interval.p50_s <= 100.0);

    // Nothing recorded since: an empty interval.
    let quiet = derive(&[mixed, scrape(3.0)], &pairs).interval;
    assert_eq!((quiet.requests, quiet.p99_s), (0, 0.0));
}

#[test]
fn windows_snapshot_is_byte_identical_across_worker_counts() {
    // Under a frozen virtual clock, the view a reader derives from two
    // cumulative scrapes (interval rate, p50/p99, burn levels) is a pure
    // function of the recorded multiset: the worker count and
    // interleaving must not show through. The events go through the
    // server's one per-request record.
    use recipe_obs::window::{Clock, TICKS_PER_SEC};
    let scrape = |metrics: &recipe_serve::ServeMetrics| {
        metrics.refresh_gauges(0);
        let t = recipe_obs::Telemetry::from_parts(Vec::new(), metrics.registry().snapshot());
        recipe_obs::Scrape::from_telemetry(&serde_json::to_value(&t))
    };
    let mut serialized: Vec<String> = Vec::new();
    for &threads in &[1usize, 4, 8] {
        let clock = std::sync::Arc::new(recipe_obs::window::VirtualClock::new());
        let metrics = recipe_serve::ServeMetrics::new(clock.clone() as std::sync::Arc<dyn Clock>);
        let rt = Runtime::new(threads);
        let record = |items: &[u64]| {
            rt.par_map(items, |_, &i| {
                // One in 97 fails, one in 89 is too slow.
                let status = if i % 97 == 0 { 500 } else { 200 };
                let latency_s = if i % 89 == 0 {
                    0.3
                } else {
                    (i % 31) as f64 * 1e-4
                };
                metrics.record_request(status, true, latency_s);
            });
        };

        let items: Vec<u64> = (0..10_000).collect();
        clock.set(41 * TICKS_PER_SEC);
        record(&items[..4_000]);
        let before = scrape(&metrics);
        clock.set(101 * TICKS_PER_SEC);
        record(&items[4_000..]);
        let after = scrape(&metrics);

        let view = recipe_obs::slo::derive(&[before, after], &recipe_obs::BurnWindow::production());
        assert_eq!(view.interval.requests, 6_000);
        assert_eq!(view.interval.seconds, 60.0);
        assert_eq!(view.interval.per_s, 100.0);
        serialized.push(serde_json::to_string(&view).expect("view serializes"));
    }
    assert_eq!(serialized[0], serialized[1], "1 vs 4 workers");
    assert_eq!(serialized[0], serialized[2], "1 vs 8 workers");
}

#[test]
fn profile_export_is_byte_identical_across_worker_counts() {
    // The collapsed-stack export and the profile JSON are pure
    // functions of the recorded multiset: per-thread shards merge into
    // sorted path cells, so worker count and interleaving must not
    // show through. Recorded ticks are index-derived (not clocked) to
    // make every run's multiset identical by construction.
    let mut folded: Vec<String> = Vec::new();
    let mut json: Vec<String> = Vec::new();
    for &threads in &[1usize, 4, 8] {
        let profiler = recipe_obs::Profiler::new("virtual");
        let items: Vec<u64> = (0..10_000).collect();
        let rt = Runtime::new(threads);
        rt.par_map(&items, |_, &i| {
            profiler.record(&["extract", "parse"], i % 97);
            profiler.record(&["extract", "parse", "tokenize"], i % 31);
            profiler.record(&["extract", "ner.decode"], i % 53);
        });
        let profile = profiler.snapshot();
        assert_eq!(profile.nodes.len(), 3);
        assert!(profile.total_ticks > 0);
        folded.push(recipe_obs::fold(&profile));
        let value = serde_json::to_value(&profile);
        recipe_obs::validate_profile(&value).expect("schema-valid profile");
        json.push(serde_json::to_string(&value).expect("profile serializes"));
    }
    assert_eq!(folded[0], folded[1], "folded: 1 vs 4 workers");
    assert_eq!(folded[0], folded[2], "folded: 1 vs 8 workers");
    assert_eq!(json[0], json[1], "json: 1 vs 4 workers");
    assert_eq!(json[0], json[2], "json: 1 vs 8 workers");
    // Collapsed-stack lines are `stack;frames N`, deepest-path cells
    // included, ready for external flamegraph tooling.
    assert!(
        folded[0].contains("extract;parse;tokenize "),
        "{}",
        folded[0]
    );
}

#[test]
fn span_hooked_profile_is_deterministic_under_frozen_virtual_clock() {
    // The span aggregate's profile view under a frozen VirtualClock:
    // every span closes with a zero-tick delta, so the exported profile
    // (and the stage tree beside it) is a pure function of the span
    // paths taken — byte-identical whatever the worker count.
    let _lock = obs_lock();
    let mut json: Vec<String> = Vec::new();
    for &threads in &[1usize, 4, 8] {
        recipe_obs::reset();
        recipe_obs::set_enabled(true);
        let clock = std::sync::Arc::new(recipe_obs::window::VirtualClock::new());
        clock.set(41 * recipe_obs::window::TICKS_PER_SEC);
        recipe_obs::span::set_clock(Some((clock, "virtual")));
        let items: Vec<u64> = (0..512).collect();
        let rt = Runtime::new(threads);
        rt.par_map(&items, |_, &i| {
            let _outer = recipe_obs::span::enter("extract");
            let _inner = recipe_obs::span::enter(if i % 2 == 0 { "parse" } else { "decode" });
        });
        let profile = recipe_obs::span::profile();
        let stages = recipe_obs::stage_tree();
        recipe_obs::span::set_clock(None);
        recipe_obs::set_enabled(false);
        recipe_obs::reset();
        assert_eq!(stages.len(), 1, "at {threads} threads: {stages:?}");
        assert_eq!(stages[0].count, 512);
        assert_eq!(stages[0].wall_s, 0.0, "frozen clock, zero wall time");
        assert_eq!(profile.clock, "virtual");
        let paths: Vec<String> = profile.nodes.iter().map(|n| n.path.join(";")).collect();
        assert_eq!(
            paths,
            vec!["extract", "extract;decode", "extract;parse"],
            "at {threads} threads"
        );
        json.push(serde_json::to_string(&serde_json::to_value(&profile)).expect("serializes"));
    }
    assert_eq!(json[0], json[1], "1 vs 4 workers");
    assert_eq!(json[0], json[2], "1 vs 8 workers");
}

#[test]
fn profile_diff_ranks_injected_regression_first() {
    // Alignment golden: the differ joins the two profiles on the full
    // path union — a regressed stage ranks first, a stage present only
    // in the latest profile counts from zero, and improvements sort
    // below every regression.
    let before = recipe_obs::Profiler::new("virtual");
    before.record(&["extract", "parse"], 1_000);
    before.record(&["extract", "ner.decode"], 2_000);
    before.record(&["extract", "gone"], 300);
    let after = recipe_obs::Profiler::new("virtual");
    after.record(&["extract", "parse"], 1_050);
    after.record(&["extract", "ner.decode"], 9_000);
    after.record(&["extract", "fresh"], 400);

    let deltas = recipe_obs::diff_profiles(&before.snapshot(), &after.snapshot());
    let view: Vec<(String, i64)> = deltas
        .iter()
        .map(|d| (d.path.join(";"), d.delta_ticks))
        .collect();
    assert_eq!(
        view,
        vec![
            ("extract;ner.decode".to_string(), 7_000),
            ("extract;fresh".to_string(), 400),
            ("extract;parse".to_string(), 50),
            ("extract;gone".to_string(), -300),
        ],
        "{deltas:?}"
    );

    let rendered = recipe_obs::render_diff(&deltas, 3);
    let lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(lines.len(), 3, "{rendered}");
    assert!(lines[0].contains("extract;ner.decode"), "{rendered}");
    assert!(lines[0].contains("+7000 ticks"), "{rendered}");
    assert!(lines[0].contains("2000 -> 9000"), "{rendered}");
    // The vanished stage is an improvement, never in the top regressions.
    assert!(!rendered.contains("extract;gone"), "{rendered}");
}

#[test]
fn disabled_tracing_records_nothing_globally() {
    let _lock = obs_lock();
    recipe_obs::reset();
    recipe_obs::set_enabled(false);
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(5));
    let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());
    let _ = pipeline.model_recipes(&corpus.recipes, &Runtime::new(2));
    recipe_obs::span::flush_local();
    let telemetry = recipe_obs::Telemetry::gather(&[]);
    assert!(!telemetry.enabled);
    assert!(telemetry.stages.is_empty(), "{:?}", telemetry.stages);
    assert_eq!(telemetry.counters.get("ner.decode.phrases"), None);
}

//! Seeded determinism tests for the parallel runtime: every parallelized
//! hot path must produce **exactly** the serial result — bitwise for
//! floats — at every thread count from 1 to 8, including adversarial
//! chunk sizes (0, 1, `n_threads - 1`, `n_threads + 1`) where chunk
//! boundaries interact worst with worker scheduling.
//!
//! Same convention as `properties.rs`: plain seeded loops over the
//! in-tree PRNG, with the failing seed in every panic message.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use recipe_cluster::{minibatch_kmeans_rt, KMeans, KMeansConfig, MiniBatchConfig};
use recipe_core::pipeline::{PipelineConfig, TrainedPipeline};
use recipe_corpus::{CorpusSpec, RecipeCorpus};
use recipe_ner::{CompiledSequenceModel, IngredientTag, SequenceModel, TrainConfig, Trainer};
use recipe_parser::parser::{DependencyParser, ParseExample, ParserConfig};
use recipe_parser::{DepLabel, DepTree};
use recipe_runtime::Runtime;
use recipe_tagger::PennTag;
use std::sync::{Mutex, MutexGuard};

const THREAD_COUNTS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Tests that flip the process-wide observability switches (metrics,
/// event tracer) serialize on this lock so they cannot reset each
/// other mid-run.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Chunk sizes that stress the chunking logic for a given thread count:
/// 0 (clamped to 1), 1, just below and just above the worker count, plus
/// a couple of ordinary sizes.
fn adversarial_chunk_sizes(threads: usize) -> Vec<usize> {
    vec![0, 1, threads.saturating_sub(1), threads + 1, 7, 64]
}

#[test]
fn float_reductions_are_bit_identical_across_threads_and_chunks() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(0..400usize);
        let xs: Vec<f64> = (0..len).map(|_| rng.random_range(-1.0e3..1.0e3)).collect();
        let ys: Vec<f64> = (0..len).map(|_| rng.random_range(-1.0e3..1.0e3)).collect();

        for &t in &THREAD_COUNTS {
            for chunk in adversarial_chunk_sizes(t) {
                let rt = Runtime::new(t);
                let serial = Runtime::serial();

                let sum = rt.par_map_reduce(&xs, chunk, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
                let sum_serial =
                    serial.par_map_reduce(&xs, chunk, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
                assert_eq!(
                    sum.map(f64::to_bits),
                    sum_serial.map(f64::to_bits),
                    "seed {seed}: sum differs at {t} threads, chunk {chunk}"
                );

                // par_dot's parallel_floor = 0 forces the parallel path
                // even for tiny inputs.
                let dot = rt.par_dot(&xs, &ys, chunk.max(1), 0);
                let dot_serial = serial.par_dot(&xs, &ys, chunk.max(1), 0);
                assert_eq!(
                    dot.to_bits(),
                    dot_serial.to_bits(),
                    "seed {seed}: dot differs at {t} threads, chunk {chunk}"
                );
            }
        }
    }
}

#[test]
fn ordered_map_preserves_order_at_adversarial_sizes() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Lengths around the thread count are the degenerate cases: fewer
        // chunks than workers, single-element chunks, empty input.
        let len = rng.random_range(0..20usize);
        let items: Vec<u64> = (0..len).map(|_| rng.random_range(0..1000u64)).collect();
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for &t in &THREAD_COUNTS {
            let got = Runtime::new(t).par_map(&items, |i, x| x * 3 + i as u64);
            assert_eq!(got, expected, "seed {seed}: par_map differs at {t} threads");
        }
    }
}

#[test]
fn crf_lbfgs_training_is_bit_identical_across_thread_counts() {
    let tags = [
        "NAME", "STATE", "UNIT", "QUANTITY", "SIZE", "TEMP", "DF", "O",
    ];
    let words = [
        "flour", "sugar", "diced", "cup", "2", "large", "warm", "fresh", "of", "the",
    ];
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<(Vec<String>, Vec<String>)> = (0..8)
            .map(|_| {
                let len = rng.random_range(1..6usize);
                (
                    (0..len)
                        .map(|_| words[rng.random_range(0..words.len())].to_string())
                        .collect(),
                    (0..len)
                        .map(|_| tags[rng.random_range(0..tags.len())].to_string())
                        .collect(),
                )
            })
            .collect();
        let labels = IngredientTag::label_set();
        let cfg = |threads: usize| TrainConfig {
            trainer: Trainer::CrfLbfgs,
            epochs: 6,
            threads,
            ..TrainConfig::default()
        };
        let reference =
            serde_json::to_string(&SequenceModel::train(&labels, &data, &cfg(1))).unwrap();
        for t in [2, 3, 7, 8] {
            let model =
                serde_json::to_string(&SequenceModel::train(&labels, &data, &cfg(t))).unwrap();
            assert_eq!(
                model, reference,
                "seed {seed}: CRF artifact differs at {t} threads"
            );
        }
    }
}

#[test]
fn kmeans_variants_are_bit_identical_across_thread_counts() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Sizes straddling the worker counts: 1, n_threads ± 1, larger.
        let n = [1usize, 3, 7, 9, 120][rng.random_range(0..5usize)];
        let dim = rng.random_range(1..5usize);
        let data: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.random_range(-50.0..50.0)).collect())
            .collect();
        let kcfg = KMeansConfig {
            k: rng.random_range(1..6usize),
            max_iters: 20,
            seed,
            ..KMeansConfig::default()
        };
        let mcfg = MiniBatchConfig {
            k: kcfg.k,
            batch_size: 16,
            iterations: 25,
            seed,
        };
        let exact_ref = KMeans::fit_rt(&data, &kcfg, &Runtime::serial());
        let mb_ref = minibatch_kmeans_rt(&data, &mcfg, &Runtime::serial());
        for &t in &THREAD_COUNTS {
            let exact = KMeans::fit_rt(&data, &kcfg, &Runtime::new(t));
            assert_eq!(
                exact.assignments, exact_ref.assignments,
                "seed {seed}: exact assignments differ at {t} threads (n={n})"
            );
            assert_eq!(
                exact.inertia.to_bits(),
                exact_ref.inertia.to_bits(),
                "seed {seed}: exact inertia differs at {t} threads (n={n})"
            );
            assert_eq!(
                exact.centroids, exact_ref.centroids,
                "seed {seed}: exact centroids differ at {t} threads (n={n})"
            );
            let mb = minibatch_kmeans_rt(&data, &mcfg, &Runtime::new(t));
            assert_eq!(
                mb.assignments, mb_ref.assignments,
                "seed {seed}: minibatch assignments differ at {t} threads (n={n})"
            );
            assert_eq!(
                mb.centroids, mb_ref.centroids,
                "seed {seed}: minibatch centroids differ at {t} threads (n={n})"
            );
        }
    }
}

#[test]
fn batch_extraction_matches_serial_at_every_thread_count() {
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(17));
    let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());
    let serial: Vec<String> = corpus
        .recipes
        .iter()
        .map(|r| serde_json::to_string(&pipeline.model_recipe(r)).unwrap())
        .collect();
    for &t in &THREAD_COUNTS {
        let batch = pipeline.model_recipes(&corpus.recipes, &Runtime::new(t));
        let batch_json: Vec<String> = batch
            .iter()
            .map(|m| serde_json::to_string(m).unwrap())
            .collect();
        assert_eq!(
            batch_json, serial,
            "batch extraction differs at {t} threads"
        );
    }
}

#[test]
fn compiled_viterbi_matches_reference_on_seeded_models() {
    let tags = [
        "NAME", "STATE", "UNIT", "QUANTITY", "SIZE", "TEMP", "DF", "O",
    ];
    let words = [
        "flour", "sugar", "diced", "cup", "2", "large", "warm", "fresh", "of", "the",
    ];
    // Decode inputs include words the model never saw, so the compiled
    // feature-lookup path is exercised on misses too.
    let decode_words = [
        "flour",
        "sugar",
        "cup",
        "2",
        "large",
        "unseen",
        "jalapeño",
        "1/2",
    ];
    let labels = IngredientTag::label_set();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<(Vec<String>, Vec<String>)> = (0..10)
            .map(|_| {
                let len = rng.random_range(1..7usize);
                (
                    (0..len)
                        .map(|_| words[rng.random_range(0..words.len())].to_string())
                        .collect(),
                    (0..len)
                        .map(|_| tags[rng.random_range(0..tags.len())].to_string())
                        .collect(),
                )
            })
            .collect();
        for trainer in [Trainer::CrfLbfgs, Trainer::Perceptron] {
            let model = SequenceModel::train(
                &labels,
                &data,
                &TrainConfig {
                    trainer,
                    epochs: 5,
                    threads: 1,
                    ..TrainConfig::default()
                },
            );
            let compiled = CompiledSequenceModel::compile(&model);
            for _ in 0..20 {
                let len = rng.random_range(1..8usize);
                let input: Vec<String> = (0..len)
                    .map(|_| decode_words[rng.random_range(0..decode_words.len())].to_string())
                    .collect();
                assert_eq!(
                    compiled.predict(&input),
                    model.predict(&input),
                    "seed {seed}: compiled {trainer:?} decode differs on {input:?}"
                );
            }
        }
    }
}

/// Heads of a random projective tree over tokens `lo..hi` whose subtree
/// root attaches to `head`: pick the root, then recurse on both sides.
fn projective_heads(
    rng: &mut StdRng,
    lo: usize,
    hi: usize,
    head: Option<usize>,
    heads: &mut [Option<usize>],
) {
    if lo >= hi {
        return;
    }
    let root = rng.random_range(lo..hi);
    heads[root] = head;
    projective_heads(rng, lo, root, Some(root), heads);
    projective_heads(rng, root + 1, hi, Some(root), heads);
}

#[test]
fn parser_key_decode_matches_reference_on_seeded_models() {
    // Words that stress the split of feature strings into integer keys:
    // `|` inside words (so `a|b|c` is both `a` + `b|c` and `a|b` + `c`),
    // `=`, the sentinel spellings, the empty string and the bias
    // feature's name.
    let words = [
        "a|b", "|", "x=y", "-ROOT-", "-NONE-", "", "bias", "a", "b", "c", "b|c", "boil", "the",
    ];
    let unseen = ["unseen", "a|", "|b", "a|b|c", "=", "-root-", "bias="];
    let tags = [
        PennTag::VB,
        PennTag::DT,
        PennTag::NN,
        PennTag::NNS,
        PennTag::IN,
        PennTag::RB,
        PennTag::SYM,
    ];
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let bank: Vec<ParseExample> = (0..14)
            .map(|_| {
                let n = rng.random_range(1..8usize);
                let mut heads = vec![None; n];
                projective_heads(&mut rng, 0, n, None, &mut heads);
                let labels = heads
                    .iter()
                    .map(|h| match h {
                        None => DepLabel::Root,
                        Some(_) => DepLabel::ALL[rng.random_range(1..DepLabel::ALL.len())],
                    })
                    .collect();
                ParseExample {
                    words: (0..n)
                        .map(|_| words[rng.random_range(0..words.len())].to_string())
                        .collect(),
                    tags: (0..n)
                        .map(|_| tags[rng.random_range(0..tags.len())])
                        .collect(),
                    tree: DepTree::new(heads, labels).unwrap(),
                }
            })
            .collect();
        let parser = DependencyParser::train(&bank, &ParserConfig { epochs: 4, seed });
        for _ in 0..40 {
            let n = rng.random_range(1..10usize);
            let input: Vec<String> = (0..n)
                .map(|_| {
                    if rng.random_bool(0.2) {
                        unseen[rng.random_range(0..unseen.len())]
                    } else {
                        words[rng.random_range(0..words.len())]
                    }
                    .to_string()
                })
                .collect();
            let input_tags: Vec<PennTag> = (0..n)
                .map(|_| tags[rng.random_range(0..tags.len())])
                .collect();
            assert_eq!(
                parser.parse(&input, &input_tags),
                parser.parse_reference(&input, &input_tags),
                "seed {seed}: key decode differs on {input:?} {input_tags:?}"
            );
        }
    }
}

#[test]
fn compiled_extraction_is_byte_identical_across_threads_and_cache_modes() {
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(17));
    let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());
    // Ground truth: the uncompiled, uncached reference path, serially.
    let reference: Vec<String> = corpus
        .recipes
        .iter()
        .map(|r| serde_json::to_string(&pipeline.model_recipe_reference(r)).unwrap())
        .collect();
    for &t in &THREAD_COUNTS {
        for cache in [true, false] {
            pipeline.set_cache_enabled(cache);
            pipeline.inference.clear_caches();
            // Two passes: the second one decodes through a warm cache,
            // so hit-path results are checked too.
            for pass in 0..2 {
                let batch: Vec<String> = pipeline
                    .model_recipes(&corpus.recipes, &Runtime::new(t))
                    .iter()
                    .map(|m| serde_json::to_string(m).unwrap())
                    .collect();
                assert_eq!(
                    batch, reference,
                    "compiled extraction differs at {t} threads (cache {cache}, pass {pass})"
                );
            }
            if cache {
                let stats = pipeline.cache_stats();
                assert!(stats.hits > 0, "warm pass at {t} threads recorded no hits");
            }
        }
    }
    pipeline.set_cache_enabled(true);
}

#[test]
fn extraction_is_byte_identical_with_tracing_on_and_off() {
    // Telemetry must never perturb artifacts: the compiled batch output
    // is byte-identical with span/metric collection enabled or disabled,
    // at every thread count, cache on and off.
    let _lock = obs_lock();
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(13));
    let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());
    let reference: Vec<String> = corpus
        .recipes
        .iter()
        .map(|r| serde_json::to_string(&pipeline.model_recipe_reference(r)).unwrap())
        .collect();
    for &t in &[1usize, 4, 8] {
        for cache in [true, false] {
            pipeline.set_cache_enabled(cache);
            // Off → on → off again, so a stale tracing flag from an
            // earlier iteration can't mask a difference.
            for trace in [false, true, false] {
                recipe_obs::set_enabled(trace);
                pipeline.inference.clear_caches();
                let batch: Vec<String> = pipeline
                    .model_recipes(&corpus.recipes, &Runtime::new(t))
                    .iter()
                    .map(|m| serde_json::to_string(m).unwrap())
                    .collect();
                assert_eq!(
                    batch, reference,
                    "extraction differs at {t} threads (cache {cache}, trace {trace})"
                );
            }
        }
    }
    recipe_obs::set_enabled(false);
    pipeline.set_cache_enabled(true);
}

#[test]
fn extraction_is_byte_identical_with_event_tracing_on_and_off() {
    // The `--trace-out` timeline recorder must never perturb artifacts:
    // batch extraction is byte-identical with the event tracer running
    // or stopped, at 1/4/8 threads, and the recorder actually captures
    // a non-empty, schema-valid Chrome trace while enabled.
    let _lock = obs_lock();
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(13));
    let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());
    let reference: Vec<String> = corpus
        .recipes
        .iter()
        .map(|r| serde_json::to_string(&pipeline.model_recipe_reference(r)).unwrap())
        .collect();
    for &t in &[1usize, 4, 8] {
        // Off → on → off again, so a stale tracer from an earlier
        // iteration can't mask a difference.
        for tracing in [false, true, false] {
            recipe_obs::reset();
            recipe_obs::event::reset();
            if tracing {
                recipe_obs::set_enabled(true);
                recipe_obs::event::start(&recipe_obs::TraceConfig::default());
            }
            pipeline.inference.clear_caches();
            let batch: Vec<String> = pipeline
                .model_recipes(&corpus.recipes, &Runtime::new(t))
                .iter()
                .map(|m| serde_json::to_string(m).unwrap())
                .collect();
            if tracing {
                recipe_obs::event::flush_local();
                let session = recipe_obs::event::drain();
                recipe_obs::event::stop();
                recipe_obs::set_enabled(false);
                assert!(
                    !session.events.is_empty(),
                    "tracer captured nothing at {t} threads"
                );
                let trace = recipe_obs::event::export_chrome_trace(&session);
                recipe_obs::event::validate_chrome_trace(&trace)
                    .unwrap_or_else(|e| panic!("invalid chrome trace at {t} threads: {e}"));
            }
            assert_eq!(
                batch, reference,
                "extraction differs at {t} threads (event tracing {tracing})"
            );
        }
    }
    recipe_obs::set_enabled(false);
    recipe_obs::event::reset();
    recipe_obs::reset();
}

#[test]
fn extraction_is_byte_identical_with_provenance_on_and_off() {
    // The `--explain` provenance recorder must never perturb artifacts:
    // batch extraction is byte-identical with per-prediction decision
    // recording enabled or disabled, at 1/4/8 threads, cache on and off.
    // The canonical records are the same at every thread count too,
    // which holds only if the runtime's workers record into the scope
    // of the thread that dispatched them.
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(13));
    let pipeline = TrainedPipeline::train(&corpus, &PipelineConfig::fast());
    let reference: Vec<String> = corpus
        .recipes
        .iter()
        .map(|r| serde_json::to_string(&pipeline.model_recipe_reference(r)).unwrap())
        .collect();
    for cache in [true, false] {
        pipeline.set_cache_enabled(cache);
        let mut serial_records: Option<String> = None;
        for &t in &[1usize, 4, 8] {
            for explain in [false, true, false] {
                pipeline.inference.clear_caches();
                let run = || -> Vec<String> {
                    pipeline
                        .model_recipes(&corpus.recipes, &Runtime::new(t))
                        .iter()
                        .map(|m| serde_json::to_string(m).unwrap())
                        .collect()
                };
                let batch = if explain {
                    let (batch, records) = recipe_obs::provenance::capture(run);
                    assert!(
                        !records.is_empty(),
                        "provenance captured nothing at {t} threads (cache {cache})"
                    );
                    let block = recipe_obs::provenance::to_json(&records);
                    recipe_obs::validate_provenance(&block).unwrap_or_else(|e| {
                        panic!("invalid provenance at {t} threads (cache {cache}): {e}")
                    });
                    // With the cache on, whether a phrase two recipes
                    // share reads as a hit or a miss depends on which
                    // worker reaches it first, so cache origins are
                    // compared across thread counts only with it off.
                    let comparable: Vec<_> = records
                        .iter()
                        .filter(|r| !cache || r.kind != "cache.lookup")
                        .cloned()
                        .collect();
                    let text = serde_json::to_string(&recipe_obs::provenance::to_json(&comparable))
                        .unwrap();
                    let serial = serial_records.get_or_insert_with(|| text.clone());
                    assert!(
                        *serial == text,
                        "canonical records at {t} threads differ from 1 thread (cache {cache})"
                    );
                    batch
                } else {
                    assert!(!recipe_obs::provenance::enabled());
                    run()
                };
                assert_eq!(
                    batch, reference,
                    "extraction differs at {t} threads (cache {cache}, explain {explain})"
                );
            }
        }
    }
    pipeline.set_cache_enabled(true);
}

#[test]
fn pipeline_training_is_byte_identical_across_thread_counts() {
    let corpus = RecipeCorpus::generate(&CorpusSpec::tiny(7));
    let artifact = |threads: usize| {
        let mut cfg = PipelineConfig::fast();
        cfg.pos_epochs = 2;
        cfg.ner.epochs = 4;
        cfg.parser.epochs = 2;
        cfg.threads = threads;
        let p = TrainedPipeline::train(&corpus, &cfg);
        p.to_json_string().expect("serialize pipeline")
    };
    let reference = artifact(1);
    for t in [2, 4, 8] {
        assert_eq!(
            artifact(t),
            reference,
            "trained pipeline artifact differs at {t} threads"
        );
    }
}

//! Subcommand implementations. Each returns its output as a `String` so
//! tests can assert on it without process spawning; the binary prints.

use crate::args::{BenchDiffOptions, Command, LintOptions, ObsArgs, ProfileOptions};
use crate::recipe_file::parse_recipe_file;
use recipe_core::pipeline::{PipelineConfig, TrainedPipeline};
use recipe_corpus::{CorpusSpec, RecipeCorpus};
use recipe_serve::{entry_json, ServeModel};
use serde_json::json;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Filesystem problem (with the offending path).
    Io(String, std::io::Error),
    /// Artifact load/save problem.
    Persist(recipe_core::persist::PersistError),
    /// Recipe file parse problem (with the offending path).
    RecipeFile(String, crate::recipe_file::RecipeFileError),
    /// `lint` found error-level diagnostics; carries the rendered report
    /// so the binary can print it and exit nonzero.
    Lint(String),
    /// `stats` input failed to parse or validate against the telemetry
    /// schema.
    Stats(String),
    /// `profile` input failed to parse or validate against the profile
    /// schema.
    Profile(String),
    /// `bench-diff` found a regression past the fail threshold; carries
    /// the rendered comparison report so the binary can print it and
    /// exit nonzero.
    BenchDiff(String),
    /// The lint baseline file failed to load, parse or save.
    Baseline(String),
    /// Binary `.rma` artifact load/save problem (with the offending path).
    Artifact(String, recipe_core::ArtifactPipelineError),
    /// A flag combination the command cannot honor.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Persist(e) => write!(f, "model artifact: {e}"),
            CliError::RecipeFile(path, e) => write!(f, "{path}: {e}"),
            CliError::Lint(report) => f.write_str(report),
            CliError::Stats(msg) => write!(f, "telemetry document: {msg}"),
            CliError::Profile(msg) => write!(f, "profile document: {msg}"),
            CliError::BenchDiff(report) => f.write_str(report),
            CliError::Baseline(msg) => f.write_str(msg),
            CliError::Artifact(path, e) => write!(f, "{path}: {e}"),
            CliError::Usage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<recipe_core::persist::PersistError> for CliError {
    fn from(e: recipe_core::persist::PersistError) -> Self {
        CliError::Persist(e)
    }
}

/// Execute a command; returns the text to print on stdout.
///
/// Subcommands that accept `--threads` install it as the process-wide
/// default before running, so every parallel stage (training, batch
/// extraction, lint re-training) picks it up; `0` leaves the
/// `RECIPE_THREADS` / detected-cores fallback in place.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Train {
            out,
            recipes,
            seed,
            threads,
            obs,
        } => {
            recipe_runtime::set_global_threads(*threads);
            train(out, *recipes, *seed, &ObsOpts::new(obs))
        }
        Command::Generate { out, recipes, seed } => generate(out, *recipes, *seed),
        Command::Extract {
            model,
            phrases,
            threads,
            no_cache,
            quantized,
            obs,
        } => {
            recipe_runtime::set_global_threads(*threads);
            extract(model, phrases, *no_cache, *quantized, &ObsOpts::new(obs))
        }
        Command::Compile {
            model,
            out,
            recipes,
            seed,
            threads,
        } => {
            recipe_runtime::set_global_threads(*threads);
            compile(model.as_deref(), out, *recipes, *seed)
        }
        Command::Mine {
            model,
            files,
            threads,
            no_cache,
            obs,
        } => {
            recipe_runtime::set_global_threads(*threads);
            mine(model, files, *no_cache, &ObsOpts::new(obs))
        }
        Command::Explain {
            model,
            phrases,
            threads,
        } => {
            recipe_runtime::set_global_threads(*threads);
            explain(model, phrases)
        }
        Command::Serve {
            model,
            addr,
            threads,
            quantized,
            queue_cap,
            monitoring,
            drift_sample,
            keepalive_max_requests,
            keepalive_idle_ms,
        } => {
            recipe_runtime::set_global_threads(*threads);
            serve(&ServeOpts {
                model,
                addr,
                threads: *threads,
                quantized: *quantized,
                queue_cap: *queue_cap,
                monitoring: *monitoring,
                drift_sample: *drift_sample,
                keepalive_max_requests: *keepalive_max_requests,
                keepalive_idle_ms: *keepalive_idle_ms,
            })
        }
        Command::BenchDiff(opts) => bench_diff(opts),
        Command::Monitor(opts) => crate::monitor::run_monitor(opts),
        Command::Profile(opts) => profile_cmd(opts),
        Command::Lint(opts) => {
            recipe_runtime::set_global_threads(opts.threads);
            lint(opts)
        }
        Command::Stats { path } => stats(path),
    }
}

/// Observability options for one `train`/`extract`/`mine` invocation,
/// resolved from `--trace` / `--metrics-out` / `--trace-out` /
/// `--trace-sample` / `--explain` / `--profile-out`.
struct ObsOpts {
    /// Attach a `telemetry` block to the stdout JSON.
    trace: bool,
    /// Write the full telemetry document here.
    metrics_out: Option<String>,
    /// Write a Chrome-trace event timeline here.
    trace_out: Option<String>,
    /// Span-event sample rate (`--trace-sample`, default 1.0).
    trace_sample: f64,
    /// Attach a `provenance` block to the stdout JSON.
    explain: bool,
    /// Write the per-stage tick attribution profile here.
    profile_out: Option<String>,
}

/// What [`ObsOpts::begin`] started for one command.
struct Session {
    /// Wall-clock origin for the throughput block.
    started: std::time::Instant,
    /// The `--explain` provenance scope, open on the command's thread.
    provenance: Option<recipe_obs::provenance::Capture>,
}

/// What [`ObsOpts::finish`] produced for the stdout JSON.
#[derive(Default)]
struct ObsBlocks {
    /// The `telemetry` block when `--trace` asked for it.
    telemetry: Option<serde_json::Value>,
    /// The `provenance` block when `--explain` asked for it.
    provenance: Option<serde_json::Value>,
}

impl ObsOpts {
    fn new(args: &ObsArgs) -> Self {
        ObsOpts {
            trace: args.trace,
            metrics_out: args.metrics_out.clone(),
            trace_out: args.trace_out.clone(),
            trace_sample: args.trace_sample.unwrap_or(1.0),
            explain: args.explain,
            profile_out: args.profile_out.clone(),
        }
    }

    /// Some output wants telemetry collected (`--trace-out` and
    /// `--profile-out` need the span switch on for span sites to emit
    /// events / attribute ticks).
    fn active(&self) -> bool {
        self.trace
            || self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.profile_out.is_some()
    }

    /// Start collection: clear any state left by a previous command in
    /// this process and flip the switches on. Provenance is a scope of
    /// its own on the calling thread, so `--explain` works without
    /// telemetry.
    fn begin(&self) -> Session {
        if self.active() {
            recipe_obs::reset();
            recipe_obs::set_enabled(true);
        }
        if self.trace_out.is_some() {
            recipe_obs::event::start(&recipe_obs::TraceConfig {
                sample: self.trace_sample,
                ..recipe_obs::TraceConfig::default()
            });
            recipe_obs::event::set_thread_name("main");
        }
        Session {
            started: std::time::Instant::now(),
            provenance: self.explain.then(recipe_obs::provenance::Capture::start),
        }
    }

    /// Stop collection and export. Merges the pipeline-private registry
    /// (phrase caches, per-phrase latency) into the global snapshot,
    /// derives throughput rates, writes `--metrics-out` / `--trace-out`
    /// if requested and returns the blocks the stdout JSON should carry.
    fn finish(
        &self,
        command: &str,
        extra: &[&recipe_obs::Registry],
        items: &[(&str, f64)],
        session: Session,
    ) -> Result<ObsBlocks, CliError> {
        let mut blocks = ObsBlocks::default();
        if let Some(scope) = session.provenance {
            blocks.provenance = Some(recipe_obs::provenance::to_json(&scope.finish()));
        }
        if let Some(path) = &self.trace_out {
            recipe_obs::event::flush_local();
            let events = recipe_obs::event::drain();
            recipe_obs::event::stop();
            let trace = recipe_obs::export_chrome_trace(&events);
            let text = format!("{}\n", serde_json::to_string_pretty(&trace).expect("json"));
            std::fs::write(path, text).map_err(|e| CliError::Io(path.clone(), e))?;
        }
        if !self.active() {
            return Ok(blocks);
        }
        let mut t = recipe_obs::Telemetry::gather(extra);
        if let Some(path) = &self.profile_out {
            let profile = recipe_obs::span::profile();
            let text = format!(
                "{}\n",
                serde_json::to_string_pretty(&serde_json::to_value(&profile)).expect("json")
            );
            std::fs::write(path, text).map_err(|e| CliError::Io(path.clone(), e))?;
            t.profile = profile;
        }
        let wall_s = session.started.elapsed().as_secs_f64();
        t.throughput.insert("wall_s".to_string(), wall_s);
        for (name, n) in items {
            t.throughput.insert(name.to_string(), *n);
            if wall_s > 0.0 {
                t.throughput.insert(format!("{name}_per_s"), *n / wall_s);
            }
        }
        if let Some(tokens) = t.counters.get("ner.decode.tokens") {
            if wall_s > 0.0 {
                t.throughput
                    .insert("tokens_per_s".to_string(), *tokens as f64 / wall_s);
            }
        }
        recipe_obs::set_enabled(false);
        let block = serde_json::to_value(&t);
        if let Some(path) = &self.metrics_out {
            let doc = json!({
                "schema_version": recipe_obs::report::SCHEMA_VERSION,
                "command": command,
                "telemetry": block,
            });
            let text = format!("{}\n", serde_json::to_string_pretty(&doc).expect("json"));
            std::fs::write(path, text).map_err(|e| CliError::Io(path.clone(), e))?;
        }
        if self.trace {
            blocks.telemetry = Some(block);
        }
        Ok(blocks)
    }
}

/// Append the `telemetry` / `provenance` fields to a JSON object output.
fn attach_obs_blocks(out: &mut serde_json::Value, blocks: ObsBlocks) {
    if let serde_json::Value::Object(fields) = out {
        if let Some(block) = blocks.telemetry {
            fields.push(("telemetry".to_string(), block));
        }
        if let Some(block) = blocks.provenance {
            fields.push(("provenance".to_string(), block));
        }
    }
}

/// `recipe-mine stats`: validate a `--metrics-out` document and render
/// it for terminals.
fn stats(path: &str) -> Result<String, CliError> {
    let content = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_string(), e))?;
    let doc: serde_json::Value =
        serde_json::from_str(&content).map_err(|e| CliError::Stats(format!("{path}: {e}")))?;
    recipe_obs::validate_document(&doc).map_err(|e| CliError::Stats(format!("{path}: {e}")))?;
    let command = doc
        .get("command")
        .and_then(|c| c.as_str())
        .unwrap_or("?")
        .to_string();
    let telemetry: recipe_obs::Telemetry = doc
        .get("telemetry")
        .map(serde_json::from_value)
        .expect("validated document has telemetry")
        .map_err(|e| CliError::Stats(format!("{path}: {e}")))?;
    Ok(format!(
        "command: {command}\n{}",
        recipe_obs::render_human(&telemetry)
    ))
}

fn lint(opts: &LintOptions) -> Result<String, CliError> {
    use recipe_analyze::baseline::{partition, Baseline, DEFAULT_BASELINE_PATH};
    use recipe_analyze::{has_errors, render_human, render_json, Level, RULES};

    if opts.list_rules {
        let mut out = String::new();
        for r in RULES {
            out.push_str(&format!(
                "{}  {:<7}  {:<26}  {}\n",
                r.code,
                r.default_severity.as_str(),
                r.name,
                r.summary
            ));
        }
        return Ok(out);
    }

    // `--source-only` without an explicit `--workspace` scans the
    // current directory rather than silently scanning nothing.
    let source_root = opts
        .workspace
        .clone()
        .or_else(|| opts.source_only.then(|| ".".to_string()));
    let mut cfg = recipe_analyze::Config {
        recipes: opts.recipes,
        seed: opts.seed,
        model_path: opts.model.as_ref().map(std::path::PathBuf::from),
        source_root: source_root.map(std::path::PathBuf::from),
        source_only: opts.source_only,
        ..recipe_analyze::Config::default()
    };
    cfg.lint.deny_warnings = opts.deny_warnings;
    for code in &opts.allow {
        cfg.lint.set(code, Level::Allow);
    }
    for code in &opts.deny {
        cfg.lint.set(code, Level::Deny);
    }

    let diags = recipe_analyze::run_all(&cfg).map_err(|e| match e {
        recipe_analyze::AnalyzeError::ModelLoad(pe) => CliError::Persist(pe),
    })?;

    // The baseline lives at the workspace root unless overridden.
    let baseline_path = opts.baseline.clone().unwrap_or_else(|| {
        let root = opts.workspace.as_deref().unwrap_or(".");
        format!("{}/{DEFAULT_BASELINE_PATH}", root.trim_end_matches('/'))
    });
    let baseline_path = std::path::PathBuf::from(baseline_path);

    if opts.write_baseline {
        let baseline = Baseline::from_diagnostics(&diags);
        baseline.save(&baseline_path).map_err(CliError::Baseline)?;
        return Ok(format!(
            "wrote {} suppression{} to {}\n",
            baseline.entries.len(),
            if baseline.entries.len() == 1 { "" } else { "s" },
            baseline_path.display()
        ));
    }

    // Under --deny-new, only diagnostics absent from the baseline are
    // reported — and ANY of them (even notes) fails the run.
    let (reported, suppressed_line, failed) = if opts.deny_new {
        let baseline = Baseline::load(&baseline_path).map_err(CliError::Baseline)?;
        let outcome = partition(&diags, &baseline);
        let line = format!(
            "{} baselined diagnostic{} suppressed ({})\n",
            outcome.suppressed,
            if outcome.suppressed == 1 { "" } else { "s" },
            baseline_path.display()
        );
        let failed = !outcome.new.is_empty();
        (outcome.new, Some(line), failed)
    } else {
        let failed = has_errors(&diags);
        (diags, None, failed)
    };

    let mut report = match opts.format.as_str() {
        "json" => format!(
            "{}\n",
            serde_json::to_string_pretty(&render_json(&reported)).expect("json")
        ),
        "sarif" => format!(
            "{}\n",
            serde_json::to_string_pretty(&recipe_analyze::sarif::render_sarif(&reported))
                .expect("sarif")
        ),
        _ => render_human(&reported),
    };
    if let (Some(line), "human") = (suppressed_line, opts.format.as_str()) {
        report.push_str(&line);
    }
    if failed {
        Err(CliError::Lint(report))
    } else {
        Ok(report)
    }
}

fn generate(out: &str, recipes: usize, seed: u64) -> Result<String, CliError> {
    let corpus = RecipeCorpus::generate(&CorpusSpec::scaled(recipes, seed));
    let dir = std::path::Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| CliError::Io(out.to_string(), e))?;
    // Plain-text recipe files in the `mine` format.
    for recipe in &corpus.recipes {
        let mut text = format!("# {}\n\n## ingredients\n", recipe.title);
        for line in recipe.ingredient_lines() {
            text.push_str(&line);
            text.push('\n');
        }
        text.push_str("\n## instructions\n");
        for step in recipe.steps() {
            let sentences: Vec<String> = step.iter().map(|s| s.text()).collect();
            text.push_str(&sentences.join(" "));
            text.push('\n');
        }
        let path = dir.join(format!("recipe_{:05}.txt", recipe.id));
        std::fs::write(&path, text)
            .map_err(|e| CliError::Io(path.to_string_lossy().into_owned(), e))?;
    }
    // Gold-annotated interchange file.
    let jsonl = recipe_corpus::export::recipes_to_jsonl(&corpus.recipes);
    let jsonl_path = dir.join("corpus.jsonl");
    std::fs::write(&jsonl_path, jsonl)
        .map_err(|e| CliError::Io(jsonl_path.to_string_lossy().into_owned(), e))?;
    Ok(format!(
        "wrote {} recipe files and corpus.jsonl to {out}\n",
        corpus.recipes.len()
    ))
}

fn train(out: &str, recipes: usize, seed: u64, obs: &ObsOpts) -> Result<String, CliError> {
    let session = obs.begin();
    eprintln!("generating corpus of {recipes} recipes (seed {seed})...");
    let corpus = RecipeCorpus::generate(&CorpusSpec::scaled(recipes, seed));
    eprintln!("training pipeline...");
    let mut cfg = PipelineConfig::fast();
    cfg.seed = seed;
    let pipeline = {
        let _span = recipe_obs::span!("train");
        TrainedPipeline::train(&corpus, &cfg)
    };
    let mut summary = json!({
        "recipes": recipes,
        "seed": seed,
        "ingredient_ner_features": pipeline.ingredient_ner.num_features(),
        "instruction_ner_features": pipeline.instruction_ner.num_features(),
        "process_dictionary": pipeline.dicts.processes.len(),
        "utensil_dictionary": pipeline.dicts.utensils.len(),
        "artifact": out,
    });
    // `save` consumes the pipeline, so export telemetry first (the
    // artifact write is not an instrumented stage).
    let blocks = obs.finish(
        "train",
        &[pipeline.inference.metrics_registry()],
        &[("recipes", recipes as f64)],
        session,
    )?;
    pipeline.save(out)?;
    attach_obs_blocks(&mut summary, blocks);
    Ok(format!(
        "{}\n",
        serde_json::to_string_pretty(&summary).expect("json")
    ))
}

/// Cache hit/miss summary appended to `extract`/`mine` output.
fn cache_json(inference: &recipe_core::Inference, enabled: bool) -> serde_json::Value {
    let stats = inference.cache_stats();
    json!({
        "enabled": enabled,
        "hits": stats.hits,
        "misses": stats.misses,
        "entries": stats.entries,
        "hit_rate": stats.hit_rate(),
    })
}

/// Map a [`recipe_serve::ModelError`] (the shared CLI/server load
/// path) onto the CLI's error surface.
fn model_error(e: recipe_serve::ModelError) -> CliError {
    match e {
        recipe_serve::ModelError::Artifact(path, err) => CliError::Artifact(path, err),
        recipe_serve::ModelError::Persist(err) => CliError::Persist(err),
        err @ recipe_serve::ModelError::QuantizedJson(_) => CliError::Usage(err.to_string()),
    }
}

/// Resolved `recipe-mine serve` options (one field per CLI flag).
struct ServeOpts<'a> {
    model: &'a str,
    addr: &'a str,
    threads: usize,
    quantized: bool,
    queue_cap: usize,
    monitoring: bool,
    drift_sample: u64,
    keepalive_max_requests: u32,
    keepalive_idle_ms: u64,
}

/// `recipe-mine serve`: run the HTTP serving layer over a loaded model
/// until `POST /admin/shutdown` drains it (see `crates/serve`).
fn serve(opts: &ServeOpts<'_>) -> Result<String, CliError> {
    let loaded = ServeModel::load(opts.model, opts.quantized).map_err(model_error)?;
    let cfg = recipe_serve::ServeConfig {
        addr: opts.addr.to_string(),
        shards: opts.threads,
        queue_cap: opts.queue_cap,
        monitoring: opts.monitoring,
        drift_sample: opts.drift_sample,
        keepalive_max_requests: opts.keepalive_max_requests,
        keepalive_idle_ms: opts.keepalive_idle_ms,
        ..recipe_serve::ServeConfig::default()
    };
    let server =
        recipe_serve::Server::launch(&cfg, loaded, (opts.model.to_string(), opts.quantized))
            .map_err(|e| CliError::Io(opts.addr.to_string(), e))?;
    let bound = server.local_addr();
    let shards = server.shards();
    eprintln!(
        "serving {} on http://{bound} ({shards} shards; \
         POST /admin/shutdown to drain and exit)",
        opts.model
    );
    server.join();
    let summary = json!({
        "served": { "addr": bound.to_string(), "model": opts.model, "shards": shards },
        "shutdown": "drained",
    });
    Ok(format!(
        "{}\n",
        serde_json::to_string_pretty(&summary).expect("json")
    ))
}

/// How many corpus ingredient phrases feed the frozen drift reference
/// a compiled artifact carries (enough mass for stable margin/label
/// distributions; capture runs one provenance-recorded extraction per
/// phrase, so this also bounds compile-time cost).
const DRIFT_REFERENCE_PHRASES: usize = 256;

/// `recipe-mine compile`: serialize a pipeline's compiled models into a
/// zero-copy `.rma` artifact, from an existing JSON pipeline when
/// `--model` is given, else from a freshly trained one. Every artifact
/// carries a frozen drift reference captured over corpus ingredient
/// phrases (`--recipes`/`--seed` parameterize that corpus in both
/// paths), so `serve` can score live-traffic drift against it.
fn compile(model: Option<&str>, out: &str, recipes: usize, seed: u64) -> Result<String, CliError> {
    let (pipeline, corpus) = match model {
        Some(path) => {
            let pipeline = TrainedPipeline::load(path)?;
            eprintln!("generating drift-reference corpus of {recipes} recipes (seed {seed})...");
            let corpus = RecipeCorpus::generate(&CorpusSpec::scaled(recipes, seed));
            (pipeline, corpus)
        }
        None => {
            eprintln!("generating corpus of {recipes} recipes (seed {seed})...");
            let corpus = RecipeCorpus::generate(&CorpusSpec::scaled(recipes, seed));
            eprintln!("training pipeline...");
            let mut cfg = PipelineConfig::fast();
            cfg.seed = seed;
            let pipeline = TrainedPipeline::train(&corpus, &cfg);
            (pipeline, corpus)
        }
    };
    let phrases: Vec<String> = corpus
        .phrases(recipe_corpus::Site::AllRecipes)
        .iter()
        .take(DRIFT_REFERENCE_PHRASES)
        .map(|p| p.text())
        .collect();
    eprintln!(
        "capturing drift reference over {} phrases...",
        phrases.len()
    );
    let reference = recipe_core::artifact::capture_drift_reference(&pipeline, &phrases);
    let bytes = recipe_core::artifact::artifact_bytes_with_reference(&pipeline, Some(&reference))
        .map_err(|e| CliError::Artifact(out.to_string(), e))?;
    std::fs::write(out, &bytes).map_err(|e| CliError::Io(out.to_string(), e))?;
    let summary = json!({
        "source": model.map(String::from),
        "artifact": out,
        "bytes": bytes.len(),
        "drift_reference": { "phrases": reference.phrases },
    });
    Ok(format!(
        "{}\n",
        serde_json::to_string_pretty(&summary).expect("json")
    ))
}

fn extract(
    model: &str,
    phrases: &[String],
    no_cache: bool,
    quantized: bool,
    obs: &ObsOpts,
) -> Result<String, CliError> {
    let session = obs.begin();
    let pipeline = ServeModel::load(model, quantized).map_err(model_error)?;
    pipeline.inference().set_cache_enabled(!no_cache);
    let rows: Vec<serde_json::Value> = {
        let _span = recipe_obs::span!("extract");
        phrases
            .iter()
            .map(|p| {
                let e = pipeline.extract_ingredient(p);
                json!({ "phrase": p, "entry": entry_json(&e) })
            })
            .collect()
    };
    let mut out = json!({ "results": rows, "cache": cache_json(pipeline.inference(), !no_cache) });
    let blocks = obs.finish(
        "extract",
        &[pipeline.inference().metrics_registry()],
        &[("phrases", phrases.len() as f64)],
        session,
    )?;
    attach_obs_blocks(&mut out, blocks);
    Ok(format!(
        "{}\n",
        serde_json::to_string_pretty(&out).expect("json")
    ))
}

/// `recipe-mine explain`: extract each phrase with provenance recording
/// on and print the per-phrase decision trail (per-token Viterbi
/// margins, cache hit/miss origin, dictionary votes).
fn explain(model: &str, phrases: &[String]) -> Result<String, CliError> {
    let pipeline = TrainedPipeline::load(model)?;
    let mut rows = Vec::new();
    for p in phrases {
        let (e, records) = recipe_obs::provenance::capture(|| pipeline.extract_ingredient(p));
        rows.push(json!({
            "phrase": p,
            "entry": entry_json(&e),
            "provenance": recipe_obs::provenance::to_json(&records),
        }));
    }
    let out = json!({ "results": rows });
    Ok(format!(
        "{}\n",
        serde_json::to_string_pretty(&out).expect("json")
    ))
}

/// `recipe-mine bench-diff`: compare the newest bench run in the
/// history file against its earliest comparable baseline; a regression
/// past the fail threshold is an error carrying the rendered report.
fn bench_diff(opts: &BenchDiffOptions) -> Result<String, CliError> {
    use recipe_obs::history;

    let path = std::path::Path::new(&opts.history);
    // A missing history file is routine on fresh checkouts and new CI
    // jobs; under --smoke that is "nothing to gate", not a failure.
    if !path.exists() {
        let line = format!(
            "bench history {} not found; nothing to gate\n",
            opts.history
        );
        if opts.smoke {
            return Ok(line);
        }
        return Err(CliError::Stats(format!(
            "{}: no such file (run a bench binary to record a baseline, \
             or pass --smoke to tolerate a missing history)",
            opts.history
        )));
    }
    let runs = history::load_history(path)
        .map_err(|e| CliError::Stats(format!("{}: {e}", opts.history)))?;
    let mut thresholds = if opts.smoke {
        history::DiffThresholds::smoke()
    } else {
        history::DiffThresholds::default()
    };
    if let Some(pct) = opts.warn_pct {
        thresholds.warn_ratio = 1.0 + pct / 100.0;
    }
    if let Some(pct) = opts.fail_pct {
        thresholds.fail_ratio = 1.0 + pct / 100.0;
    }
    let pairs = history::baseline_and_latest(&runs, opts.benchmark.as_deref());
    // A benchmark that has never recorded a run (a bench binary added in
    // this change) has no baseline yet: report that plainly and pass —
    // the first recorded run becomes the baseline for the next one.
    if pairs.is_empty() {
        if let Some(name) = &opts.benchmark {
            return Ok(format!(
                "no baseline entry for benchmark {name:?} in {}; nothing to gate yet\n",
                opts.history
            ));
        }
        return Ok(format!(
            "no runs recorded in {}; nothing to gate yet\n",
            opts.history
        ));
    }
    let mut findings = Vec::new();
    let mut profile_sections = Vec::new();
    for (baseline, latest) in pairs {
        findings.extend(history::diff_runs(baseline, latest, &thresholds));
        // Runs that recorded profiles get their regression named by
        // stage, not just by percentile.
        if let Some(section) = history::render_profile_section(baseline, latest, 3) {
            profile_sections.push(section);
        }
    }
    let mut report = history::render_diff(&findings, &thresholds);
    for section in &profile_sections {
        report.push_str(section);
    }
    if history::worst_level(&findings) == history::DiffLevel::Fail {
        Err(CliError::BenchDiff(report))
    } else {
        Ok(report)
    }
}

/// Load and schema-validate a `--profile-out` document.
fn load_profile(path: &str) -> Result<recipe_obs::Profile, CliError> {
    let content = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_string(), e))?;
    let doc: serde_json::Value =
        serde_json::from_str(&content).map_err(|e| CliError::Profile(format!("{path}: {e}")))?;
    recipe_obs::validate_profile(&doc).map_err(|e| CliError::Profile(format!("{path}: {e}")))?;
    serde_json::from_value(&doc).map_err(|e| CliError::Profile(format!("{path}: {e}")))
}

/// `recipe-mine profile`: validate a `--profile-out` document and
/// render it — the human attribution table by default, collapsed-stack
/// folded lines under `--fold`, or the regressed-stage ranking against
/// a second profile under `--diff`.
fn profile_cmd(opts: &ProfileOptions) -> Result<String, CliError> {
    let profile = load_profile(&opts.path)?;
    if let Some(after_path) = &opts.diff {
        let after = load_profile(after_path)?;
        let deltas = recipe_obs::diff_profiles(&profile, &after);
        let mut out = format!(
            "profile diff: {} -> {} (top {} regressed stages, self ticks)\n",
            opts.path, after_path, opts.top
        );
        out.push_str(&recipe_obs::render_diff(&deltas, opts.top));
        return Ok(out);
    }
    if opts.fold {
        return Ok(recipe_obs::fold(&profile));
    }
    let mut out = format!(
        "profile: {} ({} clock, {} total ticks)\n",
        opts.path, profile.clock, profile.total_ticks
    );
    for node in &profile.nodes {
        out.push_str(&format!(
            "  {:<48} {:>8} calls  total {:>10}  self {:>10}\n",
            node.path.join(";"),
            node.count,
            node.total_ticks,
            node.self_ticks
        ));
    }
    if profile.nodes.is_empty() {
        out.push_str("  (no stages attributed)\n");
    }
    Ok(out)
}

fn mine(model: &str, files: &[String], no_cache: bool, obs: &ObsOpts) -> Result<String, CliError> {
    let session = obs.begin();
    let pipeline = TrainedPipeline::load(model)?;
    pipeline.set_cache_enabled(!no_cache);
    let _span = recipe_obs::span!("mine");
    let mut out = Vec::new();
    for path in files {
        let content = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.clone(), e))?;
        let recipe =
            parse_recipe_file(&content).map_err(|e| CliError::RecipeFile(path.clone(), e))?;
        let modeled =
            pipeline.model_text(&recipe.title, "", &recipe.ingredients, &recipe.instructions);
        out.push(json!({
            "file": path,
            "title": modeled.title,
            "ingredients": modeled.ingredients.iter().map(entry_json).collect::<Vec<_>>(),
            "events": modeled.events.iter().map(|e| json!({
                "step": e.step,
                "process": e.process,
                "ingredients": e.ingredients,
                "utensils": e.utensils,
            })).collect::<Vec<_>>(),
            "process_sequence": modeled.process_sequence(),
        }));
    }
    drop(_span);
    let mut out = json!({ "results": out, "cache": cache_json(&pipeline.inference, !no_cache) });
    let blocks = obs.finish(
        "mine",
        &[pipeline.inference.metrics_registry()],
        &[("recipes", files.len() as f64)],
        session,
    )?;
    attach_obs_blocks(&mut out, blocks);
    Ok(format!(
        "{}\n",
        serde_json::to_string_pretty(&out).expect("json")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("recipe_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Telemetry and event tracing are process-wide; tests that flip
    /// those switches serialize on this lock so they don't reset each
    /// other's collections mid-run.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn monitor_polls_a_served_artifact() {
        let rma_path = tmp("monitor_model.rma");
        let rma = rma_path.to_string_lossy().to_string();
        let out = run(&Command::Compile {
            model: None,
            out: rma.clone(),
            recipes: 120,
            seed: 3,
            threads: 0,
        })
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(
            parsed["drift_reference"]["phrases"].as_u64().unwrap() > 0,
            "{out}"
        );

        let model = ServeModel::load(&rma, false).expect("load compiled artifact");
        let cfg = recipe_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 1,
            ..recipe_serve::ServeConfig::default()
        };
        let server =
            recipe_serve::Server::launch(&cfg, model, (rma.clone(), false)).expect("launch");
        let addr = server.local_addr().to_string();

        let snap_path = tmp("monitor_snap.jsonl");
        let _ = std::fs::remove_file(&snap_path);
        let out = run(&Command::Monitor(crate::args::MonitorOptions {
            addr: addr.clone(),
            once: true,
            out: Some(snap_path.to_string_lossy().to_string()),
            ..crate::args::MonitorOptions::default()
        }))
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["monitored"]["polls"], serde_json::json!(1));
        assert_eq!(parsed["monitored"]["addr"], serde_json::json!(addr));
        // The compiled artifact carries a reference, so drift is live.
        assert_eq!(parsed["drift"]["active"], serde_json::json!(true));
        // One poll is the since-start view: the server has answered
        // nothing before this scrape, so nothing burns.
        assert_eq!(parsed["slo_level"], serde_json::json!("ok"), "{parsed:?}");
        assert_eq!(parsed["view"]["interval"]["requests"], serde_json::json!(0));
        assert_eq!(parsed["monitored"]["restarts"], serde_json::json!(0));

        // One snapshot line, parseable, carrying the raw document and
        // the view derived from it.
        let snaps = std::fs::read_to_string(&snap_path).unwrap();
        let lines: Vec<&str> = snaps.lines().collect();
        assert_eq!(lines.len(), 1, "{snaps}");
        let snap: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(snap["poll"], serde_json::json!(0));
        recipe_obs::validate_document(&snap["metrics"]).expect("metrics snapshot valid");
        assert_eq!(snap["view"], parsed["view"]);

        // Two more polls see the first scrape answered: the interval
        // between them holds exactly that one `/metrics` request.
        let out = run(&Command::Monitor(crate::args::MonitorOptions {
            addr: addr.clone(),
            count: Some(2),
            interval_ms: 10,
            ..crate::args::MonitorOptions::default()
        }))
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["view"]["interval"]["requests"], serde_json::json!(1));
        assert!(parsed["profile"]["stages"].as_u64().unwrap() > 0, "{out}");

        server.request_shutdown();
        server.join();
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&Command::Help).unwrap();
        assert!(out.contains("recipe-mine"));
        assert!(out.contains("extract"));
    }

    #[test]
    fn train_extract_mine_round_trip() {
        let model_path = tmp("cli_model.json");
        let model = model_path.to_string_lossy().to_string();

        // train (small corpus keeps the test fast)
        let out = run(&Command::Train {
            out: model.clone(),
            recipes: 120,
            seed: 3,
            threads: 0,
            obs: ObsArgs::default(),
        })
        .unwrap();
        assert!(out.contains("artifact"));
        assert!(model_path.exists());

        // extract (repeat a phrase so the cache registers a hit)
        let out = run(&Command::Extract {
            model: model.clone(),
            phrases: vec!["2 cups flour".into(), "2 cups flour".into()],
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["results"][0]["entry"]["name"], "flour");
        assert_eq!(parsed["results"][0]["entry"]["unit"], "cup");
        assert_eq!(parsed["cache"]["enabled"], true);
        assert!(parsed["cache"]["hits"].as_u64().unwrap() >= 1, "{out}");
        assert!(parsed["cache"]["entries"].as_u64().unwrap() >= 1, "{out}");

        // extract with the cache disabled: same entries, zero cache traffic
        let out_nc = run(&Command::Extract {
            model: model.clone(),
            phrases: vec!["2 cups flour".into(), "2 cups flour".into()],
            threads: 0,
            no_cache: true,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap();
        let parsed_nc: serde_json::Value = serde_json::from_str(&out_nc).unwrap();
        assert_eq!(parsed_nc["results"], parsed["results"]);
        assert_eq!(parsed_nc["cache"]["enabled"], false);
        assert_eq!(parsed_nc["cache"]["hits"], 0);
        assert_eq!(parsed_nc["cache"]["entries"], 0);

        // mine
        let recipe_path = tmp("cli_recipe.txt");
        std::fs::write(
            &recipe_path,
            "# test soup\n## ingredients\n2 cups water\n1 pinch salt\n## instructions\nBoil the water in a large pot. Add the salt.\n",
        )
        .unwrap();
        let out = run(&Command::Mine {
            model: model.clone(),
            files: vec![recipe_path.to_string_lossy().to_string()],
            threads: 0,
            no_cache: false,
            obs: ObsArgs::default(),
        })
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["results"][0]["title"], "test soup");
        assert_eq!(
            parsed["results"][0]["ingredients"]
                .as_array()
                .unwrap()
                .len(),
            2
        );
        assert!(parsed["cache"]["misses"].as_u64().unwrap() >= 1, "{out}");

        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&recipe_path).ok();
    }

    #[test]
    fn generate_writes_mineable_files() {
        let dir = tmp("gen_corpus");
        std::fs::remove_dir_all(&dir).ok();
        let out = run(&Command::Generate {
            out: dir.to_string_lossy().into_owned(),
            recipes: 5,
            seed: 7,
        })
        .unwrap();
        assert!(out.contains("5 recipe files"));
        let jsonl = std::fs::read_to_string(dir.join("corpus.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 5);
        // The text files parse in the `mine` format.
        let first = std::fs::read_to_string(dir.join("recipe_00000.txt")).unwrap();
        let parsed = crate::recipe_file::parse_recipe_file(&first).unwrap();
        assert!(!parsed.ingredients.is_empty());
        assert!(!parsed.instructions.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_model_is_a_clean_error() {
        let err = run(&Command::Extract {
            model: "/nonexistent/model.json".into(),
            phrases: vec!["salt".into()],
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("model artifact"));
    }

    #[test]
    fn lint_list_rules_prints_catalog() {
        let out = run(&Command::Lint(LintOptions {
            list_rules: true,
            ..LintOptions::default()
        }))
        .unwrap();
        assert!(out.contains("RA001"));
        assert!(out.contains("RA104"));
        assert!(out.contains("RA201"));
        assert!(out.contains("RA301"));
        assert!(out.lines().count() >= 12, "rule catalog shrank below 12");
    }

    #[test]
    fn lint_healthy_pipeline_passes_with_json_report() {
        // Same corpus size/seed as the recipe-analyze healthy-workspace
        // test: generates a corpus, trains a fresh pipeline, lints both.
        let out = run(&Command::Lint(LintOptions {
            recipes: 60,
            format: "json".into(),
            ..LintOptions::default()
        }))
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["summary"]["errors"], 0, "{out}");
        assert!(parsed["diagnostics"].as_array().is_some());
    }

    #[test]
    fn lint_poisoned_artifact_fails_with_ra001() {
        let model_path = tmp("cli_lint_poisoned.json");
        let corpus = RecipeCorpus::generate(&CorpusSpec::scaled(40, 9));
        let mut cfg = PipelineConfig::fast();
        cfg.seed = 9;
        let mut pipeline = TrainedPipeline::train(&corpus, &cfg);
        // Seed a defect: one NaN emission weight survives the JSON
        // round trip (null -> NaN) and must fail the lint run.
        pipeline.ingredient_ner.params_mut().emit[0] = f64::NAN;
        pipeline
            .save(model_path.to_string_lossy().as_ref())
            .unwrap();

        let err = run(&Command::Lint(LintOptions {
            model: Some(model_path.to_string_lossy().into_owned()),
            recipes: 10,
            ..LintOptions::default()
        }))
        .unwrap_err();
        match err {
            CliError::Lint(report) => {
                assert!(report.contains("RA001"), "{report}");
                assert!(report.contains("error["), "{report}");
            }
            other => panic!("expected CliError::Lint, got {other:?}"),
        }
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn lint_allow_silences_a_rule_and_deny_warnings_promotes() {
        let model_path = tmp("cli_lint_degenerate.json");
        let corpus = RecipeCorpus::generate(&CorpusSpec::scaled(40, 9));
        let mut cfg = PipelineConfig::fast();
        cfg.seed = 9;
        let mut pipeline = TrainedPipeline::train(&corpus, &cfg);
        // Zero out the ingredient NER: fires RA002 (warning by default).
        let p = pipeline.ingredient_ner.params_mut();
        for w in p
            .emit
            .iter_mut()
            .chain(p.trans.iter_mut())
            .chain(p.start.iter_mut())
            .chain(p.end.iter_mut())
        {
            *w = 0.0;
        }
        pipeline
            .save(model_path.to_string_lossy().as_ref())
            .unwrap();
        let model = model_path.to_string_lossy().into_owned();

        // A warning alone passes...
        let out = run(&Command::Lint(LintOptions {
            model: Some(model.clone()),
            recipes: 10,
            ..LintOptions::default()
        }))
        .unwrap();
        assert!(out.contains("RA002"), "{out}");

        // ...fails under --deny-warnings...
        let err = run(&Command::Lint(LintOptions {
            model: Some(model.clone()),
            recipes: 10,
            deny_warnings: true,
            ..LintOptions::default()
        }))
        .unwrap_err();
        assert!(matches!(err, CliError::Lint(_)));

        // ...and --allow RA002 silences it even then.
        let out = run(&Command::Lint(LintOptions {
            model: Some(model),
            recipes: 10,
            deny_warnings: true,
            allow: vec!["RA002".into()],
            ..LintOptions::default()
        }))
        .unwrap();
        assert!(!out.contains("RA002"), "{out}");

        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn lint_source_only_baseline_and_sarif_flow() {
        // A miniature "workspace" with one seeded violation: an unwrap
        // in non-test library code (RA301, note level).
        let ws = tmp("cli_lint_ws");
        std::fs::create_dir_all(ws.join("src")).unwrap();
        std::fs::write(
            ws.join("src/lib.rs"),
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )
        .unwrap();
        let ws_str = ws.to_string_lossy().into_owned();

        // Plain --source-only reports it but passes (note level).
        let out = run(&Command::Lint(LintOptions {
            workspace: Some(ws_str.clone()),
            source_only: true,
            ..LintOptions::default()
        }))
        .unwrap();
        assert!(out.contains("RA301"), "{out}");

        // --deny-new with no baseline fails on it, whatever the severity.
        let err = run(&Command::Lint(LintOptions {
            workspace: Some(ws_str.clone()),
            source_only: true,
            deny_new: true,
            ..LintOptions::default()
        }))
        .unwrap_err();
        assert!(matches!(err, CliError::Lint(_)), "{err:?}");

        // --write-baseline captures it; --deny-new then passes and says
        // how many findings the baseline suppressed.
        let out = run(&Command::Lint(LintOptions {
            workspace: Some(ws_str.clone()),
            source_only: true,
            write_baseline: true,
            ..LintOptions::default()
        }))
        .unwrap();
        assert!(out.contains("wrote 1 suppression"), "{out}");
        let out = run(&Command::Lint(LintOptions {
            workspace: Some(ws_str.clone()),
            source_only: true,
            deny_new: true,
            ..LintOptions::default()
        }))
        .unwrap();
        assert!(out.contains("1 baselined diagnostic suppressed"), "{out}");
        assert!(
            !out.contains("RA301]"),
            "suppressed finding rendered: {out}"
        );

        // A new violation in a new file still fails --deny-new.
        std::fs::write(
            ws.join("src/extra.rs"),
            "pub fn g() {\n    todo!(\"later\")\n}\n",
        )
        .unwrap();
        let err = run(&Command::Lint(LintOptions {
            workspace: Some(ws_str.clone()),
            source_only: true,
            deny_new: true,
            ..LintOptions::default()
        }))
        .unwrap_err();
        match err {
            CliError::Lint(report) => {
                assert!(report.contains("RA302"), "{report}");
                assert!(!report.contains("RA301]"), "{report}");
            }
            other => panic!("expected CliError::Lint, got {other:?}"),
        }
        std::fs::remove_file(ws.join("src/extra.rs")).unwrap();

        // SARIF output is a 2.1.0 document with physical locations.
        let out = run(&Command::Lint(LintOptions {
            workspace: Some(ws_str),
            source_only: true,
            format: "sarif".into(),
            ..LintOptions::default()
        }))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["version"], "2.1.0");
        let results = v["runs"][0]["results"].as_array().unwrap();
        assert!(!results.is_empty());
        assert_eq!(
            results[0]["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            "src/lib.rs"
        );

        std::fs::remove_dir_all(&ws).ok();
    }

    #[test]
    fn trace_and_metrics_out_round_trip() {
        let _guard = obs_lock();
        let model_path = tmp("cli_obs_model.json");
        let model = model_path.to_string_lossy().to_string();
        run(&Command::Train {
            out: model.clone(),
            recipes: 80,
            seed: 5,
            threads: 0,
            obs: ObsArgs::default(),
        })
        .unwrap();

        let phrases: Vec<String> = vec!["2 cups flour".into(), "1 pinch salt".into()];
        let plain = run(&Command::Extract {
            model: model.clone(),
            phrases: phrases.clone(),
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap();

        let metrics_path = tmp("cli_obs_metrics.json");
        let traced = run(&Command::Extract {
            model: model.clone(),
            phrases,
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs {
                trace: true,
                metrics_out: Some(metrics_path.to_string_lossy().to_string()),
                ..ObsArgs::default()
            },
        })
        .unwrap();

        // Telemetry never perturbs results: the `results` and `cache`
        // blocks are identical with tracing on.
        let plain_v: serde_json::Value = serde_json::from_str(&plain).unwrap();
        let traced_v: serde_json::Value = serde_json::from_str(&traced).unwrap();
        assert_eq!(plain_v["results"], traced_v["results"]);
        assert_eq!(plain_v["cache"], traced_v["cache"]);
        assert!(plain_v.get("telemetry").is_none());

        // The attached block is schema-valid and saw the extraction.
        let block = traced_v.get("telemetry").expect("telemetry block");
        recipe_obs::validate_telemetry(block).expect("valid telemetry");
        assert_eq!(block["enabled"], true);
        assert!(
            block["throughput"]["phrases"].as_f64().unwrap() >= 2.0,
            "{traced}"
        );
        assert!(
            block["counters"]["cache.ingredient.misses"]
                .as_u64()
                .unwrap()
                >= 1,
            "{traced}"
        );

        // --metrics-out wrote a full, valid document...
        let doc_text = std::fs::read_to_string(&metrics_path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&doc_text).unwrap();
        recipe_obs::validate_document(&doc).expect("valid document");
        assert_eq!(doc["command"], "extract");

        // ...that `stats` validates and renders.
        let rendered = run(&Command::Stats {
            path: metrics_path.to_string_lossy().to_string(),
        })
        .unwrap();
        assert!(rendered.contains("command: extract"), "{rendered}");
        assert!(rendered.contains("telemetry (tracing on)"), "{rendered}");
        assert!(rendered.contains("counters:"), "{rendered}");

        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    #[test]
    fn profile_out_round_trip_and_profile_subcommand() {
        let _guard = obs_lock();
        let model_path = tmp("cli_profile_model.json");
        let model = model_path.to_string_lossy().to_string();
        run(&Command::Train {
            out: model.clone(),
            recipes: 80,
            seed: 5,
            threads: 0,
            obs: ObsArgs::default(),
        })
        .unwrap();

        let phrases: Vec<String> = vec!["2 cups flour".into(), "1 pinch salt".into()];
        let plain = run(&Command::Extract {
            model: model.clone(),
            phrases: phrases.clone(),
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap();

        let profile_path = tmp("cli_profile.json");
        let profiled = run(&Command::Extract {
            model: model.clone(),
            phrases,
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs {
                trace: true,
                profile_out: Some(profile_path.to_string_lossy().to_string()),
                ..ObsArgs::default()
            },
        })
        .unwrap();

        // Profiling never perturbs results.
        let plain_v: serde_json::Value = serde_json::from_str(&plain).unwrap();
        let profiled_v: serde_json::Value = serde_json::from_str(&profiled).unwrap();
        assert_eq!(plain_v["results"], profiled_v["results"]);
        assert_eq!(plain_v["cache"], profiled_v["cache"]);

        // The telemetry block carries the same attribution.
        let telemetry = profiled_v.get("telemetry").expect("telemetry block");
        recipe_obs::validate_telemetry(telemetry).expect("valid telemetry");
        assert_eq!(telemetry["profile"]["clock"], "monotonic", "{profiled}");

        // The written document validates and saw the extract span.
        let text = std::fs::read_to_string(&profile_path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        recipe_obs::validate_profile(&doc).expect("valid profile");

        // The `profile` subcommand renders the attribution table...
        let prof_str = profile_path.to_string_lossy().to_string();
        let rendered = run(&Command::Profile(crate::args::ProfileOptions {
            path: prof_str.clone(),
            ..crate::args::ProfileOptions::default()
        }))
        .unwrap();
        assert!(rendered.contains("monotonic clock"), "{rendered}");
        assert!(rendered.contains("extract"), "{rendered}");

        // ...folds to collapsed-stack lines (`path;segments N`)...
        let folded = run(&Command::Profile(crate::args::ProfileOptions {
            path: prof_str.clone(),
            fold: true,
            ..crate::args::ProfileOptions::default()
        }))
        .unwrap();
        for line in folded.lines() {
            let (stack, ticks) = line.rsplit_once(' ').expect("folded line");
            assert!(!stack.is_empty(), "{line}");
            ticks.parse::<u64>().expect("tick count");
        }

        // ...and diffs against itself without inventing regressions.
        let diffed = run(&Command::Profile(crate::args::ProfileOptions {
            path: prof_str.clone(),
            diff: Some(prof_str),
            ..crate::args::ProfileOptions::default()
        }))
        .unwrap();
        assert!(diffed.contains("no stage regressed"), "{diffed}");

        // A malformed document is a clean error.
        let bad_path = tmp("cli_profile_bad.json");
        std::fs::write(&bad_path, "{\"schema_version\": 999}").unwrap();
        let err = run(&Command::Profile(crate::args::ProfileOptions {
            path: bad_path.to_string_lossy().to_string(),
            ..crate::args::ProfileOptions::default()
        }))
        .unwrap_err();
        match err {
            CliError::Profile(msg) => assert!(msg.contains("schema_version"), "{msg}"),
            other => panic!("expected CliError::Profile, got {other:?}"),
        }

        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&profile_path).ok();
        std::fs::remove_file(&bad_path).ok();
    }

    #[test]
    fn explain_attaches_provenance_without_perturbing_results() {
        let model_path = tmp("cli_explain_model.json");
        let model = model_path.to_string_lossy().to_string();
        run(&Command::Train {
            out: model.clone(),
            recipes: 80,
            seed: 5,
            threads: 0,
            obs: ObsArgs::default(),
        })
        .unwrap();

        let phrases: Vec<String> = vec!["2 cups flour".into(), "1 pinch salt".into()];
        let plain = run(&Command::Extract {
            model: model.clone(),
            phrases: phrases.clone(),
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap();
        let explained = run(&Command::Extract {
            model: model.clone(),
            phrases: phrases.clone(),
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs {
                explain: true,
                ..ObsArgs::default()
            },
        })
        .unwrap();

        // `--explain` adds a block; it never changes results or cache.
        let plain_v: serde_json::Value = serde_json::from_str(&plain).unwrap();
        let explained_v: serde_json::Value = serde_json::from_str(&explained).unwrap();
        assert_eq!(plain_v["results"], explained_v["results"]);
        assert_eq!(plain_v["cache"], explained_v["cache"]);
        assert!(plain_v.get("provenance").is_none());
        let block = explained_v.get("provenance").expect("provenance block");
        recipe_obs::validate_provenance(block).expect("valid provenance");
        let records = block.as_array().unwrap();
        assert!(!records.is_empty(), "{explained}");
        // The trail covers both Viterbi margins and cache decisions.
        let kinds: Vec<&str> = records.iter().filter_map(|r| r["kind"].as_str()).collect();
        assert!(kinds.contains(&"viterbi.margin"), "{kinds:?}");
        assert!(kinds.contains(&"cache.lookup"), "{kinds:?}");

        // The standalone subcommand reports a per-phrase trail.
        let out = run(&Command::Explain {
            model: model.clone(),
            phrases,
            threads: 0,
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let rows = v["results"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row["entry"]["name"].as_str().is_some(), true, "{out}");
            recipe_obs::validate_provenance(&row["provenance"]).expect("valid provenance");
            assert!(!row["provenance"].as_array().unwrap().is_empty(), "{out}");
        }

        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn trace_out_writes_a_valid_chrome_trace() {
        let _guard = obs_lock();
        let model_path = tmp("cli_trace_model.json");
        let model = model_path.to_string_lossy().to_string();
        run(&Command::Train {
            out: model.clone(),
            recipes: 80,
            seed: 5,
            threads: 0,
            obs: ObsArgs::default(),
        })
        .unwrap();

        let phrases: Vec<String> = vec!["2 cups flour".into(), "1 pinch salt".into()];
        let plain = run(&Command::Extract {
            model: model.clone(),
            phrases: phrases.clone(),
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap();

        let trace_path = tmp("cli_trace.json");
        let traced = run(&Command::Extract {
            model: model.clone(),
            phrases,
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs {
                trace_out: Some(trace_path.to_string_lossy().to_string()),
                trace_sample: Some(1.0),
                ..ObsArgs::default()
            },
        })
        .unwrap();

        // Event tracing never perturbs results.
        let plain_v: serde_json::Value = serde_json::from_str(&plain).unwrap();
        let traced_v: serde_json::Value = serde_json::from_str(&traced).unwrap();
        assert_eq!(plain_v["results"], traced_v["results"]);
        assert_eq!(plain_v["cache"], traced_v["cache"]);

        // The exported file is Chrome trace format with extract's spans.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let trace: serde_json::Value = serde_json::from_str(&text).unwrap();
        recipe_obs::validate_chrome_trace(&trace).expect("valid chrome trace");
        let events = trace["traceEvents"].as_array().unwrap();
        assert!(
            events
                .iter()
                .any(|e| e["name"] == "extract" && e["ph"] == "B"),
            "no extract span in {text}"
        );
        assert!(
            events
                .iter()
                .any(|e| e["name"] == "thread_name" && e["ph"] == "M"),
            "no thread metadata in {text}"
        );

        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn bench_diff_gates_on_injected_regression() {
        use recipe_obs::history::{append_run, HistoryEntry, HistoryRun, HISTORY_SCHEMA_VERSION};
        use std::collections::BTreeMap;

        let path = tmp("cli_bench_history.jsonl");
        std::fs::remove_file(&path).ok();
        // Each run carries a profile whose decode stage scales with the
        // injected latency, so the failing diff can name the stage.
        let run_at = |p50: f64, at: u64| {
            let prof = recipe_obs::Profiler::new("monotonic");
            prof.record(&["extract", "ner.decode"], (p50 * 1e6) as u64);
            prof.record(&["extract", "parse"], 100);
            HistoryRun {
                schema_version: HISTORY_SCHEMA_VERSION,
                benchmark: "inference_throughput".to_string(),
                smoke: false,
                recorded_at_unix_s: at,
                params: BTreeMap::from([("total_recipes".to_string(), 100.0)]),
                entries: vec![HistoryEntry {
                    name: "compiled".to_string(),
                    threads: 1,
                    metrics: BTreeMap::from([("phrase_latency.p50_s".to_string(), p50)]),
                }],
                profile: Some(prof.snapshot()),
            }
        };
        // Baseline, then a +50% regression.
        append_run(&path, &run_at(0.010, 1)).unwrap();
        append_run(&path, &run_at(0.015, 2)).unwrap();

        let opts = BenchDiffOptions {
            history: path.to_string_lossy().to_string(),
            ..BenchDiffOptions::default()
        };
        let err = run(&Command::BenchDiff(opts.clone())).unwrap_err();
        match err {
            CliError::BenchDiff(report) => {
                assert!(report.contains("FAIL"), "{report}");
                assert!(report.contains("phrase_latency.p50_s"), "{report}");
                assert!(report.contains("REGRESSION"), "{report}");
                // The attached profiles name the regressed stage.
                assert!(report.contains("profile: top regressed stages"), "{report}");
                assert!(report.contains("extract;ner.decode"), "{report}");
            }
            other => panic!("expected CliError::BenchDiff, got {other:?}"),
        }

        // The smoke thresholds tolerate +50%.
        let out = run(&Command::BenchDiff(BenchDiffOptions {
            smoke: true,
            ..opts.clone()
        }))
        .unwrap();
        assert!(out.contains("result:"), "{out}");

        // So does an explicit loose --fail-pct.
        let out = run(&Command::BenchDiff(BenchDiffOptions {
            fail_pct: Some(100.0),
            ..opts
        }))
        .unwrap();
        assert!(out.contains("WARN") || out.contains("warnings"), "{out}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_rejects_malformed_documents() {
        let missing = run(&Command::Stats {
            path: "/nonexistent/metrics.json".into(),
        })
        .unwrap_err();
        assert!(matches!(missing, CliError::Io(_, _)));

        let bad_path = tmp("cli_bad_metrics.json");
        std::fs::write(&bad_path, "{\"schema_version\": 999}").unwrap();
        let err = run(&Command::Stats {
            path: bad_path.to_string_lossy().to_string(),
        })
        .unwrap_err();
        match err {
            CliError::Stats(msg) => assert!(msg.contains("schema_version"), "{msg}"),
            other => panic!("expected CliError::Stats, got {other:?}"),
        }
        std::fs::remove_file(&bad_path).ok();
    }

    #[test]
    fn compile_then_extract_rma_matches_json_pipeline() {
        let model_path = tmp("cli_rma_model.json");
        let model = model_path.to_string_lossy().to_string();
        run(&Command::Train {
            out: model.clone(),
            recipes: 120,
            seed: 3,
            threads: 0,
            obs: ObsArgs::default(),
        })
        .unwrap();

        // Compile the JSON pipeline into a binary artifact.
        let rma_path = tmp("cli_rma_model.rma");
        let rma = rma_path.to_string_lossy().to_string();
        let out = run(&Command::Compile {
            model: Some(model.clone()),
            out: rma.clone(),
            recipes: 0,
            seed: 0,
            threads: 0,
        })
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["artifact"], rma);
        assert!(parsed["bytes"].as_u64().unwrap() > 0, "{out}");
        assert!(rma_path.exists());

        // Extract dispatches on the magic bytes; results are identical.
        let phrases: Vec<String> = vec!["2 cups flour".into(), "1 pinch salt".into()];
        let from_json = run(&Command::Extract {
            model: model.clone(),
            phrases: phrases.clone(),
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap();
        let from_rma = run(&Command::Extract {
            model: rma.clone(),
            phrases: phrases.clone(),
            threads: 0,
            no_cache: false,
            quantized: false,
            obs: ObsArgs::default(),
        })
        .unwrap();
        let json_v: serde_json::Value = serde_json::from_str(&from_json).unwrap();
        let rma_v: serde_json::Value = serde_json::from_str(&from_rma).unwrap();
        assert_eq!(json_v["results"], rma_v["results"]);

        // The quantized kernels load and produce well-formed entries.
        let quantized = run(&Command::Extract {
            model: rma,
            phrases: phrases.clone(),
            threads: 0,
            no_cache: false,
            quantized: true,
            obs: ObsArgs::default(),
        })
        .unwrap();
        let q_v: serde_json::Value = serde_json::from_str(&quantized).unwrap();
        assert_eq!(q_v["results"].as_array().unwrap().len(), 2);

        // `--quantized` against a JSON model is a clear usage error.
        let err = run(&Command::Extract {
            model,
            phrases,
            threads: 0,
            no_cache: false,
            quantized: true,
            obs: ObsArgs::default(),
        })
        .unwrap_err();
        match err {
            CliError::Usage(msg) => assert!(msg.contains(".rma"), "{msg}"),
            other => panic!("expected CliError::Usage, got {other:?}"),
        }

        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&rma_path).ok();
    }

    #[test]
    fn bench_diff_degrades_gracefully_without_baseline() {
        use recipe_obs::history::{append_run, HistoryRun, HISTORY_SCHEMA_VERSION};
        use std::collections::BTreeMap;

        // Missing history file: hard error normally, pass under --smoke.
        let missing = tmp("cli_bench_missing.jsonl");
        std::fs::remove_file(&missing).ok();
        let opts = BenchDiffOptions {
            history: missing.to_string_lossy().to_string(),
            ..BenchDiffOptions::default()
        };
        let err = run(&Command::BenchDiff(opts.clone())).unwrap_err();
        assert!(err.to_string().contains("no such file"), "{err}");
        let out = run(&Command::BenchDiff(BenchDiffOptions {
            smoke: true,
            ..opts
        }))
        .unwrap();
        assert!(out.contains("nothing to gate"), "{out}");

        // A benchmark with no recorded runs passes with a clear message.
        let path = tmp("cli_bench_no_baseline.jsonl");
        std::fs::remove_file(&path).ok();
        append_run(
            &path,
            &HistoryRun {
                schema_version: HISTORY_SCHEMA_VERSION,
                benchmark: "inference_throughput".to_string(),
                smoke: false,
                recorded_at_unix_s: 1,
                params: BTreeMap::new(),
                entries: Vec::new(),
                profile: None,
            },
        )
        .unwrap();
        let out = run(&Command::BenchDiff(BenchDiffOptions {
            history: path.to_string_lossy().to_string(),
            benchmark: Some("artifact_coldstart".to_string()),
            ..BenchDiffOptions::default()
        }))
        .unwrap();
        assert!(
            out.contains("no baseline entry for benchmark \"artifact_coldstart\""),
            "{out}"
        );
        assert!(out.contains("nothing to gate yet"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn args_to_command_integration() {
        let parsed = parse_args(&["help".to_string()]).unwrap();
        assert!(run(&parsed.command).is_ok());
    }
}

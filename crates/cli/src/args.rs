//! Hand-rolled argument parsing for `recipe-mine` (no external parser
//! dependency; the surface is small and stable).

use std::collections::HashMap;
use std::fmt;

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `train --out <path> [--recipes N] [--seed S] [--threads T]
    /// [--trace] [--metrics-out PATH] [--trace-out PATH]
    /// [--trace-sample R]`
    Train {
        /// Artifact output path.
        out: String,
        /// Corpus size to train on.
        recipes: usize,
        /// Corpus/training seed.
        seed: u64,
        /// Worker threads (0 = `RECIPE_THREADS` env / detected cores).
        threads: usize,
        /// Observability flags (`--trace`, `--metrics-out`,
        /// `--trace-out`, `--trace-sample`).
        obs: ObsArgs,
    },
    /// `extract --model <path> [--threads T] [--no-cache] [--quantized]
    /// [--trace] [--metrics-out PATH] [--trace-out PATH]
    /// [--trace-sample R] [--explain] <phrase>...`
    Extract {
        /// Trained artifact path (`.json` pipeline or binary `.rma`).
        model: String,
        /// Ingredient phrases to extract.
        phrases: Vec<String>,
        /// Worker threads (0 = `RECIPE_THREADS` env / detected cores).
        threads: usize,
        /// Disable the phrase-level extraction cache.
        no_cache: bool,
        /// Decode with the i16 quantized kernels (`.rma` models only).
        quantized: bool,
        /// Observability flags, including `--explain`.
        obs: ObsArgs,
    },
    /// `compile --out <model.rma> [--model <model.json>] [--recipes N]
    /// [--seed S] [--threads T]`: write a zero-copy binary artifact from
    /// an existing JSON pipeline (or a freshly trained one).
    Compile {
        /// Existing JSON pipeline to compile; `None` trains fresh.
        model: Option<String>,
        /// Binary artifact output path.
        out: String,
        /// Corpus size when training fresh.
        recipes: usize,
        /// Corpus/training seed when training fresh.
        seed: u64,
        /// Worker threads (0 = `RECIPE_THREADS` env / detected cores).
        threads: usize,
    },
    /// `mine --model <path> [--threads T] [--no-cache] [--trace]
    /// [--metrics-out PATH] [--trace-out PATH] [--trace-sample R]
    /// [--explain] <recipe.txt>...`
    Mine {
        /// Trained artifact path.
        model: String,
        /// Recipe text files to mine.
        files: Vec<String>,
        /// Worker threads (0 = `RECIPE_THREADS` env / detected cores).
        threads: usize,
        /// Disable the phrase-level extraction cache.
        no_cache: bool,
        /// Observability flags, including `--explain`.
        obs: ObsArgs,
    },
    /// `explain --model <path> [--threads T] <phrase>...`: extract each
    /// phrase with provenance recording on and print the per-decision
    /// trail (Viterbi margins, cache origin, dictionary votes).
    Explain {
        /// Trained artifact path.
        model: String,
        /// Ingredient phrases to explain.
        phrases: Vec<String>,
        /// Worker threads (0 = `RECIPE_THREADS` env / detected cores).
        threads: usize,
    },
    /// `serve --model <path> [--addr HOST:PORT] [--threads T]
    /// [--quantized] [--queue-cap N] [--no-monitoring] [--drift-sample N]
    /// [--keepalive-max-requests N] [--keepalive-idle-ms MS]`:
    /// run the long-lived HTTP serving layer over the model (see
    /// `crates/serve`).
    Serve {
        /// Trained artifact path (`.json` pipeline or binary `.rma`).
        model: String,
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Worker shards (0 = `RECIPE_THREADS` env / detected cores).
        threads: usize,
        /// Decode with the i16 quantized kernels (`.rma` models only).
        quantized: bool,
        /// Most requests waiting for a permit before shedding
        /// (admission control depth).
        queue_cap: usize,
        /// Collect slow-request exemplars, drift samples and the
        /// request profile (`--no-monitoring` disables all of them).
        monitoring: bool,
        /// Sample every Nth `/extract` request for drift scoring
        /// (`0` disables sampling).
        drift_sample: u64,
        /// Requests served per keep-alive connection before close.
        keepalive_max_requests: u32,
        /// Idle milliseconds before a keep-alive connection waiting
        /// for its next request is closed.
        keepalive_idle_ms: u64,
    },
    /// `bench-diff [--history PATH] [--benchmark NAME] [--warn-pct P]
    /// [--fail-pct P] [--smoke]`: compare the latest bench run in the
    /// history file against its baseline and exit nonzero on regression.
    BenchDiff(BenchDiffOptions),
    /// `monitor [--addr HOST:PORT] [--interval-ms N] [--count N]
    /// [--out PATH] [--once]`: poll a running server's `/metrics`,
    /// derive rates, interval percentiles and burn-rate levels from
    /// successive scrapes, render one line per poll, and optionally
    /// append one JSONL snapshot per poll.
    Monitor(MonitorOptions),
    /// `profile <profile.json> [--fold] [--diff <other.json>]
    /// [--top N]`: validate a profile document written by
    /// `--profile-out`, render its stage attribution (or emit
    /// collapsed-stack folded lines with `--fold`), and optionally
    /// diff it against a second profile, ranking regressed stages.
    Profile(ProfileOptions),
    /// `generate --out <dir> [--recipes N] [--seed S]`
    Generate {
        /// Output directory for the recipe text files + corpus.jsonl.
        out: String,
        /// Number of recipes.
        recipes: usize,
        /// Corpus seed.
        seed: u64,
    },
    /// `lint [--format human|json|sarif] [--deny-warnings] [--deny-new] ...`
    Lint(LintOptions),
    /// `stats <metrics.json>`: validate and pretty-print a telemetry
    /// document written by `--metrics-out`.
    Stats {
        /// Path to the telemetry JSON document.
        path: String,
    },
    /// `help`
    Help,
}

/// Observability flags shared by `train`, `extract`, and `mine`.
/// Everything here is additive: none of these flags may change the
/// `results` block of the command's output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsArgs {
    /// Enable tracing and attach a `telemetry` block to the output.
    pub trace: bool,
    /// Write the full telemetry document to this path.
    pub metrics_out: Option<String>,
    /// Write a Chrome-trace-format event timeline to this path
    /// (implies telemetry collection).
    pub trace_out: Option<String>,
    /// Deterministic span-event sample rate in `0.0..=1.0`
    /// (default 1.0 = every span).
    pub trace_sample: Option<f64>,
    /// Attach a `provenance` block (per-token margins, cache origin,
    /// dictionary votes) to the output. `extract`/`mine` only.
    pub explain: bool,
    /// Write a collapsed-stack profile document (per-stage tick
    /// attribution over the span sites) to this path (implies
    /// telemetry collection).
    pub profile_out: Option<String>,
}

/// Options for the `bench-diff` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiffOptions {
    /// Bench history file (JSONL, one run per line).
    pub history: String,
    /// Only compare runs of this benchmark.
    pub benchmark: Option<String>,
    /// Warn threshold as a percent slowdown (default 5, smoke 50).
    pub warn_pct: Option<f64>,
    /// Fail threshold as a percent slowdown (default 10, smoke 200).
    pub fail_pct: Option<f64>,
    /// Use the loose smoke-run thresholds (CI runners are noisy).
    pub smoke: bool,
}

impl Default for BenchDiffOptions {
    fn default() -> Self {
        BenchDiffOptions {
            history: "results/bench_history.jsonl".to_string(),
            benchmark: None,
            warn_pct: None,
            fail_pct: None,
            smoke: false,
        }
    }
}

/// Options for the `monitor` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorOptions {
    /// Server address to poll (`host:port`).
    pub addr: String,
    /// Poll interval in milliseconds.
    pub interval_ms: u64,
    /// Stop after this many polls (`None` = until the server goes away).
    pub count: Option<u64>,
    /// Append one JSONL snapshot per poll to this path.
    pub out: Option<String>,
    /// Poll exactly once and exit (CI smoke probe; same as `--count 1`).
    pub once: bool,
}

impl Default for MonitorOptions {
    fn default() -> Self {
        MonitorOptions {
            addr: "127.0.0.1:7878".to_string(),
            interval_ms: 2000,
            count: None,
            out: None,
            once: false,
        }
    }
}

/// Options for the `profile` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOptions {
    /// Profile JSON document to load (written by `--profile-out`).
    pub path: String,
    /// Emit collapsed-stack folded lines (`a;b;c N`) instead of the
    /// human table.
    pub fold: bool,
    /// Diff against this second profile (the "after" side), ranking
    /// regressed stages.
    pub diff: Option<String>,
    /// Stages shown in a diff (most-regressed first).
    pub top: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            path: String::new(),
            fold: false,
            diff: None,
            top: 5,
        }
    }
}

/// Options for the `lint` subcommand (see [`crate::commands::run`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LintOptions {
    /// Output format: `"human"` (rustc-style) or `"json"`.
    pub format: String,
    /// Treat warning-level findings as errors.
    pub deny_warnings: bool,
    /// Lint a saved artifact instead of training a fresh pipeline.
    pub model: Option<String>,
    /// Size of the generated corpus to lint (and train on).
    pub recipes: usize,
    /// Corpus/training seed.
    pub seed: u64,
    /// Run the source scanner over this directory (`--workspace [ROOT]`,
    /// default `.` when the flag is given without a value).
    pub workspace: Option<String>,
    /// Rule codes to silence (`--allow RA301,RA107`).
    pub allow: Vec<String>,
    /// Rule codes to promote to errors (`--deny RA002`).
    pub deny: Vec<String>,
    /// Print the rule catalog and exit.
    pub list_rules: bool,
    /// Worker threads (0 = `RECIPE_THREADS` env / detected cores).
    pub threads: usize,
    /// Fail only on diagnostics absent from the baseline file.
    pub deny_new: bool,
    /// Baseline path override (`--baseline PATH`); defaults to
    /// `lint_baseline.json` under the workspace root.
    pub baseline: Option<String>,
    /// Regenerate the baseline from this run's findings and exit.
    pub write_baseline: bool,
    /// Run only the source passes (`RA3xx`/`RA4xx`): no corpus
    /// generation, no training, no invariant audits.
    pub source_only: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            format: "human".to_string(),
            deny_warnings: false,
            model: None,
            recipes: 120,
            seed: 42,
            workspace: None,
            allow: Vec::new(),
            deny: Vec::new(),
            list_rules: false,
            threads: 0,
            deny_new: false,
            baseline: None,
            write_baseline: false,
            source_only: false,
        }
    }
}

/// Result of [`parse_args`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand to run.
    pub command: Command,
}

/// Errors produced by argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    Missing,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A required flag was not supplied.
    MissingFlag(&'static str),
    /// A flag value failed to parse.
    BadValue(&'static str, String),
    /// Positional arguments were required but absent.
    MissingPositional(&'static str),
    /// A flag that needs a value appeared without one.
    MissingValue(&'static str),
    /// An argument the subcommand does not understand.
    UnexpectedArg(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::Missing => write!(f, "no subcommand; try `recipe-mine help`"),
            ArgsError::UnknownCommand(c) => write!(f, "unknown subcommand {c:?}"),
            ArgsError::MissingFlag(flag) => write!(f, "missing required flag --{flag}"),
            ArgsError::BadValue(flag, v) => write!(f, "bad value for --{flag}: {v:?}"),
            ArgsError::MissingPositional(what) => write!(f, "expected at least one {what}"),
            ArgsError::MissingValue(flag) => write!(f, "flag --{flag} requires a value"),
            ArgsError::UnexpectedArg(arg) => write!(f, "unexpected argument {arg:?}"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// The value flags a subcommand parsed by [`split_flags`] accepts, and
/// the most positionals it takes. `None` for subcommands that parse
/// their own arguments.
fn flag_spec(cmd: &str) -> Option<(&'static [&'static str], usize)> {
    Some(match cmd {
        "train" => (
            &[
                "out",
                "recipes",
                "seed",
                "threads",
                "metrics-out",
                "trace-out",
                "trace-sample",
                "profile-out",
            ],
            0,
        ),
        "generate" => (&["out", "recipes", "seed"], 0),
        "compile" => (&["out", "model", "recipes", "seed", "threads"], 0),
        "extract" | "mine" => (
            &[
                "model",
                "threads",
                "metrics-out",
                "trace-out",
                "trace-sample",
                "profile-out",
            ],
            usize::MAX,
        ),
        "explain" => (&["model", "threads"], usize::MAX),
        "serve" => (
            &[
                "model",
                "addr",
                "threads",
                "queue-cap",
                "drift-sample",
                "keepalive-max-requests",
                "keepalive-idle-ms",
            ],
            0,
        ),
        "stats" => (&[], 1),
        _ => return None,
    })
}

/// Split args into `--flag value` pairs plus positionals. Every flag
/// left here takes a value, so a flag outside `accepted` is rejected
/// rather than paired with (and swallowing) the token after it.
fn split_flags(
    args: &[String],
    (accepted, max_positionals): (&'static [&'static str], usize),
) -> Result<(HashMap<String, String>, Vec<String>), ArgsError> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let Some(&name) = accepted.iter().find(|&&a| a == name) else {
                return Err(ArgsError::UnexpectedArg(args[i].clone()));
            };
            let value = args.get(i + 1).ok_or(ArgsError::MissingValue(name))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        } else {
            if positional.len() == max_positionals {
                return Err(ArgsError::UnexpectedArg(args[i].clone()));
            }
            positional.push(args[i].clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

/// Parse a CLI invocation (without the program name).
pub fn parse_args(args: &[String]) -> Result<ParsedArgs, ArgsError> {
    let Some(cmd) = args.first() else {
        return Err(ArgsError::Missing);
    };
    // `--no-cache`, `--trace`, `--explain`, and `--quantized` are
    // boolean, so they must be stripped before `split_flags` pairs every
    // `--flag` with the following token. `--no-cache` and `--explain`
    // are accepted by `extract` and `mine`; `--trace` also by `train`;
    // `--quantized` by `extract` and `serve`; elsewhere all four are
    // explicit errors.
    let mut no_cache = false;
    let mut trace = false;
    let mut explain = false;
    let mut quantized = false;
    let mut no_monitoring = false;
    let rest: Vec<String> = args[1..]
        .iter()
        .filter(|a| match a.as_str() {
            "--no-cache" => {
                no_cache = true;
                false
            }
            "--trace" => {
                trace = true;
                false
            }
            "--explain" => {
                explain = true;
                false
            }
            "--quantized" => {
                quantized = true;
                false
            }
            "--no-monitoring" => {
                no_monitoring = true;
                false
            }
            _ => true,
        })
        .cloned()
        .collect();
    if no_cache && !matches!(cmd.as_str(), "extract" | "mine") {
        return Err(ArgsError::UnexpectedArg("--no-cache".to_string()));
    }
    if trace && !matches!(cmd.as_str(), "train" | "extract" | "mine") {
        return Err(ArgsError::UnexpectedArg("--trace".to_string()));
    }
    if explain && !matches!(cmd.as_str(), "extract" | "mine") {
        return Err(ArgsError::UnexpectedArg("--explain".to_string()));
    }
    if quantized && !matches!(cmd.as_str(), "extract" | "serve") {
        return Err(ArgsError::UnexpectedArg("--quantized".to_string()));
    }
    if no_monitoring && cmd.as_str() != "serve" {
        return Err(ArgsError::UnexpectedArg("--no-monitoring".to_string()));
    }
    let rest = rest.as_slice();
    let (flags, positional) = match flag_spec(cmd) {
        Some(spec) => split_flags(rest, spec)?,
        None => (HashMap::new(), Vec::new()),
    };
    let command = match cmd.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "train" => {
            let out = flags
                .get("out")
                .cloned()
                .ok_or(ArgsError::MissingFlag("out"))?;
            let recipes = match flags.get("recipes") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgsError::BadValue("recipes", v.clone()))?,
                None => 1000,
            };
            let seed = match flags.get("seed") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgsError::BadValue("seed", v.clone()))?,
                None => 42,
            };
            let threads = parse_threads(&flags)?;
            Command::Train {
                out,
                recipes,
                seed,
                threads,
                obs: parse_obs(&flags, trace, explain)?,
            }
        }
        "generate" => {
            let out = flags
                .get("out")
                .cloned()
                .ok_or(ArgsError::MissingFlag("out"))?;
            let recipes = match flags.get("recipes") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgsError::BadValue("recipes", v.clone()))?,
                None => 100,
            };
            let seed = match flags.get("seed") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgsError::BadValue("seed", v.clone()))?,
                None => 42,
            };
            Command::Generate { out, recipes, seed }
        }
        "extract" => {
            let model = flags
                .get("model")
                .cloned()
                .ok_or(ArgsError::MissingFlag("model"))?;
            if positional.is_empty() {
                return Err(ArgsError::MissingPositional("phrase"));
            }
            Command::Extract {
                model,
                phrases: positional,
                threads: parse_threads(&flags)?,
                no_cache,
                quantized,
                obs: parse_obs(&flags, trace, explain)?,
            }
        }
        "compile" => {
            let out = flags
                .get("out")
                .cloned()
                .ok_or(ArgsError::MissingFlag("out"))?;
            let recipes = match flags.get("recipes") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgsError::BadValue("recipes", v.clone()))?,
                None => 1000,
            };
            let seed = match flags.get("seed") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgsError::BadValue("seed", v.clone()))?,
                None => 42,
            };
            Command::Compile {
                model: flags.get("model").cloned(),
                out,
                recipes,
                seed,
                threads: parse_threads(&flags)?,
            }
        }
        "explain" => {
            let model = flags
                .get("model")
                .cloned()
                .ok_or(ArgsError::MissingFlag("model"))?;
            if positional.is_empty() {
                return Err(ArgsError::MissingPositional("phrase"));
            }
            Command::Explain {
                model,
                phrases: positional,
                threads: parse_threads(&flags)?,
            }
        }
        "mine" => {
            let model = flags
                .get("model")
                .cloned()
                .ok_or(ArgsError::MissingFlag("model"))?;
            if positional.is_empty() {
                return Err(ArgsError::MissingPositional("recipe file"));
            }
            Command::Mine {
                model,
                files: positional,
                threads: parse_threads(&flags)?,
                no_cache,
                obs: parse_obs(&flags, trace, explain)?,
            }
        }
        "serve" => {
            let model = flags
                .get("model")
                .cloned()
                .ok_or(ArgsError::MissingFlag("model"))?;
            let addr = flags
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7878".to_string());
            let queue_cap = match flags.get("queue-cap") {
                Some(v) => {
                    let n: usize = v
                        .parse()
                        .map_err(|_| ArgsError::BadValue("queue-cap", v.clone()))?;
                    if n == 0 {
                        return Err(ArgsError::BadValue("queue-cap", v.clone()));
                    }
                    n
                }
                None => 128,
            };
            let drift_sample = match flags.get("drift-sample") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgsError::BadValue("drift-sample", v.clone()))?,
                None => 8,
            };
            let keepalive_max_requests = match flags.get("keepalive-max-requests") {
                Some(v) => {
                    let n: u32 = v
                        .parse()
                        .map_err(|_| ArgsError::BadValue("keepalive-max-requests", v.clone()))?;
                    if n == 0 {
                        return Err(ArgsError::BadValue("keepalive-max-requests", v.clone()));
                    }
                    n
                }
                None => 64,
            };
            let keepalive_idle_ms = match flags.get("keepalive-idle-ms") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgsError::BadValue("keepalive-idle-ms", v.clone()))?,
                None => 5_000,
            };
            Command::Serve {
                model,
                addr,
                threads: parse_threads(&flags)?,
                quantized,
                queue_cap,
                monitoring: !no_monitoring,
                drift_sample,
                keepalive_max_requests,
                keepalive_idle_ms,
            }
        }
        // These have boolean flags, so they parse `rest` themselves
        // instead of going through the `--flag value` pairing of
        // `split_flags`.
        "lint" => Command::Lint(parse_lint(rest)?),
        "bench-diff" => Command::BenchDiff(parse_bench_diff(rest)?),
        "monitor" => Command::Monitor(parse_monitor(rest)?),
        "profile" => Command::Profile(parse_profile(rest)?),
        "stats" => {
            let Some(path) = positional.first() else {
                return Err(ArgsError::MissingPositional("metrics file"));
            };
            Command::Stats { path: path.clone() }
        }
        other => return Err(ArgsError::UnknownCommand(other.to_string())),
    };
    Ok(ParsedArgs { command })
}

/// Parse the optional `--threads` flag (0 = unset: fall back to the
/// `RECIPE_THREADS` environment variable, then detected cores).
fn parse_threads(flags: &HashMap<String, String>) -> Result<usize, ArgsError> {
    match flags.get("threads") {
        Some(v) => v
            .parse()
            .map_err(|_| ArgsError::BadValue("threads", v.clone())),
        None => Ok(0),
    }
}

/// Resolve the shared observability flags for `train`/`extract`/`mine`.
/// `trace` and `explain` were stripped as booleans before `split_flags`.
fn parse_obs(
    flags: &HashMap<String, String>,
    trace: bool,
    explain: bool,
) -> Result<ObsArgs, ArgsError> {
    let trace_sample = match flags.get("trace-sample") {
        Some(v) => {
            let rate: f64 = v
                .parse()
                .map_err(|_| ArgsError::BadValue("trace-sample", v.clone()))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(ArgsError::BadValue("trace-sample", v.clone()));
            }
            Some(rate)
        }
        None => None,
    };
    Ok(ObsArgs {
        trace,
        metrics_out: flags.get("metrics-out").cloned(),
        trace_out: flags.get("trace-out").cloned(),
        trace_sample,
        explain,
        profile_out: flags.get("profile-out").cloned(),
    })
}

fn parse_bench_diff(rest: &[String]) -> Result<BenchDiffOptions, ArgsError> {
    let mut opts = BenchDiffOptions::default();
    let mut i = 0usize;
    while i < rest.len() {
        match rest[i].as_str() {
            "--smoke" => {
                opts.smoke = true;
                i += 1;
            }
            flag @ ("--history" | "--benchmark" | "--warn-pct" | "--fail-pct") => {
                let name: &'static str = match flag {
                    "--history" => "history",
                    "--benchmark" => "benchmark",
                    "--warn-pct" => "warn-pct",
                    _ => "fail-pct",
                };
                let Some(v) = rest.get(i + 1) else {
                    return Err(ArgsError::MissingValue(name));
                };
                match name {
                    "history" => opts.history = v.clone(),
                    "benchmark" => opts.benchmark = Some(v.clone()),
                    pct => {
                        let parsed: f64 =
                            v.parse().map_err(|_| ArgsError::BadValue(pct, v.clone()))?;
                        if !parsed.is_finite() || parsed < 0.0 {
                            return Err(ArgsError::BadValue(pct, v.clone()));
                        }
                        if pct == "warn-pct" {
                            opts.warn_pct = Some(parsed);
                        } else {
                            opts.fail_pct = Some(parsed);
                        }
                    }
                }
                i += 2;
            }
            other => return Err(ArgsError::UnexpectedArg(other.to_string())),
        }
    }
    Ok(opts)
}

fn parse_monitor(rest: &[String]) -> Result<MonitorOptions, ArgsError> {
    let mut opts = MonitorOptions::default();
    let mut i = 0usize;
    while i < rest.len() {
        match rest[i].as_str() {
            "--once" => {
                opts.once = true;
                i += 1;
            }
            flag @ ("--addr" | "--interval-ms" | "--count" | "--out") => {
                let name: &'static str = match flag {
                    "--addr" => "addr",
                    "--interval-ms" => "interval-ms",
                    "--count" => "count",
                    _ => "out",
                };
                let Some(v) = rest.get(i + 1) else {
                    return Err(ArgsError::MissingValue(name));
                };
                match name {
                    "addr" => opts.addr = v.clone(),
                    "out" => opts.out = Some(v.clone()),
                    "interval-ms" => {
                        opts.interval_ms = v
                            .parse()
                            .map_err(|_| ArgsError::BadValue("interval-ms", v.clone()))?;
                    }
                    _ => {
                        let n: u64 = v
                            .parse()
                            .map_err(|_| ArgsError::BadValue("count", v.clone()))?;
                        if n == 0 {
                            return Err(ArgsError::BadValue("count", v.clone()));
                        }
                        opts.count = Some(n);
                    }
                }
                i += 2;
            }
            other => return Err(ArgsError::UnexpectedArg(other.to_string())),
        }
    }
    Ok(opts)
}

fn parse_profile(rest: &[String]) -> Result<ProfileOptions, ArgsError> {
    let mut opts = ProfileOptions::default();
    let mut i = 0usize;
    while i < rest.len() {
        match rest[i].as_str() {
            "--fold" => {
                opts.fold = true;
                i += 1;
            }
            flag @ ("--diff" | "--top") => {
                let name: &'static str = match flag {
                    "--diff" => "diff",
                    _ => "top",
                };
                let Some(v) = rest.get(i + 1) else {
                    return Err(ArgsError::MissingValue(name));
                };
                match name {
                    "diff" => opts.diff = Some(v.clone()),
                    _ => {
                        let n: usize = v
                            .parse()
                            .map_err(|_| ArgsError::BadValue("top", v.clone()))?;
                        if n == 0 {
                            return Err(ArgsError::BadValue("top", v.clone()));
                        }
                        opts.top = n;
                    }
                }
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(ArgsError::UnexpectedArg(other.to_string()));
            }
            positional => {
                if !opts.path.is_empty() {
                    return Err(ArgsError::UnexpectedArg(positional.to_string()));
                }
                opts.path = positional.to_string();
                i += 1;
            }
        }
    }
    if opts.path.is_empty() {
        return Err(ArgsError::MissingPositional("profile file"));
    }
    Ok(opts)
}

fn parse_lint(rest: &[String]) -> Result<LintOptions, ArgsError> {
    let mut opts = LintOptions::default();
    let mut i = 0usize;
    while i < rest.len() {
        match rest[i].as_str() {
            "--deny-warnings" => {
                opts.deny_warnings = true;
                i += 1;
            }
            "--list-rules" => {
                opts.list_rules = true;
                i += 1;
            }
            "--deny-new" => {
                opts.deny_new = true;
                i += 1;
            }
            "--write-baseline" => {
                opts.write_baseline = true;
                i += 1;
            }
            "--source-only" => {
                opts.source_only = true;
                i += 1;
            }
            "--workspace" => {
                // Optional value: `--workspace path` or bare `--workspace`.
                if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
                    opts.workspace = Some(rest[i + 1].clone());
                    i += 2;
                } else {
                    opts.workspace = Some(".".to_string());
                    i += 1;
                }
            }
            flag @ ("--format" | "--model" | "--recipes" | "--seed" | "--threads" | "--allow"
            | "--deny" | "--baseline") => {
                let name: &'static str = match flag {
                    "--format" => "format",
                    "--model" => "model",
                    "--recipes" => "recipes",
                    "--seed" => "seed",
                    "--threads" => "threads",
                    "--allow" => "allow",
                    "--baseline" => "baseline",
                    _ => "deny",
                };
                let Some(v) = rest.get(i + 1) else {
                    return Err(ArgsError::MissingValue(name));
                };
                match name {
                    "format" => {
                        if v != "human" && v != "json" && v != "sarif" {
                            return Err(ArgsError::BadValue("format", v.clone()));
                        }
                        opts.format = v.clone();
                    }
                    "model" => opts.model = Some(v.clone()),
                    "baseline" => opts.baseline = Some(v.clone()),
                    "recipes" => {
                        opts.recipes = v
                            .parse()
                            .map_err(|_| ArgsError::BadValue("recipes", v.clone()))?;
                    }
                    "seed" => {
                        opts.seed = v
                            .parse()
                            .map_err(|_| ArgsError::BadValue("seed", v.clone()))?;
                    }
                    "threads" => {
                        opts.threads = v
                            .parse()
                            .map_err(|_| ArgsError::BadValue("threads", v.clone()))?;
                    }
                    "allow" => opts
                        .allow
                        .extend(v.split(',').filter(|s| !s.is_empty()).map(String::from)),
                    _ => opts
                        .deny
                        .extend(v.split(',').filter(|s| !s.is_empty()).map(String::from)),
                }
                i += 2;
            }
            other => return Err(ArgsError::UnexpectedArg(other.to_string())),
        }
    }
    Ok(opts)
}

/// Usage text for `help`.
pub const USAGE: &str = "\
recipe-mine — named-entity based recipe modelling

USAGE:
  recipe-mine generate --out <dir> [--recipes N] [--seed S]
  recipe-mine train   --out <model.json> [--recipes N] [--seed S] [--threads T]
                      [--trace] [--metrics-out <metrics.json>]
                      [--trace-out <trace.json>] [--trace-sample R]
                      [--profile-out <profile.json>]
  recipe-mine compile --out <model.rma> [--model <model.json>]
                      [--recipes N] [--seed S] [--threads T]
  recipe-mine extract --model <model.json|model.rma> [--threads T]
                      [--no-cache] [--quantized]
                      [--trace] [--metrics-out <metrics.json>]
                      [--trace-out <trace.json>] [--trace-sample R]
                      [--profile-out <profile.json>]
                      [--explain] <phrase>...
  recipe-mine mine    --model <model.json> [--threads T] [--no-cache]
                      [--trace] [--metrics-out <metrics.json>]
                      [--trace-out <trace.json>] [--trace-sample R]
                      [--profile-out <profile.json>]
                      [--explain] <recipe.txt>...
  recipe-mine explain --model <model.json> [--threads T] <phrase>...
  recipe-mine serve   --model <model.json|model.rma> [--addr HOST:PORT]
                      [--threads T] [--quantized] [--queue-cap N]
                      [--no-monitoring] [--drift-sample N]
                      [--keepalive-max-requests N] [--keepalive-idle-ms MS]
  recipe-mine monitor [--addr HOST:PORT] [--interval-ms N] [--count N]
                      [--out <snapshots.jsonl>] [--once]
  recipe-mine profile <profile.json> [--fold] [--diff <other.json>]
                      [--top N]
  recipe-mine stats   <metrics.json>
  recipe-mine bench-diff [--history <bench_history.jsonl>]
                      [--benchmark NAME] [--warn-pct P] [--fail-pct P]
                      [--smoke]
  recipe-mine lint    [--format human|json|sarif] [--deny-warnings]
                      [--model <model.json>] [--recipes N] [--seed S]
                      [--workspace [ROOT]] [--allow CODES] [--deny CODES]
                      [--list-rules] [--threads T] [--source-only]
                      [--deny-new] [--baseline PATH] [--write-baseline]
  recipe-mine help

Parallelism: --threads T sets the worker-thread count for training and
batch extraction (default: the RECIPE_THREADS environment variable, else
the detected core count). Outputs are bit-identical at every value.

Caching: extract and mine memoize per-phrase NER decodes and per-sentence
event extraction in a bounded deterministic cache; --no-cache disables it.
Outputs are byte-identical with the cache on or off.

Telemetry: --trace enables span/metric collection and attaches a
`telemetry` block to the JSON output; --metrics-out PATH additionally
writes the full telemetry document (schema_version, command, telemetry)
to PATH. `recipe-mine stats metrics.json` validates such a document and
renders it for terminals. Telemetry never changes extraction results:
the `results` block is byte-identical with tracing on or off.

Tracing: --trace-out PATH writes an event timeline (span begin/end and
instants, per-thread, monotonic timestamps) in Chrome trace format —
open it in chrome://tracing or Perfetto. --trace-sample R keeps a
deterministic fraction R (0.0..=1.0) of span events when full traces
are too large. --explain attaches a `provenance` block (per-token
Viterbi margins, cache hit/miss origin, dictionary accept/reject votes)
to extract/mine output; `recipe-mine explain` prints the same trail per
phrase without the surrounding pipeline output. None of these flags
change the `results` block.

Profiling: --profile-out PATH attributes wall ticks to every span site
(count, total, and self time per stage path) and writes the profile as
JSON; `recipe-mine profile` renders it, emits flamegraph-ready
collapsed-stack lines (--fold), or ranks regressed stages against a
second profile (--diff). bench-diff prints the same stage ranking when
history runs carry profiles. A monitored server keeps a request
profile in the telemetry.profile block of GET /metrics.

Linting: --source-only runs just the token-accurate source passes
(RA3xx/RA4xx) — no training — so a full-workspace scan finishes in well
under two seconds. --format sarif emits a SARIF 2.1.0 document for code
scanning dashboards. --deny-new fails only on diagnostics whose stable
fingerprint is absent from the baseline file (default
<workspace>/lint_baseline.json, override with --baseline PATH);
--write-baseline regenerates that file from the current findings.

Bench gate: `recipe-mine bench-diff` loads results/bench_history.jsonl
(appended to by the bench binaries), compares each benchmark's newest
run against its earliest comparable baseline, and exits nonzero when a
seconds-valued metric regressed past --fail-pct (default 10%; --smoke
uses 50/200% for noisy CI runners).

generate write a synthetic RecipeDB-like corpus as recipe text files
         (mineable with `mine`) plus corpus.jsonl with gold annotations
train    generate a synthetic RecipeDB-like corpus, train the full
         pipeline (POS tagger, ingredient & instruction NER, parser,
         dictionaries) and save the artifact as JSON
compile  write a zero-copy binary `.rma` artifact holding the compiled
         models (CSR weights, interned feature tables, i16 quantized
         variants) from an existing --model JSON pipeline or a freshly
         trained one; `extract --model x.rma` then cold-starts in
         O(sections) instead of recompiling
extract  print the structured attributes of ingredient phrases as JSON;
         accepts JSON pipelines or compiled `.rma` artifacts
         (--quantized selects the i16 decode kernels, .rma only)
explain  extract phrases with provenance recording on and print the
         decision trail that produced each entry
serve    run the long-lived HTTP/1.1 serving layer: one acceptor and
         one thread per connection, --threads requests handled at once
         (503 + Retry-After when too many wait). Endpoints:
         POST /extract, POST /explain, GET /healthz, GET /metrics
         (cumulative counts, latency buckets, SLO good/count counters,
         request profile, drift), GET /admin/slow, POST /admin/reload
         (hot-swap), POST /admin/shutdown (drain). Each request is
         recorded once; the SLO objectives are fixed (availability
         99.9%, latency 99% within 250 ms). --no-monitoring turns off
         the slow table, drift sampling and the request profile;
         --drift-sample N scores every Nth extract request against the
         artifact's drift reference; --keepalive-max-requests /
         --keepalive-idle-ms bound connection reuse
monitor  poll a running server's /metrics over one keep-alive
         connection and derive, from successive scrapes, the interval's
         request rate and p50/p99 and the multi-window burn-rate level;
         print one line per poll and optionally append JSONL snapshots
         (--out: the raw document plus the derived view); a counter
         that falls marks a server restart; --once polls a single time
         for CI and reads the since-start view
profile  validate a --profile-out document and render per-stage tick
         attribution; --fold emits collapsed-stack lines (one
         `stage;path N` per line, flamegraph-ready); --diff ranks the
         stages that regressed against a second profile
mine     mine recipe text files (## ingredients / ## instructions
         sections) into the Fig. 1 structure, printed as JSON
stats    validate a --metrics-out telemetry document and render it in a
         human-readable form (stage tree, counters, histograms)
bench-diff compare the latest bench run against its history baseline and
         exit nonzero on regression (the perf gate CI runs)
lint     run the recipe-analyze static checks: cross-crate invariants,
         corpus well-formedness over a generated corpus, artifact health
         over a loaded (--model) or freshly trained pipeline, and an
         optional source scan (--workspace); exits nonzero on any
         error-level finding (--deny-warnings promotes warnings)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_train_with_defaults() {
        let parsed = parse_args(&s(&["train", "--out", "m.json"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Train {
                out: "m.json".into(),
                recipes: 1000,
                seed: 42,
                threads: 0,
                obs: ObsArgs::default(),
            }
        );
    }

    #[test]
    fn parses_train_with_flags_any_order() {
        let parsed = parse_args(&s(&[
            "train",
            "--seed",
            "7",
            "--recipes",
            "250",
            "--out",
            "x",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Train {
                out: "x".into(),
                recipes: 250,
                seed: 7,
                threads: 0,
                obs: ObsArgs::default(),
            }
        );
    }

    #[test]
    fn parses_extract_with_positionals() {
        let parsed = parse_args(&s(&[
            "extract",
            "--model",
            "m.json",
            "2 cups flour",
            "1 egg",
        ]))
        .unwrap();
        match parsed.command {
            Command::Extract {
                model,
                phrases,
                threads,
                no_cache,
                quantized,
                obs,
            } => {
                assert_eq!(model, "m.json");
                assert_eq!(phrases, vec!["2 cups flour", "1 egg"]);
                assert_eq!(threads, 0);
                assert!(!no_cache);
                assert!(!quantized);
                assert_eq!(obs, ObsArgs::default());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_cache_flag_does_not_eat_the_next_token() {
        // `--no-cache` is boolean: the positional after it must survive.
        let parsed = parse_args(&s(&["extract", "--no-cache", "--model", "m", "1 egg"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Extract {
                model: "m".into(),
                phrases: vec!["1 egg".into()],
                threads: 0,
                no_cache: true,
                quantized: false,
                obs: ObsArgs::default(),
            }
        );
        let parsed = parse_args(&s(&["mine", "--model", "m", "--no-cache", "r.txt"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Mine {
                model: "m".into(),
                files: vec!["r.txt".into()],
                threads: 0,
                no_cache: true,
                obs: ObsArgs::default(),
            }
        );
    }

    #[test]
    fn no_cache_flag_rejected_elsewhere() {
        for cmd in [
            vec!["train", "--out", "x", "--no-cache"],
            vec!["generate", "--out", "d", "--no-cache"],
            vec!["lint", "--no-cache"],
        ] {
            assert_eq!(
                parse_args(&s(&cmd)),
                Err(ArgsError::UnexpectedArg("--no-cache".into())),
                "{cmd:?}"
            );
        }
    }

    #[test]
    fn parses_threads_flag() {
        let parsed = parse_args(&s(&["train", "--out", "m.json", "--threads", "4"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Train {
                out: "m.json".into(),
                recipes: 1000,
                seed: 42,
                threads: 4,
                obs: ObsArgs::default(),
            }
        );
        let parsed = parse_args(&s(&["lint", "--threads", "2"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Lint(LintOptions {
                threads: 2,
                ..LintOptions::default()
            })
        );
        assert!(matches!(
            parse_args(&s(&["train", "--out", "x", "--threads", "lots"])),
            Err(ArgsError::BadValue("threads", _))
        ));
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse_args(&[]), Err(ArgsError::Missing));
        assert!(matches!(
            parse_args(&s(&["frobnicate"])),
            Err(ArgsError::UnknownCommand(_))
        ));
        assert_eq!(
            parse_args(&s(&["train"])),
            Err(ArgsError::MissingFlag("out"))
        );
        assert!(matches!(
            parse_args(&s(&["train", "--out", "x", "--recipes", "many"])),
            Err(ArgsError::BadValue("recipes", _))
        ));
        assert_eq!(
            parse_args(&s(&["extract", "--model", "m"])),
            Err(ArgsError::MissingPositional("phrase"))
        );
    }

    #[test]
    fn parses_lint_defaults() {
        let parsed = parse_args(&s(&["lint"])).unwrap();
        assert_eq!(parsed.command, Command::Lint(LintOptions::default()));
    }

    #[test]
    fn parses_lint_boolean_flags_without_eating_values() {
        // `--deny-warnings` is boolean: the following flag must still parse.
        let parsed = parse_args(&s(&["lint", "--deny-warnings", "--format", "json"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Lint(LintOptions {
                deny_warnings: true,
                format: "json".into(),
                ..LintOptions::default()
            })
        );
    }

    #[test]
    fn parses_lint_full_surface() {
        let parsed = parse_args(&s(&[
            "lint",
            "--model",
            "m.json",
            "--recipes",
            "30",
            "--seed",
            "9",
            "--workspace",
            "crates",
            "--allow",
            "RA301,RA107",
            "--deny",
            "RA002",
            "--list-rules",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Lint(LintOptions {
                model: Some("m.json".into()),
                recipes: 30,
                seed: 9,
                workspace: Some("crates".into()),
                allow: vec!["RA301".into(), "RA107".into()],
                deny: vec!["RA002".into()],
                list_rules: true,
                ..LintOptions::default()
            })
        );
    }

    #[test]
    fn parses_lint_baseline_surface() {
        let parsed = parse_args(&s(&[
            "lint",
            "--source-only",
            "--deny-new",
            "--baseline",
            "custom_baseline.json",
            "--format",
            "sarif",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Lint(LintOptions {
                source_only: true,
                deny_new: true,
                baseline: Some("custom_baseline.json".into()),
                format: "sarif".into(),
                ..LintOptions::default()
            })
        );

        let parsed = parse_args(&s(&["lint", "--write-baseline", "--workspace"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Lint(LintOptions {
                write_baseline: true,
                workspace: Some(".".into()),
                ..LintOptions::default()
            })
        );
    }

    #[test]
    fn lint_workspace_flag_value_is_optional() {
        let parsed = parse_args(&s(&["lint", "--workspace", "--deny-warnings"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Lint(LintOptions {
                workspace: Some(".".into()),
                deny_warnings: true,
                ..LintOptions::default()
            })
        );
    }

    #[test]
    fn lint_error_cases() {
        assert_eq!(
            parse_args(&s(&["lint", "--format", "xml"])),
            Err(ArgsError::BadValue("format", "xml".into()))
        );
        assert_eq!(
            parse_args(&s(&["lint", "--model"])),
            Err(ArgsError::MissingValue("model"))
        );
        assert_eq!(
            parse_args(&s(&["lint", "extra"])),
            Err(ArgsError::UnexpectedArg("extra".into()))
        );
    }

    #[test]
    fn trace_flag_does_not_eat_the_next_token() {
        // `--trace` is boolean: the positional after it must survive.
        let parsed = parse_args(&s(&["extract", "--trace", "--model", "m", "1 egg"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Extract {
                model: "m".into(),
                phrases: vec!["1 egg".into()],
                threads: 0,
                no_cache: false,
                quantized: false,
                obs: ObsArgs {
                    trace: true,
                    ..ObsArgs::default()
                },
            }
        );
    }

    #[test]
    fn parses_metrics_out_on_all_three_commands() {
        let parsed = parse_args(&s(&[
            "train",
            "--out",
            "m.json",
            "--metrics-out",
            "metrics.json",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Train {
                out: "m.json".into(),
                recipes: 1000,
                seed: 42,
                threads: 0,
                obs: ObsArgs {
                    metrics_out: Some("metrics.json".into()),
                    ..ObsArgs::default()
                },
            }
        );
        let parsed = parse_args(&s(&[
            "mine",
            "--model",
            "m",
            "--trace",
            "--metrics-out",
            "out.json",
            "r.txt",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Mine {
                model: "m".into(),
                files: vec!["r.txt".into()],
                threads: 0,
                no_cache: false,
                obs: ObsArgs {
                    trace: true,
                    metrics_out: Some("out.json".into()),
                    ..ObsArgs::default()
                },
            }
        );
    }

    #[test]
    fn trace_flag_rejected_elsewhere() {
        for cmd in [
            vec!["generate", "--out", "d", "--trace"],
            vec!["lint", "--trace"],
            vec!["stats", "m.json", "--trace"],
        ] {
            assert_eq!(
                parse_args(&s(&cmd)),
                Err(ArgsError::UnexpectedArg("--trace".into())),
                "{cmd:?}"
            );
        }
    }

    #[test]
    fn parses_trace_out_and_sample() {
        let parsed = parse_args(&s(&[
            "extract",
            "--model",
            "m",
            "--trace-out",
            "trace.json",
            "--trace-sample",
            "0.25",
            "1 egg",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Extract {
                model: "m".into(),
                phrases: vec!["1 egg".into()],
                threads: 0,
                no_cache: false,
                quantized: false,
                obs: ObsArgs {
                    trace_out: Some("trace.json".into()),
                    trace_sample: Some(0.25),
                    ..ObsArgs::default()
                },
            }
        );
        for bad in ["-0.5", "1.5", "lots", "NaN"] {
            assert_eq!(
                parse_args(&s(&[
                    "extract",
                    "--model",
                    "m",
                    "--trace-sample",
                    bad,
                    "1 egg"
                ])),
                Err(ArgsError::BadValue("trace-sample", bad.into())),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn explain_flag_and_subcommand() {
        // `--explain` is boolean: the positional after it must survive.
        let parsed = parse_args(&s(&["extract", "--explain", "--model", "m", "1 egg"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Extract {
                model: "m".into(),
                phrases: vec!["1 egg".into()],
                threads: 0,
                no_cache: false,
                quantized: false,
                obs: ObsArgs {
                    explain: true,
                    ..ObsArgs::default()
                },
            }
        );
        // The standalone subcommand.
        let parsed =
            parse_args(&s(&["explain", "--model", "m", "--threads", "2", "1 egg"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Explain {
                model: "m".into(),
                phrases: vec!["1 egg".into()],
                threads: 2,
            }
        );
        assert_eq!(
            parse_args(&s(&["explain", "--model", "m"])),
            Err(ArgsError::MissingPositional("phrase"))
        );
        // `--explain` is rejected where there is no extraction to explain.
        for cmd in [
            vec!["train", "--out", "x", "--explain"],
            vec!["lint", "--explain"],
        ] {
            assert_eq!(
                parse_args(&s(&cmd)),
                Err(ArgsError::UnexpectedArg("--explain".into())),
                "{cmd:?}"
            );
        }
    }

    #[test]
    fn parses_bench_diff() {
        let parsed = parse_args(&s(&["bench-diff"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::BenchDiff(BenchDiffOptions::default())
        );
        let parsed = parse_args(&s(&[
            "bench-diff",
            "--history",
            "h.jsonl",
            "--benchmark",
            "inference_throughput",
            "--warn-pct",
            "2.5",
            "--fail-pct",
            "20",
            "--smoke",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::BenchDiff(BenchDiffOptions {
                history: "h.jsonl".into(),
                benchmark: Some("inference_throughput".into()),
                warn_pct: Some(2.5),
                fail_pct: Some(20.0),
                smoke: true,
            })
        );
        assert_eq!(
            parse_args(&s(&["bench-diff", "--warn-pct", "-3"])),
            Err(ArgsError::BadValue("warn-pct", "-3".into()))
        );
        assert_eq!(
            parse_args(&s(&["bench-diff", "--history"])),
            Err(ArgsError::MissingValue("history"))
        );
        assert_eq!(
            parse_args(&s(&["bench-diff", "extra"])),
            Err(ArgsError::UnexpectedArg("extra".into()))
        );
    }

    #[test]
    fn parses_monitor_subcommand() {
        let parsed = parse_args(&s(&["monitor"])).unwrap();
        assert_eq!(parsed.command, Command::Monitor(MonitorOptions::default()));
        // `--once` is boolean: the flag after it must still parse.
        let parsed = parse_args(&s(&[
            "monitor",
            "--once",
            "--addr",
            "127.0.0.1:9000",
            "--interval-ms",
            "500",
            "--count",
            "3",
            "--out",
            "snap.jsonl",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Monitor(MonitorOptions {
                addr: "127.0.0.1:9000".into(),
                interval_ms: 500,
                count: Some(3),
                out: Some("snap.jsonl".into()),
                once: true,
            })
        );
        assert_eq!(
            parse_args(&s(&["monitor", "--count", "0"])),
            Err(ArgsError::BadValue("count", "0".into()))
        );
        assert_eq!(
            parse_args(&s(&["monitor", "--addr"])),
            Err(ArgsError::MissingValue("addr"))
        );
        assert_eq!(
            parse_args(&s(&["monitor", "extra"])),
            Err(ArgsError::UnexpectedArg("extra".into()))
        );
    }

    #[test]
    fn parses_profile_out_flag() {
        let parsed = parse_args(&s(&[
            "extract",
            "--model",
            "m",
            "--profile-out",
            "prof.json",
            "1 egg",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Extract {
                model: "m".into(),
                phrases: vec!["1 egg".into()],
                threads: 0,
                no_cache: false,
                quantized: false,
                obs: ObsArgs {
                    profile_out: Some("prof.json".into()),
                    ..ObsArgs::default()
                },
            }
        );
        let parsed = parse_args(&s(&[
            "train",
            "--out",
            "m.json",
            "--profile-out",
            "prof.json",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Train {
                out: "m.json".into(),
                recipes: 1000,
                seed: 42,
                threads: 0,
                obs: ObsArgs {
                    profile_out: Some("prof.json".into()),
                    ..ObsArgs::default()
                },
            }
        );
    }

    #[test]
    fn parses_profile_subcommand() {
        let parsed = parse_args(&s(&["profile", "prof.json"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Profile(ProfileOptions {
                path: "prof.json".into(),
                ..ProfileOptions::default()
            })
        );
        // `--fold` is boolean: flags after it must still parse.
        let parsed = parse_args(&s(&[
            "profile",
            "--fold",
            "before.json",
            "--diff",
            "after.json",
            "--top",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Profile(ProfileOptions {
                path: "before.json".into(),
                fold: true,
                diff: Some("after.json".into()),
                top: 3,
            })
        );
        assert_eq!(
            parse_args(&s(&["profile"])),
            Err(ArgsError::MissingPositional("profile file"))
        );
        assert_eq!(
            parse_args(&s(&["profile", "a.json", "b.json"])),
            Err(ArgsError::UnexpectedArg("b.json".into()))
        );
        assert_eq!(
            parse_args(&s(&["profile", "a.json", "--top", "0"])),
            Err(ArgsError::BadValue("top", "0".into()))
        );
        assert_eq!(
            parse_args(&s(&["profile", "a.json", "--diff"])),
            Err(ArgsError::MissingValue("diff"))
        );
        assert_eq!(
            parse_args(&s(&["profile", "a.json", "--bogus"])),
            Err(ArgsError::UnexpectedArg("--bogus".into()))
        );
    }

    #[test]
    fn parses_stats_subcommand() {
        let parsed = parse_args(&s(&["stats", "metrics.json"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Stats {
                path: "metrics.json".into()
            }
        );
        assert_eq!(
            parse_args(&s(&["stats"])),
            Err(ArgsError::MissingPositional("metrics file"))
        );
    }

    #[test]
    fn parses_compile_subcommand() {
        let parsed = parse_args(&s(&["compile", "--out", "m.rma"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Compile {
                model: None,
                out: "m.rma".into(),
                recipes: 1000,
                seed: 42,
                threads: 0,
            }
        );
        let parsed = parse_args(&s(&[
            "compile",
            "--model",
            "m.json",
            "--out",
            "m.rma",
            "--recipes",
            "50",
            "--seed",
            "7",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Compile {
                model: Some("m.json".into()),
                out: "m.rma".into(),
                recipes: 50,
                seed: 7,
                threads: 2,
            }
        );
        assert_eq!(
            parse_args(&s(&["compile", "--model", "m.json"])),
            Err(ArgsError::MissingFlag("out"))
        );
    }

    #[test]
    fn quantized_flag_does_not_eat_the_next_token() {
        // `--quantized` is boolean: the positional after it must survive.
        let parsed = parse_args(&s(&["extract", "--quantized", "--model", "m", "1 egg"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Extract {
                model: "m".into(),
                phrases: vec!["1 egg".into()],
                threads: 0,
                no_cache: false,
                quantized: true,
                obs: ObsArgs::default(),
            }
        );
    }

    #[test]
    fn parses_serve_subcommand() {
        let parsed = parse_args(&s(&["serve", "--model", "m.rma"])).unwrap();
        assert_eq!(
            parsed.command,
            Command::Serve {
                model: "m.rma".into(),
                addr: "127.0.0.1:7878".into(),
                threads: 0,
                quantized: false,
                queue_cap: 128,
                monitoring: true,
                drift_sample: 8,
                keepalive_max_requests: 64,
                keepalive_idle_ms: 5_000,
            }
        );
        let parsed = parse_args(&s(&[
            "serve",
            "--model",
            "m.rma",
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "4",
            "--quantized",
            "--queue-cap",
            "32",
            "--no-monitoring",
            "--drift-sample",
            "0",
            "--keepalive-max-requests",
            "8",
            "--keepalive-idle-ms",
            "1000",
        ]))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Serve {
                model: "m.rma".into(),
                addr: "0.0.0.0:9000".into(),
                threads: 4,
                quantized: true,
                queue_cap: 32,
                monitoring: false,
                drift_sample: 0,
                keepalive_max_requests: 8,
                keepalive_idle_ms: 1000,
            }
        );
        assert_eq!(
            parse_args(&s(&["extract", "--model", "m", "x", "--no-monitoring"])),
            Err(ArgsError::UnexpectedArg("--no-monitoring".into()))
        );
        // `--no-monitoring` is the one observability switch; any other
        // flag, such as the retired `--no-profiling`, is rejected rather
        // than paired with (and swallowing) the token after it.
        assert_eq!(
            parse_args(&s(&[
                "serve",
                "--model",
                "m.rma",
                "--no-profiling",
                "--addr",
                "0.0.0.0:9000",
            ])),
            Err(ArgsError::UnexpectedArg("--no-profiling".into()))
        );
        assert_eq!(
            parse_args(&s(&["serve", "--model", "m.rma", "stray"])),
            Err(ArgsError::UnexpectedArg("stray".into()))
        );
        assert_eq!(
            parse_args(&s(&["serve"])),
            Err(ArgsError::MissingFlag("model"))
        );
        for (flag, bad) in [
            ("queue-cap", "0"),
            ("queue-cap", "many"),
            ("keepalive-max-requests", "0"),
            ("keepalive-idle-ms", "soon"),
        ] {
            let dashed = format!("--{flag}");
            assert!(
                matches!(
                    parse_args(&s(&["serve", "--model", "m", &dashed, bad])),
                    Err(ArgsError::BadValue(_, _))
                ),
                "{flag}={bad}"
            );
        }
    }

    #[test]
    fn unknown_flags_are_rejected_in_every_subcommand() {
        // An unknown flag no longer swallows the token after it, and a
        // trailing one is no longer accepted.
        for cmd in [
            vec!["train", "--out", "m.json", "--bogus", "1"],
            vec!["generate", "--out", "d", "--bogus"],
            vec!["compile", "--out", "m.rma", "--bogus", "x"],
            vec!["extract", "--model", "m.json", "--bogus", "2 cups flour"],
            vec!["extract", "--model", "m.json", "2 cups flour", "--bogus"],
            vec!["explain", "--model", "m.json", "--bogus", "1 egg"],
            vec!["mine", "--model", "m.json", "--bogus", "r.txt"],
            vec!["stats", "metrics.json", "--bogus"],
            vec!["serve", "--model", "m.rma", "--bogus", "x"],
        ] {
            assert_eq!(
                parse_args(&s(&cmd)),
                Err(ArgsError::UnexpectedArg("--bogus".into())),
                "{cmd:?}"
            );
        }
        // The retired SLO knobs are unknown flags now.
        for flag in ["--slo-availability", "--slo-latency-ms"] {
            assert_eq!(
                parse_args(&s(&["serve", "--model", "m.rma", flag, "0.99"])),
                Err(ArgsError::UnexpectedArg(flag.into()))
            );
        }
        // A flag accepted elsewhere is still unknown here.
        assert_eq!(
            parse_args(&s(&["generate", "--out", "d", "--threads", "2"])),
            Err(ArgsError::UnexpectedArg("--threads".into()))
        );
    }

    #[test]
    fn value_flags_without_a_value_and_stray_positionals_are_rejected() {
        assert_eq!(
            parse_args(&s(&["extract", "2 cups", "--model"])),
            Err(ArgsError::MissingValue("model"))
        );
        assert_eq!(
            parse_args(&s(&["train", "--out"])),
            Err(ArgsError::MissingValue("out"))
        );
        assert_eq!(
            parse_args(&s(&["mine", "r.txt", "--threads"])),
            Err(ArgsError::MissingValue("threads"))
        );
        for (cmd, stray) in [
            (vec!["train", "--out", "m.json", "stray"], "stray"),
            (vec!["generate", "--out", "d", "stray"], "stray"),
            (vec!["compile", "--out", "m.rma", "stray"], "stray"),
            (vec!["stats", "a.json", "b.json"], "b.json"),
        ] {
            assert_eq!(
                parse_args(&s(&cmd)),
                Err(ArgsError::UnexpectedArg(stray.into())),
                "{cmd:?}"
            );
        }
    }

    #[test]
    fn quantized_flag_rejected_elsewhere() {
        for cmd in [
            vec!["train", "--out", "x", "--quantized"],
            vec!["compile", "--out", "x.rma", "--quantized"],
            vec!["mine", "--model", "m", "r.txt", "--quantized"],
            vec!["lint", "--quantized"],
        ] {
            assert_eq!(
                parse_args(&s(&cmd)),
                Err(ArgsError::UnexpectedArg("--quantized".into())),
                "{cmd:?}"
            );
        }
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse_args(&s(&[h])).unwrap().command, Command::Help);
        }
    }
}

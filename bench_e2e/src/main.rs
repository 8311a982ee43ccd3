//! End-to-end benchmark of the paper's three SmartBlock workflows.
//!
//! ```text
//! bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench-e2e --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! untraced and then traced and prints the per-layer metrics. The last line
//! of standard output is the result object; the line before it carries the
//! host diagnostics and sample counts. See `README.md` next to this crate
//! for the workloads, the metric definitions and the held-out seed.

mod host;
mod json;
mod layers;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::Metric;
use layers::{median, ms, percentile};
use workload::{run_once, Backend, RunRecord, RunSpec, StopRule, Workload};

/// Seed kept out of every tuning run, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 48_271;

/// Seed of the self-test's smoke runs.
const SMOKE_SEED: u64 = 1;

/// Full stack set-ups per invocation that stop after step 0, on top of the
/// timed segments' own; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 4;

/// A timed run is this many segments, each a fresh stack running for an
/// equal share of `--seconds`. On a small shared host one stack instance
/// can settle into a faster or slower thread schedule for its whole life;
/// fresh stacks sample that instead of betting the run on one.
const SEGMENTS: usize = 10;

/// Fresh processes whose peak resident set `peak_rss_mb` is the median of.
const RSS_PROBES: usize = 3;

/// Steady-state steps an RSS probe runs after its warm-up.
const RSS_PROBE_STEPS: u64 = 20;

/// Steady-state blocks `pipeline_mb_s` is the median of.
const RATE_BLOCKS: usize = 10;

/// Steps whose sim chunks the traced run keeps for the codec replay.
const CAPTURE_STEPS: u64 = 8;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_mb_s", "MB/s"),
    ("step_lat_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Analysis stages the per-layer set covers over all workloads, with their
/// `<label>.compute_ms_per_step` and `<label>.wait_ms_per_step` names.
const STAGES: &[(&str, &str, &str)] = &[
    (
        "select",
        "select.compute_ms_per_step",
        "select.wait_ms_per_step",
    ),
    (
        "magnitude",
        "magnitude.compute_ms_per_step",
        "magnitude.wait_ms_per_step",
    ),
    (
        "dim-reduce",
        "dim-reduce.compute_ms_per_step",
        "dim-reduce.wait_ms_per_step",
    ),
    (
        "dim-reduce-2",
        "dim-reduce-2.compute_ms_per_step",
        "dim-reduce-2.wait_ms_per_step",
    ),
    (
        "histogram",
        "histogram.compute_ms_per_step",
        "histogram.wait_ms_per_step",
    ),
];

/// Per-layer metrics (`--trace 1`), with units.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    let mut v = vec![
        ("sims.init_ms", "ms"),
        ("sims.substep_ms_per_step", "ms"),
        ("sims.output_chunk_ms_per_step", "ms"),
        ("host.sim_only_ms_per_step", "ms"),
        ("host.steal_frac", "fraction"),
        ("process.cpu_ms_per_step", "ms"),
        ("step_lat_p90_ms", "ms"),
        ("throughput_mb_s", "MB/s"),
        ("stream.connect_ms", "ms"),
        ("stream.begin_step_ms", "ms"),
        ("stream.put_ms", "ms"),
        ("stream.end_step_ms", "ms"),
        ("stream.source_blocked_frac", "fraction"),
        ("stream.sink_wait_ms_per_step", "ms"),
        ("stream.bytes_copied_per_step", "bytes"),
        ("stream.copies_elided_per_step", "count"),
        ("stream.zero_fills_elided_per_step", "count"),
        ("wire.writer_hop_bytes_per_step", "bytes"),
        ("wire.reader_hop_bytes_per_step", "bytes"),
        ("wire_mb_per_step", "MB"),
        ("wire.lz_ratio", "ratio"),
        ("wire.encode_ms_per_step", "ms"),
        ("wire.decode_ms_per_step", "ms"),
        ("wire.lz_compress_ms_per_step", "ms"),
        ("wire.lz_decompress_ms_per_step", "ms"),
        ("fabric.raw_loopback_mb_s", "MB/s"),
        ("unattributed_ms_per_step", "ms"),
        ("trace.overhead_frac", "fraction"),
    ];
    for &(_, compute, wait) in STAGES {
        v.push((compute, "ms"));
        v.push((wait, "ms"));
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// Everything one invocation measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Host diagnostics and sample counts, printed before the result.
    pub info: BTreeMap<&'static str, f64>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-test") {
        return match self_test() {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some(RSS_PROBE_FLAG) {
        return match rss_probe(&argv[1..]) {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench-e2e {RSS_PROBE_FLAG}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            eprintln!(
                "usage: bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> | --self-test"
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::cell(&args.workload) else {
        eprintln!(
            "bench-e2e: unknown workload {:?}: gated are {:?}; any \
             <lammps|gtcp|gromacs>-<inproc|tcp|shm>[-v1|-lz] cell runs ungated",
            args.workload,
            workload::GATED
        );
        return ExitCode::from(2);
    };
    let window = Duration::from_secs(args.seconds);
    match with_scratch(|dir| run_benchmark(&w, args.seed, window, args.trace, dir)) {
        Ok(out) => {
            println!("{}", info_line(&w, args.seed, &out.info));
            println!(
                "{}",
                json::result_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "bench-e2e: {} of {} steps failed the histogram check",
                    out.failed, out.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `f` with a scratch directory under the working directory for the
/// shm rendezvous, removed afterwards.
fn with_scratch<T>(f: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let dir = PathBuf::from(format!(".bench_e2e_run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn info_line(w: &Workload, seed: u64, info: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::number(*v)))
        .collect();
    format!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {seed}, {}}}}}",
        json::quote(&w.name),
        fields.join(", ")
    )
}

/// Runs one workload: set-ups, the timed run (and in trace mode the traced
/// run), the in-proc reference check, and the metrics of the mode.
pub fn run_benchmark(
    w: &Workload,
    seed: u64,
    window: Duration,
    trace: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let cpu0 = host::CpuTimes::now();
    let sim_only = layers::sim_only_ms_per_step(w, seed, Duration::from_millis(500));
    let spec = |stop, traced| RunSpec {
        workload: w,
        seed,
        stop,
        traced,
        capture: if traced {
            w.warmup_steps..w.warmup_steps + CAPTURE_STEPS
        } else {
            0..0
        },
        scratch,
    };
    let mut setups: Vec<RunRecord> = Vec::new();
    for _ in 0..SETUP_REPS {
        setups.push(run_once(&spec(StopRule::Steps(1), false))?);
    }
    // A `--trace 1` run gives half its window to untraced segments and half
    // to traced ones, so both modes take the same time.
    let per_mode = if trace { SEGMENTS / 2 } else { SEGMENTS };
    let segment = StopRule::Window {
        min_steps: w.warmup_steps + w.min_steady_steps.div_ceil(per_mode as u64),
        window: window / SEGMENTS as u32,
    };
    let segments = |traced| -> Result<Vec<RunRecord>, String> {
        (0..per_mode)
            .map(|_| run_once(&spec(segment, traced)))
            .collect()
    };
    let timed = segments(false)?;
    let traced = if trace { segments(true)? } else { Vec::new() };
    let cpu1 = host::CpuTimes::now();
    let peak_rss = if trace {
        0.0
    } else {
        median(
            &(0..RSS_PROBES)
                .map(|_| peak_rss_probe(w, seed))
                .collect::<Result<Vec<_>, _>>()?,
        )
    };
    let runs: Vec<&RunRecord> = setups.iter().chain(&timed).chain(&traced).collect();

    // Correctness, outside every timed region.
    let max_steps = runs.iter().map(|r| r.steps()).max().unwrap_or(0);
    let reference = w.reference(seed, max_steps.min(w.episode_steps));
    let (mut attempted, mut failed) = (0u64, 0u64);
    for run in &runs {
        let (a, f) = check(run, &reference);
        attempted += a;
        failed += f;
    }

    let setup_s: Vec<f64> = runs.iter().map(|r| r.setup.as_secs_f64()).collect();
    let e2e = EndToEnd::combine(w, &timed)?;
    let mut info = BTreeMap::new();
    info.insert("nproc", host::nproc() as f64);
    info.insert("host.steal_frac", cpu1.steal_frac_since(&cpu0));
    info.insert("host.sim_only_ms_per_step", sim_only);
    info.insert("segments", timed.len() as f64);
    info.insert("steps", timed.iter().map(|r| r.steps()).sum::<u64>() as f64);
    info.insert("lat_samples", e2e.latencies.len() as f64);
    info.insert("setup_samples", setup_s.len() as f64);

    let mut metrics = BTreeMap::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64| {
        metrics.insert(name, Metric { value, unit });
    };
    if !trace {
        put("setup_s", "s", median(&setup_s));
        put("pipeline_mb_s", "MB/s", e2e.pipeline_mb_s);
        put("step_lat_p50_ms", "ms", percentile(&e2e.latencies, 0.5));
        put("peak_rss_mb", "MB", peak_rss);
    } else {
        let t = EndToEnd::combine(w, &traced)?;
        info.insert("traced_lat_samples", t.latencies.len() as f64);
        // Each per-layer figure is its median over the traced segments.
        let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for run in &traced {
            let seg = EndToEnd::of(w, run).ok_or("a traced segment has no steady-state steps")?;
            for (k, v) in per_layer_metrics(w, run, &seg) {
                layer.entry(k).or_default().push(v);
            }
        }
        for (name, unit) in per_layer() {
            let value = match name {
                "host.sim_only_ms_per_step" => sim_only,
                "host.steal_frac" => cpu1.steal_frac_since(&cpu0),
                "process.cpu_ms_per_step" => e2e.cpu_ms_per_step,
                "step_lat_p90_ms" => percentile(&e2e.latencies, 0.9),
                "throughput_mb_s" => e2e.throughput_mb_s,
                "trace.overhead_frac" => t.ms_per_step / e2e.ms_per_step - 1.0,
                _ => median(
                    layer
                        .get(name)
                        .ok_or_else(|| format!("per-layer metric {name} was not computed"))?,
                ),
            };
            put(name, unit, value);
        }
    }
    let finite = metrics.values().all(|m| m.value.is_finite());
    Ok(Outcome {
        correct: failed == 0 && finite,
        attempted,
        failed,
        metrics,
        info,
    })
}

/// First argument of this binary's own child processes that measure memory.
const RSS_PROBE_FLAG: &str = "--rss-probe";

/// `VmHWM` in MB of a fresh process of this binary that builds `w`'s stack
/// and runs it for its warm-up plus [`RSS_PROBE_STEPS`] steps: what one
/// workflow process of the workload holds at its peak.
fn peak_rss_probe(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([RSS_PROBE_FLAG, &w.name, &seed.to_string()])
        .arg(if w.smoke { "smoke" } else { "full" })
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the RSS probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(mb)) => Ok(mb),
        _ => Err(format!(
            "{}: the RSS probe failed: {}",
            w.name,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// The child side of [`peak_rss_probe`]: `<workload> <seed> <smoke|full>`.
fn rss_probe(args: &[String]) -> Result<f64, String> {
    let [name, seed, size] = args else {
        return Err("expects <workload> <seed> <smoke|full>".into());
    };
    let w = workload::cell(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let w = if size == "smoke" { w.smoke() } else { w };
    let seed = seed.parse().map_err(|_| "seed must be a whole number")?;
    with_scratch(|dir| {
        run_once(&RunSpec {
            workload: &w,
            seed,
            stop: StopRule::Steps(w.warmup_steps + RSS_PROBE_STEPS),
            traced: false,
            capture: 0..0,
            scratch: dir,
        })
    })?;
    Ok(host::peak_rss_mb())
}

/// Compares every step the sink received with the reference (one episode
/// long); returns `(attempted, failed)`. A step counts as failed when its
/// histogram is missing, or its counts or bin edges differ from the
/// reference's for the same step of the episode.
fn check(run: &RunRecord, reference: &[smartblock::HistogramResult]) -> (u64, u64) {
    let steps = run.steps();
    let by_step: BTreeMap<u64, &workload::Arrival> =
        run.arrivals.iter().map(|a| (a.step, a)).collect();
    let failed = (0..steps)
        .filter(|s| {
            let want = reference.get(*s as usize % reference.len().max(1));
            let (Some(got), Some(want)) = (by_step.get(s), want) else {
                return true;
            };
            let nb = want.counts.len();
            let edges: Vec<f64> = (0..=nb)
                .map(|i| want.min + (want.max - want.min) * i as f64 / nb as f64)
                .collect();
            let same_edges = got.edges.len() == edges.len()
                && got
                    .edges
                    .iter()
                    .zip(&edges)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            got.counts != want.counts || !same_edges
        })
        .count() as u64;
    (steps, failed)
}

/// Steady-state end-to-end figures of one run, or of several combined.
struct EndToEnd {
    /// Commit-to-arrival latency of each steady step, ms.
    latencies: Vec<f64>,
    /// Sim output MB per second of wall time outside the simulation's own
    /// substeps.
    pipeline_mb_s: f64,
    /// The same over the whole wall time, the simulation's substeps
    /// included.
    throughput_mb_s: f64,
    /// Mean wall time per steady step, ms.
    ms_per_step: f64,
    /// Process CPU time per steady step, ms.
    cpu_ms_per_step: f64,
}

impl EndToEnd {
    /// Segments combined: latencies pooled, pipeline rate and time per step
    /// the median over segments.
    fn combine(w: &Workload, runs: &[RunRecord]) -> Result<EndToEnd, String> {
        let each = runs
            .iter()
            .map(|r| EndToEnd::of(w, r).ok_or("a timed segment has no steady-state steps"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EndToEnd {
            latencies: each
                .iter()
                .flat_map(|e| e.latencies.iter().copied())
                .collect(),
            pipeline_mb_s: median(&each.iter().map(|e| e.pipeline_mb_s).collect::<Vec<_>>()),
            throughput_mb_s: median(&each.iter().map(|e| e.throughput_mb_s).collect::<Vec<_>>()),
            ms_per_step: median(&each.iter().map(|e| e.ms_per_step).collect::<Vec<_>>()),
            cpu_ms_per_step: median(&each.iter().map(|e| e.cpu_ms_per_step).collect::<Vec<_>>()),
        })
    }

    fn of(w: &Workload, run: &RunRecord) -> Option<EndToEnd> {
        let steps = run.steps() as usize;
        let first = w.warmup_steps as usize;
        if steps <= first + 1 {
            return None;
        }
        let commits = run.commits();
        let arrived: BTreeMap<u64, std::time::Instant> =
            run.arrivals.iter().map(|a| (a.step, a.at)).collect();
        let arrived_cpu: BTreeMap<u64, Duration> =
            run.arrivals.iter().map(|a| (a.step, a.cpu)).collect();
        let at = |s: usize| arrived.get(&(s as u64)).copied();
        let latencies: Vec<f64> = (first..steps)
            .filter_map(|s| at(s).map(|a| ms(a.saturating_duration_since(commits[s]))))
            .collect();
        // Pipeline rate: median over blocks of consecutive steady steps, each
        // block's bytes over the time between the arrivals bounding it less
        // the simulation's own substeps in between.
        let n = steps - first;
        let blocks = RATE_BLOCKS.min(n / 10).max(1);
        let bound = |b: usize| first - 1 + b * n / blocks;
        let (mut rates, mut cycle_rates) = (Vec::new(), Vec::new());
        for b in 0..blocks {
            let (k0, k1) = (bound(b), bound(b + 1));
            let (Some(a0), Some(a1)) = (at(k0), at(k1)) else {
                continue;
            };
            let bytes: u64 = (k0 + 1..=k1).map(|s| run.step_bytes(s)).sum();
            let sim: Duration = (k0 + 1..=k1).map(|s| run.sim_time(s)).sum();
            rates.push(bytes as f64 / 1e6 / (a1 - a0).saturating_sub(sim).as_secs_f64());
            cycle_rates.push(bytes as f64 / 1e6 / (a1 - a0).as_secs_f64());
        }
        let (a0, a1) = (at(first - 1)?, at(steps - 1)?);
        let cpu = |s: usize| arrived_cpu.get(&(s as u64)).copied();
        let (c0, c1) = (cpu(first - 1)?, cpu(steps - 1)?);
        Some(EndToEnd {
            latencies,
            pipeline_mb_s: median(&rates),
            throughput_mb_s: median(&cycle_rates),
            ms_per_step: ms(a1 - a0) / n as f64,
            cpu_ms_per_step: ms(c1.saturating_sub(c0)) / n as f64,
        })
    }
}

/// Per-layer figures of one traced segment `run`, whose end-to-end figures
/// are `traced`.
fn per_layer_metrics(
    w: &Workload,
    run: &RunRecord,
    traced: &EndToEnd,
) -> BTreeMap<&'static str, f64> {
    let steps = run.steps() as usize;
    let first = w.warmup_steps as usize;
    let steady = (steps - first) as f64;
    let mut m = BTreeMap::new();
    // Mean over source ranks of the mean steady-step duration of a call.
    let per_step = |pick: fn(&workload::RankLog) -> &Vec<Duration>| {
        let ranks = run.logs.len() as f64;
        run.logs
            .iter()
            .map(|l| pick(l)[first..steps].iter().map(|d| ms(*d)).sum::<f64>() / steady)
            .sum::<f64>()
            / ranks
    };
    m.insert(
        "sims.init_ms",
        run.logs.iter().map(|l| ms(l.init)).fold(0.0, f64::max),
    );
    m.insert("sims.substep_ms_per_step", per_step(|l| &l.substep));
    m.insert(
        "sims.output_chunk_ms_per_step",
        per_step(|l| &l.output_chunk),
    );
    m.insert("stream.connect_ms", ms(run.connect));
    m.insert("stream.begin_step_ms", per_step(|l| &l.begin));
    m.insert("stream.put_ms", per_step(|l| &l.put));
    m.insert("stream.end_step_ms", per_step(|l| &l.end));
    let blocked: f64 = run
        .logs
        .iter()
        .map(|l| {
            let io: Duration = (first..steps)
                .map(|s| l.begin[s] + l.put[s] + l.end[s])
                .sum();
            let wall = l.committed[steps - 1] - l.started[first];
            io.as_secs_f64() / wall.as_secs_f64()
        })
        .sum::<f64>()
        / run.logs.len() as f64;
    m.insert("stream.source_blocked_frac", blocked);

    let report = &run.report;
    let all = steps as f64;
    let comp_ms = |label: &str, what: fn(&smartblock::ComponentStats) -> Duration| {
        report
            .component(label)
            .map(|c| ms(what(&c.stats)) / c.stats.steps.max(1) as f64)
            .unwrap_or(0.0)
    };
    m.insert(
        "stream.sink_wait_ms_per_step",
        comp_ms("sink", |s| s.wait_time),
    );
    let sum = |f: fn(&sb_stream::StreamMetrics) -> u64| -> f64 {
        report.streams.iter().map(f).sum::<u64>() as f64
    };
    m.insert(
        "stream.bytes_copied_per_step",
        sum(|s| s.bytes_copied) / all,
    );
    m.insert(
        "stream.copies_elided_per_step",
        sum(|s| s.copies_elided) / all,
    );
    m.insert(
        "stream.zero_fills_elided_per_step",
        sum(|s| s.zero_fills_elided) / all,
    );
    let writer_hop = sum(|s| s.wire_writer_bytes) / all;
    let reader_hop = sum(|s| s.wire_reader_bytes) / all;
    m.insert("wire.writer_hop_bytes_per_step", writer_hop);
    m.insert("wire.reader_hop_bytes_per_step", reader_hop);
    m.insert("wire_mb_per_step", (writer_hop + reader_hop) / 1e6);
    let uncompressed = sum(|s| s.wire_uncompressed_bytes);
    m.insert(
        "wire.lz_ratio",
        if uncompressed > 0.0 {
            sum(|s| s.wire_compressed_bytes) / uncompressed
        } else {
            1.0
        },
    );
    let mut stage_compute = 0.0;
    for &(stage, compute_name, wait_name) in STAGES {
        let compute = comp_ms(stage, |s| s.compute_time);
        stage_compute += compute;
        m.insert(compute_name, compute);
        m.insert(wait_name, comp_ms(stage, |s| s.wait_time));
    }

    // Codec: the captured sim chunks replayed, scaled to the path. Each
    // remote stream costs one encode and one decode per hop (writer ->
    // broker, broker -> reader), weighted by its bytes relative to the sim
    // stream's: `hops = sum over streams of 2 * bytes(stream) / bytes(sim)`.
    let remote = w.backend != Backend::InProc;
    let codec = if remote {
        let captured_steps = run.captured.len() / w.sim_ranks;
        layers::replay_codec(&run.captured, captured_steps, Duration::from_millis(150))
    } else {
        layers::CodecCost::default()
    };
    let sim_bytes = report
        .streams
        .iter()
        .find(|s| s.stream == w.sim_stream())
        .map(|s| s.bytes_written as f64)
        .unwrap_or(0.0);
    let hops = if remote && sim_bytes > 0.0 {
        report
            .streams
            .iter()
            .map(|s| 2.0 * s.bytes_written as f64 / sim_bytes)
            .sum::<f64>()
    } else {
        0.0
    };
    let lz_hops = if w.compression == sb_stream::Compression::Lz {
        hops
    } else {
        0.0
    };
    m.insert("wire.encode_ms_per_step", codec.encode_ms * hops);
    m.insert("wire.decode_ms_per_step", codec.decode_ms * hops);
    m.insert(
        "wire.lz_compress_ms_per_step",
        codec.lz_compress_ms * lz_hops,
    );
    m.insert(
        "wire.lz_decompress_ms_per_step",
        codec.lz_decompress_ms * lz_hops,
    );
    // The source's own encode (and compress) happens before its step
    // commits, so it is not part of the step latency.
    let pre_commit = if remote { 1.0 } else { 0.0 };
    let codec_after_commit = codec.encode_ms * (hops - pre_commit).max(0.0)
        + codec.decode_ms * hops
        + codec.lz_compress_ms * (lz_hops - pre_commit).max(0.0)
        + codec.lz_decompress_ms * lz_hops;
    m.insert(
        "unattributed_ms_per_step",
        percentile(&traced.latencies, 0.5) - stage_compute - codec_after_commit,
    );

    let payload: Vec<u8> = run
        .captured
        .iter()
        .take(w.sim_ranks)
        .flat_map(|c| c.data.to_le_bytes())
        .collect();
    m.insert(
        "fabric.raw_loopback_mb_s",
        layers::raw_loopback_mb_s(&payload, Duration::from_millis(150)),
    );
    m
}

/// Runs every workload at smoke size in both modes and checks that each
/// metric of `BENCHMARK.json` (and of this binary's catalogue) is emitted
/// with its unit, parses, and that every histogram matched.
fn self_test() -> Result<(), String> {
    let declared = declared_metrics()?;
    let per_layer = per_layer();
    for (mode, catalogue) in [(false, END_TO_END.to_vec()), (true, per_layer)] {
        let key = if mode { "per_layer" } else { "end_to_end" };
        let names: Vec<(String, String)> = catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if let Some(d) = declared.get(key) {
            let mut a = names.clone();
            let mut b = d.clone();
            a.sort();
            b.sort();
            if a != b {
                return Err(format!(
                    "BENCHMARK.json {key} differs from the binary's catalogue"
                ));
            }
        }
        for name in workload::GATED {
            let w = workload::cell(name).expect("gated names are cells");
            let smoke = w.smoke();
            let out = with_scratch(|dir| {
                run_benchmark(&smoke, SMOKE_SEED, Duration::from_secs(1), mode, dir)
            })?;
            let line = json::result_line(out.correct, out.attempted, out.failed, &out.metrics);
            let parsed = json::parse(&line).map_err(|e| format!("{}: {e}", w.name))?;
            if parsed.get("correct") != Some(&json::Value::Bool(true)) {
                return Err(format!(
                    "{} ({key}): histogram check failed: {line}",
                    w.name
                ));
            }
            let metrics = parsed.get("metrics").ok_or("no metrics object")?;
            for (name, unit) in &names {
                let m = metrics
                    .get(name)
                    .ok_or_else(|| format!("{} ({key}): {name} missing", w.name))?;
                let v = m.get("value").and_then(json::Value::as_f64);
                if !v.is_some_and(f64::is_finite) {
                    return Err(format!("{} ({key}): {name} has no finite value", w.name));
                }
                if m.get("unit").and_then(json::Value::as_str) != Some(unit) {
                    return Err(format!("{} ({key}): {name} lacks unit {unit}", w.name));
                }
            }
            println!("{} {key}: {} metrics ok", w.name, names.len());
        }
    }
    Ok(())
}

/// `(name, unit)` lists by `BENCHMARK.json` key.
type Declared = BTreeMap<&'static str, Vec<(String, String)>>;

/// `(name, unit)` lists from `BENCHMARK.json`, when it is found next to the
/// working directory or this crate.
fn declared_metrics() -> Result<Declared, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let Some(text) = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
    else {
        return Ok(BTreeMap::new());
    };
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        let list = doc
            .get(key)
            .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?
            .as_array()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(json::Value::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or("metric without name or unit")
            })
            .collect::<Result<Vec<_>, _>>()?;
        out.insert(key, list);
    }
    Ok(out)
}

//! The three gated workloads and the machinery that runs one of them: the
//! benchmark-owned simulation source, the histogram sink, the transport
//! stack (in-proc hub, TCP broker or shm broker served from this process)
//! and the in-proc reference the histograms are checked against.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sb_comm::Communicator;
use sb_data::{Buffer, Chunk};
use sb_sims::{GromacsConfig, GromacsSim, GtcpConfig, GtcpSim, LammpsConfig, LammpsSim, SimRank};
use sb_stream::{
    Compression, ShmBroker, ShmOptions, StreamHub, TcpBroker, TcpOptions, TraceConfig,
    WireProtocol, WriterOptions,
};
use smartblock::launch::SimCode;
use smartblock::workflows::{
    gromacs_workflow_on, gtcp_workflow_on, lammps_workflow_on, PresetScale,
};
use smartblock::{
    Component, ComponentResult, ComponentStats, DimReduce, Histogram, HistogramResult, Magnitude,
    RunOptions, Select, Workflow, WorkflowReport,
};

/// Which transport the workflow's streams cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One in-proc hub: steps move by `Arc`, nothing is serialized.
    InProc,
    /// Loopback TCP to a broker served from this process.
    Tcp,
    /// Shared-memory rings to a broker served from this process.
    Shm,
}

/// One workload: a paper workflow on one backend at one size — one cell of
/// the workflow x backend x wire-protocol matrix.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub code: SimCode,
    pub backend: Backend,
    /// Wire revision and payload codec on the remote backends.
    pub protocol: WireProtocol,
    pub compression: Compression,
    pub sim_ranks: usize,
    pub substeps: u64,
    /// Size parameters in the `smartblock::workflows` preset vocabulary
    /// (`nx`/`ny`, `slices`/`points`, `chains`/`len`).
    pub sizes: Vec<(&'static str, usize)>,
    /// Steps excluded from every steady-state figure.
    pub warmup_steps: u64,
    /// Steady-state steps a timed run makes at least, whatever `--seconds`.
    pub min_steady_steps: u64,
    /// The source rebuilds its simulation from the initial state every this
    /// many steps, so the cost per step stays stationary however long a run
    /// lasts (the LAMMPS crack's step cost otherwise grows about 4x over its
    /// first 200 steps as the plate fractures). Step `s` therefore carries
    /// the output of step `s % episode_steps` of one continuous run.
    pub episode_steps: u64,
    /// Shrunk to the self-test's smoke size.
    pub smoke: bool,
}

/// The gated workloads: three pinned cells of the matrix (rationale in the
/// benchmark README).
pub const GATED: [&str; 3] = ["lammps-inproc", "gtcp-inproc", "gromacs-shm-lz"];

/// Parses a matrix cell `<lammps|gtcp|gromacs>-<inproc|tcp|shm>[-v1|-lz]`:
/// remote cells run wire v2 uncompressed unless a suffix says otherwise.
/// Sizes, ranks and substeps depend on the workflow only.
pub fn cell(name: &str) -> Option<Workload> {
    let mut parts = name.split('-');
    let code = match parts.next()? {
        "lammps" => SimCode::Lammps,
        "gtcp" => SimCode::Gtcp,
        "gromacs" => SimCode::Gromacs,
        _ => return None,
    };
    let backend = match parts.next()? {
        "inproc" => Backend::InProc,
        "tcp" => Backend::Tcp,
        "shm" => Backend::Shm,
        _ => return None,
    };
    let (protocol, compression) = match parts.next() {
        None => (WireProtocol::V2, Compression::None),
        Some("v1") if backend != Backend::InProc => (WireProtocol::V1, Compression::None),
        Some("lz") if backend != Backend::InProc => (WireProtocol::V2, Compression::Lz),
        Some(_) => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    let (sim_ranks, substeps, sizes, warmup_steps, episode_steps) = match code {
        // 160 x 160 lattice, about 25600 atoms x 5 f64 = 1 MB per step, so
        // the pipeline's trip takes milliseconds; 4 substeps, and the
        // simulation still dominates the step.
        SimCode::Lammps => (2, 4, vec![("nx", 160), ("ny", 160)], 5, 250),
        // 140 x 280 x 7 f64 = 2.2 MB per step, one substep: moving the
        // step costs more than computing it.
        SimCode::Gtcp => (1, 1, vec![("slices", 140), ("points", 280)], 5, 200),
        // 264 chains x 16 beads x 3 f64 = 101 KB per step; with fewer than
        // 100 substeps the throughput spread between identical runs grew.
        SimCode::Gromacs => (2, 100, vec![("chains", 264), ("len", 16)], 10, 400),
    };
    Some(Workload {
        name: name.to_string(),
        code,
        backend,
        protocol,
        compression,
        sim_ranks,
        substeps,
        sizes,
        warmup_steps,
        min_steady_steps: 100,
        episode_steps,
        smoke: false,
    })
}

impl Workload {
    /// The same workload shrunk to a seconds-long smoke size.
    pub fn smoke(&self) -> Workload {
        let sizes = self
            .sizes
            .iter()
            .map(|&(k, v)| (k, if k == "len" { v } else { (v / 4).max(8) }))
            .collect();
        Workload {
            substeps: self.substeps.min(2),
            sizes,
            warmup_steps: 2,
            min_steady_steps: 10,
            episode_steps: 5,
            smoke: true,
            ..self.clone()
        }
    }

    fn size(&self, key: &str) -> usize {
        self.sizes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("workload {} has no size {key}", self.name))
    }

    /// Constructs one rank of the workload's simulation.
    pub fn make_sim(&self, seed: u64, rank: usize, nranks: usize) -> Box<dyn SimRank> {
        match self.code {
            SimCode::Lammps => Box::new(LammpsSim::new(
                LammpsConfig {
                    nx: self.size("nx"),
                    ny: self.size("ny"),
                    seed,
                    ..LammpsConfig::default()
                },
                rank,
                nranks,
            )),
            SimCode::Gtcp => Box::new(GtcpSim::new(
                GtcpConfig {
                    n_slices: self.size("slices"),
                    n_points: self.size("points"),
                    seed,
                    ..GtcpConfig::default()
                },
                rank,
                nranks,
            )),
            SimCode::Gromacs => Box::new(GromacsSim::new(
                GromacsConfig {
                    n_chains: self.size("chains"),
                    chain_len: self.size("len"),
                    seed,
                    ..GromacsConfig::default()
                },
                rank,
                nranks,
            )),
        }
    }

    /// The simulation's output stream, as the presets name it.
    pub fn sim_stream(&self) -> &'static str {
        match self.code {
            SimCode::Lammps => "dump.custom.fp",
            SimCode::Gtcp => "gtcp.fp",
            SimCode::Gromacs => "gromacs.fp",
        }
    }

    /// Adds the analysis pipeline of `smartblock::workflows`, one rank per
    /// stage, with the histogram also published on [`HIST_STREAM`].
    fn add_pipeline(&self, wf: &mut Workflow) {
        let hist =
            |input: (&str, &str)| Histogram::new(input, BINS).with_output_stream(HIST_STREAM);
        match self.code {
            SimCode::Lammps => {
                wf.add(
                    1,
                    Select::new(
                        ("dump.custom.fp", "atoms"),
                        1,
                        ["vx", "vy", "vz"],
                        ("lmpselect.fp", "lmpsel"),
                    ),
                );
                wf.add(
                    1,
                    Magnitude::new(("lmpselect.fp", "lmpsel"), ("velos.fp", "velocities")),
                );
                wf.add(1, hist(("velos.fp", "velocities")));
            }
            SimCode::Gtcp => {
                wf.add(
                    1,
                    Select::new(("gtcp.fp", "plasma"), 2, ["P_perp"], ("psel.fp", "pperp")),
                );
                wf.add(
                    1,
                    DimReduce::new(("psel.fp", "pperp"), 2, 1, ("dr1.fp", "flat2")),
                );
                wf.add(
                    1,
                    DimReduce::new(("dr1.fp", "flat2"), 0, 1, ("dr2.fp", "flat1")),
                );
                wf.add(1, hist(("dr2.fp", "flat1")));
            }
            SimCode::Gromacs => {
                wf.add(
                    1,
                    Magnitude::new(("gromacs.fp", "coords"), ("gmag.fp", "radii")),
                );
                wf.add(1, hist(("gmag.fp", "radii")));
            }
        }
    }

    /// The canonical in-proc preset with the same seed, sizes and ranks,
    /// run for `steps` steps: the histograms every timed step must match.
    pub fn reference(&self, seed: u64, steps: u64) -> Vec<HistogramResult> {
        let mut scale = PresetScale {
            sim_ranks: self.sim_ranks,
            analysis_ranks: vec![1; 4],
            io_steps: steps,
            substeps: self.substeps,
            bins: BINS,
            ..PresetScale::default()
        }
        .size("seed", seed as usize);
        for &(k, v) in &self.sizes {
            scale = scale.size(k, v);
        }
        let hub = StreamHub::with_timeout(scale.wait_timeout);
        let (wf, results) = match self.code {
            SimCode::Lammps => lammps_workflow_on(hub, &scale),
            SimCode::Gtcp => gtcp_workflow_on(hub, &scale),
            SimCode::Gromacs => gromacs_workflow_on(hub, &scale),
        };
        wf.run_with(RunOptions::new())
            .unwrap_or_else(|e| panic!("{} reference run failed: {e}", self.name));
        let out = results.lock().clone();
        out
    }
}

/// Histogram bins of every workload.
const BINS: usize = 16;

/// How long any stream read, or the source's wait for the sink, may block.
const HUB_TIMEOUT: Duration = Duration::from_secs(60);

/// Stream the histogram publishes on and the benchmark sink reads.
pub const HIST_STREAM: &str = "hist.fp";

/// How long a source keeps emitting steps.
#[derive(Debug, Clone, Copy)]
pub enum StopRule {
    /// Exactly this many steps.
    Steps(u64),
    /// At least `min_steps`, then until `window` has passed since the sink
    /// received step 0.
    Window { min_steps: u64, window: Duration },
}

/// Timings one source rank records, per step.
#[derive(Debug, Clone, Default)]
pub struct RankLog {
    pub init: Duration,
    pub open: Duration,
    pub substep: Vec<Duration>,
    pub output_chunk: Vec<Duration>,
    pub begin: Vec<Duration>,
    pub put: Vec<Duration>,
    pub end: Vec<Duration>,
    /// When `end_step` returned, per step.
    pub committed: Vec<Instant>,
    /// When the step's substeps began, per step.
    pub started: Vec<Instant>,
    pub bytes: Vec<u64>,
}

/// What a sink saw of one step.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub step: u64,
    pub at: Instant,
    /// Process CPU time when the step arrived.
    pub cpu: Duration,
    pub counts: Vec<u64>,
    pub edges: Vec<f64>,
}

/// State shared between the source ranks, the sink and `run_once`.
struct Shared {
    seed: u64,
    stop: StopRule,
    /// Steps whose chunks are kept for the codec replay (traced runs).
    capture: std::ops::Range<u64>,
    captured: Mutex<Vec<Chunk>>,
    logs: Mutex<BTreeMap<usize, RankLog>>,
    arrivals: Mutex<Vec<Arrival>>,
    /// Nanoseconds after `epoch` at which step 0 arrived (0 = not yet).
    first_arrival_ns: AtomicU64,
    epoch: Instant,
    /// Steps the sink has received, and its signal to a waiting source.
    received: std::sync::Mutex<u64>,
    received_cv: std::sync::Condvar,
}

/// The benchmark's simulation source: drives a real sim through its public
/// `SimRank` API and publishes through `StreamHub::open_writer`, timing
/// every call from outside. It is a closed loop with one step in flight:
/// a step's simulation starts once the sink has the previous histogram, so
/// the step's trip through the pipeline never competes with the next
/// step's compute or waits in a queue.
struct BenchSource {
    workload: Workload,
    shared: Arc<Shared>,
}

impl Component for BenchSource {
    fn label(&self) -> String {
        match self.workload.code {
            SimCode::Lammps => "lammps",
            SimCode::Gtcp => "gtcp",
            SimCode::Gromacs => "gromacs",
        }
        .to_string()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.workload.sim_stream().to_string()]
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let shared = &self.shared;
        let mut log = RankLog::default();
        let t = Instant::now();
        let mut sim = self
            .workload
            .make_sim(shared.seed, comm.rank(), comm.size());
        log.init = t.elapsed();
        let t = Instant::now();
        let mut writer = hub.open_writer(
            self.workload.sim_stream(),
            comm.rank(),
            comm.size(),
            WriterOptions::default(),
        );
        log.open = t.elapsed();
        let mut step = 0u64;
        let mut bytes_out = 0u64;
        loop {
            // Rank 0 waits for the previous step's histogram, decides, and
            // every rank follows, so all ranks emit the same number of steps.
            if comm.rank() == 0 {
                self.wait_for_sink(step);
            }
            let go = comm.broadcast(0, (comm.rank() == 0).then(|| self.keep_going(step)));
            if !go {
                break;
            }
            if step > 0 && step.is_multiple_of(self.workload.episode_steps) {
                sim = self
                    .workload
                    .make_sim(shared.seed, comm.rank(), comm.size());
            }
            let t0 = Instant::now();
            for _ in 0..self.workload.substeps {
                sim.substep(comm);
            }
            let t1 = Instant::now();
            let chunk = sim.output_chunk();
            let t2 = Instant::now();
            if shared.capture.contains(&step) {
                shared.captured.lock().push(chunk.clone());
            }
            let bytes = chunk.byte_len() as u64;
            let t3 = Instant::now();
            let io = (|| {
                writer.begin_step()?;
                let t4 = Instant::now();
                writer.put(chunk);
                let t5 = Instant::now();
                writer.end_step()?;
                Ok::<_, sb_stream::StreamError>((t4, t5))
            })();
            let (t4, t5) = match io {
                Ok(t) => t,
                Err(e) => {
                    writer.abandon();
                    return Err(smartblock::ComponentError::Stream {
                        label: self.label(),
                        step,
                        source: e,
                    });
                }
            };
            let t6 = Instant::now();
            log.started.push(t0);
            log.substep.push(t1 - t0);
            log.output_chunk.push(t2 - t1);
            log.begin.push(t4 - t3);
            log.put.push(t5 - t4);
            log.end.push(t6 - t5);
            log.committed.push(t6);
            log.bytes.push(bytes);
            bytes_out += bytes;
            step += 1;
        }
        writer.close();
        let io_time: Duration = log.begin.iter().chain(&log.put).chain(&log.end).sum();
        let compute_time: Duration = log.substep.iter().sum();
        shared.logs.lock().insert(comm.rank(), log);
        Ok(ComponentStats {
            steps: step,
            bytes_in: 0,
            bytes_out,
            step_times: Vec::new(),
            step_bytes_in: Vec::new(),
            wait_time: io_time,
            compute_time,
        })
    }
}

impl BenchSource {
    /// Blocks until the sink has received every step before `step`: one
    /// step is in flight at a time (or the hub's timeout has passed).
    fn wait_for_sink(&self, step: u64) {
        let received = self
            .shared
            .received
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let _ = self
            .shared
            .received_cv
            .wait_timeout_while(received, HUB_TIMEOUT, |r| *r < step);
    }

    fn keep_going(&self, step: u64) -> bool {
        match self.shared.stop {
            StopRule::Steps(n) => step < n,
            StopRule::Window { min_steps, window } => {
                if step < min_steps {
                    return true;
                }
                let first = self.shared.first_arrival_ns.load(Ordering::SeqCst);
                if first == 0 {
                    return true;
                }
                let first = self.shared.epoch + Duration::from_nanos(first);
                first.elapsed() < window
            }
        }
    }
}

/// A broker served from this process, kept alive for the stack's run.
enum Broker {
    Tcp(TcpBroker),
    Shm(ShmBroker),
}

impl Broker {
    fn shutdown(&mut self) {
        match self {
            Broker::Tcp(b) => b.shutdown(),
            Broker::Shm(b) => b.shutdown(),
        }
    }
}

/// Everything one run of a workload produced.
pub struct RunRecord {
    /// Workflow stack build start to the sink receiving step 0.
    pub setup: Duration,
    /// `StreamHub::connect*` plus the slowest source rank's `open_writer`.
    pub connect: Duration,
    pub logs: Vec<RankLog>,
    pub arrivals: Vec<Arrival>,
    pub captured: Vec<Chunk>,
    pub report: WorkflowReport,
}

impl RunRecord {
    /// Steps every source rank emitted.
    pub fn steps(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| l.committed.len() as u64)
            .min()
            .unwrap_or(0)
    }

    /// Per step, when the last source rank's `end_step` returned.
    pub fn commits(&self) -> Vec<Instant> {
        (0..self.steps() as usize)
            .map(|s| {
                self.logs
                    .iter()
                    .map(|l| l.committed[s])
                    .max()
                    .expect("a source rank")
            })
            .collect()
    }

    /// Wall time of step `s`'s substeps on the slowest source rank.
    pub fn sim_time(&self, s: usize) -> Duration {
        self.logs
            .iter()
            .map(|l| l.substep[s])
            .max()
            .unwrap_or_default()
    }

    /// Simulation output bytes of step `s`, over all ranks.
    pub fn step_bytes(&self, s: usize) -> u64 {
        self.logs.iter().map(|l| l.bytes[s]).sum()
    }
}

/// Options of one run.
pub struct RunSpec<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub stop: StopRule,
    /// Arm the workflow timeline and keep chunks of these steps.
    pub traced: bool,
    pub capture: std::ops::Range<u64>,
    /// Directory for shm rendezvous directories.
    pub scratch: &'a std::path::Path,
}

/// Builds the workload's stack, runs it to completion and returns what the
/// source and sink recorded.
pub fn run_once(spec: &RunSpec) -> Result<RunRecord, String> {
    let w = spec.workload;
    let epoch = Instant::now();
    let shared = Arc::new(Shared {
        seed: spec.seed,
        stop: spec.stop,
        capture: spec.capture.clone(),
        captured: Mutex::new(Vec::new()),
        logs: Mutex::new(BTreeMap::new()),
        arrivals: Mutex::new(Vec::new()),
        first_arrival_ns: AtomicU64::new(0),
        epoch,
        received: std::sync::Mutex::new(0),
        received_cv: std::sync::Condvar::new(),
    });
    let (mut broker, hub, connect) = build_stack(w, spec.scratch)?;
    let mut wf = Workflow::with_hub(hub);
    wf.add(
        w.sim_ranks,
        BenchSource {
            workload: w.clone(),
            shared: Arc::clone(&shared),
        },
    );
    w.add_pipeline(&mut wf);
    let sink_state = Arc::clone(&shared);
    wf.add_sink("sink", 1, HIST_STREAM, move |step, vars| {
        let at = Instant::now();
        let cpu = crate::host::process_cpu();
        let counts = match vars.get("counts").map(|v| &*v.data) {
            Some(Buffer::U64(c)) => c.clone(),
            _ => Vec::new(),
        };
        let edges = vars
            .get("bin_edges")
            .map(|v| v.data.to_f64_vec())
            .unwrap_or_default();
        if step == 0 {
            let ns = (at - sink_state.epoch).as_nanos().max(1) as u64;
            sink_state.first_arrival_ns.store(ns, Ordering::SeqCst);
        }
        sink_state.arrivals.lock().push(Arrival {
            step,
            at,
            cpu,
            counts,
            edges,
        });
        *sink_state
            .received
            .lock()
            .unwrap_or_else(|e| e.into_inner()) += 1;
        sink_state.received_cv.notify_all();
    });
    let mut options = RunOptions::new().with_hub_timeout(HUB_TIMEOUT);
    if spec.traced {
        options = options.with_tracing(TraceConfig::new());
    }
    let result = wf.run_with(options);
    if let Some(b) = broker.as_mut() {
        b.shutdown();
    }
    let report = result.map_err(|e| format!("{} run failed: {e}", w.name))?;
    let first = shared.first_arrival_ns.load(Ordering::SeqCst);
    if first == 0 {
        return Err(format!("{}: the sink never received step 0", w.name));
    }
    let logs: Vec<RankLog> = std::mem::take(&mut *shared.logs.lock())
        .into_values()
        .collect();
    let open = logs.iter().map(|l| l.open).max().unwrap_or_default();
    let arrivals = std::mem::take(&mut *shared.arrivals.lock());
    let captured = std::mem::take(&mut *shared.captured.lock());
    Ok(RunRecord {
        setup: Duration::from_nanos(first),
        connect: connect + open,
        logs,
        arrivals,
        captured,
        report,
    })
}

/// Binds the broker (if any) and connects the hub the workflow runs on.
fn build_stack(
    w: &Workload,
    scratch: &std::path::Path,
) -> Result<(Option<Broker>, Arc<StreamHub>, Duration), String> {
    let io = |e: std::io::Error| format!("{}: transport set-up failed: {e}", w.name);
    let wire = TcpOptions::default()
        .with_protocol(w.protocol)
        .with_compression(w.compression);
    match w.backend {
        Backend::InProc => Ok((None, StreamHub::new(), Duration::ZERO)),
        Backend::Tcp => {
            let broker = TcpBroker::bind("127.0.0.1:0").map_err(io)?;
            let t = Instant::now();
            let hub = StreamHub::connect_with(&broker.url(), wire).map_err(io)?;
            Ok((Some(Broker::Tcp(broker)), hub, t.elapsed()))
        }
        Backend::Shm => {
            let dir = unique_dir(scratch);
            let broker = ShmBroker::bind(&dir.to_string_lossy()).map_err(io)?;
            let t = Instant::now();
            let opts = ShmOptions::default().with_wire(wire);
            let hub = StreamHub::connect_shm(&broker.url(), opts).map_err(io)?;
            Ok((Some(Broker::Shm(broker)), hub, t.elapsed()))
        }
    }
}

fn unique_dir(scratch: &std::path::Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    scratch.join(format!("shm-{}-{n}", std::process::id()))
}

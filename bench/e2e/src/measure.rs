//! One workload measured in this process.
//!
//! A run is a few *episodes*. Each starts a fresh cluster and sets the
//! workload up (which is what `setup_s` times), runs untraced rounds —
//! the end-to-end metrics come from these — and, with tracing, traced
//! rounds for the per-layer attribution, then verifies and shuts down.
//!
//! Why several episodes: `setup_s` is then a median, and no run depends on
//! how one cluster instance happened to come up.
//!
//! Why the slow quintile: pinned or not, this host is not steady. At
//! times it alternates every few seconds between two states about 30%
//! apart (rounds of `bulk_copy_shm` cluster at 66-72 k or at 88-100 k
//! ops/s), and how a run's time divides between them is chance; at other
//! times it sits in the slow state. The slow state is the tight one and
//! nearly every run visits it, so the rate that four rounds in five
//! exceed repeats between runs where the median round rate spread by up
//! to 21% (README, "Steadiness").

use crate::json::Json;
use crate::layers::{cluster_counters, Boundary, Section, END_TO_END};
use crate::procfs;
use crate::stats::{median, percentile, quartiles, summarize_latency};
use crate::trace::Trace;
use crate::workloads::{bench_config, now_ns, spec_by_name, Lanes, RoundOutcome, Spec, Workload};
use gmt_core::Cluster;
use std::path::PathBuf;

/// Episodes per run.
const EPISODES: u64 = 5;
/// Rounds a section runs at least, however slow they are.
const MIN_ROUNDS: usize = 2;

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Time spent in measured rounds, seconds, over all episodes.
    pub seconds: f64,
    /// Spend the second half of every episode's rounds tracing.
    pub trace: bool,
    /// One episode of one tiny round per section: the smoke test.
    pub check: bool,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

fn observe(cluster: &Cluster) -> Result<Boundary, String> {
    Ok(Boundary {
        at_ns: now_ns(),
        counters: cluster_counters(cluster),
        cpu_ns: procfs::cpu_ns_by_role()?,
        process_cpu_ns: procfs::process_cpu_ns()?,
    })
}

/// `ops_per_s` is this percentile of the round rates and `cpu_us_per_op`
/// the mirrored percentile of the round costs: four rounds in five are
/// at least that good.
const SUSTAINED_PERCENTILE: f64 = 20.0;

/// Rounds run back to back, untraced or traced, over all episodes.
#[derive(Default)]
struct Rounds {
    outcomes: Vec<RoundOutcome>,
    lat_ns: Vec<u64>,
    wall_ns: u64,
    /// Time inside `round` spans.
    round_span_ns: u64,
}

impl Rounds {
    fn ops(&self) -> u64 {
        self.outcomes.iter().map(|r| r.ops).sum()
    }

    fn failed(&self) -> u64 {
        self.outcomes.iter().map(|r| r.failed).sum()
    }

    fn rates(&self) -> Vec<f64> {
        self.outcomes.iter().map(RoundOutcome::ops_per_s).collect()
    }

    /// The rate four rounds in five reach or exceed.
    fn ops_per_s(&self) -> f64 {
        percentile(&self.rates(), SUSTAINED_PERCENTILE)
    }

    /// The CPU cost per op four rounds in five stay at or below.
    fn cpu_us_per_op(&self) -> f64 {
        let costs: Vec<f64> = self.outcomes.iter().map(RoundOutcome::cpu_us_per_op).collect();
        percentile(&costs, 100.0 - SUSTAINED_PERCENTILE)
    }
}

/// One live cluster with the workload set up on it.
struct Episode<'a> {
    cluster: Cluster,
    workload: Box<dyn Workload>,
    trace: &'a mut Trace,
    root_span: u64,
    /// Rounds are numbered through the run, so every round of every
    /// episode gets inputs of its own.
    next_round: &'a mut u64,
}

impl Episode<'_> {
    /// Runs rounds for `budget_ns` (at least `min_rounds`) and adds them
    /// to `into`. With `attribution`, every blocking unit becomes an `op`
    /// span, every round boundary a counter event, and the counters the
    /// rounds moved are added to it.
    fn rounds(
        &mut self,
        budget_ns: u64,
        min_rounds: usize,
        into: &mut Rounds,
        mut attribution: Option<&mut Section>,
    ) -> Result<(), String> {
        let traced = attribution.is_some();
        let node = self.cluster.node(0);
        let every = if traced { 1 } else { self.workload.sample_every() };
        let lanes = Lanes::new(self.workload.tasks(), every);
        let first_round = into.outcomes.len();
        let start_ns = now_ns();
        let first = if traced { Some(observe(&self.cluster)?) } else { None };
        let mut last = first.clone();
        loop {
            let round_span = self.trace.open("round", Some(*self.next_round), self.root_span);
            self.workload.prepare(*self.next_round);
            let out = self.workload.run(node, &lanes);
            let call =
                self.trace.add("run_call", None, round_span, out.run_start_ns, out.run_end_ns);
            lanes.drain(|task, sample| {
                into.lat_ns.push(sample.dur_ns);
                if traced {
                    self.trace.op(call, task, sample);
                }
            });
            if let Some(before) = &last {
                let now = observe(&self.cluster)?;
                self.trace.round_counters(before, &now);
                last = Some(now);
            }
            into.round_span_ns += self.trace.close(round_span);
            into.outcomes.push(out);
            *self.next_round += 1;
            let done = into.outcomes.len() - first_round;
            if done >= min_rounds && now_ns() - start_ns >= budget_ns {
                break;
            }
        }
        into.wall_ns += now_ns() - start_ns;
        if let (Some(section), Some(first), Some(last)) = (attribution.as_mut(), first, last) {
            let ops = into.outcomes[first_round..].iter().map(|r| r.ops).sum();
            section.add(&first, &last, ops);
        }
        Ok(())
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs one workload in this process and returns its report.
pub fn run_child(args: &ChildArgs) -> Result<Json, String> {
    let cpus = procfs::allowed_cpus()?;
    if cpus.len() != 1 {
        return Err(format!(
            "this process may run on CPUs {cpus:?}: numbers measured on more than one CPU do not \
             repeat on this runtime, so none are emitted"
        ));
    }
    let full = spec_by_name(&args.workload)
        .ok_or_else(|| format!("no workload named {:?}", args.workload))?;
    let spec: Spec = if args.check { full.tiny() } else { *full };
    let episodes = if args.check { 1 } else { EPISODES };
    let min_rounds = if args.check { 1 } else { MIN_ROUNDS };
    let budget_ns = if args.check { 0 } else { (args.seconds * 1e9) as u64 / episodes };
    let untraced_budget_ns = if args.trace { budget_ns / 2 } else { budget_ns };

    let mut trace = Trace::default();
    let root_span = trace.open("workload", None, 0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_s = Vec::new();
    let mut untraced = Rounds::default();
    let mut traced = Rounds::default();
    let mut attribution = Section::default();
    let mut next_round = 0u64;
    let mut peak_rss_mb = 0.0;

    for episode in 0..episodes {
        // Set-up: inputs from the seed, cluster start, data load, one
        // warm-up round.
        let span = trace.open("setup", Some(episode), root_span);
        let cluster = spec.fabric.start(2, bench_config())?;
        let mut workload = spec.build(args.seed, cluster.node(0));
        let lanes = Lanes::new(workload.tasks(), workload.sample_every());
        workload.prepare(next_round);
        let warm_up = workload.run(cluster.node(0), &lanes);
        next_round += 1;
        setup_s.push(trace.close(span) as f64 / 1e9);
        attempted += warm_up.ops;
        failed += warm_up.failed;

        let mut live = Episode {
            cluster,
            workload,
            trace: &mut trace,
            root_span,
            next_round: &mut next_round,
        };
        live.rounds(untraced_budget_ns, min_rounds, &mut untraced, None)?;
        // Before tracing allocates its spans.
        peak_rss_mb = procfs::peak_rss_mb()?;
        if args.trace {
            let budget = budget_ns - untraced_budget_ns;
            live.rounds(budget, min_rounds, &mut traced, Some(&mut attribution))?;
        }
        failed += live.workload.finish(live.cluster.node(0));
        live.cluster.shutdown();
    }
    trace.close(root_span);

    for rounds in [&untraced, &traced] {
        attempted += rounds.ops();
        failed += rounds.failed();
    }

    let ops_per_s = untraced.ops_per_s();
    let mut lat_ns = untraced.lat_ns.clone();
    let lat = summarize_latency(&mut lat_ns);
    let end_to_end =
        [ops_per_s, untraced.cpu_us_per_op(), us(lat.p50_ns), us(lat.tail_ns), median(&setup_s)];
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let round_rates = untraced.rates();
    let mut info = vec![
        ("transport", Json::str(spec.fabric.name())),
        ("episodes", Json::from(episodes)),
        ("rounds", Json::from(untraced.outcomes.len() as u64)),
        ("measured_s", Json::Num(untraced.wall_ns as f64 / 1e9)),
        ("round_ops_per_s_median", Json::Num(median(&round_rates))),
        ("round_ops_per_s", nums(&round_rates)),
        ("lat_samples", Json::from(lat.samples as u64)),
        ("lat_tail_percentile", Json::Num(lat.tail_percentile)),
        ("lat_p99_us", Json::Num(us(lat.p99_ns))),
        ("setups_s", nums(&setup_s)),
    ];
    if round_rates.len() >= 2 {
        let [q1, _, q3] = quartiles(&round_rates);
        info.push(("round_ops_per_s_q1", Json::Num(q1)));
        info.push(("round_ops_per_s_q3", Json::Num(q3)));
    }

    let mut report = vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::from(args.seed)),
        ("cpus_allowed", Json::Arr(cpus.iter().map(|&c| Json::from(c as u64)).collect())),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "end_to_end",
            Json::obj(END_TO_END.iter().zip(end_to_end).map(|(m, v)| (m.name, Json::Num(v)))),
        ),
    ];

    if args.trace {
        let mut per_layer = attribution.attribute();
        per_layer.push(("driver.lat_p99_us", Some(us(lat.p99_ns))));
        per_layer.push(("driver.peak_rss_mb", Some(peak_rss_mb)));
        per_layer.push(("trace.overhead_share", Some(1.0 - traced.ops_per_s() / ops_per_s)));
        if let Some(gap) = attribution.unattributed_share().filter(|&g| g > 0.05) {
            eprintln!(
                "[gmt-e2e] warn: {}: {:.1}% of the process's CPU time is not attributed to any \
                 thread role",
                spec.name,
                gap * 100.0
            );
        }
        info.push(("traced_rounds", Json::from(traced.outcomes.len() as u64)));
        info.push((
            "traced_round_coverage",
            Json::Num(traced.round_span_ns as f64 / traced.wall_ns as f64),
        ));
        report.push((
            "per_layer",
            Json::obj(per_layer.into_iter().map(|(name, v)| (name, Json::opt(v)))),
        ));
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("creating {:?}: {e}", args.out_dir))?;
        let path = args.out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, trace.to_chrome_json(spec.name))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        info.push(("trace_file", Json::str(path.to_string_lossy())));
    }
    report.push(("info", Json::obj(info)));
    Ok(Json::obj(report))
}

//! # gmt-launch — multi-process GMT
//!
//! Boots a GMT cluster as **N OS processes** — the shape the paper's
//! runtime actually deploys as (one process per cluster node) — and runs
//! a named workload on it. The same binary is both the parent (spawns
//! children, waits) and the child (rendezvous → [`NodeRuntime`] → serve
//! or drive the workload), selected by the `GMT_NODE_ID` env var. The
//! wire is TCP by default; `GMT_TRANSPORT=shm` swaps in the shared-
//! memory ring transport (an `shm:` bootstrap naming the segment file),
//! and both the multi-process and `--single` legs honor the variable so
//! the bit-identity diff compares like with like.
//!
//! ```text
//! gmt-launch -n 4 --bin bfs            # 4 processes over loopback TCP
//! gmt-launch -n 4 --bin bfs --single   # same nodes, one process, sim fabric
//! GMT_TRANSPORT=shm gmt-launch -n 4 --bin bfs   # 4 processes, shm rings
//! ```
//!
//! Workload results go to **stdout** as `RESULT …` lines printed only by
//! node 0, and are schedule-independent by construction — so piping both
//! invocations above to files and `diff`ing them is the cross-process
//! bit-identical check CI runs. Everything else (progress, timing) goes
//! to stderr.
//!
//! End-of-job protocol (a two-phase barrier over the control channel):
//! node 0 drives the workload while peers serve remote accesses; when
//! node 0 finishes it signals DONE, each peer writes its artifacts and
//! acks DONE back, and only after every ack (or EOF — a dead peer has
//! acknowledged) does node 0 tear down. No peer mistakes job completion
//! for a death (the failure detector stays armed the whole run), and no
//! node tears its links down under a peer that is still writing. Both
//! waits are bounded and name the nodes that went missing.
//!
//! Chaos mode (`--kill <node>@<ms>`): the parent SIGKILLs the victim
//! that many milliseconds after node 0 reports the mesh up. Node 0 then
//! waits for every survivor-confirmed death *before* driving the
//! workload, so BFS still completes with exact results over the
//! survivors — and the launcher proves crash recovery end to end: the
//! kill is detected via connection-loss evidence, survivors converge on
//! an identical membership epoch (written to `GMT_EPOCH_OUT` for CI to
//! diff), and the per-node report distinguishes the injected kill from
//! a genuine crash.
//!
//! If `GMT_METRICS_OUT` names a directory, every node process drops a
//! metrics snapshot there (`<bin>-<transport>-node<i>.json`) before
//! exiting; if `GMT_TRACE` does (`chrome:<dir>/`), a Chrome trace of its
//! runtime threads as well.

use gmt_core::{Cluster, Config, NodeRuntime};
use gmt_graph::{uniform_random, DistGraph, GraphSpec};
use gmt_kernels::bfs::gmt_bfs;
use gmt_kernels::chma::{fnv1a, gmt_chma_access, gmt_chma_populate, ChmaConfig, GmtHashMap};
use gmt_net::transport::TransportSelect;
use gmt_net::Bootstrap;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, ExitStatus};
use std::time::{Duration, Instant};

/// Everything the CLI controls. One instance is parsed in the parent and
/// re-parsed identically in each child (children get the same argv —
/// which is how a child knows the kill schedule and picks the chaos
/// detector config).
#[derive(Debug, Clone)]
struct Opts {
    nodes: usize,
    bin: String,
    single: bool,
    vertices: u64,
    degree: u64,
    seed: u64,
    source: u64,
    bootstrap: Option<String>,
    /// Chaos kills: `(victim node, ms after the mesh is up)`.
    kill: Vec<(usize, u64)>,
    /// Parent supervision deadline in seconds.
    timeout_secs: u64,
}

const USAGE: &str = "\
gmt-launch — run a GMT workload across N node processes (TCP or shm)

USAGE:
    gmt-launch -n <nodes> --bin <bfs|chma> [options]

OPTIONS:
    -n, --nodes <N>       node processes to spawn [default: 2]
        --bin <NAME>      workload: bfs | chma (required)
        --single          run all nodes in ONE process instead (over the
                          sim fabric, or the backend GMT_TRANSPORT
                          names); prints identical RESULT lines
        --vertices <V>    bfs: graph vertices [default: 512]
        --degree <D>      bfs: average out-degree [default: 8]
        --seed <S>        bfs: graph seed [default: 42]
        --source <V>      bfs: source vertex [default: 0]
        --bootstrap <B>   rendezvous point: 'file:<path>', '<ip:port>',
                          or 'shm:<path>' (a shared-memory segment file;
                          implies the shm transport)
                          [default: file:<tmp>/gmt-launch-<pid>.addr, or
                          shm:<tmp>/gmt-launch-<pid>.seg under
                          GMT_TRANSPORT=shm]
        --kill <N>@<MS>   chaos: SIGKILL node N (never 0) MS milliseconds
                          after node 0 reports the mesh up; repeatable.
                          Survivors must confirm the death before the
                          workload runs, so RESULT lines stay exact
        --timeout <S>     parent supervision deadline; children still
                          running at the deadline are killed and the
                          launch fails, naming them [default: 120]

ENVIRONMENT:
    GMT_NODE_ID, GMT_NODES, GMT_BOOTSTRAP, GMT_READY   set by the parent
    GMT_TRANSPORT     wire for both the multi-process and --single legs:
                      tcp-loopback (default) or shm; --single also
                      accepts sim (its default)
    GMT_METRICS_OUT   directory for per-node metrics snapshots
                      (<bin>-<transport>-node<i>.json)
    GMT_EPOCH_OUT     directory for per-survivor membership epoch files
                      (chaos runs; CI diffs them identical)
    GMT_TRACE         chrome:<dir>/ — every node process leaves a Chrome
                      trace_event file of its runtime threads there
";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        nodes: 2,
        bin: String::new(),
        single: false,
        vertices: 512,
        degree: 8,
        seed: 42,
        source: 0,
        bootstrap: None,
        kill: Vec::new(),
        timeout_secs: 120,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "-n" | "--nodes" => {
                opts.nodes = value(&mut i, "--nodes")?.parse().map_err(|e| format!("-n: {e}"))?
            }
            "--bin" => opts.bin = value(&mut i, "--bin")?,
            "--single" => opts.single = true,
            "--vertices" => {
                opts.vertices =
                    value(&mut i, "--vertices")?.parse().map_err(|e| format!("--vertices: {e}"))?
            }
            "--degree" => {
                opts.degree =
                    value(&mut i, "--degree")?.parse().map_err(|e| format!("--degree: {e}"))?
            }
            "--seed" => {
                opts.seed = value(&mut i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--source" => {
                opts.source =
                    value(&mut i, "--source")?.parse().map_err(|e| format!("--source: {e}"))?
            }
            "--bootstrap" => opts.bootstrap = Some(value(&mut i, "--bootstrap")?),
            "--kill" => {
                let v = value(&mut i, "--kill")?;
                let (n, ms) = v
                    .split_once('@')
                    .ok_or_else(|| format!("--kill wants <node>@<ms>, got '{v}'"))?;
                let n: usize = n.parse().map_err(|e| format!("--kill node: {e}"))?;
                let ms: u64 = ms.parse().map_err(|e| format!("--kill ms: {e}"))?;
                opts.kill.push((n, ms));
            }
            "--timeout" => {
                opts.timeout_secs =
                    value(&mut i, "--timeout")?.parse().map_err(|e| format!("--timeout: {e}"))?
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    if opts.nodes == 0 {
        return Err("-n must be at least 1".into());
    }
    if !opts.kill.is_empty() {
        if opts.single {
            return Err("--kill needs real processes; it cannot be combined with --single".into());
        }
        if opts.timeout_secs == 0 {
            return Err("--timeout must be at least 1 second when --kill is used".into());
        }
        let mut seen = Vec::new();
        for &(victim, _) in &opts.kill {
            if victim == 0 {
                return Err("--kill 0 is not allowed: node 0 drives the workload".into());
            }
            if victim >= opts.nodes {
                return Err(format!("--kill {victim} is out of range for -n {}", opts.nodes));
            }
            if seen.contains(&victim) {
                return Err(format!("--kill {victim} given twice"));
            }
            seen.push(victim);
        }
    }
    match opts.bin.as_str() {
        "bfs" | "chma" => Ok(opts),
        "" => Err("--bin is required (bfs | chma)".into()),
        other => Err(format!("unknown workload '{other}' (bfs | chma)")),
    }
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gmt-launch: {e}");
            return ExitCode::FAILURE;
        }
    };
    let role = std::env::var("GMT_NODE_ID").ok();
    let result = match role {
        Some(id) => child(&opts, &id),
        None if opts.single => single_process(&opts),
        None => parent(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gmt-launch: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Temp files the parent owns. Dropping removes them, so every exit path
/// — clean, spawn failure, supervision error, panic — cleans up the
/// bootstrap and ready files. (Node 0 also removes the bootstrap file
/// itself once registration completes; this is the backstop for runs
/// that die before or during rendezvous.)
struct TempFiles(Vec<PathBuf>);

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// One spawned node process under parent supervision.
struct Supervised {
    node: usize,
    child: Child,
    status: Option<ExitStatus>,
    wait_error: Option<String>,
    /// The parent delivered the scheduled `--kill` SIGKILL to this child.
    injected: bool,
    /// The parent killed this child at the supervision deadline.
    timed_out: bool,
}

/// Parent: pick a rendezvous point, spawn one child per node with its
/// identity in the environment, and supervise them — reaping exits as
/// they happen, delivering scheduled `--kill`s once the mesh is up, and
/// killing whatever is still running at the `--timeout` deadline.
fn parent(opts: &Opts) -> Result<(), String> {
    let select = TransportSelect::from_env()?;
    let bootstrap = match &opts.bootstrap {
        Some(b) => b.clone(),
        None => {
            let mut p = std::env::temp_dir();
            if select == TransportSelect::Shm {
                p.push(format!("gmt-launch-{}.seg", std::process::id()));
                format!("shm:{}", p.display())
            } else {
                p.push(format!("gmt-launch-{}.addr", std::process::id()));
                format!("file:{}", p.display())
            }
        }
    };
    // Validate now so a typo fails in the parent, not in N children —
    // and catch a transport/bootstrap mismatch the same way: the
    // bootstrap form is what the children obey.
    let parsed = Bootstrap::parse(&bootstrap)?;
    let shm_bootstrap = matches!(parsed, Bootstrap::Shm(_));
    if select == TransportSelect::Shm && !shm_bootstrap {
        return Err(format!("GMT_TRANSPORT=shm needs an shm:<path> bootstrap, got '{bootstrap}'"));
    }
    if select == TransportSelect::TcpLoopback && shm_bootstrap {
        return Err(format!(
            "GMT_TRANSPORT={} contradicts the shm bootstrap '{bootstrap}'",
            std::env::var("GMT_TRANSPORT").unwrap_or_default()
        ));
    }

    let ready_path = std::env::temp_dir().join(format!("gmt-launch-{}.ready", std::process::id()));
    let _ = std::fs::remove_file(&ready_path);
    let mut cleanup = TempFiles(vec![ready_path.clone()]);
    // Backstop unlink for both bootstrap forms: node 0 removes the file
    // itself once the mesh is up; this covers runs that die earlier.
    if let Some(path) = bootstrap.strip_prefix("file:").or(bootstrap.strip_prefix("shm:")) {
        cleanup.0.push(path.into());
    }

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut children: Vec<Supervised> = Vec::with_capacity(opts.nodes);
    for node in 0..opts.nodes {
        let spawned = Command::new(&exe)
            .args(&args)
            .env("GMT_NODE_ID", node.to_string())
            .env("GMT_NODES", opts.nodes.to_string())
            .env("GMT_BOOTSTRAP", &bootstrap)
            .env("GMT_READY", &ready_path)
            .spawn();
        match spawned {
            Ok(child) => children.push(Supervised {
                node,
                child,
                status: None,
                wait_error: None,
                injected: false,
                timed_out: false,
            }),
            Err(e) => {
                for c in &mut children {
                    let _ = c.child.kill();
                    let _ = c.child.wait();
                }
                return Err(format!("spawning node {node}: {e}"));
            }
        }
    }
    supervise(opts, children, &ready_path)
}

/// The supervision loop. Kill timers arm only once node 0 has written
/// the ready file (the runtime is up on a formed mesh), so an injected
/// kill always lands mid-run — never mid-rendezvous, where it would
/// test bootstrap robustness instead of crash recovery.
fn supervise(
    opts: &Opts,
    mut children: Vec<Supervised>,
    ready_path: &std::path::Path,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(opts.timeout_secs);
    let mut kill_base = if opts.kill.is_empty() { Some(Instant::now()) } else { None };
    loop {
        let mut all_done = true;
        for c in children.iter_mut() {
            if c.status.is_none() && c.wait_error.is_none() {
                match c.child.try_wait() {
                    Ok(Some(status)) => c.status = Some(status),
                    Ok(None) => all_done = false,
                    Err(e) => c.wait_error = Some(e.to_string()),
                }
            }
        }
        if all_done {
            break;
        }
        if kill_base.is_none() && ready_path.exists() {
            eprintln!("[gmt-launch] mesh up; arming kill timers");
            kill_base = Some(Instant::now());
        }
        if let Some(base) = kill_base {
            for &(victim, ms) in &opts.kill {
                let c = children.iter_mut().find(|c| c.node == victim).expect("victim in range");
                if !c.injected && c.status.is_none() && base.elapsed() >= Duration::from_millis(ms)
                {
                    eprintln!(
                        "[gmt-launch] injecting SIGKILL into node {victim} (pid {}) at +{ms}ms",
                        c.child.id()
                    );
                    let _ = c.child.kill();
                    c.injected = true;
                }
            }
        }
        if Instant::now() >= deadline {
            let stuck: Vec<usize> =
                children.iter().filter(|c| c.status.is_none()).map(|c| c.node).collect();
            eprintln!(
                "[gmt-launch] supervision deadline ({}s) hit; killing nodes still running: \
                 {stuck:?}",
                opts.timeout_secs
            );
            for c in children.iter_mut().filter(|c| c.status.is_none()) {
                c.timed_out = true;
                let _ = c.child.kill();
                match c.child.wait() {
                    Ok(status) => c.status = Some(status),
                    Err(e) => c.wait_error = Some(e.to_string()),
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut failed = Vec::new();
    eprintln!("[gmt-launch] node report:");
    for c in &children {
        let (desc, ok) = describe_exit(c);
        eprintln!("[gmt-launch]   node {}: {desc}", c.node);
        if !ok {
            failed.push(format!("node {} {desc}", c.node));
        }
    }
    // A scheduled kill that never fired means the victim exited first —
    // the run did not actually exercise a crash.
    for &(victim, ms) in &opts.kill {
        let c = children.iter().find(|c| c.node == victim).expect("victim in range");
        if !c.injected {
            failed.push(format!("node {victim}: scheduled kill at +{ms}ms never fired"));
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Classifies one child's exit for the report: clean exits and the
/// injected `--kill` SIGKILL are expected; everything else — a crash, a
/// wrong exit code, a hang the supervisor had to kill — fails the launch.
fn describe_exit(c: &Supervised) -> (String, bool) {
    if let Some(e) = &c.wait_error {
        return (format!("could not be waited on: {e}"), false);
    }
    let Some(status) = c.status else {
        return ("never reaped (supervisor bug)".to_string(), false);
    };
    if c.timed_out {
        return ("hung; killed by the supervisor at the deadline".to_string(), false);
    }
    let signal = {
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            status.signal()
        }
        #[cfg(not(unix))]
        {
            None::<i32>
        }
    };
    match (signal, c.injected) {
        (Some(9), true) => ("killed by SIGKILL (injected chaos, expected)".to_string(), true),
        (Some(s), true) => (format!("died of signal {s} before the injected SIGKILL"), false),
        (Some(s), false) => (format!("crashed: killed by signal {s}"), false),
        (None, true) => (format!("exited with {status} before the injected SIGKILL"), false),
        (None, false) if status.success() => ("exit ok".to_string(), true),
        (None, false) => (format!("failed: {status}"), false),
    }
}

/// Child: join the mesh, boot this process's node, then either drive the
/// workload (node 0) or serve until node 0 signals done, ack, and leave.
fn child(opts: &Opts, id: &str) -> Result<(), String> {
    let node: usize = id.parse().map_err(|e| format!("GMT_NODE_ID: {e}"))?;
    let nodes: usize = std::env::var("GMT_NODES")
        .map_err(|_| "GMT_NODES not set".to_string())?
        .parse()
        .map_err(|e| format!("GMT_NODES: {e}"))?;
    let bootstrap =
        Bootstrap::parse(&std::env::var("GMT_BOOTSTRAP").map_err(|_| "GMT_BOOTSTRAP not set")?)?;

    let t0 = Instant::now();
    // The bootstrap form picks the wire: shm:<path> attaches the
    // shared-memory segment, anything else runs the TCP rendezvous.
    let wire = if matches!(bootstrap, Bootstrap::Shm(_)) { "shm" } else { "tcp" };
    let (transport, mut control) = gmt_net::connect(node, nodes, &bootstrap)
        .map_err(|e| format!("joining the {wire} mesh: {e}"))?;
    eprintln!(
        "[gmt-launch] node {node}/{nodes} meshed over {wire} in {:.0?} (pid {})",
        t0.elapsed(),
        std::process::id()
    );
    let chaos = !opts.kill.is_empty();
    let config = if chaos {
        // Push the silence-based detector paths out so a sub-second
        // confirmation can only come from connection-loss evidence —
        // the property the kill matrix exists to prove.
        Config { peer_death_timeout_ns: 10_000_000_000, ..Config::small() }
    } else {
        Config::small()
    };
    let runtime = NodeRuntime::start(transport, config)?;
    eprintln!("[gmt-launch] node {node} runtime up");

    if node == 0 {
        // Tell the parent the mesh is formed so kill timers arm.
        if let Ok(p) = std::env::var("GMT_READY") {
            if !p.is_empty() {
                let _ = std::fs::write(&p, b"up\n");
            }
        }
        if chaos {
            // Victims die *before* the workload starts, so BFS runs — and
            // completes exactly — over the converged survivor set.
            await_victims_dead(runtime.node(), &opts.kill, node)?;
        }
        run_workload(opts, runtime.node(), wire);
        if chaos {
            let mut dead = runtime.node().dead_peers();
            dead.sort_unstable();
            println!("RESULT membership epoch={} dead={dead:?}", runtime.node().membership_epoch());
        }
        write_epoch(runtime.node(), node);
        runtime.node().write_metrics_out(&format!("{}-{wire}", opts.bin));
        control.signal_done();
        // Wait for every survivor's ack so our links stay up while they
        // finish converging and writing artifacts. EOF counts as an ack
        // (a killed victim has nothing left to say).
        if let Err(missing) = control.wait_done_timeout(Duration::from_secs(30)) {
            eprintln!(
                "[gmt-launch] node 0: no done-barrier ack from nodes {missing:?}; \
                 shutting down anyway"
            );
        }
    } else {
        match control.wait_done_timeout(Duration::from_secs(opts.timeout_secs)) {
            Ok(()) => {}
            Err(missing) => {
                return Err(format!(
                    "done barrier timed out after {}s: no signal from node {missing:?} \
                     (did it crash before finishing the workload?)",
                    opts.timeout_secs
                ));
            }
        }
        if chaos {
            // Node 0 only signals done after full convergence, so the
            // victims' deaths have long been broadcast; this bounds the
            // wait for our own view to catch up.
            await_victims_dead(runtime.node(), &opts.kill, node)?;
        }
        write_epoch(runtime.node(), node);
        runtime.node().write_metrics_out(&format!("{}-{wire}", opts.bin));
        control.signal_done();
    }
    runtime.shutdown();
    Ok(())
}

/// Blocks until this node's membership view shows exactly the scheduled
/// victims dead (one epoch bump per victim). Sub-second convergence here
/// is the connection-loss evidence path at work: the chaos config puts
/// the death timeout, the only timer that confirms a death, at 10 s.
fn await_victims_dead(
    handle: &gmt_core::NodeHandle,
    kills: &[(usize, u64)],
    me: usize,
) -> Result<(), String> {
    let mut expected: Vec<usize> = kills.iter().map(|&(n, _)| n).collect();
    expected.sort_unstable();
    let t0 = Instant::now();
    let budget = Duration::from_secs(60);
    loop {
        let dead = handle.dead_peers();
        if dead == expected && handle.membership_epoch() == expected.len() as u64 {
            eprintln!(
                "[gmt-launch] node {me}: victims {expected:?} confirmed dead in {:.0?}",
                t0.elapsed()
            );
            return Ok(());
        }
        if t0.elapsed() > budget {
            return Err(format!(
                "node {me}: victims {expected:?} not confirmed dead within {budget:?} \
                 (dead: {dead:?}, epoch {})",
                handle.membership_epoch()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Honors `GMT_EPOCH_OUT`: one `epoch-node<i>.txt` per surviving node
/// recording its converged membership view. CI diffs all survivors'
/// files byte-identical — the cross-process form of the "agreement"
/// assertions the in-process membership suite makes.
fn write_epoch(node: &gmt_core::NodeHandle, id: usize) {
    let Ok(dir) = std::env::var("GMT_EPOCH_OUT") else { return };
    if dir.is_empty() {
        return;
    }
    let _ = std::fs::create_dir_all(&dir);
    let mut dead = node.dead_peers();
    dead.sort_unstable();
    let path = format!("{dir}/epoch-node{id}.txt");
    let content = format!("epoch={} dead={dead:?}\n", node.membership_epoch());
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("[gmt-launch] could not write {path}: {e}");
    }
}

/// `--single`: the same nodes and workload in one process — the
/// reference run the multi-process output is diffed against. Defaults
/// to the sim fabric; an explicit `GMT_TRANSPORT` pins the in-process
/// leg to the same wire as the multi-process one.
fn single_process(opts: &Opts) -> Result<(), String> {
    let (cluster, label) = match TransportSelect::from_env()? {
        TransportSelect::Sim => (Cluster::start_sim(opts.nodes, Config::small())?, "sim"),
        TransportSelect::TcpLoopback => {
            (Cluster::start_tcp_loopback(opts.nodes, Config::small())?, "tcp")
        }
        TransportSelect::Shm => (Cluster::start_shm(opts.nodes, Config::small())?, "shm"),
    };
    run_workload(opts, cluster.node(0), label);
    for node in 0..opts.nodes {
        cluster.node(node).write_metrics_out(&format!("{}-{label}", opts.bin));
    }
    cluster.shutdown();
    Ok(())
}

fn run_workload(opts: &Opts, driver: &gmt_core::NodeHandle, backend: &str) {
    let t0 = Instant::now();
    match opts.bin.as_str() {
        "bfs" => run_bfs(opts, driver),
        "chma" => run_chma(driver),
        other => unreachable!("workload '{other}' rejected at parse time"),
    }
    eprintln!("[gmt-launch] {} over {backend} took {:.0?}", opts.bin, t0.elapsed());
}

/// BFS over a uniform random graph. Per-vertex levels are
/// schedule-independent (level-synchronous traversal; each vertex is
/// claimed by CAS at exactly one level), so the FNV-1a digest of the
/// level array is comparable across backends and process layouts.
fn run_bfs(opts: &Opts, driver: &gmt_core::NodeHandle) {
    let spec = GraphSpec { vertices: opts.vertices, avg_degree: opts.degree, seed: opts.seed };
    let source = opts.source;
    let r = driver.run(move |ctx| {
        let csr = uniform_random(spec);
        let g = DistGraph::from_csr(ctx, &csr);
        let r = gmt_bfs(ctx, &g, source);
        g.free(ctx);
        r
    });
    let mut bytes = Vec::with_capacity(r.levels.len() * 8);
    for l in &r.levels {
        bytes.extend_from_slice(&l.to_le_bytes());
    }
    println!(
        "RESULT bfs vertices={} degree={} seed={} source={} visited={} traversed_edges={} \
         levels_fnv=0x{:016x}",
        opts.vertices,
        opts.degree,
        opts.seed,
        source,
        r.visited,
        r.traversed_edges,
        fnv1a(&bytes)
    );
}

/// CHMA on a collision-free configuration: every pool string and its
/// reversal hashes to a private slot, so hit/miss/insert totals are a
/// pure function of the config — no CAS race can tilt them (the same
/// construction combining.rs uses for its determinism tests).
fn run_chma(driver: &gmt_core::NodeHandle) {
    let cfg = ChmaConfig { entries: 65536, pool: 128, tasks: 8, steps: 16, seed: 1 };
    let (inserted, r) = driver.run(move |ctx| {
        let map = GmtHashMap::alloc(ctx, cfg.entries);
        let inserted = gmt_chma_populate(ctx, &map, &cfg);
        let r = gmt_chma_access(ctx, &map, &cfg);
        map.free(ctx);
        (inserted, r)
    });
    println!(
        "RESULT chma entries={} pool={} tasks={} steps={} seed={} populated={} hits={} misses={} \
         inserts={} accesses={}",
        cfg.entries,
        cfg.pool,
        cfg.tasks,
        cfg.steps,
        cfg.seed,
        inserted,
        r.hits,
        r.misses,
        r.inserts,
        r.accesses
    );
}

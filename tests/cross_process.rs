//! Cross-process oracle battery: [`cusp::distributed::launch`] starts real
//! `cusp-part worker` processes, meshes them over loopback TCP and returns
//! a typed report; each cell composes the oracle with it and asserts on
//! fields — per-pair byte/message conservation joined *across* processes,
//! and every host's `part_fingerprint` bit-identical to the crash-free
//! in-process simulator's under the determinism contract. Only the two
//! cells that pin the CLI's contract (a one-line diagnostic on stderr, a
//! non-zero exit, no MATCH) drive `cusp-part launch` and read its output.
//!
//! These tests exercise the entire stack at once: worker command line →
//! line protocol (listen line / PEERS line) → TcpTransport mesh
//! establishment → five-phase pipeline over real sockets → FIN teardown →
//! `.part` serialization → fingerprints.
//!
//! Every test takes [`fleet_budget`] before it forks: the harness still
//! runs the `#[test]`s on parallel threads, but at most one launcher plus
//! its workers exists at a time, so 4–5 processes with 50 ms heartbeats
//! never compete with fourteen other fleets for the box (ROADMAP item 1b).
//! That removes the oversubscription suspect. The late-phase listener hole
//! (item 1a) is closed on the worker's side: a worker writes its partition
//! and prints its rows and DONE *before* its transport FINs, so a victim
//! stopped after its FIN is already DONE (no respawn into a mesh whose
//! survivors have left), and one stopped before it finds every survivor
//! still draining. Until PR 14 the FIN came first, and a wedge at `alloc`
//! or `construct` that landed between FIN and DONE exhausted its restarts
//! on `unreachable before dial timeout` — in a few percent of runs, more
//! once the construction replay got faster. Until PR 21
//! `eec_2_hosts_recovers_from_torn_connection_at_edge_assign` stalled
//! into the launcher's watchdog in a few percent of runs: the victim's
//! arrival at the master barrier died unsent with it, and its respawn,
//! resuming from the checkpoint past that barrier, never re-announced it
//! (`Comm::restore_net` does now; DESIGN.md §11).

use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use cusp::distributed::{
    launch as launch_processes, part_path, simulator_twin, LaunchError, LaunchReport, LaunchSpec,
    RunSpec,
};
use cusp::{CuspConfig, PolicyKind};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::write_bgr;
use cusp_net::{KillDecision, KillMode};

/// The shared input graph, generated once per test binary run. Big enough
/// that every phase moves real traffic (multiple buffer flushes per
/// peer), small enough that a 4-process run plus its simulator oracle
/// finishes in seconds.
fn graph_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cusp-xproc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create graph dir");
        let path = dir.join("input.bgr");
        let graph = erdos_renyi(1500, 12_000, 20260808);
        write_bgr(&path, &graph).expect("write input graph");
        path
    })
}

/// The test binary's shared concurrency budget: one forked fleet at a
/// time, for as long as the returned guard lives.
fn fleet_budget() -> MutexGuard<'static, ()> {
    static ONE_FLEET: Mutex<()> = Mutex::new(());
    // The lock guards no data, so a poisoned one is as good as a clean one.
    ONE_FLEET.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A scratch directory of this test process, distinct per `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cusp-xproc-{}-{tag}", std::process::id()))
}

/// One (policy, hosts) cell over real `cusp-part worker` processes. `tag`
/// keeps out-dirs distinct between cells. Heartbeats are short so that
/// survivors notice a SIGKILLed or wedged peer in test time rather than
/// after the default 10 s of silence.
fn spec(policy: &str, hosts: usize, tag: &str) -> LaunchSpec {
    LaunchSpec {
        worker: PathBuf::from(env!("CARGO_BIN_EXE_cusp-part")),
        run: RunSpec {
            hosts,
            graph: graph_path().clone(),
            policy: PolicyKind::parse(policy).expect("a catalog policy"),
            out_dir: scratch(&format!("{tag}-{policy}-{hosts}")),
            cfg: CuspConfig::default(),
            heartbeat: Some(Duration::from_millis(50)),
        },
        kill: None,
        max_restarts: 3,
    }
}

/// Launches `spec` and asserts what `cusp-part launch` prints as verdicts:
/// per-pair byte/message conservation joined *across* processes, and every
/// host's partition bit-identical to the crash-free simulator's. The
/// narration and the error (which carries the stderr tails of the workers
/// it names) go into the panic message, so a failing cell is diagnosable
/// from the test log alone.
fn launch_ok(spec: &LaunchSpec) -> LaunchReport {
    let _budget = fleet_budget();
    let run = &spec.run;
    let mut narration = Vec::new();
    let report = launch_processes(spec, &mut narration).unwrap_or_else(|e| {
        let narration = String::from_utf8_lossy(&narration);
        panic!("launch {spec:?} failed: {e}\n--- narration ---\n{narration}")
    });
    assert!(report.conserved, "conservation violated: {report:?}");
    assert!(report.wire_messages > 0, "nothing crossed the wire: {report:?}");
    let sim = simulator_twin(run).expect("the crash-free simulator completes");
    assert_eq!(report.part_fingerprints, sim, "TCP and simulator partitions diverge, by host");
    // The workers really did write one partition per host.
    for h in 0..run.hosts {
        let part = part_path(&run.out_dir, h);
        assert!(part.is_file(), "worker {h} left no partition at {}", part.display());
    }
    report
}

fn launch(policy: &str, hosts: usize) {
    let report = launch_ok(&spec(policy, hosts, "plain"));
    assert_eq!((report.kill, report.kills, report.respawns, report.rejoins), (None, 0, 0, 0));
}

/// One kill-matrix cell: run under a seeded kill plan (chaos supervision)
/// and assert the recovered run still fingerprints identically to the
/// crash-free simulator. The seed fully determines victim/phase/mode, and
/// each cell asserts what its seed decides. `checkpoint` also hands workers
/// a checkpoint directory, so the respawned victim resumes from its last
/// phase checkpoint instead of recomputing from scratch — both restore
/// paths must land on the same answer.
fn launch_kill(
    policy: &str,
    hosts: usize,
    seed: u64,
    checkpoint: bool,
    (victim, mode, phase): (usize, KillMode, &'static str),
) -> LaunchReport {
    let mut spec = spec(policy, hosts, &format!("kill{seed}"));
    spec.kill = Some((seed, false));
    if checkpoint {
        spec.run.cfg.checkpoint_dir = Some(scratch(&format!("killck-{policy}-{hosts}-{seed}")));
    }
    let report = launch_ok(&spec);
    assert_eq!(report.kill, Some(KillDecision { victim, phase, mode }), "what seed {seed} decides");
    // (A late victim may already be DONE when the kill lands, and then is
    // not respawned; `respawns` is not the plan's to fix.)
    assert_eq!(report.kills, 1, "the plan fires once: {report:?}");
    report
}

// The policy x hosts matrix. One #[test] per cell so the harness reports
// failures per cell (fleets run one at a time, see `fleet_budget`).
// CVC/HVC/EEC cover the three structurally distinct policy classes (2D
// cartesian blocks, source-hashed edges, contiguous edge ranges), each
// with genuinely different communication patterns over the wire.

#[test]
fn cvc_2_hosts_matches_simulator() {
    launch("CVC", 2);
}

#[test]
fn cvc_4_hosts_matches_simulator() {
    launch("CVC", 4);
}

#[test]
fn hvc_2_hosts_matches_simulator() {
    launch("HVC", 2);
}

#[test]
fn hvc_4_hosts_matches_simulator() {
    launch("HVC", 4);
}

#[test]
fn eec_2_hosts_matches_simulator() {
    launch("EEC", 2);
}

#[test]
fn eec_4_hosts_matches_simulator() {
    launch("EEC", 4);
}

// The kill matrix: every policy class x {2,4} hosts, with one worker
// taken down mid-run by the seeded chaos supervisor and respawned. Seeds
// are chosen so the six cells jointly cover all three kill modes
// (SIGKILL, torn connection, SIGSTOP wedge) and both early and late
// pipeline phases; half the cells resume from phase checkpoints, half
// restart the victim from scratch. Every cell must end in fingerprint
// MATCH against the crash-free simulator.

#[test]
fn cvc_2_hosts_recovers_from_sigkill_at_read() {
    launch_kill("CVC", 2, 13, true, (1, KillMode::Kill, "read"));
}

#[test]
fn cvc_4_hosts_recovers_from_torn_connection_at_read() {
    launch_kill("CVC", 4, 1, true, (3, KillMode::Torn, "read"));
}

#[test]
fn hvc_2_hosts_recovers_from_sigkill_at_master() {
    launch_kill("HVC", 2, 11, false, (0, KillMode::Kill, "master"));
}

#[test]
fn hvc_4_hosts_recovers_from_wedge_at_alloc() {
    launch_kill("HVC", 4, 16, false, (1, KillMode::Wedge, "alloc"));
}

#[test]
fn eec_2_hosts_recovers_from_torn_connection_at_edge_assign() {
    launch_kill("EEC", 2, 5, true, (0, KillMode::Torn, "edge_assign"));
}

#[test]
fn eec_4_hosts_recovers_from_wedge_at_construct() {
    launch_kill("EEC", 4, 2, false, (3, KillMode::Wedge, "construct"));
}

#[test]
fn same_kill_seed_replays_the_same_decisions() {
    // The plan is a pure hash of (seed, hosts): two runs with the same
    // seed must decide the identical victim/phase/mode, making any
    // chaos failure replayable from nothing but the seed.
    let a = launch_kill("CVC", 2, 9, false, (1, KillMode::Torn, "read"));
    let b = launch_kill("CVC", 2, 9, false, (1, KillMode::Torn, "read"));
    assert_eq!(a.kill, b.kill, "same seed must replay the same kill decisions");
}

#[test]
fn exhausted_restart_budget_is_a_diagnosed_failure_not_a_hang() {
    // --kill-repeat re-kills every incarnation at the same phase, so a
    // budget of 1 restart is guaranteed to run out. The launcher must
    // exit non-zero with a one-line diagnostic — never print MATCH, and
    // never hang on the half-dead mesh.
    let out_dir = scratch("exhaust");
    let _budget = fleet_budget();
    let output = Command::new(env!("CARGO_BIN_EXE_cusp-part"))
        .arg("launch")
        .arg("--hosts")
        .arg("2")
        .arg("--graph")
        .arg(graph_path())
        .arg("--policy")
        .arg("EEC")
        .arg("--out-dir")
        .arg(&out_dir)
        .arg("--kill-seed")
        .arg("13") // seed 13 -> host 1, kill @ read: fires before any work
        .arg("--kill-repeat")
        .arg("--max-restarts")
        .arg("1")
        .args(["--heartbeat-ms", "50"])
        .output()
        .expect("spawn cusp-part launch");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "exhausted restarts must be a failure\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    assert!(
        stderr.contains("lost: exhausted 1 restart attempt(s)"),
        "must print the one-line exhaustion diagnostic\n--- stderr ---\n{stderr}"
    );
    assert!(!stdout.contains("MATCH"), "no MATCH after losing a host\n{stdout}");
}

#[test]
fn launch_surfaces_worker_failure_as_nonzero_exit() {
    // Workers that cannot even read the input die before meshing; the
    // launcher must report the failure and exit non-zero rather than
    // printing a bogus MATCH or hanging on half a mesh.
    let _budget = fleet_budget();
    let output = Command::new(env!("CARGO_BIN_EXE_cusp-part"))
        .arg("launch")
        .arg("--hosts")
        .arg("2")
        .arg("--graph")
        .arg("/nonexistent/definitely-missing.bgr")
        .arg("--policy")
        .arg("CVC")
        .arg("--out-dir")
        .arg(scratch("fail"))
        .output()
        .expect("spawn cusp-part launch");
    assert!(!output.status.success(), "launch must fail when workers cannot start");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("MATCH"), "no MATCH line on a failed run\n{stdout}");
}

#[test]
fn exhausted_restart_budget_is_host_lost() {
    // The same run as the CLI cell above, as a value: the victim of seed 13
    // is host 1, and one restart was made before the run was given up.
    let mut spec = spec("EEC", 2, "exhaust-typed");
    (spec.kill, spec.max_restarts) = (Some((13, true)), 1);
    let _budget = fleet_budget();
    let mut narration = Vec::new();
    match launch_processes(&spec, &mut narration) {
        Err(LaunchError::HostLost { host: 1, restarts: 1, .. }) => {}
        other => panic!("wanted HostLost {{ host: 1, restarts: 1 }}, got {other:?}"),
    }
    let narration = String::from_utf8(narration).expect("narration is text");
    assert_eq!(narration.matches("killing host 1 (kill)").count(), 2, "{narration}");
}

#[test]
fn worker_that_cannot_start_is_worker_failed_with_its_stderr() {
    let mut spec = spec("CVC", 2, "fail-typed");
    spec.run.graph = PathBuf::from("/nonexistent/definitely-missing.bgr");
    let _budget = fleet_budget();
    match launch_processes(&spec, &mut std::io::sink()) {
        Err(LaunchError::WorkerFailed { status, stderr_tail, .. }) => {
            assert!(!status.success());
            assert!(!stderr_tail.is_empty(), "the worker's panic message is in its stderr");
        }
        other => panic!("wanted WorkerFailed, got {other:?}"),
    }
}

#[test]
fn worker_stdout_is_outside_input_a_bad_row_is_a_typed_error() {
    // A fake worker: it listens nowhere, reports traffic toward a host
    // that does not exist, and then waits on its stdin for ever. The row
    // used to index the accounting tables unchecked.
    let dir = scratch("fake-worker");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (script, pids) = (dir.join("worker.sh"), dir.join("pids"));
    let _ = std::fs::remove_file(&pids);
    let text = format!(
        "#!/bin/sh\necho $$ >> {}\necho CUSP-WORKER-LISTEN 127.0.0.1:1\n\
         echo CUSP-WORKER-SENT 99 1 1\nread _peers\nread _never\n",
        pids.display()
    );
    std::fs::write(&script, text).expect("write fake worker");
    use std::os::unix::fs::PermissionsExt;
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");

    let mut spec = spec("CVC", 2, "fake-worker-out");
    spec.worker = script;
    let _budget = fleet_budget();
    match launch_processes(&spec, &mut std::io::sink()) {
        Err(LaunchError::Protocol { line, .. }) => assert_eq!(line, "CUSP-WORKER-SENT 99 1 1"),
        other => panic!("wanted Protocol, got {other:?}"),
    }
    // The fleet was killed and reaped on the way out: no fake worker lives.
    // (The second may have been killed before it wrote its pid.)
    let pids = std::fs::read_to_string(&pids).expect("the offending worker wrote its pid");
    assert!(pids.lines().count() >= 1, "{pids}");
    for pid in pids.lines() {
        assert!(!PathBuf::from(format!("/proc/{pid}")).exists(), "worker {pid} outlived launch");
    }
}

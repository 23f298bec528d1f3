//! Cross-process oracle battery: `cusp-part launch` forks real worker
//! processes, meshes them over loopback TCP, and compares the merged
//! partition against the in-process simulator. Each case asserts the
//! launcher's own end-to-end checks pass — per-pair byte/message
//! conservation joined *across* processes, and bit-identical
//! `partition_fingerprint` between the TCP run and the simulated run
//! under the determinism contract.
//!
//! These tests exercise the entire stack at once: CLI arg plumbing →
//! worker handshake protocol (listen line / PEERS line) → TcpTransport
//! mesh establishment → five-phase pipeline over real sockets → FIN
//! teardown → `.part` serialization → merge + fingerprint.
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

use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::write_bgr;

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

/// Runs `cusp-part launch` for one (policy, hosts) cell and asserts the
/// MATCH line and a zero exit. stdout/stderr are attached to the panic
/// message so a failing cell is diagnosable from the test log alone.
/// `tag` keeps out-dirs distinct between the crash-free and kill
/// matrices; `extra` appends launch flags (e.g. `--kill-seed`).
fn launch_with(policy: &str, hosts: usize, tag: &str, extra: &[String]) -> String {
    let out_dir = std::env::temp_dir().join(format!(
        "cusp-xproc-{}-{}-{}-{}",
        std::process::id(),
        tag,
        policy,
        hosts
    ));
    let _budget = fleet_budget();
    let output = Command::new(env!("CARGO_BIN_EXE_cusp-part"))
        .arg("launch")
        .arg("--hosts")
        .arg(hosts.to_string())
        .arg("--graph")
        .arg(graph_path())
        .arg("--policy")
        .arg(policy)
        .arg("--out-dir")
        .arg(&out_dir)
        .args(extra)
        // Short heartbeats so survivors notice a SIGKILLed or wedged peer
        // in CI time rather than after the default 10 s silence window.
        .env("CUSP_TCP_HEARTBEAT_MS", "50")
        .output()
        .expect("spawn cusp-part launch");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "launch {policy} x{hosts} ({tag}) failed ({:?})\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        output.status
    );
    assert!(
        stdout.contains("cross-process conservation: ok"),
        "launch {policy} x{hosts} ({tag}): conservation line missing\n{stdout}"
    );
    let fp_line = stdout
        .lines()
        .find(|l| l.starts_with("fingerprint "))
        .unwrap_or_else(|| panic!("launch {policy} x{hosts} ({tag}): no fingerprint line\n{stdout}"));
    assert!(
        fp_line.ends_with("MATCH"),
        "launch {policy} x{hosts} ({tag}): TCP and simulator partitions diverge: {fp_line}"
    );
    // The workers really did write one partition per host.
    for h in 0..hosts {
        let part = out_dir.join(format!("part-{h:04}.part"));
        assert!(part.is_file(), "worker {h} left no partition at {}", part.display());
    }
    stdout
}

fn launch(policy: &str, hosts: usize) {
    launch_with(policy, hosts, "plain", &[]);
}

/// One kill-matrix cell: run under `--kill-seed` (chaos supervision) and
/// assert the recovered run still fingerprints identically to the
/// crash-free simulator. The seed fully determines victim/phase/mode, so
/// each cell's comment records what its seed decides. `checkpoint` also
/// hands workers a `--checkpoint-dir`, so the respawned victim resumes
/// from its last phase checkpoint instead of recomputing from scratch —
/// both restore paths must land on the same answer.
fn launch_kill(policy: &str, hosts: usize, seed: u64, checkpoint: bool) -> String {
    let mut extra = vec!["--kill-seed".to_string(), seed.to_string()];
    if checkpoint {
        let ckpt = std::env::temp_dir().join(format!(
            "cusp-xproc-{}-killck-{}-{}-{}",
            std::process::id(),
            policy,
            hosts,
            seed
        ));
        extra.push("--checkpoint-dir".to_string());
        extra.push(ckpt.to_string_lossy().into_owned());
    }
    let stdout = launch_with(policy, hosts, &format!("kill{seed}"), &extra);
    assert!(
        stdout.lines().any(|l| l.starts_with("kill plan: seed ")),
        "kill run must print its seeded plan\n{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("recovery: ")),
        "kill run must print the recovery summary line\n{stdout}"
    );
    stdout
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
    launch_kill("CVC", 2, 13, true); // seed 13 -> host 1, kill @ read
}

#[test]
fn cvc_4_hosts_recovers_from_torn_connection_at_read() {
    launch_kill("CVC", 4, 1, true); // seed 1 -> host 3, torn @ read
}

#[test]
fn hvc_2_hosts_recovers_from_sigkill_at_master() {
    launch_kill("HVC", 2, 11, false); // seed 11 -> host 0, kill @ master
}

#[test]
fn hvc_4_hosts_recovers_from_wedge_at_alloc() {
    launch_kill("HVC", 4, 16, false); // seed 16 -> host 1, wedge @ alloc
}

#[test]
fn eec_2_hosts_recovers_from_torn_connection_at_edge_assign() {
    launch_kill("EEC", 2, 5, true); // seed 5 -> host 0, torn @ edge_assign
}

#[test]
fn eec_4_hosts_recovers_from_wedge_at_construct() {
    launch_kill("EEC", 4, 2, false); // seed 2 -> host 3, wedge @ construct
}

#[test]
fn same_kill_seed_replays_the_same_decisions() {
    // The plan is a pure hash of (seed, hosts): two runs with the same
    // seed must announce the identical victim/phase/mode, making any
    // chaos failure replayable from nothing but the seed.
    let a = launch_kill("CVC", 2, 9, false); // seed 9 -> host 1, torn @ read
    let b = launch_kill("CVC", 2, 9, false);
    let plan = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("kill plan: "))
            .expect("plan line")
            .to_string()
    };
    assert_eq!(plan(&a), plan(&b), "same seed must replay the same kill decisions");
}

#[test]
fn exhausted_restart_budget_is_a_diagnosed_failure_not_a_hang() {
    // --kill-repeat re-kills every incarnation at the same phase, so a
    // budget of 1 restart is guaranteed to run out. The launcher must
    // exit non-zero with a one-line diagnostic — never print MATCH, and
    // never hang on the half-dead mesh.
    let out_dir = std::env::temp_dir().join(format!(
        "cusp-xproc-{}-exhaust",
        std::process::id()
    ));
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
        .env("CUSP_TCP_HEARTBEAT_MS", "50")
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
        .arg(std::env::temp_dir().join(format!("cusp-xproc-{}-fail", std::process::id())))
        .output()
        .expect("spawn cusp-part launch");
    assert!(!output.status.success(), "launch must fail when workers cannot start");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("MATCH"), "no MATCH line on a failed run\n{stdout}");
}

//! Usage errors exit 2 with a message, never a panic and never a run with
//! a setting the caller did not ask for: `cusp-part` refuses a cluster of
//! zero hosts, and both binaries refuse a flag they do not know.

use std::process::Command;

fn cusp_part(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cusp-part"))
        .args(args)
        .output()
        .expect("run cusp-part")
}

#[test]
fn zero_hosts_is_a_usage_error_for_every_cluster_command() {
    let dir = std::env::temp_dir().join(format!("cusp-cli-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let graph = dir.join("g.bgr");
    let graph = graph.to_str().expect("utf-8 path");
    let gen = cusp_part(&[
        "gen", "--kind", "uniform", "--nodes", "50", "--degree", "4", "--out", graph,
    ]);
    assert!(
        gen.status.success(),
        "gen: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let wal = dir.join("w.wal");
    let wal = wal.to_str().expect("utf-8 path");
    let applied = cusp_part(&["apply", "--graph", graph, "--events", "5", "--wal", wal]);
    assert!(
        applied.status.success(),
        "apply: {}",
        String::from_utf8_lossy(&applied.stderr)
    );
    let out_dir = dir.join("parts");
    let out_dir = out_dir.to_str().expect("utf-8 path");

    let graph_policy = ["--graph", graph, "--policy", "CVC", "--hosts", "0"];
    let runs: [(&str, &[&str]); 3] = [
        ("partition", &["--out-dir", out_dir]),
        ("launch", &["--out-dir", out_dir]),
        ("wal-replay", &["--wal", wal]),
    ];
    for (cmd, extra) in runs {
        let out = cusp_part(&[&[cmd][..], &graph_policy, extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{cmd} --hosts 0 exits 2\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{cmd} --hosts 0 must not panic\n{stderr}"
        );
        assert!(
            stderr.contains("--hosts must be at least 1"),
            "{cmd}: says why\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag the command does not take is a usage error naming it, before
/// any work: a misspelt `--thread` must not run at the default thread
/// count, and a switch the binary does not have must not eat the next
/// argument as its value.
#[test]
fn cusp_part_refuses_a_flag_it_does_not_know() {
    let runs: [(&str, &[&str]); 3] = [
        ("--thread", &["partition", "--graph", "no.bgr", "--policy", "SVC", "--hosts", "2", "--thread", "4"]),
        ("--verbose", &["partition", "--verbose", "--graph", "no.bgr", "--policy", "SVC", "--hosts", "2"]),
        ("--hosts", &["gen", "--kind", "kron", "--nodes", "64", "--hosts", "2", "--out", "no.bgr"]),
    ];
    for (flag, args) in runs {
        let out = cusp_part(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} exits 2\n{stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{args:?}: names {flag}\n{stderr}");
    }
}

#[test]
fn cusp_serve_refuses_a_flag_it_does_not_know() {
    for flag in ["--verbose", "--thread"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cusp-serve"))
            .args([flag, "1", "--addr", "127.0.0.1:0"])
            .output()
            .expect("run cusp-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} exits 2\n{stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "names {flag}\n{stderr}");
    }
}

/// A file the command cannot read is one `cusp-part: <path>: <error>`
/// line and exit 1 — the reader's own message, not a panic around it: a
/// `.part` cut short, for `inspect` and inside `validate --parts`, and a
/// `.bgr` that is not there, for `props`.
#[test]
fn an_unreadable_file_is_one_line_and_exit_1() {
    let dir = std::env::temp_dir().join(format!("cusp-cli-files-{}", std::process::id()));
    let parts = dir.join("parts");
    std::fs::create_dir_all(&parts).expect("scratch dir");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 path").to_owned();
    let graph = path(&dir.join("g.bgr"));
    let gen = cusp_part(&["gen", "--kind", "webcrawl", "--nodes", "2000", "--degree", "8", "--out", &graph]);
    assert!(gen.status.success(), "gen: {}", String::from_utf8_lossy(&gen.stderr));
    let full = path(&dir.join("full"));
    let run = cusp_part(&["partition", "--graph", &graph, "--policy", "CVC", "--hosts", "2", "--out-dir", &full]);
    assert!(run.status.success(), "partition: {}", String::from_utf8_lossy(&run.stderr));
    let bytes = std::fs::read(dir.join("full").join("part-0000.part")).expect("a written part");
    let cut = path(&dir.join("cut.part"));
    std::fs::write(&cut, &bytes[..200]).expect("write the cut part");
    std::fs::write(parts.join("part-0000.part"), &bytes[..300]).expect("write the cut part");
    let missing = path(&dir.join("missing.bgr"));

    let runs: [(&[&str], &str); 3] = [
        (&["inspect", &cut], "cannot fit in 200-byte file"),
        (&["validate", "--graph", &graph, "--parts", &path(&parts)], "cannot fit in 300-byte file"),
        (&["props", &missing], "No such file"),
    ];
    for (args, reason) in runs {
        let out = cusp_part(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} exits 1\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} must not panic\n{stderr}");
        assert!(stderr.starts_with("cusp-part: ") && stderr.contains(reason), "{args:?}: says why\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `.bgr` cut short, or not there at all, is refused before any host or
/// worker starts: `partition` and `launch` each print the reader's one
/// error and exit 1, with no backtrace from inside the pipeline.
#[test]
fn a_cut_or_missing_graph_is_refused_before_any_host_starts() {
    let dir = std::env::temp_dir().join(format!("cusp-cli-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let (graph, cut, missing, out_dir) = (path("g.bgr"), path("cut.bgr"), path("missing.bgr"), path("parts"));
    let gen = cusp_part(&["gen", "--kind", "webcrawl", "--nodes", "2000", "--degree", "8", "--out", &graph]);
    assert!(gen.status.success(), "gen: {}", String::from_utf8_lossy(&gen.stderr));
    let bytes = std::fs::read(&graph).expect("the generated graph");
    std::fs::write(&cut, &bytes[..bytes.len() - 4]).expect("write the cut graph");

    for cmd in ["partition", "launch"] {
        for (input, reason) in [(&cut, "but the file is"), (&missing, "No such file")] {
            let args = [cmd, "--graph", input, "--policy", "CVC", "--hosts", "2", "--out-dir", &out_dir];
            let out = cusp_part(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?} exits 1\n{stderr}");
            assert!(!stderr.contains("panicked"), "{args:?} must not panic\n{stderr}");
            assert!(stderr.contains(reason) && stderr.contains(input.as_str()), "{args:?}: says why\n{stderr}");
            if input == &cut {
                assert!(stderr.contains("header claims"), "{args:?}: the reader's message\n{stderr}");
            }
            assert_eq!(stderr.lines().count(), 1, "{args:?}: one line\n{stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cusp-part … | head -1`: a reader that closes the pipe early silences
/// the output and nothing else. The command still writes and checks its
/// files and exits with its own status (0 here), with nothing on stderr
/// and never a panic.
/// The read end is closed before the command prints anything, so every
/// write meets the closed pipe.
#[test]
fn a_closed_stdout_silences_the_command_but_not_its_work() {
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("cusp-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let (graph, parts, wal, applied) = (path("g.bgr"), path("parts"), path("w.wal"), path("g2.bgr"));
    let gen = cusp_part(&["gen", "--kind", "webcrawl", "--nodes", "500", "--degree", "4", "--out", &graph]);
    assert!(gen.status.success(), "gen: {}", String::from_utf8_lossy(&gen.stderr));
    let runs: [&[&str]; 3] = [
        &["partition", "--graph", &graph, "--policy", "CVC", "--hosts", "4", "--out-dir", &parts],
        &["apply", "--graph", &graph, "--events", "5", "--wal", &wal, "--out", &applied],
        &["props", &graph],
    ];
    for args in runs {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cusp-part"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run cusp-part");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for cusp-part");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{}: {stderr}", args[0]);
        assert_eq!(out.status.code(), Some(0), "{}: {stderr}", args[0]);
        assert!(stderr.is_empty(), "{}: {stderr}", args[0]);
    }
    // The work after the first print still happened: the partitions were
    // written, the batch journaled and the updated graph written.
    let validated = cusp_part(&["validate", "--graph", &graph, "--parts", &parts]);
    assert!(validated.status.success(), "validate: {}", String::from_utf8_lossy(&validated.stderr));
    let replayed = cusp_part(&["wal-replay", "--graph", &graph, "--wal", &wal]);
    let stdout = String::from_utf8_lossy(&replayed.stdout);
    assert!(replayed.status.success() && stdout.contains(": 1 batch(es)"), "wal-replay: {stdout}");
    assert!(std::path::Path::new(&applied).is_file(), "apply --out wrote no graph");
    std::fs::remove_dir_all(&dir).ok();
}

/// `partition --csc` validates its parts, checked transposed back to
/// source rows, and a weighted input's parts carry their weights.
#[test]
fn a_weighted_csc_partition_is_validated() {
    let dir = std::env::temp_dir().join(format!("cusp-cli-csc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let graph = dir.join("w.bgr");
    let g = cusp_graph::gen::uniform::erdos_renyi(2000, 16000, 3);
    let weights: Vec<u32> = (0..g.num_edges() as u32).collect();
    cusp_graph::write_bgr_weighted(&graph, &g, &weights).expect("write the weighted graph");
    let parts = dir.join("parts");
    let (graph, parts) = (graph.to_str().expect("utf-8 path"), parts.to_str().expect("utf-8 path"));
    let run = cusp_part(&["partition", "--graph", graph, "--policy", "HVC", "--hosts", "4", "--csc", "--out-dir", parts]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "partition: {}", String::from_utf8_lossy(&run.stderr));
    assert!(stdout.contains("validation: ok"), "partition --csc checks its parts: {stdout}");
    let part = cusp::read_partition(&dir.join("parts").join("part-0000.part")).expect("a written part");
    assert!(part.edge_data.is_some(), "a weighted input's part has no weights");
    std::fs::remove_dir_all(&dir).ok();
}

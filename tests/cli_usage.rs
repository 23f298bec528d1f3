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

//! CI's structural guards, run by `cargo test`: each `ci/guards/<step>.sh`
//! is the body of one step of `.github/workflows/ci.yml` (a `run: bash -e
//! ci/guards/<step>.sh` line under the step's `- name:`), so a guard fails
//! here before it fails in CI. The scripts only read the tree; steps that
//! build or run a binary stay in `ci.yml`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// Every CI step that runs a guard script: `(step name, script path)`.
fn guard_steps(root: &Path) -> Vec<(String, String)> {
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let mut name = None;
    let mut steps = Vec::new();
    for line in ci.lines().map(str::trim) {
        if let Some(step) = line.strip_prefix("- name: ") {
            name = Some(step.to_string());
        } else if let Some(script) = line.strip_prefix("run: bash -e ci/guards/") {
            let step = name
                .take()
                .expect("a guard's run line follows its step's name");
            steps.push((step, format!("ci/guards/{script}")));
        }
    }
    steps
}

#[test]
fn every_guard_script_is_one_ci_step_and_passes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let steps = guard_steps(root);
    let scripts: BTreeSet<String> = std::fs::read_dir(root.join("ci/guards"))
        .expect("ci/guards")
        .map(|entry| {
            format!(
                "ci/guards/{}",
                entry.expect("entry").file_name().to_string_lossy()
            )
        })
        .collect();
    let run: BTreeSet<String> = steps.iter().map(|(_, script)| script.clone()).collect();
    assert_eq!(
        run.len(),
        steps.len(),
        "a guard script is run by one CI step"
    );
    assert_eq!(
        scripts, run,
        "ci/guards holds exactly the scripts ci.yml runs"
    );

    let failed: Vec<String> = steps
        .iter()
        .filter_map(|(step, script)| {
            let out = Command::new("bash")
                .args(["-e", script])
                .current_dir(root)
                .output();
            let out = out.expect("bash runs");
            let said = |bytes: &[u8]| String::from_utf8_lossy(bytes).trim_end().to_string();
            let detail = format!("{}\n{}", said(&out.stdout), said(&out.stderr));
            (!out.status.success()).then(|| format!("\"{step}\" ({script}):\n{}", detail.trim()))
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} CI guard(s) fail:\n\n{}",
        failed.len(),
        failed.join("\n\n")
    );
}

//! Process-level durability: a `stencilcl run` hard-killed (SIGKILL — no
//! destructors, no flushing) mid-run is resumed by `stencilcl resume` from
//! its on-disk checkpoint store and produces the identical grid digest an
//! uninterrupted run prints, for a pipe and a baseline design alike. This
//! is the end-to-end guarantee the in-crate persistence tests cannot
//! give: the dying and the resuming supervisor live in different
//! processes.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_stencilcl")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stencilcl-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Long enough that the child is still computing when the kill lands,
/// small enough that the resumed remainder finishes quickly.
fn write_stencil(dir: &Path) -> PathBuf {
    let file = dir.join("heat.stencil");
    std::fs::write(
        &file,
        "stencil heat { grid A[64][64] : f32; iterations 600;
         A[i][j] = 0.5 * A[i][j] + 0.125 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]); }",
    )
    .unwrap();
    file
}

fn design_flags(file: &Path, kind: &str) -> Vec<String> {
    vec![
        file.to_string_lossy().to_string(),
        "--kind".into(),
        kind.into(),
        "--fused".into(),
        "2".into(),
        "--parallelism".into(),
        "2x2".into(),
        "--tile".into(),
        "8x8".into(),
    ]
}

fn digest_of(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("grid digest:"))
        .unwrap_or_else(|| panic!("no grid digest in:\n{stdout}"))
        .to_string()
}

fn generation_count(store: &Path) -> usize {
    match std::fs::read_dir(store) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".stckpt"))
            })
            .count(),
        Err(_) => 0,
    }
}

#[test]
fn sigkilled_run_resumes_to_the_identical_digest() {
    let dir = scratch("resume");
    let file = write_stencil(&dir);

    // Reference: the digest of an uninterrupted run of the same program.
    // Every design kind computes the same grid, so one digest serves both
    // round trips.
    let clean = Command::new(bin())
        .arg("run")
        .args(design_flags(&file, "pipe"))
        .output()
        .unwrap();
    assert!(
        clean.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let expect = digest_of(&String::from_utf8_lossy(&clean.stdout));
    for kind in ["pipe", "baseline"] {
        kill_and_resume(&dir, &file, kind, &expect);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILLs a checkpointing `kind` run of `file` and resumes it twice,
/// expecting the uninterrupted digest `expect` each time.
fn kill_and_resume(dir: &Path, file: &Path, kind: &str, expect: &str) {
    let store = dir.join(format!("store-{kind}"));

    // The victim: same run, checkpointing every barrier. SIGKILL it as soon
    // as a couple of generations are sealed — mid-computation, with no
    // chance to flush or unwind.
    let mut child = Command::new(bin())
        .arg("run")
        .args(design_flags(file, kind))
        .args(["--ckpt-dir", store.to_str().unwrap(), "--ckpt-every", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let patience = Instant::now();
    let mut finished_first = false;
    loop {
        if generation_count(&store) >= 2 {
            break;
        }
        if let Some(status) = child.try_wait().unwrap() {
            // The run outran the poller (possible on a very fast machine);
            // the resume below then exercises the finished-run path.
            assert!(status.success(), "checkpointed run failed");
            finished_first = true;
            break;
        }
        assert!(
            patience.elapsed() < Duration::from_secs(60),
            "no checkpoint generation appeared within 60 s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    if !finished_first {
        child.kill().unwrap();
        let status = child.wait().unwrap();
        assert!(!status.success(), "kill did not interrupt the run");
    }
    assert!(generation_count(&store) >= 1, "no generation survived");

    // Resume in a fresh process: manifest-only (no source file, no design
    // flags), same digest, and a machine-readable report.
    let report_path = dir.join(format!("resume-report-{kind}.json"));
    let resumed = Command::new(bin())
        .arg("resume")
        .arg(store.to_str().unwrap())
        .args(["--report-json", report_path.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        resumed.status.success(),
        "resume failed:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("resume completed"), "{stdout}");
    assert_eq!(digest_of(&stdout), expect, "{kind}: {stdout}");
    let report = std::fs::read_to_string(&report_path).unwrap();
    assert!(report.contains("\"attempts\""), "{report}");

    // The store was pruned throughout: the default policy keeps 3.
    assert!(generation_count(&store) <= 3, "store was never pruned");

    // A second resume of the now-finished run is idempotent: same digest,
    // no extra iterations executed.
    let again = Command::new(bin())
        .arg("resume")
        .arg(store.to_str().unwrap())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&again.stdout);
    assert!(again.status.success(), "{stdout}");
    assert_eq!(digest_of(&stdout), expect, "{kind}: {stdout}");
}

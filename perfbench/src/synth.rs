//! The synth workload: the paper's Figure 5 flow as an engineer runs it,
//! one `stencilcl synth --parallelism 4x4` process per program, in turn.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs::{Coefs, Prog, Rng};

/// The designs `synth` must choose: the `baseline:` and `heterogeneous:`
/// lines of its summary, captured at the commit that defined the benchmark.
/// The seed changes only coefficient values, never operation counts, so
/// the choice is the same for every seed.
pub struct Expected {
    lines: Vec<(String, [String; 2])>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut lines = Vec::new();
        for p in crate::inputs::PROGS {
            let entry = v
                .get(p.name())
                .ok_or_else(|| format!("no expected design for {}", p.name()))?;
            let get = |k: &str| match entry.get(k) {
                Some(serde::Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("expected design for {} lacks `{k}`", p.name())),
            };
            lines.push((
                p.name().to_string(),
                [get("baseline")?, get("heterogeneous")?],
            ));
        }
        Ok(Expected { lines })
    }

    pub fn poison(&mut self) {
        for (_, l) in &mut self.lines {
            l[1].push_str(" (poisoned)");
        }
    }

    fn check(&self, prog: Prog, stdout: &str) -> Result<(), String> {
        let (_, want) = self
            .lines
            .iter()
            .find(|(n, _)| n == prog.name())
            .expect("every program has an entry");
        for (key, want) in ["baseline:", "heterogeneous:"].iter().zip(want) {
            let got = stdout
                .lines()
                .map(str::trim)
                .find(|l| l.starts_with(key))
                .unwrap_or("");
            if got != want {
                return Err(format!("{}: chose `{got}`, expected `{want}`", prog.name()));
            }
        }
        Ok(())
    }
}

/// Runs one `synth` process to completion (killed after 60 s) and checks
/// its exit status, chosen designs and written files.
pub fn run_one(
    bin: &Path,
    src: &Path,
    out: &Path,
    prog: Prog,
    expected: &Expected,
) -> Result<(), String> {
    let mut child = Command::new(bin)
        .arg("synth")
        .arg(src)
        .args(["--parallelism", "4x4", "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn synth: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().map_err(|e| e.to_string())?.is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{}: synth timed out", prog.name()));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{}: synth exited {}: {}",
            prog.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    expected.check(prog, &String::from_utf8_lossy(&output.stdout))?;
    for f in ["kernels.cl", "host.cpp"] {
        let len = std::fs::metadata(out.join(f)).map(|m| m.len()).unwrap_or(0);
        if len == 0 {
            return Err(format!("{}: synth wrote no {f}", prog.name()));
        }
    }
    let _ = std::fs::remove_dir_all(out);
    Ok(())
}

/// One set-up synth on the small program: exit status and files checked.
pub fn run_setup(bin: &Path, src: &Path, out: &Path) -> Result<(), String> {
    let status = Command::new(bin)
        .arg("synth")
        .arg(src)
        .args(["--parallelism", "4x4", "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawn synth: {e}"))?;
    let wrote = std::fs::metadata(out.join("kernels.cl")).is_ok_and(|m| m.len() > 0);
    let _ = std::fs::remove_dir_all(out);
    if status.success() && wrote {
        Ok(())
    } else {
        Err(format!(
            "set-up synth exited {status}, kernels written: {wrote}"
        ))
    }
}

/// Writes the seed's sources into `tmp` and returns them in bundle order.
pub fn write_sources(tmp: &Path, seed: u64) -> Result<Vec<(Prog, PathBuf)>, String> {
    crate::inputs::synth_bundle(seed)
        .into_iter()
        .map(|(p, src)| {
            let path = tmp.join(format!("{}.stencil", p.name()));
            std::fs::write(&path, src).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((p, path))
        })
        .collect()
}

/// The set-up program: a 1024² Jacobi-2D (about 0.1 s of synth) that
/// prices process start, parsing and a small search, so set-up work moved
/// into the binary shows.
pub fn write_setup_source(tmp: &Path, seed: u64) -> Result<PathBuf, String> {
    let coefs = Coefs::from_rng(&mut Rng::new(seed));
    let path = tmp.join("setup.stencil");
    std::fs::write(&path, coefs.source(Prog::Jacobi, 1024, 128)).map_err(|e| e.to_string())?;
    Ok(path)
}

//! Parsed-once process configuration for every `STENCILCL_*` knob.
//!
//! The executors, bench harness, and CLI used to each read and re-parse
//! their own environment variables, silently falling back on malformed
//! values. This module parses the whole knob set exactly once per process,
//! warns (one line to stderr, naming the variable and the rejected value)
//! on anything malformed, and hands out a `&'static EnvConfig`. Only
//! binaries read it: each maps the snapshot once into the options structs
//! it passes downward, and the libraries never consult the environment.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Every recognized environment knob, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// `STENCILCL_WATCHDOG_MS`: supervised watchdog timeout override.
    pub watchdog_ms: Option<u64>,
    /// `STENCILCL_DRAIN_MS`: supervised drain window override.
    pub drain_ms: Option<u64>,
    /// `STENCILCL_MAX_RETRIES`: supervised retry budget override.
    pub max_retries: Option<u32>,
    /// `STENCILCL_RESULTS`: directory bench bins write artifacts under.
    pub results_dir: PathBuf,
    /// `STENCILCL_TRACE`: record telemetry spans. Truthy = set, non-empty,
    /// and not `"0"`.
    pub trace: bool,
    /// `STENCILCL_DEADLINE_MS`: wall-clock run deadline override.
    pub deadline_ms: Option<u64>,
    /// `STENCILCL_HEALTH_BOUND`: numerical-health magnitude bound; any
    /// finite positive value arms the watchdog in bounded mode.
    pub health_bound: Option<f64>,
    /// `STENCILCL_HEALTH_STRIDE`: health-scan sampling stride (≥ 1).
    pub health_stride: Option<usize>,
    /// `STENCILCL_CKPT_DIR`: directory durable checkpoint generations are
    /// sealed into; `None` disables checkpointing.
    pub ckpt_dir: Option<PathBuf>,
    /// `STENCILCL_CKPT_EVERY`: checkpoint every k-th fused-block barrier
    /// (≥ 1); `None` uses the policy default.
    pub ckpt_every: Option<u64>,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            watchdog_ms: None,
            drain_ms: None,
            max_retries: None,
            results_dir: PathBuf::from("results"),
            trace: false,
            deadline_ms: None,
            health_bound: None,
            health_stride: None,
            ckpt_dir: None,
            ckpt_every: None,
        }
    }
}

fn truthy(value: &str) -> bool {
    !value.is_empty() && value != "0"
}

impl EnvConfig {
    /// Parses the knob set through `lookup` (injectable for tests).
    /// Returns the config plus one warning line per malformed value; each
    /// warning names the variable and the rejected value, and the knob
    /// falls back to its default.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> (EnvConfig, Vec<String>) {
        let mut cfg = EnvConfig::default();
        let mut warnings = Vec::new();
        if let Some(v) = lookup("STENCILCL_TRACE") {
            cfg.trace = truthy(v.trim());
        }
        let mut ms = |var: &str, slot: &mut Option<u64>| {
            if let Some(v) = lookup(var) {
                match v.trim().parse::<u64>() {
                    Ok(n) => *slot = Some(n),
                    Err(_) => warnings.push(format!(
                        "{var}: ignoring {v:?} (want milliseconds as an integer)"
                    )),
                }
            }
        };
        ms("STENCILCL_WATCHDOG_MS", &mut cfg.watchdog_ms);
        ms("STENCILCL_DRAIN_MS", &mut cfg.drain_ms);
        ms("STENCILCL_DEADLINE_MS", &mut cfg.deadline_ms);
        if let Some(v) = lookup("STENCILCL_HEALTH_BOUND") {
            match v.trim().parse::<f64>() {
                Ok(b) if b.is_finite() && b > 0.0 => cfg.health_bound = Some(b),
                _ => warnings.push(format!(
                    "STENCILCL_HEALTH_BOUND: ignoring {v:?} (want a finite positive number)"
                )),
            }
        }
        if let Some(v) = lookup("STENCILCL_HEALTH_STRIDE") {
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => cfg.health_stride = Some(n),
                _ => warnings.push(format!(
                    "STENCILCL_HEALTH_STRIDE: ignoring {v:?} (want an integer >= 1)"
                )),
            }
        }
        if let Some(v) = lookup("STENCILCL_MAX_RETRIES") {
            match v.trim().parse::<u32>() {
                Ok(n) => cfg.max_retries = Some(n),
                Err(_) => warnings.push(format!(
                    "STENCILCL_MAX_RETRIES: ignoring {v:?} (want a non-negative integer)"
                )),
            }
        }
        if let Some(v) = lookup("STENCILCL_RESULTS") {
            if v.trim().is_empty() {
                warnings.push("STENCILCL_RESULTS: ignoring empty value".to_string());
            } else {
                cfg.results_dir = PathBuf::from(v);
            }
        }
        if let Some(v) = lookup("STENCILCL_CKPT_DIR") {
            if v.trim().is_empty() {
                warnings.push("STENCILCL_CKPT_DIR: ignoring empty value".to_string());
            } else {
                cfg.ckpt_dir = Some(PathBuf::from(v));
            }
        }
        if let Some(v) = lookup("STENCILCL_CKPT_EVERY") {
            match v.trim().parse::<u64>() {
                Ok(n) if n >= 1 => cfg.ckpt_every = Some(n),
                _ => warnings.push(format!(
                    "STENCILCL_CKPT_EVERY: ignoring {v:?} (want an integer >= 1)"
                )),
            }
        }
        (cfg, warnings)
    }

    /// Parses from the process environment, emitting warnings to stderr.
    pub fn from_env() -> EnvConfig {
        let (cfg, warnings) = EnvConfig::parse(|var| std::env::var(var).ok());
        for w in warnings {
            eprintln!("[stencilcl] {w}");
        }
        cfg
    }

    /// The process-wide config, parsed on first use. Later changes to the
    /// environment are deliberately not observed — pass options structs to
    /// the executors instead of mutating env mid-process.
    pub fn get() -> &'static EnvConfig {
        static CONFIG: OnceLock<EnvConfig> = OnceLock::new();
        CONFIG.get_or_init(EnvConfig::from_env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |var| map.get(var).cloned()
    }

    #[test]
    fn unset_env_yields_defaults_without_warnings() {
        let (cfg, warnings) = EnvConfig::parse(|_| None);
        assert_eq!(cfg, EnvConfig::default());
        assert!(warnings.is_empty());
        assert!(!cfg.trace);
        assert_eq!(cfg.results_dir, PathBuf::from("results"));
    }

    #[test]
    fn truthy_rule_matches_legacy_behavior() {
        for (v, want) in [("1", true), ("yes", true), ("0", false), ("", false)] {
            let (cfg, _) = EnvConfig::parse(env(&[("STENCILCL_TRACE", v)]));
            assert_eq!(cfg.trace, want, "STENCILCL_TRACE={v:?}");
        }
    }

    #[test]
    fn well_formed_values_parse() {
        let (cfg, warnings) = EnvConfig::parse(env(&[
            ("STENCILCL_WATCHDOG_MS", "1500"),
            ("STENCILCL_DRAIN_MS", "250"),
            ("STENCILCL_MAX_RETRIES", "0"),
            ("STENCILCL_RESULTS", "/tmp/out"),
        ]));
        assert!(warnings.is_empty());
        assert_eq!(cfg.watchdog_ms, Some(1500));
        assert_eq!(cfg.drain_ms, Some(250));
        assert_eq!(cfg.max_retries, Some(0));
        assert_eq!(cfg.results_dir, PathBuf::from("/tmp/out"));
    }

    #[test]
    fn malformed_values_warn_by_name_and_fall_back() {
        let (cfg, warnings) = EnvConfig::parse(env(&[
            ("STENCILCL_WATCHDOG_MS", "soon"),
            ("STENCILCL_HEALTH_STRIDE", "0"),
            ("STENCILCL_MAX_RETRIES", "-1"),
        ]));
        assert_eq!(cfg.health_stride, None);
        assert_eq!(cfg.watchdog_ms, None);
        assert_eq!(cfg.max_retries, None);
        assert_eq!(warnings.len(), 3);
        assert!(warnings[0].contains("STENCILCL_WATCHDOG_MS") && warnings[0].contains("soon"));
        assert!(warnings[1].contains("STENCILCL_HEALTH_STRIDE") && warnings[1].contains("0"));
        assert!(warnings[2].contains("STENCILCL_MAX_RETRIES") && warnings[2].contains("-1"));
    }

    #[test]
    fn integrity_and_health_knobs_parse() {
        // `STENCILCL_INTEGRITY` and `STENCILCL_INTERPRET` are retired:
        // setting them is silently ignored.
        let (cfg, warnings) = EnvConfig::parse(env(&[
            ("STENCILCL_DEADLINE_MS", "5000"),
            ("STENCILCL_HEALTH_BOUND", "1e12"),
            ("STENCILCL_HEALTH_STRIDE", "7"),
            ("STENCILCL_INTEGRITY", "1"),
            ("STENCILCL_INTERPRET", "1"),
        ]));
        assert!(warnings.is_empty());
        assert_eq!(
            cfg,
            EnvConfig {
                deadline_ms: Some(5000),
                health_bound: Some(1e12),
                health_stride: Some(7),
                ..EnvConfig::default()
            }
        );
    }

    #[test]
    fn malformed_health_knobs_warn_and_fall_back() {
        let (cfg, warnings) = EnvConfig::parse(env(&[
            ("STENCILCL_HEALTH_BOUND", "-3"),
            ("STENCILCL_HEALTH_STRIDE", "0"),
            ("STENCILCL_DEADLINE_MS", "later"),
        ]));
        assert_eq!(cfg.health_bound, None);
        assert_eq!(cfg.health_stride, None);
        assert_eq!(cfg.deadline_ms, None);
        assert_eq!(warnings.len(), 3);
        assert!(warnings
            .iter()
            .any(|w| w.contains("STENCILCL_HEALTH_BOUND")));
        assert!(warnings
            .iter()
            .any(|w| w.contains("STENCILCL_HEALTH_STRIDE")));
        assert!(warnings.iter().any(|w| w.contains("STENCILCL_DEADLINE_MS")));
    }

    #[test]
    fn lane_and_tile_knobs_parse() {
        // The lane and tile knobs are retired: setting them is silently
        // ignored (the lane width is the compiler default for every run).
        for lanes in ["1", "8", "16", "256"] {
            let (cfg, warnings) = EnvConfig::parse(env(&[
                ("STENCILCL_LANES", lanes),
                ("STENCILCL_TILE", "64"),
                ("STENCILCL_BLOCK_DEPTH", "4"),
                ("STENCILCL_THREADS", "6"),
            ]));
            assert!(warnings.is_empty());
            assert_eq!(cfg, EnvConfig::default());
        }
    }

    #[test]
    fn malformed_lane_and_tile_knobs_warn_and_fall_back() {
        // Retired knobs are never read, so even malformed values stay
        // silent; a malformed live knob beside them still warns.
        for lanes in ["0", "17", "32", "wide"] {
            let (cfg, warnings) = EnvConfig::parse(env(&[
                ("STENCILCL_LANES", lanes),
                ("STENCILCL_TILE", "0"),
                ("STENCILCL_BLOCK_DEPTH", "0"),
                ("STENCILCL_THREADS", "many"),
                ("STENCILCL_CKPT_EVERY", "0"),
            ]));
            assert_eq!(cfg, EnvConfig::default());
            assert_eq!(warnings.len(), 1);
            assert!(warnings[0].contains("STENCILCL_CKPT_EVERY"));
        }
    }

    #[test]
    fn checkpoint_knobs_parse() {
        let (cfg, warnings) = EnvConfig::parse(env(&[
            ("STENCILCL_CKPT_DIR", "/tmp/ckpt"),
            ("STENCILCL_CKPT_EVERY", "4"),
        ]));
        assert!(warnings.is_empty());
        assert_eq!(cfg.ckpt_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert_eq!(cfg.ckpt_every, Some(4));
    }

    #[test]
    fn malformed_checkpoint_knobs_warn_and_fall_back() {
        let (cfg, warnings) = EnvConfig::parse(env(&[
            ("STENCILCL_CKPT_DIR", "  "),
            ("STENCILCL_CKPT_EVERY", "0"),
        ]));
        assert_eq!(cfg.ckpt_dir, None);
        assert_eq!(cfg.ckpt_every, None);
        assert_eq!(warnings.len(), 2);
        assert!(warnings.iter().any(|w| w.contains("STENCILCL_CKPT_DIR")));
        assert!(warnings.iter().any(|w| w.contains("STENCILCL_CKPT_EVERY")));
    }

    #[test]
    fn whitespace_is_trimmed() {
        let (cfg, warnings) = EnvConfig::parse(env(&[("STENCILCL_HEALTH_STRIDE", " 4 ")]));
        assert!(warnings.is_empty());
        assert_eq!(cfg.health_stride, Some(4));
    }
}

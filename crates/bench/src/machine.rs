//! Host machine identification for perfbench's `# machine:` line, which
//! every `BENCH_*.json` record copies.
//!
//! A timing is meaningless without the machine that produced it, so
//! every benchmark run names the CPU model, logical core count, rustc
//! version and git revision. Detection is best-effort: anything
//! that cannot be determined (no `/proc/cpuinfo`, no `git` in PATH, a
//! stripped container) degrades to `"unknown"` rather than failing the
//! run.

/// What produced a benchmark run: CPU, cores, toolchain, revision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// CPU model string (`model name` from `/proc/cpuinfo`).
    pub cpu_model: String,
    /// Logical cores available to the process.
    pub cores: usize,
    /// `rustc --version` of the toolchain on PATH.
    pub rustc: String,
    /// Short git revision of the working tree.
    pub git_sha: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
}

impl MachineInfo {
    /// Probes the current host.
    pub fn detect() -> MachineInfo {
        MachineInfo {
            cpu_model: cpu_model(),
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: command_output("rustc", &["--version"]),
            git_sha: command_output("git", &["rev-parse", "--short=12", "HEAD"]),
            os: std::env::consts::OS.to_string(),
        }
    }
}

fn cpu_model() -> String {
    if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, value)) = rest.split_once(':') {
                    return value.trim().to_string();
                }
            }
        }
    }
    "unknown".into()
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_fills_every_field() {
        let m = MachineInfo::detect();
        assert!(m.cores >= 1);
        assert!(!m.cpu_model.is_empty());
        assert!(!m.rustc.is_empty());
        assert!(!m.git_sha.is_empty());
        assert!(!m.os.is_empty());
    }

    #[test]
    fn missing_command_degrades_to_unknown() {
        assert_eq!(
            command_output("definitely-not-a-real-binary-name", &[]),
            "unknown"
        );
    }
}

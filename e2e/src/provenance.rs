//! Where a result came from (code, toolchain, host, load) and the process
//! readings taken from `/proc`.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// Short git revision of the tree the benchmark runs in, or `unknown` in
/// an exported checkout. The ceiling keeps git from walking out of the
/// checkout to look for a repository above it.
pub fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    first_line(
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    first_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One-minute load average; `None` off Linux.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A run started above this one-minute load is marked `disturbed`.
pub const DISTURBED_LOAD: f64 = 1.5;

/// Peak resident set (`VmHWM`) of this process in MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks; Linux fixes `USER_HZ` at 100). 0 off
/// Linux, so CPU metrics read 0 there rather than garbage.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 11 and 12 here.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.03, "cpu time did not advance");
        assert!(peak_rss_mb().expect("VmHWM present") > 0.5);
        assert!(loadavg().expect("loadavg present") >= 0.0);
        assert!(nproc() >= 1);
    }
}

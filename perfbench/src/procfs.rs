//! Process counters read from `/proc` (Linux).

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields (the
/// kernel's fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of this process, all threads included (joined
/// threads too), in seconds. Resolution is one clock tick (10 ms).
///
/// # Errors
///
/// When `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name is parenthesised and may hold spaces: fields are
    // counted from the last `)`. utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/self/stat: bad field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_owned())
}

/// The machine's available parallelism.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_positive() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(host_threads() >= 1);
    }
}

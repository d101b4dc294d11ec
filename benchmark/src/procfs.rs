//! The process's own CPU time and peak memory, read from `/proc`.

use std::fs;

/// Kernel clock ticks per second. `/proc/self/stat` reports CPU time in
/// these; Linux has fixed `USER_HZ` at 100 on every architecture since
/// 2.6, and without a libc binding `sysconf(_SC_CLK_TCK)` is out of reach.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the last
/// `)`: `utime` and `stime` are fields 14 and 15 of the line, i.e. the
/// 12th and 13th after the command.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    1234 66 0 0 20 0 7 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm_not_vmrss() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   1024 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(20.0));
        assert_eq!(parse_peak_rss_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }
}

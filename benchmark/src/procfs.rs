//! Process CPU time and peak memory from `/proc/self`.
//!
//! The package has no libc binding (path dependencies only), so the
//! kernel's text interfaces stand in for `getrusage`. CPU time comes in
//! scheduler ticks; Linux has reported `USER_HZ` = 100 to user space on
//! every architecture for decades, which bounds the resolution at 10 ms —
//! fine against bus and kernel runs that last seconds.

/// Scheduler ticks per second as `/proc` reports them (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`.
///
/// The second field (the command name) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // Field 3 (state) is the first token after the command; utime and
    // stime are fields 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kB value of one `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(key).is_some_and(|r| r.starts_with(':')))?;
    let mut parts = line[key.len() + 1..].split_ascii_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (ddr bench) x) R 1 4242 4242 0 -1 4194304 901 0 0 0 \
                        137 21 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(137 + 21));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_value_is_matched_on_the_whole_key() {
        let status = "Name:\tddr\nVmPeak:\t  999 kB\nVmHWM:\t   4312 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(4312));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4000));
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 pages\n", "VmHWM"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}

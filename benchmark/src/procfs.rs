//! Process accounting read from `/proc/self`.
//!
//! The parsers take the file text so they can be tested against
//! hand-made input; the readers return 0 where `/proc` is missing, and
//! the runner refuses to report a metric that read 0.

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/*/stat`
/// (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: u64 = 100;

/// `utime + stime` of the whole process in microseconds, parsed from the
/// text of `/proc/self/stat`. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / USER_HZ))
}

/// The value in kB of `key` (e.g. `VmHWM`) in the text of
/// `/proc/self/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_ascii_whitespace();
        let value: u64 = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// CPU time (user + system, all threads) consumed so far, microseconds.
pub fn cpu_time_us() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_us(&s))
        .unwrap_or(0)
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), kB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM")
}

/// Current resident set size of this process (`VmRSS`), kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_time_survives_a_hostile_command_name() {
        // utime = 1234 ticks, stime = 66 ticks => 1300 ticks = 13 s.
        let stat = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 66 0 0 20 0 3 0 5000 1000000 250 18446744073709551615 1 1 0";
        assert_eq!(parse_stat_cpu_us(stat), Some(13_000_000));
    }

    #[test]
    fn stat_rejects_truncated_or_garbled_input() {
        assert_eq!(parse_stat_cpu_us(""), None);
        assert_eq!(parse_stat_cpu_us("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_stat_cpu_us("1 (x) R 1 2 3 4 5 6 7 8 9 10 eleven 12"),
            None
        );
    }

    #[test]
    fn status_reads_the_named_kb_line_only() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   52340 kB\n\
                      VmRSS:\t   41000 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(52_340));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(41_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A prefix of another key must not match, nor a line without a unit.
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_kb() >= rss_kb().min(1));
            assert!(rss_kb() > 0);
            // Burn a little CPU so the counter is certainly non-zero.
            let mut x = 0u64;
            while cpu_time_us() == 0 {
                for i in 0..5_000_000u64 {
                    x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
                }
            }
            std::hint::black_box(x);
        }
    }
}

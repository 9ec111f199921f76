//! The host and build record printed with every run, and the procfs
//! readers behind `cpu_ms_per_volume` and the steal-time note.

use std::fmt::Write as _;
use std::io::Read as _;

/// Reads a small procfs file into `buf` without touching the heap, so
/// timed loops can sample it without showing up in allocation counts.
fn read_small<'a>(path: &str, buf: &'a mut [u8; 1024]) -> Option<&'a str> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut len = 0;
    while len < buf.len() {
        match file.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(_) => return None,
        }
    }
    std::str::from_utf8(&buf[..len]).ok()
}

/// Process user + system CPU time in seconds, summed over all threads,
/// from fields 14 and 15 of `/proc/self/stat` (clock ticks, 100 per
/// second on Linux). `None` where the file is missing or malformed.
pub fn process_cpu_seconds() -> Option<f64> {
    let mut buf = [0u8; 1024];
    let stat = read_small("/proc/self/stat", &mut buf)?;
    // The command name (field 2) is parenthesised and may hold spaces:
    // count fields from the closing parenthesis, which ends field 2.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3, so utime (14) is its 12th entry.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Machine-wide `(steal, total)` CPU clock ticks from the `cpu` line of
/// `/proc/stat`: time the hypervisor ran other guests on this guest's
/// vCPUs, and all time.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let mut buf = [0u8; 1024];
    let stat = read_small("/proc/stat", &mut buf)?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let mut total = 0;
    let mut steal = 0;
    for (i, field) in line.split_whitespace().enumerate() {
        let v: u64 = field.parse().ok()?;
        total += v;
        if i == 7 {
            steal = v;
        }
    }
    Some((steal, total))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`steal_ticks`] readings.
pub fn steal_fraction(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// The last-level cache of CPU 0 as `(level, bytes)`, read from
/// `/sys/devices/system/cpu/cpu0/cache`.
pub fn last_level_cache() -> Option<(u32, u64)> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_cache_size(&size))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best
}

/// Parses a sysfs cache size such as `32768K` or `2M`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, scale) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    Some(digits.parse::<u64>().ok()? * scale)
}

/// The SIMD features this binary was compiled for — the effect of any
/// `-C target-cpu` / `-C target-feature` setting on the build.
pub fn build_target() -> String {
    let mut features = Vec::new();
    for (on, name) in [
        (cfg!(target_feature = "sse4.1"), "sse4.1"),
        (cfg!(target_feature = "avx"), "avx"),
        (cfg!(target_feature = "avx2"), "avx2"),
        (cfg!(target_feature = "fma"), "fma"),
        (cfg!(target_feature = "avx512f"), "avx512f"),
        (cfg!(target_feature = "neon"), "neon"),
    ] {
        if on {
            features.push(name);
        }
    }
    let features = if features.is_empty() {
        "baseline".to_string()
    } else {
        features.join("+")
    };
    format!("{} ({features})", std::env::consts::ARCH)
}

/// Online CPUs as the scheduler reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One `host ...` line: cores, pool size, build target, LLC and seed.
pub fn host_line(workers: usize, seed: u64) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "host nproc={} pool_workers={workers} target={} ",
        nproc(),
        build_target()
    );
    match last_level_cache() {
        Some((level, bytes)) => {
            let _ = write!(line, "llc=L{level} {:.1} MB ", bytes as f64 / 1e6);
        }
        None => line.push_str("llc=unknown "),
    }
    let _ = write!(line, "seed={seed}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("32768K\n"), Some(32 << 20));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn cpu_time_advances() {
        let Some(before) = process_cpu_seconds() else {
            return; // no procfs on this platform
        };
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_seconds().expect("procfs") >= before);
    }
}

//! Number formatting for experiment outputs; their tables are
//! [`prio_obs::report::Table`].

/// Formats an optional confidence interval as `median [lo, hi]` or `-`.
pub fn fmt_ci(ci: &Option<prio_stats::ConfidenceInterval>) -> String {
    match ci {
        Some(ci) => format!("{:.3} [{:.3}, {:.3}]", ci.median, ci.lo, ci.hi),
        None => "-".to_string(),
    }
}

/// Formats a duration in human units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a byte count in human units.
pub fn fmt_bytes(b: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert!(fmt_bytes(3 * 1024 * 1024).contains("MB"));
        assert!(fmt_duration(std::time::Duration::from_micros(50)).contains("µs"));
        assert!(fmt_duration(std::time::Duration::from_millis(20)).contains("ms"));
        assert!(fmt_duration(std::time::Duration::from_secs(3)).contains("s"));
    }
}

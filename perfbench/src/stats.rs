//! The benchmark's own arithmetic: percentiles with a tail-size guard,
//! per-position means over repeats, span self time, per-session step
//! cost and an FNV digest.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_TAIL`] samples lie
/// strictly beyond the chosen rank: a p90 of 50 samples rests on five
/// values and says little about the tail.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank must lie in (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{:.0} of {n} samples leaves {beyond} beyond it; need {MIN_TAIL}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean, or 0 for no samples (a layer the workload never
/// called costs nothing per frame).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Mean of each position over repeats of the same sequence of work:
/// entry `i` is the mean of `repeats[r][i]` over the repeats that reach
/// `i`. A frame's host time swings with the host's speed from one repeat
/// to the next; percentiles taken over these means describe how cost
/// spreads over the workload's frames, not how the host drifted while it
/// ran.
pub fn position_means(repeats: &[Vec<f64>]) -> Vec<f64> {
    let len = repeats.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            mean(
                &repeats
                    .iter()
                    .filter_map(|r| r.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Overlapping
/// intervals count once.
pub fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span `[start, end]`: its duration minus the part of
/// that interval its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - union_len(children, start, end)
}

/// Host ms per session for each fleet tick: step time over the sessions
/// that were active. Ticks with no active session did no per-session
/// work and are skipped rather than divided by zero.
pub fn per_session_ms(step_ms: &[f64], active: &[usize]) -> Vec<f64> {
    step_ms
        .iter()
        .zip(active)
        .filter(|(_, &n)| n > 0)
        .map(|(&ms, &n)| ms / n as f64)
        .collect()
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash.
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert_eq!(percentile(&hundred, 0.5), Ok(50.0));
        // 99 samples leave only nine beyond p90
        assert!(percentile(&hundred[..99], 0.9).is_err());
        assert!(percentile(&hundred[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn position_means_average_each_position_over_the_repeats_reaching_it() {
        let reps = vec![vec![1.0, 10.0, 7.0], vec![3.0, 20.0], vec![]];
        assert_eq!(position_means(&reps), vec![2.0, 15.0, 7.0]);
        assert!(position_means(&[]).is_empty());
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // an upscale span [0, 100] whose NPU and GPU legs overlap
        // over [20, 60] and [30, 80]: covered 20..80 = 60, self 40
        assert_eq!(self_time(0, 100, &[(20, 60), (30, 80)]), 40);
        // disjoint children add up; children poking outside are clipped
        assert_eq!(self_time(0, 100, &[(0, 10), (90, 120)]), 80);
        // a child nested in another counts once
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        assert_eq!(self_time(5, 5, &[]), 0);
    }

    #[test]
    fn step_per_session_skips_idle_ticks() {
        let per = per_session_ms(&[4.0, 0.5, 9.0], &[2, 0, 3]);
        assert_eq!(per, vec![2.0, 3.0]);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), FNV_OFFSET);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

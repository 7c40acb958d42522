//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! tail rule, medians, and the quartiles `spread` uses.

/// 1-based nearest rank of the `per_mille`-th per-mille among `n` samples,
/// in integers so that p99.9 of 10000 samples is rank 9990 exactly.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice, `per_mille` in tenths of
/// a percent (500 is the median): the smallest value with at least that
/// share of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], per_mille: usize) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), per_mille) - 1])
}

/// Percentiles the tail rule tries, highest first, in per-mille.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile on [`TAIL_LADDER`] that leaves at least ten
/// samples above its nearest rank, as `(percentile, value)`. A tail with
/// fewer than ten samples beyond it is one or two unlucky requests, not a
/// property of the system, so it is not reported.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pm| {
        let r = rank(n, pm);
        (n >= 1 && n - r >= 10).then(|| (pm as f64 / 10.0, sorted[r - 1]))
    })
}

/// Sorts a copy ascending (NaNs are never produced by the benchmark).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// First and third quartiles by Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method), so `spread` reports the same numbers
/// as a Python check of the same values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// FNV-1a over bytes, the digest the campaign layer uses for rows.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over an ordered list of row digests, one per line.
pub fn digest_of<'a>(digests: impl IntoIterator<Item = &'a str>) -> String {
    let mut joined = String::new();
    for d in digests {
        joined.push_str(d);
        joined.push('\n');
    }
    format!("{:016x}", fnv1a64(joined.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 500), Some(5.0));
        assert_eq!(nearest_rank(&v, 900), Some(9.0));
        assert_eq!(nearest_rank(&v, 910), Some(10.0));
        assert_eq!(nearest_rank(&v, 0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1000), Some(10.0));
        assert_eq!(nearest_rank(&[], 500), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<f64>>();
        // 10000 samples: p99.9 leaves exactly 10 above rank 9990.
        assert_eq!(tail(&v(10_000)), Some((99.9, 9990.0)));
        // 1000 samples: p99.9 leaves 1, p99 leaves exactly 10.
        assert_eq!(tail(&v(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9, so p95 (rank 950, 49 above) wins.
        assert_eq!(tail(&v(999)), Some((95.0, 950.0)));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail(&v(100)), Some((90.0, 90.0)));
        // 40 samples: p75 leaves 10; 39 leave 9, so nothing qualifies.
        assert_eq!(tail(&v(40)), Some((75.0, 30.0)));
        assert_eq!(tail(&v(39)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_depends_on_order() {
        assert_ne!(digest_of(["a", "b"]), digest_of(["b", "a"]));
        assert_eq!(digest_of(["a", "b"]), digest_of(["a", "b"]));
    }
}

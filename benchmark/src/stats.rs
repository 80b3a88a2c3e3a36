//! Order statistics for the report: quantiles, the median-over-segments
//! rule every timing metric uses, and the run-to-run spread `--aa` prints.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by nearest rank; `None` when
/// empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[idx])
}

/// Sorts `values` in place and returns its `q`-quantile.
pub fn quantile(values: &mut [u64], q: f64) -> Option<u64> {
    values.sort_unstable();
    quantile_sorted(values, q)
}

/// Median of `values` (mean of the middle pair when even); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A statistic taken per segment and summarised over segments: the median
/// is the reported value, min and max show how far segments disagree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentStat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Segments that had a value.
    pub segments: usize,
}

/// Summarises one value per segment; segments without samples are skipped.
pub fn over_segments(per_segment: &[Option<f64>]) -> Option<SegmentStat> {
    let present: Vec<f64> = per_segment.iter().flatten().copied().collect();
    Some(SegmentStat {
        median: median(&present)?,
        min: present.iter().copied().fold(f64::INFINITY, f64::min),
        max: present.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        segments: present.len(),
    })
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method);
/// needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the median:
/// the spread the acceptance rule compares against a metric's bound.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(51));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        let mut segs: Vec<Option<f64>> = (0..10).map(|i| Some(10.0 + i as f64 * 0.1)).collect();
        segs[4] = Some(500.0); // a stall in one segment
        segs.push(None); // and an empty one
        let s = over_segments(&segs).unwrap();
        assert!((s.median - 10.55).abs() < 1e-9, "{s:?}");
        assert_eq!(s.max, 500.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.segments, 10);
        assert_eq!(over_segments(&[None, None]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 20.0, 30.0)));
        assert_eq!(relative_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}

//! Order statistics over one metric's samples.

/// Median, quartiles and range of a sample set. A run of this
/// benchmark affords 6 to about 35 samples of a stage, so no tail
/// percentile above the upper quartile has ten samples beyond it and
/// none is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles(&v);
        Some(Summary {
            n: v.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }

    /// Distance between the quartiles as a share of the median — the
    /// spread the benchmark contract bounds.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The three cut points of sorted `v`, as Python's
/// `statistics.quantiles(v, n=4)` (its default exclusive method)
/// computes them — the contract's driver uses that function, so the
/// spreads printed here are the ones it will see. A single sample is
/// its own quartiles.
fn quartiles(v: &[f64]) -> [f64; 3] {
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Samples grouped by metric name, in first-seen order.
pub type Named<K> = Vec<(K, Vec<f64>)>;

/// Adds `values` to `name`'s group.
pub fn extend_named<K: PartialEq>(
    groups: &mut Named<K>,
    name: K,
    values: impl IntoIterator<Item = f64>,
) {
    match groups.iter_mut().find(|(n, _)| *n == name) {
        Some((_, vs)) => vs.extend(values),
        None => groups.push((name, values.into_iter().collect())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        let s = Summary::of(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 5.0, 9.0));
    }

    #[test]
    fn degenerate_sets() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (3.5, 3.5, 3.5, 0.0));
    }
}

//! Order statistics used by the runs and by `--repeat`.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The mean without the smallest and the largest value (of three
/// values or more).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let kept = if v.len() > 2 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-quantile by nearest rank: the smallest value with at least
/// `p` of the sample at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    let at = |k: usize| {
        let pos = k * (m + 1);
        let j = (pos / 4).clamp(1, m - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_match_python() {
        let v = [4.0, 1.0, 3.0, 2.0, 10.0, 7.0, 8.0, 6.0, 5.0, 9.0];
        assert_eq!(median(&v), 5.5);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 3.0, 100.0, 2.0]), 4.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0]), 1.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
    }
}

//! Order statistics over latency samples.

/// Sorted copy of `values` (NaN-free by construction: every sample is
/// a measured duration).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for even counts); 0 for
/// no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail: the value at the highest percentile that still has at
/// least ten samples beyond it (the 11th largest). 0 below 100 samples,
/// where that percentile would fall under p90 and say little about the
/// tail.
#[must_use]
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.len() < 100 {
        return 0.0;
    }
    v[v.len() - 11]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&values), 190.0);
        assert_eq!(values.iter().filter(|&&v| v > tail(&values)).count(), 10);
        assert_eq!(tail(&values[..99]), 0.0);
    }
}

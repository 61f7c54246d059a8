//! Order statistics shared by the workloads and the diff printer.

/// A percentile as reported: the value, the quantile it was actually
/// taken at, and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub q: f64,
    pub wanted: f64,
    pub n: usize,
}

impl Pct {
    /// True when at least ten samples lie beyond the requested quantile.
    pub fn resolved(&self) -> bool {
        self.n > 0 && self.q + 1e-12 >= self.wanted
    }

    pub fn describe(&self) -> String {
        if self.resolved() {
            format!("q={} n={}", self.wanted, self.n)
        } else {
            format!(
                "unresolved: q={} wanted, q={:.4} reported, n={}",
                self.wanted, self.q, self.n
            )
        }
    }
}

/// Linear interpolation between closest ranks over sorted data.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The percentile `wanted` when at least ten samples lie beyond it;
/// otherwise the highest quantile that has ten samples beyond it (never
/// below the median), flagged as unresolved.
pub fn pct(values: &[f64], wanted: f64) -> Pct {
    let n = values.len();
    let ceiling = if n == 0 { 0.5 } else { 1.0 - 10.0 / n as f64 };
    let q = wanted.min(ceiling).max(0.5);
    Pct {
        value: quantile_sorted(&sorted(values), q),
        q,
        wanted,
        n,
    }
}

/// Quartiles by the method Python's `statistics.quantiles(data, n=4)`
/// uses (the default, exclusive method), so spreads printed here match
/// the ones computed from the same values in Python.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld == 0 {
        return (0.0, 0.0, 0.0);
    }
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (data[j - 1] * (4 - delta) as f64 + data[j] * delta as f64) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let p = pct(&v, 0.99);
        assert!(!p.resolved());
        assert!((p.q - 0.9).abs() < 1e-12);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(pct(&v, 0.99).resolved());
    }
}

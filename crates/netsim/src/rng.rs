//! Deterministic random sampling utilities.
//!
//! The simulator needs a handful of distributions (normal, lognormal,
//! exponential, Bernoulli). We keep the dependency surface at plain `rand`
//! (pre-approved) and implement the transforms here. The simulator's draws
//! all come from a [`SmallRng`] keyed per probe or traceroute flow
//! ([`crate::net::NetState::keyed_rng`]), so runs are exactly reproducible.

use rand::rngs::SmallRng;
use rand::Rng;

/// Samples a standard normal via Box–Muller. Uses `1 - u` to avoid
/// `ln(0)`.
fn std_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a lognormal parameterized by its **median** `exp(mu)` and shape
/// `sigma`. Parameterizing by the median (rather than the mean) keeps
/// latency calibration intuitive: `median_us` is literally the P50
/// contribution of the component.
pub fn lognormal_med(rng: &mut SmallRng, median: f64, sigma: f64) -> f64 {
    if median <= 0.0 {
        return 0.0;
    }
    (median.ln() + sigma * std_normal(rng)).exp()
}

/// Samples an exponential with the given mean.
pub fn exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = 1.0 - rng.random::<f64>();
    -mean * u.ln()
}

/// Bernoulli trial.
#[inline]
pub fn chance(rng: &mut SmallRng, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.random::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn std_normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = std_normal(&mut r);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn lognormal_median_is_the_median() {
        let mut r = rng();
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| lognormal_med(&mut r, 100.0, 0.7)).collect();
        let med = pingmesh_types::quantile::quantile_f64_in_place(&mut xs, 0.5).unwrap();
        assert!((med - 100.0).abs() / 100.0 < 0.03, "median {med}");
        assert_eq!(lognormal_med(&mut r, 0.0, 0.7), 0.0);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert_eq!(exponential(&mut r, 0.0), 0.0);
    }

    #[test]
    fn chance_edge_cases_and_rate() {
        let mut r = rng();
        assert!(!chance(&mut r, 0.0));
        assert!(chance(&mut r, 1.0));
        let hits = (0..100_000).filter(|_| chance(&mut r, 0.25)).count();
        assert!((24_000..26_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(std_normal(&mut a).to_bits(), std_normal(&mut b).to_bits());
        }
    }
}

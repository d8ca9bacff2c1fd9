//! Deterministic random sampling utilities.
//!
//! The simulator needs a handful of distributions (normal, lognormal,
//! exponential, Bernoulli). We keep the dependency surface at plain `rand`
//! (pre-approved) and implement the transforms here. A standard normal is
//! a 256-layer Marsaglia–Tsang ziggurat (the algorithm behind
//! `rand_distr::StandardNormal`): about 99 % of draws cost one `u64`, one
//! table compare and one multiply, and no libm call. A lognormal holds its
//! median (`LogNormal`), so a latency draw is one normal, one `exp` and
//! one multiply. The simulator's draws all come from a [`SmallRng`] keyed
//! per probe or traceroute flow ([`crate::net::NetState::keyed_rng`]), so
//! runs are exactly reproducible.

use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::LazyLock;

/// Ziggurat layers (a power of two: the layer is the draw's low byte).
const LAYERS: usize = 256;
/// Where the tail starts: the right edge of the base strip.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of each layer under the unnormalised density `e^(−x²/2)`.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// The unnormalised standard normal density.
fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Layer edges `x[i]` (`x[0]` is the base strip's virtual width
/// `V / f(R)`, `x[1] = R`, `x[256] = 0`) and the density at each, `f[i]`.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

impl Ziggurat {
    fn build() -> Self {
        let mut x = [0.0; LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..LAYERS {
            // Each layer has area V: x[i] is where the density reaches the
            // top of the rectangle of width x[i − 1] below it.
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        Self { x, f: x.map(pdf) }
    }
}

/// Built on the first normal draw, shared by every thread after.
static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::build);

/// Samples a standard normal (ziggurat). The draw's low byte picks the
/// layer and its top 52 bits a uniform `u` in `[−1, 1)`; `u · x[i]` is
/// returned at once when it lies inside the layer's rectangle below the
/// density, else the wedge is tested against the density, and the base
/// layer's overhang is the tail beyond `R`.
fn std_normal(rng: &mut SmallRng) -> f64 {
    let zig = &*ZIGGURAT;
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // A float in [2, 4) from the top 52 bits, shifted to [−1, 1).
        let u = f64::from_bits((bits >> 12) | 2.0f64.to_bits()) - 3.0;
        let x = u * zig.x[i];
        if x.abs() < zig.x[i + 1] {
            return x;
        }
        if i == 0 {
            return normal_tail(rng, u < 0.0);
        }
        let y = zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * rng.random::<f64>();
        if y < pdf(x) {
            return x;
        }
    }
}

/// A draw from the normal's tail beyond `R` (Marsaglia 1964), negated on
/// the left side. Uses `1 - u` to avoid `ln(0)`.
#[cold]
fn normal_tail(rng: &mut SmallRng, negative: bool) -> f64 {
    loop {
        let x = -(1.0 - rng.random::<f64>()).ln() / ZIG_R;
        let y = -(1.0 - rng.random::<f64>()).ln();
        if 2.0 * y >= x * x {
            return if negative { -(ZIG_R + x) } else { ZIG_R + x };
        }
    }
}

/// A lognormal parameterized by its **median** `exp(mu)` and shape
/// `sigma`. Parameterizing by the median (rather than the mean) keeps
/// latency calibration intuitive: `median_us` is literally the P50
/// contribution of the component. A draw is `median · exp(sigma · z)`,
/// which is `exp(mu + sigma · z)` with `mu` folded in once, so no draw
/// takes a logarithm. With `sigma = 0` or a zero median the lognormal is
/// its median, exactly, and draws nothing from the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LogNormal {
    /// The median; a median ≤ 0 is 0.
    median: f64,
    sigma: f64,
}

impl LogNormal {
    pub(crate) fn new(median: f64, sigma: f64) -> Self {
        Self {
            median: median.max(0.0),
            sigma,
        }
    }

    /// One draw.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut SmallRng) -> f64 {
        if self.sigma == 0.0 || self.median == 0.0 {
            return self.median;
        }
        self.median * (self.sigma * std_normal(rng)).exp()
    }
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

    /// The standard normal CDF, through `erfc` (Numerical Recipes'
    /// Chebyshev fit: fractional error below 1.2e-7 everywhere).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn ziggurat_tables_close_at_zero() {
        let zig = Ziggurat::build();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[LAYERS], 0.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges descend");
        // The top layer's rectangle reaches the density's peak.
        let top = ZIG_V / zig.x[LAYERS - 1] + zig.f[LAYERS - 1];
        assert!((top - 1.0).abs() < 1e-9, "top layer ends at {top}");
    }

    #[test]
    fn std_normal_passes_kolmogorov_smirnov_and_reaches_the_tail() {
        let mut r = rng();
        let n = 1_000_000;
        let mut xs: Vec<f64> = (0..n).map(|_| std_normal(&mut r)).collect();
        let tail = xs.iter().filter(|x| x.abs() > ZIG_R).count();
        xs.sort_unstable_by(f64::total_cmp);
        let nf = n as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let p = phi(x);
                (p - i as f64 / nf).max((i + 1) as f64 / nf - p)
            })
            .fold(0.0, f64::max);
        let critical = 1.63 / nf.sqrt();
        assert!(d < critical, "KS D = {d} ≥ {critical} (1 % level)");
        // The base strip's overhang and the tail branch beyond R.
        let p = 2.0 * (1.0 - phi(ZIG_R));
        let (mean, sd) = (nf * p, (nf * p * (1.0 - p)).sqrt());
        assert!(
            (tail as f64 - mean).abs() < 4.0 * sd,
            "{tail} draws beyond ±R, expected {mean:.0} ± {sd:.0}"
        );
    }

    #[test]
    fn every_ziggurat_layer_band_holds_its_share_of_the_normal() {
        // Draws with |x| in [x[i + 1], x[i]) come from layer i's wedge and
        // from the rectangles of the wider layers below it, so a wedge test
        // that accepts too much or too little shows as a band holding more
        // or fewer draws than its exact area. Band 0 is the tail beyond R.
        let zig = Ziggurat::build();
        let mut r = rng();
        let n = 2_000_000;
        let mut counts = [0u64; LAYERS];
        for _ in 0..n {
            let a = std_normal(&mut r).abs();
            counts[zig.x[1..].partition_point(|&edge| edge > a)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let p = if i == 0 {
                2.0 * (1.0 - phi(zig.x[1]))
            } else {
                2.0 * (phi(zig.x[i]) - phi(zig.x[i + 1]))
            };
            let (mean, sd) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
            let z = (count as f64 - mean) / sd;
            assert!(
                z.abs() < 4.5,
                "layer {i}: {count} draws in [{}, {}), expected {mean:.0} ± {sd:.0}",
                zig.x[i + 1],
                zig.x[i]
            );
        }
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
        let d = LogNormal::new(100.0, 0.7);
        let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let med = pingmesh_types::quantile::quantile_f64_in_place(&mut xs, 0.5).unwrap();
        assert!((med - 100.0).abs() / 100.0 < 0.03, "median {med}");
        assert_eq!(LogNormal::new(0.0, 0.7).sample(&mut r), 0.0);
    }

    #[test]
    fn lognormal_with_no_spread_is_its_median_and_draws_nothing() {
        let mut r = rng();
        for median in [4.0, 40.0, 100.0, 4.0 * 0.9 * 3.0] {
            assert_eq!(LogNormal::new(median, 0.0).sample(&mut r), median);
        }
        // A zero (or negative) median is 0 whatever the spread.
        for median in [0.0, -3.0] {
            assert_eq!(LogNormal::new(median, 0.7).sample(&mut r), 0.0);
        }
        assert_eq!(r, rng(), "the stream did not move");
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

//! Small samplers used by the workload: exponential think times (the
//! Poisson query process of §6.1), Zipf-class object sizes (θ = 0.8,
//! 10 KB average) and a Box–Muller gaussian for the clustered datasets.

use rand::Rng;

/// Exponentially distributed value with the given mean (inverse-CDF).
#[inline]
pub fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.random_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Standard-normal sample (Box–Muller, one value per call).
#[inline]
pub fn gaussian<R: Rng>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + sigma * z
}

/// A Zipf sampler over `classes` size classes with exponent `theta`:
/// `P(class c) ∝ c^(-theta)`, sampled by binary search on the precomputed
/// CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(classes: usize, theta: f64) -> Self {
        assert!(classes >= 1);
        let mut cdf = Vec::with_capacity(classes);
        let mut acc = 0.0;
        for c in 1..=classes {
            acc += (c as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples a 1-based class.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i + 1,
        }
    }

    /// Expected class value `E[c]`.
    pub fn mean_class(&self) -> f64 {
        let mut mean = 0.0;
        let mut prev = 0.0;
        for (i, &p) in self.cdf.iter().enumerate() {
            mean += (i + 1) as f64 * (p - prev);
            prev = p;
        }
        mean
    }
}

/// Object sizes: "the sizes of individual objects follow a Zipf
/// distribution with the skewness parameter θ being 0.8" around a 10 KB
/// average (Table 6.1). Sizes are `class · scale` over `classes` classes,
/// with `scale` normalizing the mean to `mean_bytes`. (The raw rank-Zipf
/// reading would put a single ~27 MB object in a 1.2 MB cache, so the paper
/// setup only makes sense as bounded size classes.)
#[derive(Clone, Debug)]
pub struct ZipfSizes {
    zipf: Zipf,
    scale: f64,
}

impl ZipfSizes {
    pub fn new(theta: f64, mean_bytes: f64, classes: usize) -> Self {
        let zipf = Zipf::new(classes, theta);
        let scale = mean_bytes / zipf.mean_class();
        ZipfSizes { zipf, scale }
    }

    /// Table 6.1 defaults: θ = 0.8, 10 KB mean, 100 size classes
    /// (≈ 2.6 KB – 260 KB per object).
    pub fn paper() -> Self {
        ZipfSizes::new(0.8, 10_240.0, 100)
    }

    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let c = self.zipf.sample(rng);
        (c as f64 * self.scale).round().max(1.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 40_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 50.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 50.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(exponential(&mut rng, 1.0) > 0.0);
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng, 2.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn zipf_prefers_low_classes() {
        let z = Zipf::new(100, 0.8);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[99]);
        // P(1)/P(10) should be ≈ 10^0.8 ≈ 6.3.
        let ratio = counts[0] as f64 / counts[9] as f64;
        assert!((ratio - 6.3).abs() < 1.5, "ratio {ratio}");
    }

    #[test]
    fn zipf_single_class_is_constant() {
        let z = Zipf::new(1, 0.8);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    fn sizes_average_near_ten_kb() {
        let sizes = ZipfSizes::paper();
        let mut rng = SmallRng::seed_from_u64(6);
        let n = 60_000;
        let sum: u64 = (0..n).map(|_| sizes.sample(&mut rng) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 10_240.0).abs() < 300.0,
            "mean object size {mean} not near 10 KB"
        );
    }

    #[test]
    fn sizes_are_skewed() {
        let sizes = ZipfSizes::paper();
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<u32> = (0..20_000).map(|_| sizes.sample(&mut rng)).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        assert!(median < mean, "Zipf sizes must be right-skewed");
    }
}

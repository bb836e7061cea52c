//! Noise mechanisms: Gaussian (DP-SGD, Algorithm 2 line 8), Laplace (the
//! naive private-greedy strawman of Example 2), and the Symmetric
//! Multivariate Laplace noise used by the HP baseline (Xiang et al.).

use privim_rt::{dist, Rng};

/// iid `N(0, (σ·Δ)²)` noise vector — the Gaussian mechanism with noise
/// multiplier `sigma` and sensitivity `delta` (Algorithm 2 adds this to the
/// summed clipped gradients).
pub fn gaussian_noise_vec(len: usize, sigma: f64, delta: f64, rng: &mut impl Rng) -> Vec<f64> {
    assert!(sigma >= 0.0 && delta >= 0.0);
    let s = sigma * delta;
    (0..len).map(|_| dist::standard_normal(rng) * s).collect()
}

/// iid `Lap(0, Δ/ε)` noise vector — the Laplace mechanism. Used by the
/// Example 2 demonstration of why private greedy IM fails: with
/// `Δ ≈ 2×10⁵` and `ε = 1`, the noise dwarfs marginal gains.
pub fn laplace_noise_vec(len: usize, epsilon: f64, delta: f64, rng: &mut impl Rng) -> Vec<f64> {
    assert!(epsilon > 0.0 && delta >= 0.0);
    let b = delta / epsilon;
    (0..len)
        .map(|_| {
            // inverse-CDF sampling
            let u: f64 = rng.gen::<f64>() - 0.5;
            -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
        })
        .collect()
}

/// Symmetric Multivariate Laplace noise `SML(0, s²·I)`: `X = √W · Z` with
/// `W ~ Exp(1)` and `Z ~ N(0, s²·I)`. This is the heavier-tailed noise the
/// HP baseline (HeterPoisson, Xiang et al. S&P'24) injects; the mixture
/// structure makes the whole vector share one radial scale.
pub fn sml_noise_vec(len: usize, scale: f64, rng: &mut impl Rng) -> Vec<f64> {
    assert!(scale >= 0.0);
    let radial = dist::exponential(rng).sqrt();
    (0..len)
        .map(|_| dist::standard_normal(rng) * scale * radial)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;

    fn var(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n
    }

    #[test]
    fn gaussian_variance_matches() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let v = gaussian_noise_vec(50_000, 2.0, 3.0, &mut rng);
        // variance (σΔ)² = 36
        assert!((var(&v) - 36.0).abs() < 1.5, "var {}", var(&v));
    }

    #[test]
    fn gaussian_zero_sigma_is_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let v = gaussian_noise_vec(100, 0.0, 5.0, &mut rng);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn laplace_variance_matches() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Var(Lap(b)) = 2b²; b = Δ/ε = 4 → Var = 32
        let v = laplace_noise_vec(100_000, 0.5, 2.0, &mut rng);
        assert!((var(&v) - 32.0).abs() < 1.5, "var {}", var(&v));
    }

    #[test]
    fn laplace_noise_overwhelms_gain_example2() {
        // Example 2: Δf ≈ 2×10⁵, ε = 1 → typical |noise| far above the
        // 10⁰..10³ range of actual marginal gains.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let v = laplace_noise_vec(1_000, 1.0, 2e5, &mut rng);
        let median_abs = {
            let mut a: Vec<f64> = v.iter().map(|x| x.abs()).collect();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            a[a.len() / 2]
        };
        assert!(median_abs > 1e4, "median |noise| {median_abs}");
    }

    #[test]
    fn sml_variance_matches() {
        // Var(√W·Z) = E[W]·s² = s² for W ~ Exp(1).
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut all = Vec::new();
        for _ in 0..2_000 {
            all.extend(sml_noise_vec(32, 3.0, &mut rng));
        }
        assert!((var(&all) - 9.0).abs() < 0.6, "var {}", var(&all));
    }

    #[test]
    fn sml_is_heavier_tailed_than_gaussian() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut sml = Vec::new();
        for _ in 0..5_000 {
            sml.extend(sml_noise_vec(8, 1.0, &mut rng));
        }
        let gau = gaussian_noise_vec(sml.len(), 1.0, 1.0, &mut rng);
        let kurt = |xs: &[f64]| {
            let v = var(xs);
            let m4 = xs.iter().map(|x| x.powi(4)).sum::<f64>() / xs.len() as f64;
            m4 / (v * v)
        };
        assert!(
            kurt(&sml) > kurt(&gau) + 0.5,
            "kurtosis sml {} vs gaussian {}",
            kurt(&sml),
            kurt(&gau)
        );
    }
}

//! Weight initialisation: every model starts from [`xavier_uniform`].

use crate::matrix::Matrix;
use privim_rt::Rng;

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
/// The default for the GNN weight matrices (matches PyG's reset defaults for
/// GCN/GAT-style layers).
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f64).sqrt();
    let mut m = Matrix::zeros(fan_in, fan_out);
    for x in m.data_mut() {
        *x = rng.gen_range(-a..=a);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_rt::ChaCha8Rng;
    use privim_rt::SeedableRng;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = xavier_uniform(16, 32, &mut rng);
        let a = (6.0 / 48.0f64).sqrt();
        assert!(m.max_abs() <= a);
        assert!(m.max_abs() > 0.0);
    }
}

use rand::Rng;

/// Ornstein–Uhlenbeck exploration noise, as used by DDPG.
///
/// The process `dx = θ(μ − x)dt + σ dW` produces temporally correlated noise
/// that explores smoothly in continuous action spaces.
///
/// # Example
///
/// ```
/// use ie_rl::OrnsteinUhlenbeck;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut noise = OrnsteinUhlenbeck::new(2, 0.15, 0.2);
/// let sample = noise.sample(&mut rng);
/// assert_eq!(sample.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OrnsteinUhlenbeck {
    state: Vec<f32>,
    mu: f32,
    theta: f32,
    sigma: f32,
}

impl OrnsteinUhlenbeck {
    /// Creates a zero-mean process of the given dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `sigma` is negative.
    pub fn new(dim: usize, theta: f32, sigma: f32) -> Self {
        assert!(dim > 0, "noise dimension must be non-zero");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        OrnsteinUhlenbeck { state: vec![0.0; dim], mu: 0.0, theta, sigma }
    }

    /// The current noise magnitude.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// Sets the noise magnitude in place.
    pub fn set_sigma(&mut self, sigma: f32) {
        self.sigma = sigma.max(0.0);
    }

    /// Draws the next correlated noise sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f32> {
        for x in &mut self.state {
            let gauss = {
                // Box–Muller transform.
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            };
            *x += self.theta * (self.mu - *x) + self.sigma * gauss;
        }
        self.state.clone()
    }

    /// Resets the process to its mean.
    pub fn reset(&mut self) {
        for x in &mut self.state {
            *x = self.mu;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_correlated_and_mean_reverting() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut noise = OrnsteinUhlenbeck::new(1, 0.15, 0.1);
        let samples: Vec<f32> = (0..5000).map(|_| noise.sample(&mut rng)[0]).collect();
        let mean: f32 = samples.iter().sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.2, "long-run mean should hover near zero: {mean}");
        // Lag-1 autocorrelation should be clearly positive (correlated noise).
        let var: f32 =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / samples.len() as f32;
        let cov: f32 = samples.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum::<f32>()
            / (samples.len() - 1) as f32;
        assert!(cov / var > 0.5, "lag-1 autocorrelation {}", cov / var);
    }

    #[test]
    fn zero_sigma_decays_to_the_mean() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut noise = OrnsteinUhlenbeck::new(1, 0.5, 0.5);
        noise.sample(&mut rng);
        noise.set_sigma(0.0);
        for _ in 0..200 {
            noise.sample(&mut rng);
        }
        assert!(noise.sample(&mut rng)[0].abs() < 1e-3);
    }

    #[test]
    fn reset_returns_to_mean_and_sigma_accessors_work() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut noise = OrnsteinUhlenbeck::new(3, 0.15, 0.3);
        assert_eq!(noise.sigma(), 0.3);
        noise.set_sigma(0.4);
        assert_eq!(noise.sigma(), 0.4);
        noise.sample(&mut rng);
        noise.reset();
        assert!(noise.state.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension must be non-zero")]
    fn zero_dimension_panics() {
        let _ = OrnsteinUhlenbeck::new(0, 0.1, 0.1);
    }
}

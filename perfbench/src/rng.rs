//! The benchmark's own seeded generator: `--seed` drives chain
//! generation (through `lvq-workload`), the request mix and the arrival
//! schedule, so the library crates only ever see generated inputs.

/// SplitMix64: tiny, seedable, and good enough for mixes and arrival
/// times.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the chain,
    /// the mix and the schedule never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng {
            state: seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A unit-mean exponential draw: the Poisson inter-arrival shape.
    pub fn exp(&mut self) -> f64 {
        // 53 uniform bits in (0, 1]; -ln(u) is Exp(1).
        let u = ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        -u.ln()
    }
}

/// Poisson arrival times in seconds from the start of a phase: every
/// arrival before `duration` at mean rate `rps`.
pub fn poisson_schedule(seed: u64, stream: u64, rps: f64, duration: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, stream);
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += rng.exp() / rps;
        if at >= duration {
            return out;
        }
        out.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(7, 2, 600.0, 1.0);
        let b = poisson_schedule(7, 2, 600.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 2, 600.0, 1.0));
        assert_ne!(a, poisson_schedule(7, 3, 600.0, 1.0));
        // Sorted, inside the phase, and about rate * duration long.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t > 0.0 && t < 1.0));
        assert!((450..750).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn exponential_has_unit_mean() {
        let mut rng = Rng::new(1, 1);
        let mean: f64 = (0..20_000).map(|_| rng.exp()).sum::<f64>() / 20_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }
}

//! Learning-rate schedules.
//!
//! The paper tunes a fixed learning rate per dataset; the trainer
//! additionally supports step decay and cosine annealing for the ablation
//! harness.

/// A learning-rate schedule: maps (epoch, total_epochs) → multiplier on the
/// base learning rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Constant base rate (the paper's setting).
    Constant,
    /// Multiply by `gamma` every `every` epochs.
    StepDecay { every: usize, gamma: f32 },
    /// Cosine annealing from 1 down to `floor` over the run.
    Cosine { floor: f32 },
}

impl LrSchedule {
    /// Learning-rate multiplier for `epoch` (0-based) of `total` epochs.
    pub fn factor(&self, epoch: usize, total: usize) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::StepDecay { every, gamma } => {
                let drops = epoch.checked_div(every).unwrap_or(0);
                gamma.powi(drops as i32)
            }
            LrSchedule::Cosine { floor } => {
                if total <= 1 {
                    return 1.0;
                }
                let t = epoch.min(total - 1) as f32 / (total - 1) as f32;
                let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
                floor + (1.0 - floor) * cos
            }
        }
    }

    /// Effective learning rate for the epoch.
    pub fn lr(&self, base: f32, epoch: usize, total: usize) -> f32 {
        base * self.factor(epoch, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        for e in 0..10 {
            assert_eq!(LrSchedule::Constant.factor(e, 10), 1.0);
        }
    }

    #[test]
    fn step_decay_drops() {
        let s = LrSchedule::StepDecay {
            every: 3,
            gamma: 0.5,
        };
        assert_eq!(s.factor(0, 10), 1.0);
        assert_eq!(s.factor(2, 10), 1.0);
        assert_eq!(s.factor(3, 10), 0.5);
        assert_eq!(s.factor(6, 10), 0.25);
    }

    #[test]
    fn step_decay_zero_period_never_drops() {
        let s = LrSchedule::StepDecay {
            every: 0,
            gamma: 0.5,
        };
        assert_eq!(s.factor(100, 200), 1.0);
    }

    #[test]
    fn cosine_endpoints_and_monotone() {
        let s = LrSchedule::Cosine { floor: 0.1 };
        assert!((s.factor(0, 11) - 1.0).abs() < 1e-6);
        assert!((s.factor(10, 11) - 0.1).abs() < 1e-6);
        let mut prev = f32::INFINITY;
        for e in 0..11 {
            let f = s.factor(e, 11);
            assert!(f <= prev + 1e-6);
            prev = f;
        }
    }

    #[test]
    fn cosine_degenerate_total() {
        let s = LrSchedule::Cosine { floor: 0.1 };
        assert_eq!(s.factor(0, 1), 1.0);
        assert_eq!(s.factor(0, 0), 1.0);
    }

    #[test]
    fn lr_multiplies_base() {
        let s = LrSchedule::StepDecay {
            every: 1,
            gamma: 0.1,
        };
        assert!((s.lr(0.5, 2, 10) - 0.005).abs() < 1e-9);
    }
}

use crate::linsolve::{solve_sym6, LinSolveError};
use crate::se3::SE3;

/// The accumulated normal equations of one linearization: `H = Σ JᵀJ`,
/// `b = Σ Jᵀr`, the total squared residual and the number of residuals.
///
/// This is exactly what the PIM computes in parallel over the feature
/// set (Fig. 1-c); the 6x6 solve stays on the CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalEquations {
    /// Gauss-Newton Hessian approximation `Σ JᵀJ` (symmetric 6x6).
    pub h: [[f64; 6]; 6],
    /// Steepest-descent vector `Σ Jᵀ r`.
    pub b: [f64; 6],
    /// Total cost `Σ r²`.
    pub cost: f64,
    /// Number of residuals accumulated.
    pub count: usize,
}

impl NormalEquations {
    /// Empty accumulator.
    pub fn zero() -> Self {
        NormalEquations {
            h: [[0.0; 6]; 6],
            b: [0.0; 6],
            cost: 0.0,
            count: 0,
        }
    }

    /// Rank-1 update with one residual `r` and Jacobian row `j`,
    /// weighted by `w`.
    pub fn accumulate(&mut self, j: &[f64; 6], r: f64, w: f64) {
        for a in 0..6 {
            for bi in 0..6 {
                self.h[a][bi] += w * j[a] * j[bi];
            }
            self.b[a] += w * j[a] * r;
        }
        self.cost += w * r * r;
        self.count += 1;
    }

    /// Mean squared residual.
    fn mean_cost(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.cost / self.count as f64
        }
    }
}

/// A nonlinear least-squares problem over an SE(3) pose.
pub trait LmProblem {
    /// Linearizes at `pose`: evaluates all residuals and returns the
    /// accumulated normal equations.
    fn build(&mut self, pose: &SE3) -> NormalEquations;
}

/// Levenberg-Marquardt configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmConfig {
    /// Maximum LM iterations (the paper tracks within 10, converging in
    /// ~8.1 on average).
    pub max_iterations: usize,
    /// Initial damping factor λ.
    pub initial_lambda: f64,
    /// Multiplier applied to λ after a rejected step.
    pub lambda_up: f64,
    /// Divisor applied to λ after an accepted step.
    pub lambda_down: f64,
    /// Convergence threshold on the twist-update norm.
    pub min_delta_norm: f64,
    /// Relative cost-decrease threshold for convergence.
    pub min_rel_decrease: f64,
    /// Upper bound on λ: repeated rejections (e.g. from corrupted
    /// residuals) cannot drive the damping to infinity, which would
    /// shrink every step to numerical noise while never terminating.
    pub lambda_max: f64,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            max_iterations: 10,
            initial_lambda: 1e-4,
            lambda_up: 10.0,
            lambda_down: 3.0,
            min_delta_norm: 1e-7,
            min_rel_decrease: 1e-6,
            lambda_max: 1e10,
        }
    }
}

/// Result of an LM solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmOutcome {
    /// The optimized pose.
    pub pose: SE3,
    /// Linearization (outer) iterations performed.
    pub iterations: usize,
    /// Final mean squared residual.
    pub final_cost: f64,
    /// Residual count at the final linearization.
    pub residual_count: usize,
    /// Whether a convergence criterion was met (vs. iteration cap).
    pub converged: bool,
    /// Number of 6x6 solves that failed (singular damped Hessian).
    pub solver_failures: usize,
    /// True when the solve hit the divergence guard: a non-finite or
    /// exploding cost/update was rejected (corrupted residuals, broken
    /// linearization). The returned pose is the last healthy iterate.
    pub diverged: bool,
}

/// The Levenberg-Marquardt driver: repeatedly linearize, solve the
/// damped normal equations `(H + λ diag(H)) Δξ = -b`, and left-compose
/// the pose update `ξ ← exp(Δξ) ∘ ξ` (Fig. 1-c).
#[derive(Debug, Clone, Default)]
pub struct LmSolver {
    /// Solver configuration.
    pub config: LmConfig,
}

impl LmSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: LmConfig) -> Self {
        LmSolver { config }
    }

    /// Minimizes the problem starting from `init`.
    pub fn solve(&self, problem: &mut dyn LmProblem, init: SE3) -> LmOutcome {
        let cfg = &self.config;
        let mut pose = init;
        let mut lambda = cfg.initial_lambda;
        let mut eq = problem.build(&pose);
        let mut iterations = 0;
        let mut converged = false;
        let mut solver_failures = 0;
        let mut diverged = false;

        if !eq.mean_cost().is_finite() {
            // nothing to optimize against: refuse rather than chase NaNs
            return LmOutcome {
                pose,
                iterations: 0,
                final_cost: f64::INFINITY,
                residual_count: eq.count,
                converged: false,
                solver_failures: 0,
                diverged: true,
            };
        }

        while iterations < cfg.max_iterations {
            iterations += 1;
            // damped system (Marquardt scaling on the diagonal)
            let mut accepted = false;
            for _attempt in 0..4 {
                let mut damped = eq.h;
                for (i, row) in damped.iter_mut().enumerate() {
                    row[i] += lambda * eq.h[i][i].max(1e-12);
                }
                let delta = match solve_sym6(&damped, &eq.b) {
                    Ok(mut d) => {
                        for v in &mut d {
                            *v = -*v;
                        }
                        d
                    }
                    Err(LinSolveError::Singular) => {
                        solver_failures += 1;
                        lambda = (lambda * cfg.lambda_up).min(cfg.lambda_max);
                        continue;
                    }
                };
                // divergence guard: a non-finite update (corrupted H/b)
                // is rejected like a failed solve
                if delta.iter().any(|v| !v.is_finite()) {
                    solver_failures += 1;
                    diverged = true;
                    lambda = (lambda * cfg.lambda_up).min(cfg.lambda_max);
                    continue;
                }
                let delta_norm = delta.iter().map(|v| v * v).sum::<f64>().sqrt();
                let candidate = SE3::exp(&delta).compose(&pose);
                let new_eq = problem.build(&candidate);
                // non-finite or exploding candidate cost: reject the
                // step, keep the last healthy iterate
                if !new_eq.mean_cost().is_finite() {
                    diverged = true;
                    lambda = (lambda * cfg.lambda_up).min(cfg.lambda_max);
                    continue;
                }
                if new_eq.count > 0 && new_eq.mean_cost() < eq.mean_cost() {
                    let rel = (eq.mean_cost() - new_eq.mean_cost()) / eq.mean_cost().max(1e-300);
                    pose = candidate;
                    eq = new_eq;
                    lambda = (lambda / cfg.lambda_down).max(1e-12);
                    accepted = true;
                    if delta_norm < cfg.min_delta_norm || rel < cfg.min_rel_decrease {
                        converged = true;
                    }
                    break;
                }
                lambda = (lambda * cfg.lambda_up).min(cfg.lambda_max);
            }
            if !accepted {
                // no acceptable step at any damping: treat as converged
                // to the current pose
                converged = true;
            }
            if converged {
                break;
            }
        }
        LmOutcome {
            pose,
            iterations,
            final_cost: eq.mean_cost(),
            residual_count: eq.count,
            converged,
            solver_failures,
            diverged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Vec3;

    /// Toy problem: align a 3D point cloud to a rotated/translated copy
    /// (residual = distance along each axis, stacked).
    struct CloudAlign {
        src: Vec<Vec3>,
        dst: Vec<Vec3>,
    }

    impl LmProblem for CloudAlign {
        fn build(&mut self, pose: &SE3) -> NormalEquations {
            let mut eq = NormalEquations::zero();
            for (s, d) in self.src.iter().zip(&self.dst) {
                let p = pose.transform(*s);
                let e = p - *d;
                // Jacobian of p' = exp(dξ) p w.r.t. dξ at 0:
                // ∂p/∂v = I, ∂p/∂w = -hat(p)
                let rows = [
                    [1.0, 0.0, 0.0, 0.0, p.z, -p.y],
                    [0.0, 1.0, 0.0, -p.z, 0.0, p.x],
                    [0.0, 0.0, 1.0, p.y, -p.x, 0.0],
                ];
                eq.accumulate(&rows[0], e.x, 1.0);
                eq.accumulate(&rows[1], e.y, 1.0);
                eq.accumulate(&rows[2], e.z, 1.0);
            }
            eq
        }
    }

    #[test]
    fn recovers_known_transform() {
        let truth = SE3::exp(&[0.05, -0.03, 0.08, 0.04, -0.06, 0.02]);
        let src: Vec<Vec3> = (0..30)
            .map(|i| {
                let f = i as f64;
                Vec3::new(
                    (f * 0.37).sin() * 2.0,
                    (f * 0.61).cos() * 1.5,
                    2.0 + (f * 0.13).sin(),
                )
            })
            .collect();
        let dst: Vec<Vec3> = src.iter().map(|&p| truth.transform(p)).collect();
        let mut problem = CloudAlign { src, dst };
        let solver = LmSolver::new(LmConfig {
            max_iterations: 20,
            ..LmConfig::default()
        });
        let out = solver.solve(&mut problem, SE3::IDENTITY);
        assert!(out.final_cost < 1e-12, "cost {}", out.final_cost);
        let err = out.pose.compose(&truth.inverse());
        assert!(err.translation_norm() < 1e-6);
        assert!(err.rotation_angle() < 1e-6);
    }

    #[test]
    fn identity_problem_converges_immediately() {
        let src: Vec<Vec3> = (0..10)
            .map(|i| Vec3::new(i as f64 * 0.1, 1.0, 2.0))
            .collect();
        let dst = src.clone();
        let mut problem = CloudAlign { src, dst };
        let out = LmSolver::default().solve(&mut problem, SE3::IDENTITY);
        assert!(out.converged);
        assert!(out.final_cost < 1e-20);
        assert!(out.iterations <= 2);
    }

    #[test]
    fn degenerate_problem_reports_failures_without_panicking() {
        // a single point cannot constrain 6 DOF: damped solves still
        // succeed but the solver must terminate gracefully
        let mut problem = CloudAlign {
            src: vec![Vec3::new(0.0, 0.0, 1.0)],
            dst: vec![Vec3::new(0.1, 0.0, 1.0)],
        };
        let out = LmSolver::default().solve(&mut problem, SE3::IDENTITY);
        assert!(out.iterations <= LmConfig::default().max_iterations);
        assert!(out.final_cost.is_finite());
    }

    /// A problem whose residuals are NaN everywhere except at the
    /// starting pose — models a corrupted linearization.
    struct PoisonedAway {
        inner: CloudAlign,
        builds: usize,
    }

    impl LmProblem for PoisonedAway {
        fn build(&mut self, pose: &SE3) -> NormalEquations {
            self.builds += 1;
            if self.builds == 1 {
                return self.inner.build(pose);
            }
            let mut eq = self.inner.build(pose);
            eq.cost = f64::NAN;
            eq
        }
    }

    #[test]
    fn non_finite_candidate_cost_is_rejected_not_propagated() {
        let truth = SE3::exp(&[0.05, -0.03, 0.08, 0.04, -0.06, 0.02]);
        let src: Vec<Vec3> = (0..20)
            .map(|i| {
                let f = i as f64;
                Vec3::new((f * 0.37).sin(), (f * 0.61).cos(), 2.0 + (f * 0.13).sin())
            })
            .collect();
        let dst: Vec<Vec3> = src.iter().map(|&p| truth.transform(p)).collect();
        let mut problem = PoisonedAway {
            inner: CloudAlign { src, dst },
            builds: 0,
        };
        let out = LmSolver::default().solve(&mut problem, SE3::IDENTITY);
        assert!(out.diverged, "poisoned rebuilds must trip the guard");
        assert!(out.final_cost.is_finite(), "cost stays the healthy one");
        // the pose never moved: every candidate was rejected
        let drift = out.pose.compose(&SE3::IDENTITY.inverse());
        assert!(drift.translation_norm() < 1e-12);
    }

    #[test]
    fn non_finite_initial_cost_refuses_to_solve() {
        struct AlwaysNan;
        impl LmProblem for AlwaysNan {
            fn build(&mut self, _pose: &SE3) -> NormalEquations {
                let mut eq = NormalEquations::zero();
                eq.accumulate(&[1.0; 6], f64::NAN, 1.0);
                eq
            }
        }
        let out = LmSolver::default().solve(&mut AlwaysNan, SE3::IDENTITY);
        assert!(out.diverged);
        assert_eq!(out.iterations, 0);
        assert!(!out.converged);
    }

    #[test]
    fn lambda_growth_is_capped() {
        // a problem that rejects every step keeps multiplying λ; the cap
        // keeps it finite so the outcome is well-defined
        struct NeverBetter;
        impl LmProblem for NeverBetter {
            fn build(&mut self, pose: &SE3) -> NormalEquations {
                let mut eq = NormalEquations::zero();
                // constant cost regardless of pose: no step ever accepted
                let t = pose.translation_norm();
                eq.accumulate(&[1.0, 0.5, 0.2, 0.1, 0.3, 0.6], 1.0 + 0.0 * t, 1.0);
                eq
            }
        }
        let solver = LmSolver::new(LmConfig {
            max_iterations: 50,
            lambda_up: 1e6,
            lambda_max: 1e8,
            ..LmConfig::default()
        });
        let out = solver.solve(&mut NeverBetter, SE3::IDENTITY);
        assert!(out.final_cost.is_finite());
        assert!(!out.diverged);
    }

    #[test]
    fn normal_equations_accumulate_symmetric() {
        let mut eq = NormalEquations::zero();
        eq.accumulate(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.5, 2.0);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(eq.h[i][j], eq.h[j][i]);
            }
        }
        assert_eq!(eq.count, 1);
        assert!((eq.cost - 0.5).abs() < 1e-12);
    }
}

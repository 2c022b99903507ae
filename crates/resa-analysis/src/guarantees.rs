//! Closed-form performance guarantees and lower bounds from the paper.
//!
//! | quantity | formula | paper reference |
//! |---|---|---|
//! | Graham bound | `2 − 1/m` | Theorem 2 (appendix) |
//! | non-increasing bound | `2 − 1/m(C*_max)` | Proposition 1 |
//! | α upper bound | `2/α` | Proposition 3 |
//! | α lower bound (2/α ∈ ℕ) | `2/α − 1 + α/2` | Proposition 2 |
//! | α lower bound B1 | `⌈2/α⌉ − 1 + 1/(⌊(1−α/2)/(1−(α/2)(⌈2/α⌉−1))⌋ + 1)` | §4.2 |
//! | α lower bound B2 | `⌈2/α⌉ − (⌈2/α⌉−1)/(2/α)` | §4.2 |
//!
//! These are the series plotted in Figure 4.

use resa_core::prelude::*;

/// Graham's bound for list scheduling of rigid jobs without reservations on
/// `m` machines: `2 − 1/m` (Theorem 2).
pub fn graham_bound(machines: u32) -> f64 {
    assert!(machines >= 1);
    2.0 - 1.0 / machines as f64
}

/// Proposition 1: guarantee of LSRC under non-increasing reservations, where
/// `available_at_optimum` is `m(C*_max)`, the number of machines available at
/// the optimal makespan.
pub fn nonincreasing_bound(available_at_optimum: u32) -> f64 {
    assert!(available_at_optimum >= 1);
    2.0 - 1.0 / available_at_optimum as f64
}

/// Proposition 3: upper bound `2/α` on the guarantee of LSRC for
/// α-RESASCHEDULING.
pub fn alpha_upper_bound(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0);
    2.0 / alpha
}

/// Proposition 2: lower bound `2/α − 1 + α/2` on the guarantee of LSRC, valid
/// when `2/α` is an integer.
pub fn proposition2_lower_bound(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0);
    2.0 / alpha - 1.0 + alpha / 2.0
}

/// Numerically robust ceiling: values within 1e-9 of an integer are treated as
/// that integer, so `α = 2/k` computed in floating point still yields
/// `⌈2/α⌉ = k` (and likewise for the inner floor of `B1`).
fn robust_ceil(x: f64) -> f64 {
    if (x - x.round()).abs() < 1e-9 {
        x.round()
    } else {
        x.ceil()
    }
}

fn robust_floor(x: f64) -> f64 {
    if (x - x.round()).abs() < 1e-9 {
        x.round()
    } else {
        x.floor()
    }
}

/// The paper's lower bound `B1` for general α:
/// `⌈2/α⌉ − 1 + 1/(⌊(1 − α/2)/(1 − (α/2)(⌈2/α⌉ − 1))⌋ + 1)`.
pub fn lower_bound_b1(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0);
    let ceil_2a = robust_ceil(2.0 / alpha);
    let half = alpha / 2.0;
    let denom_inner = 1.0 - half * (ceil_2a - 1.0);
    // For α in (0,1], (α/2)(⌈2/α⌉−1) < 1, so the inner denominator is positive.
    let floor_term = robust_floor((1.0 - half) / denom_inner);
    ceil_2a - 1.0 + 1.0 / (floor_term + 1.0)
}

/// The paper's (weaker but simpler) lower bound `B2` for general α:
/// `⌈2/α⌉ − (⌈2/α⌉ − 1)/(2/α)`.
pub fn lower_bound_b2(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0);
    let ceil_2a = robust_ceil(2.0 / alpha);
    ceil_2a - (ceil_2a - 1.0) / (2.0 / alpha)
}

/// Exact-rational variants of the Proposition-2/3 quantities for an [`Alpha`].
pub mod exact {
    use super::*;

    /// `2/α` as an exact fraction `(num, denom)`.
    pub fn alpha_upper_bound(alpha: Alpha) -> (u64, u64) {
        (2 * alpha.denom(), alpha.num())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graham_bound_values() {
        assert!((graham_bound(1) - 1.0).abs() < 1e-12);
        assert!((graham_bound(2) - 1.5).abs() < 1e-12);
        assert!((graham_bound(10) - 1.9).abs() < 1e-12);
        assert!(graham_bound(1_000_000) < 2.0);
    }

    #[test]
    fn alpha_bounds_special_values() {
        // α = 1: upper bound 2, Prop-2 lower bound 1.5.
        assert!((alpha_upper_bound(1.0) - 2.0).abs() < 1e-12);
        assert!((proposition2_lower_bound(1.0) - 1.5).abs() < 1e-12);
        // α = 1/2: upper bound 4 (the value the paper quotes), lower 3.25.
        assert!((alpha_upper_bound(0.5) - 4.0).abs() < 1e-12);
        assert!((proposition2_lower_bound(0.5) - 3.25).abs() < 1e-12);
        // α = 1/3 (the Figure-3 case): lower bound 5 + 1/6 = 31/6.
        assert!((proposition2_lower_bound(1.0 / 3.0) - 31.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn b1_reduces_to_proposition2_when_integer() {
        for k in 2..=12u32 {
            let alpha = 2.0 / k as f64;
            assert!(
                (lower_bound_b1(alpha) - proposition2_lower_bound(alpha)).abs() < 1e-9,
                "k = {k}"
            );
        }
    }

    #[test]
    fn bound_ordering_b2_le_b1_le_upper() {
        // Sample the α axis the way Figure 4 does.
        let mut alpha = 0.05;
        while alpha <= 1.0 {
            let b1 = lower_bound_b1(alpha);
            let b2 = lower_bound_b2(alpha);
            let ub = alpha_upper_bound(alpha);
            assert!(b2 <= b1 + 1e-9, "alpha = {alpha}: B2 {b2} > B1 {b1}");
            assert!(b1 <= ub + 1e-9, "alpha = {alpha}: B1 {b1} > UB {ub}");
            assert!(b1 >= 1.0 && b2 >= 1.0);
            alpha += 0.01;
        }
    }

    #[test]
    fn bounds_touch_at_alpha_one_region() {
        // Figure 4 shows the upper and lower bounds getting arbitrarily close
        // for some α; at α = 1 the gap UB − B1 is 0.5.
        let gap = alpha_upper_bound(1.0) - lower_bound_b1(1.0);
        assert!((gap - 0.5).abs() < 1e-9);
    }

    #[test]
    fn nonincreasing_bound_monotone() {
        assert!((nonincreasing_bound(1) - 1.0).abs() < 1e-12);
        assert!(nonincreasing_bound(2) < nonincreasing_bound(4));
        assert!(nonincreasing_bound(100) < 2.0);
    }

    #[test]
    fn exact_fractions() {
        let a = Alpha::new(1, 3).unwrap();
        assert_eq!(exact::alpha_upper_bound(a), (6, 1));
    }

    #[test]
    #[should_panic]
    fn alpha_zero_rejected() {
        let _ = alpha_upper_bound(0.0);
    }
}

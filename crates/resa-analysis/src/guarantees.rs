//! The paper's guarantees, declared once and decided exactly.
//!
//! Every guarantee is a rational in `m`, `a = m(C*_max)` and `α = n/d`:
//!
//! | quantity | exact form | paper reference |
//! |---|---|---|
//! | Graham bound `2 − 1/m` | `(2m − 1)/m` | Theorem 2 (appendix) |
//! | non-increasing bound `2 − 1/m(C*_max)` | `(2a − 1)/a` | Proposition 1 |
//! | α upper bound `2/α` | `2d/n` | Proposition 3 |
//! | α lower bound `2/α − 1 + α/2` (2/α ∈ ℕ) | `2d/n − 1 + n/(2d)` | Proposition 2 |
//! | α lower bound B1 | `c − 1 + 1/(f + 1)` | §4.2 |
//! | α lower bound B2 | `c − (c − 1)·n/(2d)` | §4.2 |
//!
//! with `c = ⌈2/α⌉ = ⌈2d/n⌉` and `f = ⌊(2d − n)/(2d − n(c − 1))⌋`. The
//! upper bounds are the rows of [`GUARANTEES`]; the lower bounds are the
//! curves of Figures 3 and 4, computed in `u64` for α denominators below
//! 2³¹.

use crate::verification::InstanceClass;
use resa_core::prelude::*;
use std::cmp::Ordering;

/// An exact non-negative rational `num/den` with `den > 0`, ordered by
/// cross-multiplication.
#[derive(Debug, Clone, Copy)]
pub struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    /// `num/den`.
    pub fn new(num: u64, den: u64) -> Ratio {
        assert!(den > 0, "a ratio needs a positive denominator");
        Ratio { num, den }
    }

    /// The value as `f64`, for display only: every verdict compares exactly.
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The measured ratio `makespan / reference`; a zero reference counts
    /// as the ratio 1.
    pub fn measured(makespan: u64, reference: u64) -> Ratio {
        match reference {
            0 => Ratio::new(1, 1),
            _ => Ratio::new(makespan, reference),
        }
    }

    /// Whether the measured ratio `makespan / reference` is at most `self`.
    pub fn admits(self, makespan: u64, reference: u64) -> bool {
        Ratio::measured(makespan, reference) <= self
    }
}

/// A ratio serializes as its display value.
impl serde::Serialize for Ratio {
    fn to_value(&self) -> serde::Value {
        self.as_f64().to_value()
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        let cross = |a: &Ratio, b: &Ratio| u128::from(a.num) * u128::from(b.den);
        cross(self, other).cmp(&cross(other, self))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ratio {
    fn eq(&self, other: &Ratio) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ratio {}

/// What a guarantee is a function of: `(m, m(C*_max), α)` — the cluster
/// size, the machines available at the reference makespan (≥ 1) and the
/// largest α the instance is α-restricted for, if any.
pub type Params = (u32, u32, Option<Alpha>);

/// One numbered upper bound of the paper: a row of [`GUARANTEES`].
pub struct Guarantee {
    /// The statement that proves it.
    pub statement: &'static str,
    /// The name of its check in a guarantee report.
    pub name: fn(Params) -> String,
    /// The instance classes it covers.
    pub covers: &'static [InstanceClass],
    /// Whether it bounds LSRC-class schedules only (list scheduling in any
    /// order); §2.2 gives FCFS and backfilling no constant bound.
    pub lsrc_only: bool,
    /// The bound; `None` where it needs an α the instance lacks.
    pub bound: fn(Params) -> Option<Ratio>,
}

impl Guarantee {
    /// The bound at `params`, which must carry the α it needs.
    pub fn at(&self, params: Params) -> Ratio {
        (self.bound)(params).expect("the bound is defined at these parameters")
    }

    /// Whether `makespan / reference` respects the bound at `params`: the
    /// one predicate verdicts and test assertions decide.
    pub fn admits(&self, params: Params, makespan: u64, reference: u64) -> bool {
        self.at(params).admits(makespan, reference)
    }
}

/// The paper's upper bounds, one row per numbered statement, in report order.
pub const GUARANTEES: [Guarantee; 3] = [
    Guarantee {
        statement: "Theorem 2",
        name: |(m, ..)| format!("Graham 2 - 1/m (m = {m})"),
        covers: &[InstanceClass::ReservationFree],
        lsrc_only: true,
        bound: |(m, ..)| Some(two_minus_inverse(m)),
    },
    Guarantee {
        statement: "Proposition 1",
        name: |(_, a, _)| format!("Proposition 1: 2 - 1/m(C*) (m(C*) = {a})"),
        covers: &[InstanceClass::NonIncreasing],
        lsrc_only: true,
        bound: |(_, a, _)| Some(two_minus_inverse(a)),
    },
    Guarantee {
        statement: "Proposition 3",
        name: |(.., alpha)| format!("Proposition 3: 2/alpha (alpha = {})", alpha.expect("an α")),
        covers: &[InstanceClass::NonIncreasing, InstanceClass::AlphaRestricted],
        lsrc_only: true,
        bound: |(.., alpha)| alpha.map(|a| Ratio::new(2 * a.denom(), a.num())),
    },
];

/// Theorem 2's row of [`GUARANTEES`].
pub const THEOREM_2: &Guarantee = &GUARANTEES[0];
/// Proposition 1's row of [`GUARANTEES`].
pub const PROPOSITION_1: &Guarantee = &GUARANTEES[1];
/// Proposition 3's row of [`GUARANTEES`].
pub const PROPOSITION_3: &Guarantee = &GUARANTEES[2];

fn two_minus_inverse(m: u32) -> Ratio {
    Ratio::new(2 * u64::from(m) - 1, u64::from(m))
}

/// Proposition 2: `2/α − 1 + α/2`, a lower bound when `2/α` is an integer.
pub fn lower_proposition2(alpha: Alpha) -> Ratio {
    let (n, d) = (alpha.num(), alpha.denom());
    Ratio::new(4 * d * d - 2 * d * n + n * n, 2 * d * n)
}

/// §4.2's lower bound `B1 = c − 1 + 1/(f + 1)` for any α.
pub fn lower_b1(alpha: Alpha) -> Ratio {
    let (n, d) = (alpha.num(), alpha.denom());
    let c = (2 * d).div_ceil(n);
    let f = (2 * d - n) / (2 * d - n * (c - 1));
    Ratio::new((c - 1) * (f + 1) + 1, f + 1)
}

/// §4.2's lower bound `B2 = c − (c − 1)·n/(2d)` for any α.
pub fn lower_b2(alpha: Alpha) -> Ratio {
    let (n, d) = (alpha.num(), alpha.denom());
    let c = (2 * d).div_ceil(n);
    Ratio::new(2 * d * c - (c - 1) * n, 2 * d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alpha(n: u64, d: u64) -> Alpha {
        Alpha::new(n, d).unwrap()
    }

    fn bound(g: &Guarantee, machines: u32, available: u32, alpha: Option<Alpha>) -> Ratio {
        g.at((machines, available, alpha))
    }

    #[test]
    fn graham_bound_values() {
        assert_eq!(bound(THEOREM_2, 1, 1, None), Ratio::new(1, 1));
        assert_eq!(bound(THEOREM_2, 2, 2, None), Ratio::new(3, 2));
        assert_eq!(bound(THEOREM_2, 10, 10, None), Ratio::new(19, 10));
        assert!(bound(THEOREM_2, 1_000_000, 1, None) < Ratio::new(2, 1));
    }

    #[test]
    fn alpha_bounds_special_values() {
        // α = 1: upper bound 2, Prop-2 lower bound 3/2.
        assert_eq!(
            bound(PROPOSITION_3, 1, 1, Some(Alpha::ONE)),
            Ratio::new(2, 1)
        );
        assert_eq!(lower_proposition2(Alpha::ONE), Ratio::new(3, 2));
        // α = 1/2: upper bound 4 (the value the paper quotes), lower 13/4.
        assert_eq!(
            bound(PROPOSITION_3, 1, 1, Some(Alpha::HALF)),
            Ratio::new(4, 1)
        );
        assert_eq!(lower_proposition2(Alpha::HALF), Ratio::new(13, 4));
        // α = 1/3 (the Figure-3 case): lower bound 5 + 1/6 = 31/6.
        assert_eq!(lower_proposition2(alpha(1, 3)), Ratio::new(31, 6));
        assert_eq!(
            bound(PROPOSITION_3, 1, 1, Some(alpha(1, 3))),
            Ratio::new(6, 1)
        );
    }

    #[test]
    fn b1_reduces_to_proposition2_when_integer() {
        for k in 2..=12u64 {
            let a = Alpha::two_over(k).unwrap();
            assert_eq!(lower_b1(a), lower_proposition2(a), "k = {k}");
        }
    }

    /// Every reduced `α = n/d` with `d ≤ 120`, exactly.
    #[test]
    fn bound_ordering_b2_le_b1_le_upper() {
        let mut seen = 0;
        for d in 1..=120u64 {
            for n in (1..=d).filter(|&n| Alpha::new(n, d).unwrap().denom() == d) {
                let a = alpha(n, d);
                let (b1, b2) = (lower_b1(a), lower_b2(a));
                let ub = bound(PROPOSITION_3, 1, 1, Some(a));
                assert!(b2 <= b1, "alpha = {a}: B2 {b2:?} > B1 {b1:?}");
                assert!(b1 <= ub, "alpha = {a}: B1 {b1:?} > UB {ub:?}");
                assert!(b2 >= Ratio::new(1, 1));
                seen += 1;
            }
        }
        assert_eq!(seen, 4386);
    }

    /// The exact forms agree with the paper's real-valued formulas, which
    /// the f64 evaluation approximates to within rounding.
    #[test]
    fn exact_forms_match_the_formulas() {
        for (n, d) in [(1u64, 20u64), (3, 10), (1, 3), (7, 10), (2, 3), (1, 1)] {
            let x = n as f64 / d as f64;
            let c = (2.0 / x - 1e-9).ceil();
            let f = ((1.0 - x / 2.0) / (1.0 - x / 2.0 * (c - 1.0)) + 1e-9).floor();
            let b1 = c - 1.0 + 1.0 / (f + 1.0);
            let b2 = c - (c - 1.0) / (2.0 / x);
            assert!(
                (lower_b1(alpha(n, d)).as_f64() - b1).abs() < 1e-12,
                "{n}/{d}"
            );
            assert!(
                (lower_b2(alpha(n, d)).as_f64() - b2).abs() < 1e-12,
                "{n}/{d}"
            );
        }
    }

    #[test]
    fn bounds_touch_at_alpha_one_region() {
        // At α = 1 the gap UB − B1 is 1/2.
        assert_eq!(lower_b1(Alpha::ONE), Ratio::new(3, 2));
        assert_eq!(
            bound(PROPOSITION_3, 1, 1, Some(Alpha::ONE)),
            Ratio::new(2, 1)
        );
    }

    #[test]
    fn nonincreasing_bound_monotone() {
        assert_eq!(bound(PROPOSITION_1, 8, 1, None), Ratio::new(1, 1));
        assert!(bound(PROPOSITION_1, 8, 2, None) < bound(PROPOSITION_1, 8, 4, None));
        assert!(bound(PROPOSITION_1, 8, 100, None) < Ratio::new(2, 1));
    }

    #[test]
    fn admits_decides_in_integers() {
        let graham = bound(THEOREM_2, 1024, 1024, None);
        assert!(!graham.admits(1_999_921, 1_000_449));
        assert!(graham.admits(1_999_920, 1_000_449));
        // A zero reference counts as the ratio 1.
        assert!(Ratio::new(1, 1).admits(5, 0));
        assert!(!Ratio::new(1, 2).admits(0, 0));
    }

    #[test]
    fn proposition3_needs_an_alpha() {
        let p = (4, 4, None);
        assert!((PROPOSITION_3.bound)(p).is_none());
        assert!(THEOREM_2.admits(p, 7, 4));
        assert!(!THEOREM_2.admits(p, 8, 4));
    }

    #[test]
    fn exact_fractions() {
        let third = bound(PROPOSITION_3, 1, 1, Some(alpha(1, 3)));
        assert_eq!((third.num, third.den), (6, 1));
    }

    /// α = 0 is no [`Alpha`], and `2/α` at α = 0 would have a zero
    /// denominator.
    #[test]
    #[should_panic]
    fn alpha_zero_rejected() {
        assert!(Alpha::new(0, 1).is_none());
        let _ = Ratio::new(2, 0);
    }
}

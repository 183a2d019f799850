//! §4's case against explicit-state checking, as exact counts. Two
//! equivalent parsers read one `w`-bit header, one whole and one in two
//! halves, and both accept iff its first bit is 1. The explicit product
//! over concrete configurations grows with `2^w`; the symbolic relation
//! keeps one size at every width.

use leapfrog::{check_explicit, EngineConfig, ExplicitResult};
use leapfrog_p4a::surface::parse;

/// The configuration pairs the explicit check visits on the `width`-bit
/// pair from zero stores: one per header prefix (`2^w − 1` before the
/// header completes, `2^w` once it does) plus one rejecting pair per
/// accepted header (`2^(w−1)`), so `2.5·2^w − 1`.
pub fn explicit_pairs(width: usize) -> usize {
    5 * (1 << (width - 1)) - 1
}

/// Checks the `width`-bit pair (`width ≥ 2`) both ways: explicitly, within
/// `budget` configuration pairs, and symbolically, returning the relation
/// size |R| of the symbolic proof (`None` when it did not verify).
pub fn check_pair(width: usize, budget: usize) -> (ExplicitResult, Option<u64>) {
    let half = width / 2;
    let a = parse(&format!(
        "parser A {{ state s {{ extract(h, {width});
           select(h[0:0]) {{ 0b1 => accept; _ => reject; }} }} }}"
    ))
    .expect("the whole-header parser is well formed");
    let b = parse(&format!(
        "parser B {{ state s {{ extract(x, {half}); goto t }}
                     state t {{ extract(y, {});
           select(x[0:0]) {{ 0b1 => accept; _ => reject; }} }} }}",
        width - half
    ))
    .expect("the two-halves parser is well formed");
    let qa = a.state_by_name("s").expect("A starts at s");
    let qb = b.state_by_name("s").expect("B starts at s");
    let mut engine = EngineConfig::from_env().build();
    let verified = engine.check(&a, qa, &b, qb).is_equivalent();
    let relation_size = verified.then(|| engine.last_run_stats().extended);
    (check_explicit(&a, qa, &b, qb, budget), relation_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_pairs_grow_while_the_relation_stays_flat() {
        for width in [2, 4, 6, 8] {
            let explored = explicit_pairs(width);
            let complete = (ExplicitResult::Equivalent { explored }, Some(4));
            assert_eq!(check_pair(width, explored), complete, "width {width}");
            let budget = explored - 1;
            let cut = (ExplicitResult::Exhausted { budget }, Some(4));
            assert_eq!(check_pair(width, budget), cut, "width {width}");
        }
    }
}

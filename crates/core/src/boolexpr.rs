//! Boolean expressions and equation systems over `X(u,v)` variables.
//!
//! §4.1 of the paper represents partial answers as Boolean equations
//! "defined in terms of the Boolean variables of the virtual nodes":
//! `X(u,v) = ⋀ (⋁ X(ui,vj))`. This module provides:
//!
//! * [`BExpr`] — monotone (AND/OR/const/var) expressions with
//!   normalization (flattening, constant folding, deduplication);
//! * [`EquationSystem`] — a set of equations `var = expr` with a
//!   greatest-fixpoint solver (downward Kleene iteration), used by the
//!   coordinator of `dGPMt` and by tests;
//! * a compact wire encoding ([`BExpr::wire_size`]) for shipping
//!   equations in push operations and the tree algorithm.
//!
//! Everything is *monotone*: no negation exists anywhere in graph
//! simulation, which is what makes optimistic evaluation and
//! asynchronous falsification sound.

use crate::vars::Var;
use dgs_net::WireSize;
use std::collections::{BTreeMap, HashMap};

/// A monotone Boolean expression.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BExpr {
    /// A constant.
    Const(bool),
    /// A variable `X(u,v)`.
    Var(Var),
    /// Conjunction (empty = true).
    And(Vec<BExpr>),
    /// Disjunction (empty = false).
    Or(Vec<BExpr>),
}

impl BExpr {
    /// `true`.
    pub const TRUE: BExpr = BExpr::Const(true);
    /// `false`.
    pub const FALSE: BExpr = BExpr::Const(false);

    /// Builds a normalized conjunction.
    pub fn and(children: Vec<BExpr>) -> BExpr {
        BExpr::And(children).normalize()
    }

    /// Builds a normalized disjunction.
    pub fn or(children: Vec<BExpr>) -> BExpr {
        BExpr::Or(children).normalize()
    }

    /// Normalizes: flattens nested And/Or of the same kind, folds
    /// constants, sorts and deduplicates children, and collapses
    /// singletons.
    pub fn normalize(self) -> BExpr {
        match self {
            BExpr::Const(_) | BExpr::Var(_) => self,
            BExpr::And(children) => {
                let mut out = Vec::with_capacity(children.len());
                for c in children {
                    match c.normalize() {
                        BExpr::Const(true) => {}
                        BExpr::Const(false) => return BExpr::FALSE,
                        BExpr::And(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                out.sort_unstable();
                out.dedup();
                match out.len() {
                    0 => BExpr::TRUE,
                    1 => out.pop().unwrap(),
                    _ => BExpr::And(out),
                }
            }
            BExpr::Or(children) => {
                let mut out = Vec::with_capacity(children.len());
                for c in children {
                    match c.normalize() {
                        BExpr::Const(false) => {}
                        BExpr::Const(true) => return BExpr::TRUE,
                        BExpr::Or(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                out.sort_unstable();
                out.dedup();
                match out.len() {
                    0 => BExpr::FALSE,
                    1 => out.pop().unwrap(),
                    _ => BExpr::Or(out),
                }
            }
        }
    }

    /// Evaluates under `lookup`; unknown variables should be mapped by
    /// the caller (optimistic evaluation passes `true`).
    pub fn eval(&self, lookup: &impl Fn(Var) -> bool) -> bool {
        match self {
            BExpr::Const(b) => *b,
            BExpr::Var(v) => lookup(*v),
            BExpr::And(cs) => cs.iter().all(|c| c.eval(lookup)),
            BExpr::Or(cs) => cs.iter().any(|c| c.eval(lookup)),
        }
    }

    /// Substitutes known values for some variables and renormalizes;
    /// variables not in `values` remain symbolic.
    pub fn substitute(&self, values: &HashMap<Var, bool>) -> BExpr {
        match self {
            BExpr::Const(_) => self.clone(),
            BExpr::Var(v) => match values.get(v) {
                Some(&b) => BExpr::Const(b),
                None => self.clone(),
            },
            BExpr::And(cs) => {
                BExpr::And(cs.iter().map(|c| c.substitute(values)).collect()).normalize()
            }
            BExpr::Or(cs) => {
                BExpr::Or(cs.iter().map(|c| c.substitute(values)).collect()).normalize()
            }
        }
    }

    /// Number of leaves and operators (the equation size `m` of the
    /// push benefit function, §4.2).
    pub fn size(&self) -> usize {
        match self {
            BExpr::Const(_) | BExpr::Var(_) => 1,
            BExpr::And(cs) | BExpr::Or(cs) => 1 + cs.iter().map(BExpr::size).sum::<usize>(),
        }
    }

    /// Collects the distinct variables into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            BExpr::Const(_) => {}
            BExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            BExpr::And(cs) | BExpr::Or(cs) => {
                for c in cs {
                    c.collect_vars(out);
                }
            }
        }
    }

    /// The distinct variables of this expression.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    /// True iff the expression is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, BExpr::Const(_))
    }
}

impl WireSize for BExpr {
    /// Size of the [postfix encoding](BExpr::encode_postfix): 1 tag
    /// byte per operator/constant plus a 2-byte arity for operators;
    /// 1 + 6 bytes per variable leaf.
    fn wire_size(&self) -> usize {
        match self {
            BExpr::Const(_) => 1,
            BExpr::Var(_) => 7,
            BExpr::And(cs) | BExpr::Or(cs) => 3 + cs.iter().map(WireSize::wire_size).sum::<usize>(),
        }
    }
}

/// Decoding errors of the postfix format.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended inside a token.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// Operator arity exceeds the available operands.
    StackUnderflow,
    /// Input decoded to zero or more than one expression.
    WrongArity(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated postfix input"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t:#x}"),
            DecodeError::StackUnderflow => write!(f, "operator arity underflow"),
            DecodeError::WrongArity(n) => write!(f, "expected 1 expression, got {n}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_FALSE: u8 = 0;
const TAG_TRUE: u8 = 1;
const TAG_VAR: u8 = 2;
const TAG_AND: u8 = 3;
const TAG_OR: u8 = 4;

impl BExpr {
    /// Serializes into the compact postfix byte format whose size
    /// [`WireSize::wire_size`] reports: operands are emitted before
    /// their operator, so decoding is a single stack pass. This is the
    /// concrete encoding of pushed equations (`dGPM`'s push operation)
    /// and `dGPMt`'s root vectors.
    pub fn encode_postfix(&self, out: &mut Vec<u8>) {
        match self {
            BExpr::Const(b) => out.push(if *b { TAG_TRUE } else { TAG_FALSE }),
            BExpr::Var(v) => {
                out.push(TAG_VAR);
                out.extend_from_slice(&v.q.to_le_bytes());
                out.extend_from_slice(&v.node.to_le_bytes());
            }
            BExpr::And(cs) | BExpr::Or(cs) => {
                for c in cs {
                    c.encode_postfix(out);
                }
                out.push(if matches!(self, BExpr::And(_)) {
                    TAG_AND
                } else {
                    TAG_OR
                });
                let arity = u16::try_from(cs.len()).expect("operator arity fits u16");
                out.extend_from_slice(&arity.to_le_bytes());
            }
        }
    }

    /// Decodes a postfix byte stream produced by
    /// [`BExpr::encode_postfix`].
    pub fn decode_postfix(bytes: &[u8]) -> Result<BExpr, DecodeError> {
        let mut stack: Vec<BExpr> = Vec::new();
        let mut i = 0usize;
        let take = |i: &mut usize, n: usize| -> Result<usize, DecodeError> {
            let start = *i;
            *i += n;
            if *i > bytes.len() {
                Err(DecodeError::Truncated)
            } else {
                Ok(start)
            }
        };
        while i < bytes.len() {
            let tag = bytes[i];
            i += 1;
            match tag {
                TAG_FALSE => stack.push(BExpr::FALSE),
                TAG_TRUE => stack.push(BExpr::TRUE),
                TAG_VAR => {
                    let s = take(&mut i, 6)?;
                    let q = u16::from_le_bytes([bytes[s], bytes[s + 1]]);
                    let node = u32::from_le_bytes([
                        bytes[s + 2],
                        bytes[s + 3],
                        bytes[s + 4],
                        bytes[s + 5],
                    ]);
                    stack.push(BExpr::Var(Var { q, node }));
                }
                TAG_AND | TAG_OR => {
                    let s = take(&mut i, 2)?;
                    let arity = u16::from_le_bytes([bytes[s], bytes[s + 1]]) as usize;
                    if stack.len() < arity {
                        return Err(DecodeError::StackUnderflow);
                    }
                    let children = stack.split_off(stack.len() - arity);
                    stack.push(if tag == TAG_AND {
                        BExpr::And(children)
                    } else {
                        BExpr::Or(children)
                    });
                }
                other => return Err(DecodeError::BadTag(other)),
            }
        }
        if stack.len() != 1 {
            return Err(DecodeError::WrongArity(stack.len()));
        }
        Ok(stack.pop().unwrap())
    }
}

impl std::fmt::Display for BExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BExpr::Const(b) => write!(f, "{b}"),
            BExpr::Var(v) => write!(f, "{v}"),
            BExpr::And(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            BExpr::Or(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A system of equations `var = expr` over monotone expressions.
///
/// The solver computes the **greatest fixpoint**: all defined variables
/// start `true` (the optimistic assumption of §4.1) and are repeatedly
/// re-evaluated downward until stable. Variables that appear in
/// right-hand sides without a defining equation are *free* and read
/// from a caller-supplied environment (default `true`).
#[derive(Clone, Debug, Default)]
pub struct EquationSystem {
    /// Ordered, because [`EquationSystem::solve_gfp`] charges ops per
    /// visit: the sweep order decides the count, and a hash order
    /// would make it differ from one process to the next.
    equations: BTreeMap<Var, BExpr>,
}

impl EquationSystem {
    /// An empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the equation `var = expr`.
    pub fn insert(&mut self, var: Var, expr: BExpr) {
        self.equations.insert(var, expr.normalize());
    }

    /// The defining expression of `var`, if any.
    pub fn get(&self, var: Var) -> Option<&BExpr> {
        self.equations.get(&var)
    }

    /// Number of equations.
    pub fn len(&self) -> usize {
        self.equations.len()
    }

    /// True iff the system has no equations.
    pub fn is_empty(&self) -> bool {
        self.equations.is_empty()
    }

    /// Solves for the greatest fixpoint. `free` supplies values for
    /// undefined variables (return `None` for "unknown", which is
    /// treated as the optimistic `true`). Returns the value of every
    /// defined variable plus the number of evaluation operations
    /// performed.
    pub fn solve_gfp(&self, free: impl Fn(Var) -> Option<bool>) -> (HashMap<Var, bool>, u64) {
        let mut values: HashMap<Var, bool> = self.equations.keys().map(|&v| (v, true)).collect();
        let mut ops: u64 = 0;
        loop {
            let mut changed = false;
            for (&var, expr) in &self.equations {
                if !values[&var] {
                    continue; // monotone: false stays false
                }
                ops += expr.size() as u64;
                let val = expr.eval(&|v| match values.get(&v) {
                    Some(&b) => b,
                    None => free(v).unwrap_or(true),
                });
                if !val {
                    values.insert(var, false);
                    changed = true;
                }
            }
            if !changed {
                return (values, ops);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(q: u16, n: u32) -> Var {
        Var { q, node: n }
    }

    #[test]
    fn normalize_folds_constants() {
        let e = BExpr::and(vec![BExpr::TRUE, BExpr::Var(v(0, 1)), BExpr::TRUE]);
        assert_eq!(e, BExpr::Var(v(0, 1)));
        let e = BExpr::and(vec![BExpr::FALSE, BExpr::Var(v(0, 1))]);
        assert_eq!(e, BExpr::FALSE);
        let e = BExpr::or(vec![BExpr::TRUE, BExpr::Var(v(0, 1))]);
        assert_eq!(e, BExpr::TRUE);
        let e = BExpr::or(vec![]);
        assert_eq!(e, BExpr::FALSE);
        let e = BExpr::and(vec![]);
        assert_eq!(e, BExpr::TRUE);
    }

    #[test]
    fn normalize_flattens_and_dedups() {
        let inner = BExpr::And(vec![BExpr::Var(v(0, 1)), BExpr::Var(v(0, 2))]);
        let e = BExpr::and(vec![inner, BExpr::Var(v(0, 1))]);
        assert_eq!(
            e,
            BExpr::And(vec![BExpr::Var(v(0, 1)), BExpr::Var(v(0, 2))])
        );
    }

    #[test]
    fn eval_and_or() {
        let e = BExpr::and(vec![
            BExpr::Var(v(0, 1)),
            BExpr::or(vec![BExpr::Var(v(0, 2)), BExpr::Var(v(0, 3))]),
        ]);
        let all_true = |_| true;
        assert!(e.eval(&all_true));
        let only_3 = |x: Var| x == v(0, 1) || x == v(0, 3);
        assert!(e.eval(&only_3));
        let only_1 = |x: Var| x == v(0, 1);
        assert!(!e.eval(&only_1));
    }

    #[test]
    fn substitute_partial() {
        let e = BExpr::and(vec![BExpr::Var(v(0, 1)), BExpr::Var(v(0, 2))]);
        let mut vals = HashMap::new();
        vals.insert(v(0, 1), true);
        assert_eq!(e.substitute(&vals), BExpr::Var(v(0, 2)));
        vals.insert(v(0, 2), false);
        assert_eq!(e.substitute(&vals), BExpr::FALSE);
    }

    #[test]
    fn size_and_vars() {
        let e = BExpr::and(vec![
            BExpr::Var(v(0, 1)),
            BExpr::or(vec![BExpr::Var(v(1, 2)), BExpr::Var(v(0, 1))]),
        ]);
        assert_eq!(e.size(), 5); // and + var + (or + 2 vars)
        let mut vars = e.vars();
        vars.sort_unstable();
        assert_eq!(vars, vec![v(0, 1), v(1, 2)]);
    }

    #[test]
    fn wire_size_counts_structure() {
        assert_eq!(BExpr::TRUE.wire_size(), 1);
        assert_eq!(BExpr::Var(v(0, 1)).wire_size(), 7);
        let e = BExpr::And(vec![BExpr::Var(v(0, 1)), BExpr::Var(v(0, 2))]);
        assert_eq!(e.wire_size(), 3 + 14);
    }

    #[test]
    fn gfp_simple_chain() {
        // X = Y, Y = Z, Z free.
        let mut sys = EquationSystem::new();
        sys.insert(v(0, 0), BExpr::Var(v(0, 1)));
        sys.insert(v(0, 1), BExpr::Var(v(0, 2)));
        let (vals, _) = sys.solve_gfp(|x| (x == v(0, 2)).then_some(true));
        assert!(vals[&v(0, 0)] && vals[&v(0, 1)]);
        let (vals, _) = sys.solve_gfp(|x| (x == v(0, 2)).then_some(false));
        assert!(!vals[&v(0, 0)] && !vals[&v(0, 1)]);
    }

    #[test]
    fn gfp_cycle_resolves_to_true() {
        // X = Y, Y = X: the *greatest* fixpoint is true/true (this is
        // exactly why the intact adversarial ring G0 matches Q0).
        let mut sys = EquationSystem::new();
        sys.insert(v(0, 0), BExpr::Var(v(0, 1)));
        sys.insert(v(0, 1), BExpr::Var(v(0, 0)));
        let (vals, _) = sys.solve_gfp(|_| None);
        assert!(vals[&v(0, 0)] && vals[&v(0, 1)]);
    }

    #[test]
    fn gfp_cycle_with_false_anchor() {
        // X = Y ∧ a, Y = X, a = false: everything collapses.
        let mut sys = EquationSystem::new();
        sys.insert(
            v(0, 0),
            BExpr::and(vec![BExpr::Var(v(0, 1)), BExpr::Var(v(1, 9))]),
        );
        sys.insert(v(0, 1), BExpr::Var(v(0, 0)));
        let (vals, _) = sys.solve_gfp(|x| (x == v(1, 9)).then_some(false));
        assert!(!vals[&v(0, 0)] && !vals[&v(0, 1)]);
    }

    #[test]
    fn gfp_matches_bruteforce_on_random_systems() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Brute force: enumerate all assignments to defined vars,
        // take the greatest one that is a fixpoint.
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nv = rng.gen_range(2..5usize);
            let vars: Vec<Var> = (0..nv).map(|i| v(0, i as u32)).collect();
            let mut sys = EquationSystem::new();
            for &var in &vars {
                // Random 2-level expression over the variables.
                let mk_leaf = |rng: &mut SmallRng| {
                    if rng.gen_bool(0.15) {
                        BExpr::Const(rng.gen_bool(0.5))
                    } else {
                        BExpr::Var(v(0, rng.gen_range(0..nv) as u32))
                    }
                };
                let mut terms = Vec::new();
                for _ in 0..rng.gen_range(1..3) {
                    let leaves: Vec<BExpr> = (0..rng.gen_range(1..3))
                        .map(|_| mk_leaf(&mut rng))
                        .collect();
                    terms.push(BExpr::or(leaves));
                }
                sys.insert(var, BExpr::and(terms));
            }
            let (got, _) = sys.solve_gfp(|_| None);

            // Brute force greatest fixpoint.
            let mut best: Option<Vec<bool>> = None;
            for mask in 0..(1u32 << nv) {
                let assign: Vec<bool> = (0..nv).map(|i| mask >> i & 1 == 1).collect();
                let lookup = |x: Var| assign[x.node as usize];
                let is_fix = vars
                    .iter()
                    .all(|&var| sys.get(var).unwrap().eval(&lookup) == assign[var.node as usize]);
                if is_fix {
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            assign.iter().filter(|&&x| x).count()
                                >= b.iter().filter(|&&x| x).count()
                        }
                    };
                    // For monotone systems the set of fixpoints is a
                    // lattice; the max-cardinality one is the gfp.
                    if better {
                        best = Some(assign);
                    }
                }
            }
            let best = best.expect("monotone systems always have a fixpoint");
            for &var in &vars {
                assert_eq!(got[&var], best[var.node as usize], "seed {seed}, var {var}");
            }
        }
    }

    #[test]
    fn postfix_roundtrip() {
        let exprs = [
            BExpr::TRUE,
            BExpr::FALSE,
            BExpr::Var(v(3, 99)),
            BExpr::and(vec![
                BExpr::Var(v(0, 1)),
                BExpr::or(vec![BExpr::Var(v(1, 2)), BExpr::Var(v(2, 70000))]),
            ]),
            // Non-normalized structure must also round-trip verbatim.
            BExpr::And(vec![BExpr::Or(vec![]), BExpr::Const(true)]),
        ];
        for e in exprs {
            let mut bytes = Vec::new();
            e.encode_postfix(&mut bytes);
            assert_eq!(bytes.len(), e.wire_size(), "wire_size mismatch for {e}");
            assert_eq!(BExpr::decode_postfix(&bytes), Ok(e));
        }
    }

    #[test]
    fn postfix_roundtrip_random() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        fn random_expr(rng: &mut SmallRng, depth: usize) -> BExpr {
            if depth == 0 || rng.gen_bool(0.4) {
                if rng.gen_bool(0.2) {
                    BExpr::Const(rng.gen_bool(0.5))
                } else {
                    BExpr::Var(v(rng.gen_range(0..8), rng.gen_range(0..1000)))
                }
            } else {
                let children: Vec<BExpr> = (0..rng.gen_range(1..4))
                    .map(|_| random_expr(rng, depth - 1))
                    .collect();
                if rng.gen_bool(0.5) {
                    BExpr::And(children)
                } else {
                    BExpr::Or(children)
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            let e = random_expr(&mut rng, 4);
            let mut bytes = Vec::new();
            e.encode_postfix(&mut bytes);
            assert_eq!(bytes.len(), e.wire_size());
            assert_eq!(BExpr::decode_postfix(&bytes), Ok(e));
        }
    }

    #[test]
    fn postfix_decode_errors() {
        assert_eq!(BExpr::decode_postfix(&[]), Err(DecodeError::WrongArity(0)));
        assert_eq!(
            BExpr::decode_postfix(&[TAG_VAR, 1]),
            Err(DecodeError::Truncated)
        );
        assert_eq!(BExpr::decode_postfix(&[42]), Err(DecodeError::BadTag(42)));
        // AND of arity 2 with only one operand.
        assert_eq!(
            BExpr::decode_postfix(&[TAG_TRUE, TAG_AND, 2, 0]),
            Err(DecodeError::StackUnderflow)
        );
        // Two complete expressions without a joining operator.
        assert_eq!(
            BExpr::decode_postfix(&[TAG_TRUE, TAG_FALSE]),
            Err(DecodeError::WrongArity(2))
        );
    }

    #[test]
    fn display_renders_structure() {
        let e = BExpr::and(vec![
            BExpr::Var(v(0, 1)),
            BExpr::or(vec![BExpr::Var(v(1, 2)), BExpr::Var(v(2, 3))]),
        ]);
        let s = e.to_string();
        assert!(s.contains('∧') && s.contains('∨'));
    }

    /// The sweep order is part of the charged op count (PT), so it
    /// must not follow a per-map hash seed: the same system built
    /// eight times solves in the same number of ops.
    #[test]
    fn solve_gfp_ops_do_not_depend_on_map_instance() {
        let n = 40u32;
        let ops: Vec<u64> = (0..8)
            .map(|_| {
                let mut sys = EquationSystem::new();
                for i in 1..n {
                    sys.insert(v(0, i), BExpr::Var(v(0, i + 1)));
                }
                sys.insert(v(0, n), BExpr::FALSE);
                let (values, ops) = sys.solve_gfp(|_| None);
                assert!(values.values().all(|&b| !b));
                ops
            })
            .collect();
        assert!(ops.windows(2).all(|w| w[0] == w[1]), "ops vary: {ops:?}");
    }
}

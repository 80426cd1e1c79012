//! Clause databases.

use std::fmt;

/// A propositional variable (0-based index).
pub type Var = u32;

/// A literal: a variable with a polarity, encoded as `2·var + sign`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive or negative literal of `var`.
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(2 * var + u32::from(!positive))
    }

    /// The positive literal of `var`.
    pub fn pos(var: Var) -> Lit {
        Lit::new(var, true)
    }

    /// The negative literal of `var`.
    pub fn neg(var: Var) -> Lit {
        Lit::new(var, false)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 / 2
    }

    /// `true` for a positive literal.
    pub fn is_positive(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// Dense code usable as an array index (`2·var + sign`).
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    /// The complemented literal.
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "¬x{}", self.var())
        }
    }
}

impl fmt::Display for Lit {
    /// DIMACS convention: 1-based, negative for complemented literals.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dimacs = (self.var() as i64 + 1) * if self.is_positive() { 1 } else { -1 };
        write!(f, "{dimacs}")
    }
}

/// A CNF formula: a conjunction of clauses over `num_vars` variables.
#[derive(Clone, Debug, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty (trivially satisfiable) formula with no variables.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = self.num_vars as Var;
        self.num_vars += 1;
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Adds a clause (a disjunction of literals). An empty clause makes
    /// the formula unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal mentions an unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for &l in &clause {
            assert!(
                (l.var() as usize) < self.num_vars,
                "literal {l:?} uses an unallocated variable"
            );
        }
        self.clauses.push(clause);
    }

    /// Convenience: asserts a single literal.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause([lit]);
    }

    /// Evaluates the formula under a complete assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars, "assignment arity mismatch");
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|l| assignment[l.var() as usize] == l.is_positive()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let p = Lit::pos(3);
        let n = Lit::neg(3);
        assert_eq!(p.var(), 3);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_ne!(p.code(), n.code());
        assert_eq!(Lit::new(3, true), p);
        assert_eq!(format!("{p}"), "4");
        assert_eq!(format!("{n}"), "-4");
        assert_eq!(format!("{n:?}"), "¬x3");
    }

    #[test]
    fn cnf_building_and_eval() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause([Lit::neg(a), Lit::neg(b)]);
        assert!(cnf.eval(&[true, false]));
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[false, false]));
    }

    #[test]
    #[should_panic(expected = "unallocated variable")]
    fn unallocated_variable_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_unit(Lit::pos(0));
    }
}

//! A DPLL solver with two-watched-literal propagation.
//!
//! No clause learning — circuit miters at this workspace's scale are easy
//! instances, and a chronological solver keeps the implementation small
//! and auditable. The test suite cross-checks it against brute force and
//! against BDD equivalence.

use crate::cnf::{Cnf, Lit};

/// Result of a [`solve`] call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Satisfiable, with one satisfying assignment (indexed by variable).
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
}

/// Decides satisfiability of a CNF formula.
pub fn solve(cnf: &Cnf) -> Verdict {
    Solver::new(cnf).run()
}

struct Solver {
    clauses: Vec<Vec<Lit>>,
    /// `watchers[l.code()]`: clauses in which literal `l` is watched.
    watchers: Vec<Vec<usize>>,
    assign: Vec<Option<bool>>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Decision stack: (trail length before the decision, literal, was it
    /// already flipped once).
    decisions: Vec<(usize, Lit, bool)>,
    /// Static branching scores: occurrences per literal code.
    occurrences: Vec<u32>,
    initial_units: Vec<Lit>,
    trivially_unsat: bool,
}

impl Solver {
    fn new(cnf: &Cnf) -> Solver {
        let num_vars = cnf.num_vars();
        let mut solver = Solver {
            clauses: Vec::new(),
            watchers: vec![Vec::new(); 2 * num_vars],
            assign: vec![None; num_vars],
            trail: Vec::new(),
            qhead: 0,
            decisions: Vec::new(),
            occurrences: vec![0; 2 * num_vars],
            initial_units: Vec::new(),
            trivially_unsat: false,
        };
        'clauses: for raw in cnf.clauses() {
            let mut clause = raw.clone();
            clause.sort_unstable();
            clause.dedup();
            // Skip tautological clauses (contain l and ¬l).
            for pair in clause.windows(2) {
                if pair[0].var() == pair[1].var() {
                    continue 'clauses;
                }
            }
            for &l in &clause {
                solver.occurrences[l.code()] += 1;
            }
            match clause.len() {
                0 => solver.trivially_unsat = true,
                1 => solver.initial_units.push(clause[0]),
                _ => {
                    let idx = solver.clauses.len();
                    solver.watchers[clause[0].code()].push(idx);
                    solver.watchers[clause[1].code()].push(idx);
                    solver.clauses.push(clause);
                }
            }
        }
        solver
    }

    fn run(mut self) -> Verdict {
        if self.trivially_unsat {
            return Verdict::Unsat;
        }
        for unit in std::mem::take(&mut self.initial_units) {
            if !self.enqueue(unit) {
                return Verdict::Unsat;
            }
        }
        loop {
            if self.propagate_found_conflict() {
                // Chronological backtracking with polarity flipping.
                loop {
                    match self.decisions.pop() {
                        None => return Verdict::Unsat,
                        Some((mark, lit, flipped)) => {
                            self.undo_to(mark);
                            if !flipped {
                                self.decisions.push((mark, !lit, true));
                                let ok = self.enqueue(!lit);
                                debug_assert!(ok, "flipped decision on a free variable");
                                break;
                            }
                        }
                    }
                }
            } else {
                match self.pick_branch() {
                    None => {
                        let model = self.assign.iter().map(|v| v.unwrap_or(false)).collect();
                        return Verdict::Sat(model);
                    }
                    Some(lit) => {
                        self.decisions.push((self.trail.len(), lit, false));
                        let ok = self.enqueue(lit);
                        debug_assert!(ok, "picked an assigned variable");
                    }
                }
            }
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var() as usize].map(|v| v == l.is_positive())
    }

    /// Assigns `l` true; returns false on an immediate contradiction.
    fn enqueue(&mut self, l: Lit) -> bool {
        match self.value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                self.assign[l.var() as usize] = Some(l.is_positive());
                self.trail.push(l);
                true
            }
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let l = self.trail.pop().expect("trail length checked");
            self.assign[l.var() as usize] = None;
        }
        self.qhead = self.trail.len().min(self.qhead).min(mark);
    }

    /// Unit propagation; returns `true` if a conflict was found.
    fn propagate_found_conflict(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let t = self.trail[self.qhead];
            self.qhead += 1;
            let falsified = !t;
            let mut watch_list = std::mem::take(&mut self.watchers[falsified.code()]);
            let mut write = 0;
            let mut conflict = false;
            let mut read = 0;
            while read < watch_list.len() {
                let ci = watch_list[read];
                read += 1;
                // Normalize: watched literals sit at positions 0 and 1,
                // with the falsified one at position 1.
                if self.clauses[ci][0] == falsified {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], falsified);
                if self.value(self.clauses[ci][0]) == Some(true) {
                    watch_list[write] = ci;
                    write += 1;
                    continue;
                }
                // Look for a replacement watch.
                let replacement = (2..self.clauses[ci].len())
                    .find(|&k| self.value(self.clauses[ci][k]) != Some(false));
                match replacement {
                    Some(k) => {
                        self.clauses[ci].swap(1, k);
                        let new_watch = self.clauses[ci][1];
                        self.watchers[new_watch.code()].push(ci);
                    }
                    None => {
                        // Unit or conflict on the other watch.
                        watch_list[write] = ci;
                        write += 1;
                        let other = self.clauses[ci][0];
                        if !self.enqueue(other) {
                            conflict = true;
                            // Keep the remaining watchers registered.
                            while read < watch_list.len() {
                                watch_list[write] = watch_list[read];
                                write += 1;
                                read += 1;
                            }
                        }
                    }
                }
            }
            watch_list.truncate(write);
            // Watchers may have been added for `falsified` during the loop
            // (only via replacement pushes to other literals, never to
            // `falsified` itself, since a replacement is non-false while
            // `falsified` is false) — safe to move back wholesale.
            debug_assert!(self.watchers[falsified.code()].is_empty());
            self.watchers[falsified.code()] = watch_list;
            if conflict {
                return true;
            }
        }
        false
    }

    /// Picks the unassigned literal with the most occurrences.
    fn pick_branch(&self) -> Option<Lit> {
        let mut best: Option<(u32, Lit)> = None;
        for var in 0..self.assign.len() {
            if self.assign[var].is_some() {
                continue;
            }
            let pos = Lit::pos(var as u32);
            let neg = Lit::neg(var as u32);
            let (op, on) = (self.occurrences[pos.code()], self.occurrences[neg.code()]);
            let (count, lit) = if op >= on { (op + on, pos) } else { (op + on, neg) };
            if best.is_none_or(|(c, _)| count > c) {
                best = Some((count, lit));
            }
        }
        best.map(|(_, l)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;

    fn brute_force(cnf: &Cnf) -> bool {
        let n = cnf.num_vars();
        assert!(n <= 16);
        (0..1u32 << n).any(|m| {
            let assignment: Vec<bool> = (0..n).map(|k| m & (1 << k) != 0).collect();
            cnf.eval(&assignment)
        })
    }

    #[test]
    fn trivial_cases() {
        let cnf = Cnf::new();
        assert!(matches!(solve(&cnf), Verdict::Sat(_)), "empty formula is SAT");
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        cnf.add_unit(Lit::pos(a));
        cnf.add_unit(Lit::neg(a));
        assert_eq!(solve(&cnf), Verdict::Unsat);
        let mut cnf = Cnf::new();
        let _ = cnf.fresh_var();
        cnf.add_clause([]);
        assert_eq!(solve(&cnf), Verdict::Unsat, "empty clause");
    }

    #[test]
    fn model_satisfies_formula() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..4).map(|_| cnf.fresh_var()).collect();
        cnf.add_clause([Lit::pos(vars[0]), Lit::neg(vars[1])]);
        cnf.add_clause([Lit::pos(vars[1]), Lit::pos(vars[2])]);
        cnf.add_clause([Lit::neg(vars[2]), Lit::neg(vars[0]), Lit::pos(vars[3])]);
        match solve(&cnf) {
            Verdict::Sat(model) => assert!(cnf.eval(&model)),
            Verdict::Unsat => panic!("formula is satisfiable"),
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes two parallel rows
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Variables p[i][j]: pigeon i in hole j.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| (0..2).map(|_| cnf.fresh_var()).collect()).collect();
        for row in &p {
            cnf.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    cnf.add_clause([Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(solve(&cnf), Verdict::Unsat);
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause([Lit::pos(a), Lit::neg(a)]); // tautology
        cnf.add_clause([Lit::pos(b)]);
        match solve(&cnf) {
            Verdict::Sat(model) => assert!(model[b as usize]),
            Verdict::Unsat => panic!("satisfiable"),
        }
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut sat_seen = 0;
        let mut unsat_seen = 0;
        for _ in 0..60 {
            let n = 6;
            let mut cnf = Cnf::new();
            for _ in 0..n {
                cnf.fresh_var();
            }
            // ~4.3 clauses/var straddles the phase transition.
            for _ in 0..26 {
                let mut lits = Vec::new();
                while lits.len() < 3 {
                    let v = (next() % n) as Var;
                    let l = Lit::new(v, next() % 2 == 0);
                    if !lits.contains(&l) && !lits.contains(&!l) {
                        lits.push(l);
                    }
                }
                cnf.add_clause(lits);
            }
            let expected = brute_force(&cnf);
            match solve(&cnf) {
                Verdict::Sat(model) => {
                    assert!(expected, "solver claimed SAT on an UNSAT instance");
                    assert!(cnf.eval(&model), "model must satisfy the formula");
                    sat_seen += 1;
                }
                Verdict::Unsat => {
                    assert!(!expected, "solver claimed UNSAT on a SAT instance");
                    unsat_seen += 1;
                }
            }
        }
        assert!(sat_seen > 5 && unsat_seen > 5, "sweep must exercise both verdicts");
    }
}

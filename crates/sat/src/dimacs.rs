//! A minimal DIMACS CNF loader for solver-isolation benchmarking.
//!
//! Standard DIMACS CNF: a `p cnf <vars> <clauses>` header, then clauses
//! as whitespace-separated 1-based signed literals terminated by `0`.
//! [`parse_dimacs`] returns a plain clause list and [`Cnf::load_into`]
//! feeds it to a [`Solver`], which is how the `sat_micro` dev binary
//! times the solver on identical input.

use crate::{Lit, Solver, Var};

/// A parsed CNF instance.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    /// Number of variables (literals index `0..num_vars`).
    pub num_vars: usize,
    /// Clauses over [`Lit`]s with 0-based variables.
    pub clauses: Vec<Vec<Lit>>,
    /// Instance label: the DIMACS filename stem.
    pub name: String,
}

impl Cnf {
    /// Allocates the instance's variables in `solver` and adds every
    /// clause. Returns `false` if the clause set is unsatisfiable at the
    /// root already (mirroring [`Solver::add_clause`]).
    pub fn load_into(&self, solver: &mut Solver) -> bool {
        let vars: Vec<Var> = (0..self.num_vars).map(|_| solver.new_var()).collect();
        let mut ok = true;
        for clause in &self.clauses {
            let mapped: Vec<Lit> = clause
                .iter()
                .map(|l| Lit::with_polarity(vars[l.var().0 as usize], !l.is_neg()))
                .collect();
            ok &= solver.add_clause(&mapped);
        }
        ok
    }
}

fn parse_signed_lit(tok: &str, num_vars: usize) -> Result<Lit, String> {
    let code: i64 = tok
        .parse()
        .map_err(|_| format!("bad literal token {tok:?}"))?;
    if code == 0 {
        return Err("literal 0 outside clause terminator position".into());
    }
    let var = code.unsigned_abs() - 1;
    if var as usize >= num_vars {
        return Err(format!("literal {code} out of range (vars={num_vars})"));
    }
    let v = Var(var as u32);
    Ok(if code < 0 { Lit::neg(v) } else { Lit::pos(v) })
}

/// Parses standard DIMACS CNF text. Comment lines (`c …`) before the
/// header are skipped; the declared clause count is not enforced (trailing
/// clauses are accepted), matching common solver behavior.
pub fn parse_dimacs(text: &str, name: &str) -> Result<Cnf, String> {
    let mut num_vars: Option<usize> = None;
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let mut it = rest.split_whitespace();
            if it.next() != Some("cnf") {
                return Err(format!("unsupported problem line {line:?}"));
            }
            let v: usize = it
                .next()
                .ok_or("missing var count")?
                .parse()
                .map_err(|_| "bad var count".to_string())?;
            let _declared_clauses = it.next();
            num_vars = Some(v);
            continue;
        }
        let nv = num_vars.ok_or("clause before p cnf header")?;
        for tok in line.split_whitespace() {
            if tok == "0" {
                clauses.push(std::mem::take(&mut current));
            } else {
                current.push(parse_signed_lit(tok, nv)?);
            }
        }
    }
    if !current.is_empty() {
        clauses.push(current);
    }
    Ok(Cnf {
        num_vars: num_vars.ok_or("no p cnf header")?,
        clauses,
        name: name.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    #[test]
    fn parses_dimacs_and_solves() {
        let text = "c a comment\np cnf 3 4\n1 2 0\n-1 3 0\n-2 -3 0\n-1 -2 0\n";
        let cnf = parse_dimacs(text, "tiny").unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 4);
        let mut s = Solver::new();
        assert!(cnf.load_into(&mut s));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn parses_dimacs_unsat() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let cnf = parse_dimacs(text, "contradiction").unwrap();
        let mut s = Solver::new();
        assert!(!cnf.load_into(&mut s));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn rejects_out_of_range_literal() {
        assert!(parse_dimacs("p cnf 2 1\n3 0\n", "bad").is_err());
        assert!(parse_dimacs("1 0\n", "headerless").is_err());
    }
}

//! NRC programs: sequences of assignments `var ⇐ e` (the `P` production in
//! Figure 1). Later assignments may reference earlier ones, which is how the
//! materialization phase of the shredded pipeline expresses its sequence of
//! dictionary-producing queries.

use crate::error::Result;
use crate::eval::{eval, Env};
use crate::expr::Expr;
use crate::typecheck::{infer, TypeEnv};
use crate::types::Type;
use crate::value::Value;

/// One assignment `name ⇐ expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The variable being assigned.
    pub name: String,
    /// The expression computing its value.
    pub expr: Expr,
}

impl Assignment {
    /// Creates an assignment.
    pub fn new(name: impl Into<String>, expr: Expr) -> Self {
        Assignment {
            name: name.into(),
            expr,
        }
    }
}

/// A program: an ordered sequence of assignments.
///
/// By convention the *last* assignment computes the program's result; helper
/// methods expose it as such.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// The assignments, in evaluation order.
    pub assignments: Vec<Assignment>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Creates a single-assignment program computing `expr` into `name`.
    pub fn single(name: impl Into<String>, expr: Expr) -> Self {
        Program {
            assignments: vec![Assignment::new(name, expr)],
        }
    }

    /// Appends an assignment.
    pub fn assign(&mut self, name: impl Into<String>, expr: Expr) -> &mut Self {
        self.assignments.push(Assignment::new(name, expr));
        self
    }

    /// The name of the variable holding the final result, if any.
    pub fn result_name(&self) -> Option<&str> {
        self.assignments.last().map(|a| a.name.as_str())
    }

    /// Names of all assigned variables, in order.
    pub fn assigned_names(&self) -> Vec<&str> {
        self.assignments.iter().map(|a| a.name.as_str()).collect()
    }

    /// Free input variables of the program: variables referenced before (or
    /// without) being assigned.
    pub fn input_names(&self) -> Vec<String> {
        let mut assigned = Vec::new();
        let mut inputs = Vec::new();
        for a in &self.assignments {
            for fv in a.expr.free_vars() {
                if !assigned.contains(&fv) && !inputs.contains(&fv) {
                    inputs.push(fv);
                }
            }
            assigned.push(a.name.clone());
        }
        inputs
    }

    /// Evaluates the whole program with the reference evaluator, returning the
    /// environment extended with every assigned variable.
    pub fn eval_all(&self, inputs: &Env) -> Result<Env> {
        let mut env = inputs.clone();
        for a in &self.assignments {
            let v = eval(&a.expr, &env)?;
            env.bind(a.name.clone(), v);
        }
        Ok(env)
    }

    /// Evaluates the program and returns the value of the final assignment.
    pub fn eval_result(&self, inputs: &Env) -> Result<Value> {
        let env = self.eval_all(inputs)?;
        match self.result_name() {
            Some(name) => env.get_or_err(name).cloned(),
            None => Ok(Value::empty_bag()),
        }
    }

    /// Desugars the program into a single expression: every assignment but
    /// the last becomes a `let`, and the final assignment's expression is the
    /// body. Returns `None` for an empty program.
    ///
    /// This is how multi-assignment surface programs are fed to entry points
    /// that take one expression (the compiler's `QuerySpec`, the server's
    /// textual submission path): `A ⇐ e1; Result ⇐ e2` becomes
    /// `let A := e1 in e2`.
    pub fn to_let_chain(&self) -> Option<Expr> {
        let (last, init) = self.assignments.split_last()?;
        let mut body = last.expr.clone();
        for a in init.iter().rev() {
            body = Expr::Let {
                var: a.name.clone(),
                value: Box::new(a.expr.clone()),
                body: Box::new(body),
            };
        }
        Some(body)
    }

    /// Type checks every assignment, returning the type of each assigned
    /// variable (in assignment order).
    pub fn typecheck(&self, inputs: &TypeEnv) -> Result<Vec<(String, Type)>> {
        let mut env = inputs.clone();
        let mut out = Vec::with_capacity(self.assignments.len());
        for a in &self.assignments {
            let t = infer(&a.expr, &env)?;
            env.bind(a.name.clone(), t.clone());
            out.push((a.name.clone(), t));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn programs_thread_assignments_through_the_environment() {
        let mut p = Program::new();
        p.assign(
            "Doubled",
            forin("x", var("R"), singleton(mul(var("x"), int(2)))),
        );
        p.assign(
            "Result",
            forin("y", var("Doubled"), singleton(add(var("y"), int(1)))),
        );
        assert_eq!(p.input_names(), vec!["R".to_string()]);
        assert_eq!(p.result_name(), Some("Result"));

        let env = Env::from_bindings([("R", Value::bag(vec![Value::Int(1), Value::Int(2)]))]);
        let out = p.eval_result(&env).unwrap();
        assert_eq!(out, Value::bag(vec![Value::Int(3), Value::Int(5)]));
    }

    #[test]
    fn typecheck_propagates_assigned_types() {
        let mut p = Program::new();
        p.assign(
            "Names",
            forin(
                "p",
                var("Part"),
                singleton(tuple([("n", proj(var("p"), "pname"))])),
            ),
        );
        p.assign("Deduped", dedup(var("Names")));
        let env = TypeEnv::from_bindings([(
            "Part",
            Type::bag_of([("pid", Type::int()), ("pname", Type::string())]),
        )]);
        let types = p.typecheck(&env).unwrap();
        assert_eq!(types.len(), 2);
        assert!(types[1].1.is_flat_bag());
    }

    #[test]
    fn let_chain_desugaring_preserves_program_semantics() {
        let mut p = Program::new();
        p.assign("A", forin("x", var("R"), singleton(mul(var("x"), int(2)))));
        p.assign(
            "Result",
            forin("y", var("A"), singleton(add(var("y"), int(1)))),
        );
        let chained = p.to_let_chain().unwrap();

        let env = Env::from_bindings([("R", Value::bag(vec![Value::Int(1), Value::Int(2)]))]);
        let direct = p.eval_result(&env).unwrap();
        let desugared = eval(&chained, &env).unwrap();
        assert_eq!(direct, desugared);
        assert!(Program::new().to_let_chain().is_none());
    }

    #[test]
    fn input_names_exclude_previously_assigned_variables() {
        let mut p = Program::new();
        p.assign("A", var("In1"));
        p.assign("B", union(var("A"), var("In2")));
        let inputs = p.input_names();
        assert!(inputs.contains(&"In1".to_string()));
        assert!(inputs.contains(&"In2".to_string()));
        assert!(!inputs.contains(&"A".to_string()));
    }
}

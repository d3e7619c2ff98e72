//! Parameterized query templates and structural matching.
//!
//! A **function-embedded query template** is a query of the supported class
//! whose constants have been replaced by `$param` placeholders (the paper's
//! Figure 2). Templates are registered with the proxy by the web site; at
//! run time the proxy must answer two questions:
//!
//! 1. *Does this concrete query instantiate a registered template?* —
//!    [`QueryTemplate::match_query`] walks the two ASTs in lockstep; every
//!    `$param` in the template matches exactly one literal in the query and
//!    produces a binding. All occurrences of the same parameter must bind
//!    the same value.
//! 2. *What does the template look like with these parameter values?* —
//!    [`QueryTemplate::instantiate`] substitutes bindings back in, which the
//!    proxy uses to synthesize queries to forward to the origin site.

use crate::ast::{Expr, Join, Literal, Query, SelectItem, TableSource};
use crate::parser::parse_query;
use crate::printer::ParamLookup;
use crate::value::Value;
use crate::SqlError;
use std::collections::BTreeMap;

/// Parameter name → bound value.
pub type Bindings = BTreeMap<String, Value>;

/// A parsed, parameterized query template.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    /// Template identifier (the proxy keys templates by this name).
    pub name: String,
    /// The parameterized query.
    pub query: Query,
    params: Vec<String>,
    /// Length of the template's own canonical text: sizes the buffer of
    /// [`QueryTemplate::to_sql_with`].
    sql_len: usize,
}

impl QueryTemplate {
    /// Parses template SQL text.
    ///
    /// # Errors
    /// Returns the underlying parse error on malformed SQL.
    pub fn parse(name: impl Into<String>, sql: &str) -> Result<Self, SqlError> {
        let query = parse_query(sql)?;
        let params = query.params();
        let sql_len = query.to_sql().len();
        Ok(QueryTemplate {
            name: name.into(),
            query,
            params,
            sql_len,
        })
    }

    /// Declared parameters in first-appearance order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Whether `query` instantiates this template; on success, returns the
    /// recovered bindings.
    ///
    /// Matching is structural: the query must be identical to the template
    /// up to (a) literals standing where the template has `$params`, and
    /// (b) `TOP` values standing where the template has no constraint — the
    /// paper treats TOP-N as an optional operation of the class, so a
    /// template written without `TOP` still matches queries carrying one
    /// only if the template declares `TOP $param`.
    pub fn match_query(&self, query: &Query) -> Option<Bindings> {
        let mut b = Bindings::new();
        if !match_top(self.query.top, query.top) {
            return None;
        }
        if self.query.select.len() != query.select.len()
            || self.query.joins.len() != query.joins.len()
        {
            return None;
        }
        for (ti, qi) in self.query.select.iter().zip(&query.select) {
            if !match_select_item(ti, qi, &mut b) {
                return None;
            }
        }
        if !match_source(&self.query.from, &query.from, &mut b) {
            return None;
        }
        for (tj, qj) in self.query.joins.iter().zip(&query.joins) {
            if !match_join(tj, qj, &mut b) {
                return None;
            }
        }
        match (&self.query.where_clause, &query.where_clause) {
            (None, None) => {}
            (Some(tw), Some(qw)) => {
                if !match_expr(tw, qw, &mut b) {
                    return None;
                }
            }
            _ => return None,
        }
        if self.query.order_by != query.order_by {
            return None;
        }
        Some(b)
    }

    /// Substitutes `bindings` into the template, producing a concrete query.
    ///
    /// # Errors
    /// Returns an error naming the first parameter that has no binding.
    pub fn instantiate(&self, bindings: &Bindings) -> Result<Query, SqlError> {
        self.instantiate_with(&|p| bindings.get(p))
    }

    /// [`QueryTemplate::instantiate`] under a parameter lookup.
    ///
    /// # Errors
    /// Returns an error naming the first parameter `lookup` does not bind.
    pub fn instantiate_with(&self, lookup: &ParamLookup<'_>) -> Result<Query, SqlError> {
        if let Some(missing) = self.params.iter().find(|p| lookup(p).is_none()) {
            return Err(SqlError::new(0, format!("missing binding for ${missing}")));
        }
        let mut q = self.query.clone();
        for item in &mut q.select {
            if let SelectItem::Expr { expr, .. } = item {
                substitute(expr, lookup);
            }
        }
        substitute_source(&mut q.from, lookup);
        for j in &mut q.joins {
            substitute_source(&mut j.source, lookup);
            substitute(&mut j.on, lookup);
        }
        if let Some(w) = &mut q.where_clause {
            substitute(w, lookup);
        }
        Ok(q)
    }

    /// The canonical SQL text of the template with every parameter
    /// `lookup` binds printed as its literal. When `lookup` binds every
    /// declared parameter this is byte for byte
    /// `self.instantiate_with(lookup)?.to_sql()`, without the tree.
    pub fn to_sql_with(&self, lookup: &ParamLookup<'_>) -> String {
        // A float literal prints in at most 24 bytes.
        let mut s = String::with_capacity(self.sql_len + 24 * self.params.len());
        self.query.write_sql_with(&mut s, lookup);
        s
    }
}

fn match_top(t: Option<u64>, q: Option<u64>) -> bool {
    // TOP must agree exactly; parameterized TOP is uncommon on real forms
    // (SkyServer's Radial form has a fixed limit), so templates encode it
    // as a fixed value or omit it.
    t == q
}

fn match_select_item(t: &SelectItem, q: &SelectItem, b: &mut Bindings) -> bool {
    match (t, q) {
        (SelectItem::Wildcard, SelectItem::Wildcard) => true,
        (SelectItem::QualifiedWildcard(a), SelectItem::QualifiedWildcard(c)) => a == c,
        (
            SelectItem::Expr {
                expr: te,
                alias: ta,
            },
            SelectItem::Expr {
                expr: qe,
                alias: qa,
            },
        ) => ta == qa && match_expr(te, qe, b),
        _ => false,
    }
}

fn match_source(t: &TableSource, q: &TableSource, b: &mut Bindings) -> bool {
    match (t, q) {
        (
            TableSource::Table {
                name: tn,
                alias: ta,
            },
            TableSource::Table {
                name: qn,
                alias: qa,
            },
        ) => tn == qn && ta == qa,
        (
            TableSource::Function {
                name: tn,
                args: targs,
                alias: ta,
            },
            TableSource::Function {
                name: qn,
                args: qargs,
                alias: qa,
            },
        ) => {
            tn == qn
                && ta == qa
                && targs.len() == qargs.len()
                && targs
                    .iter()
                    .zip(qargs)
                    .all(|(te, qe)| match_expr(te, qe, b))
        }
        _ => false,
    }
}

fn match_join(t: &Join, q: &Join, b: &mut Bindings) -> bool {
    match_source(&t.source, &q.source, b) && match_expr(&t.on, &q.on, b)
}

/// Structural expression match; template `$params` capture query literals.
fn match_expr(t: &Expr, q: &Expr, b: &mut Bindings) -> bool {
    match (t, q) {
        (Expr::Param(p), Expr::Literal(lit)) => {
            let v = Value::from(lit);
            match b.get(p) {
                Some(prev) => values_equal(prev, &v),
                None => {
                    b.insert(p.clone(), v);
                    true
                }
            }
        }
        (Expr::Param(_), _) => false,
        (Expr::Literal(a), Expr::Literal(c)) => literals_equal(a, c),
        (
            Expr::Column {
                qualifier: tq,
                name: tn,
            },
            Expr::Column {
                qualifier: qq,
                name: qn,
            },
        ) => tq == qq && tn == qn,
        (Expr::Call { name: tn, args: ta }, Expr::Call { name: qn, args: qa }) => {
            tn == qn && ta.len() == qa.len() && ta.iter().zip(qa).all(|(x, y)| match_expr(x, y, b))
        }
        (
            Expr::Binary {
                op: to,
                left: tl,
                right: tr,
            },
            Expr::Binary {
                op: qo,
                left: ql,
                right: qr,
            },
        ) => to == qo && match_expr(tl, ql, b) && match_expr(tr, qr, b),
        (Expr::Unary { op: to, expr: te }, Expr::Unary { op: qo, expr: qe }) => {
            to == qo && match_expr(te, qe, b)
        }
        (
            Expr::Between {
                expr: te,
                low: tl,
                high: th,
                negated: tn,
            },
            Expr::Between {
                expr: qe,
                low: ql,
                high: qh,
                negated: qn,
            },
        ) => tn == qn && match_expr(te, qe, b) && match_expr(tl, ql, b) && match_expr(th, qh, b),
        (
            Expr::InList {
                expr: te,
                list: tl,
                negated: tn,
            },
            Expr::InList {
                expr: qe,
                list: ql,
                negated: qn,
            },
        ) => {
            tn == qn
                && tl.len() == ql.len()
                && match_expr(te, qe, b)
                && tl.iter().zip(ql).all(|(x, y)| match_expr(x, y, b))
        }
        (
            Expr::IsNull {
                expr: te,
                negated: tn,
            },
            Expr::IsNull {
                expr: qe,
                negated: qn,
            },
        ) => tn == qn && match_expr(te, qe, b),
        _ => false,
    }
}

fn literals_equal(a: &Literal, b: &Literal) -> bool {
    match (a, b) {
        // Numeric literals compare by value so `2` matches `2.0`.
        (x, y) if x.as_f64().is_some() && y.as_f64().is_some() => x.as_f64() == y.as_f64(),
        _ => a == b,
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    a.total_cmp(b) == std::cmp::Ordering::Equal
}

/// Substitutes bindings into a standalone expression (used by function
/// templates, whose coordinate formulas like `cos($ra)*cos($dec)` live
/// outside any query).
pub fn substitute_expr(e: &Expr, b: &Bindings) -> Expr {
    let mut out = e.clone();
    substitute(&mut out, &|p| b.get(p));
    out
}

fn substitute(e: &mut Expr, b: &ParamLookup<'_>) {
    match e {
        Expr::Param(p) => {
            if let Some(v) = b(p) {
                *e = Expr::Literal(v.to_literal());
            }
        }
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Call { args, .. } => {
            for a in args {
                substitute(a, b);
            }
        }
        Expr::Binary { left, right, .. } => {
            substitute(left, b);
            substitute(right, b);
        }
        Expr::Unary { expr, .. } => substitute(expr, b),
        Expr::Between {
            expr, low, high, ..
        } => {
            substitute(expr, b);
            substitute(low, b);
            substitute(high, b);
        }
        Expr::InList { expr, list, .. } => {
            substitute(expr, b);
            for i in list {
                substitute(i, b);
            }
        }
        Expr::IsNull { expr, .. } => substitute(expr, b),
    }
}

fn substitute_source(s: &mut TableSource, b: &ParamLookup<'_>) {
    if let TableSource::Function { args, .. } = s {
        for a in args {
            substitute(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RADIAL: &str = "SELECT TOP 1000 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
         FROM fGetNearbyObjEq($ra, $dec, $radius) n \
         JOIN PhotoPrimary p ON n.objID = p.objID";

    fn radial_template() -> QueryTemplate {
        QueryTemplate::parse("radial", RADIAL).unwrap()
    }

    #[test]
    fn template_declares_params() {
        let t = radial_template();
        assert_eq!(t.params(), ["ra", "dec", "radius"]);
    }

    #[test]
    fn matches_and_extracts_bindings() {
        let t = radial_template();
        let q = parse_query(
            "SELECT TOP 1000 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
             FROM fGetNearbyObjEq(185.0, 1.5, 30.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        )
        .unwrap();
        let b = t.match_query(&q).expect("should match");
        assert_eq!(b["ra"], Value::Float(185.0));
        assert_eq!(b["dec"], Value::Float(1.5));
        assert_eq!(b["radius"], Value::Float(30.0));
    }

    #[test]
    fn instantiate_roundtrips_through_match() {
        let t = radial_template();
        let mut b = Bindings::new();
        b.insert("ra".into(), Value::Float(200.25));
        b.insert("dec".into(), Value::Float(-3.5));
        b.insert("radius".into(), Value::Float(12.0));
        let q = t.instantiate(&b).unwrap();
        let recovered = t.match_query(&q).unwrap();
        assert_eq!(recovered, b);
        // And the instantiated SQL parses back to the same query.
        assert_eq!(parse_query(&q.to_sql()).unwrap(), q);
    }

    #[test]
    fn rejects_structural_mismatches() {
        let t = radial_template();
        for sql in [
            // different function
            "SELECT TOP 1000 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
             FROM fGetObjFromRect(1.0, 2.0, 3.0) n JOIN PhotoPrimary p ON n.objID = p.objID",
            // different TOP
            "SELECT TOP 10 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
             FROM fGetNearbyObjEq(1.0, 2.0, 3.0) n JOIN PhotoPrimary p ON n.objID = p.objID",
            // missing join
            "SELECT TOP 1000 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
             FROM fGetNearbyObjEq(1.0, 2.0, 3.0) n",
            // extra predicate the template does not have
            "SELECT TOP 1000 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
             FROM fGetNearbyObjEq(1.0, 2.0, 3.0) n JOIN PhotoPrimary p ON n.objID = p.objID \
             WHERE p.r < 20.0",
            // non-literal argument
            "SELECT TOP 1000 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
             FROM fGetNearbyObjEq(a, 2.0, 3.0) n JOIN PhotoPrimary p ON n.objID = p.objID",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(t.match_query(&q).is_none(), "should not match: {sql}");
        }
    }

    #[test]
    fn repeated_param_must_bind_consistently() {
        let t = QueryTemplate::parse("sym", "SELECT * FROM f($a, $a) x").unwrap();
        let same = parse_query("SELECT * FROM f(3.0, 3.0) x").unwrap();
        let diff = parse_query("SELECT * FROM f(3.0, 4.0) x").unwrap();
        assert!(t.match_query(&same).is_some());
        assert!(t.match_query(&diff).is_none());
    }

    #[test]
    fn numeric_literals_match_across_int_float() {
        let t = QueryTemplate::parse("n", "SELECT * FROM f($a) x WHERE k = 2").unwrap();
        let q = parse_query("SELECT * FROM f(5) x WHERE k = 2.0").unwrap();
        let b = t.match_query(&q).unwrap();
        assert_eq!(b["a"], Value::Int(5));
    }

    #[test]
    fn instantiate_reports_missing_bindings() {
        let t = radial_template();
        let mut b = Bindings::new();
        b.insert("ra".into(), Value::Float(1.0));
        let err = t.instantiate(&b).unwrap_err();
        assert!(err.message.contains("dec") || err.message.contains("radius"));
    }

    #[test]
    fn where_clause_params_match() {
        let t = QueryTemplate::parse("w", "SELECT * FROM f($a) x WHERE x.r BETWEEN $lo AND $hi")
            .unwrap();
        let q = parse_query("SELECT * FROM f(1.0) x WHERE x.r BETWEEN 0.0 AND 22.5").unwrap();
        let b = t.match_query(&q).unwrap();
        assert_eq!(b["lo"], Value::Float(0.0));
        assert_eq!(b["hi"], Value::Float(22.5));
    }
}

//! SQL text generation from ASTs.
//!
//! The proxy needs to *emit* SQL, not just read it: remainder queries are
//! new statements synthesized from a cached query's region and the new
//! query's region, then sent to the origin site's free-form SQL endpoint.
//! The printer produces canonical text (uppercase keywords, minimal
//! parentheses driven by operator precedence) so that equal ASTs print
//! identically — the proxy also uses printed text as an exact-match cache
//! key fallback.

use crate::ast::{Expr, Literal, Query, SelectItem, TableSource, UnOp};
use crate::value::Value;
use std::fmt::Write as _;

/// Resolves a `$param` name to the value bound to it, `None` when the
/// parameter is unbound. Printing and constant evaluation take one of
/// these instead of a rewritten tree: a bound parameter prints (and
/// evaluates) exactly as the literal a substitution would have put in its
/// place.
pub type ParamLookup<'a> = dyn Fn(&str) -> Option<&'a Value> + 'a;

impl Query {
    /// Renders the query as canonical SQL text. The output re-parses to an
    /// equal AST.
    pub fn to_sql(&self) -> String {
        let mut s = String::with_capacity(128);
        self.write_sql_with(&mut s, &|_| None);
        s
    }

    /// Appends the canonical SQL text with every `$param` that `lookup`
    /// binds printed as its literal: the text of the query
    /// [`crate::QueryTemplate::instantiate`] would build, without
    /// building it.
    pub fn write_sql_with(&self, s: &mut String, lookup: &ParamLookup<'_>) {
        s.push_str("SELECT ");
        if let Some(n) = self.top {
            let _ = write!(s, "TOP {n} ");
        }
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            match item {
                SelectItem::Wildcard => s.push('*'),
                SelectItem::QualifiedWildcard(q) => {
                    let _ = write!(s, "{q}.*");
                }
                SelectItem::Expr { expr, alias } => {
                    write_expr(s, expr, 0, lookup);
                    if let Some(a) = alias {
                        let _ = write!(s, " AS {a}");
                    }
                }
            }
        }
        s.push_str(" FROM ");
        write_source(s, &self.from, lookup);
        for j in &self.joins {
            s.push_str(" JOIN ");
            write_source(s, &j.source, lookup);
            s.push_str(" ON ");
            write_expr(s, &j.on, 0, lookup);
        }
        if let Some(w) = &self.where_clause {
            s.push_str(" WHERE ");
            write_expr(s, w, 0, lookup);
        }
        if let Some((col, asc)) = &self.order_by {
            let _ = write!(s, " ORDER BY {col} {}", if *asc { "ASC" } else { "DESC" });
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_sql())
    }
}

impl Expr {
    /// Renders the expression as SQL text.
    pub fn to_sql(&self) -> String {
        let mut s = String::new();
        write_expr(&mut s, self, 0, &|_| None);
        s
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_sql())
    }
}

fn write_source(s: &mut String, src: &TableSource, lookup: &ParamLookup<'_>) {
    match src {
        TableSource::Table { name, alias } => {
            s.push_str(name);
            if let Some(a) = alias {
                let _ = write!(s, " {a}");
            }
        }
        TableSource::Function { name, args, alias } => {
            s.push_str(name);
            s.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                write_expr(s, a, 0, lookup);
            }
            s.push(')');
            if let Some(a) = alias {
                let _ = write!(s, " {a}");
            }
        }
    }
}

/// Writes `e`, parenthesizing when its top-level operator binds looser than
/// `min_prec` (the precedence context of the caller).
fn write_expr(s: &mut String, e: &Expr, min_prec: u8, lookup: &ParamLookup<'_>) {
    match e {
        Expr::Literal(lit) => write_literal(s, lit),
        Expr::Param(p) => match lookup(p) {
            Some(v) => write_value(s, v),
            None => {
                let _ = write!(s, "${p}");
            }
        },
        Expr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                let _ = write!(s, "{q}.");
            }
            s.push_str(name);
        }
        Expr::Call { name, args } => {
            s.push_str(name);
            s.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                write_expr(s, a, 0, lookup);
            }
            s.push(')');
        }
        Expr::Binary { op, left, right } => {
            let prec = op.precedence();
            let need_parens = prec < min_prec;
            if need_parens {
                s.push('(');
            }
            // Comparisons (precedence 3) are non-associative in the
            // grammar: a nested comparison on either side must be
            // parenthesized, so the left context is tightened too.
            let left_prec = if prec == 3 { prec + 1 } else { prec };
            write_expr(s, left, left_prec, lookup);
            let _ = write!(s, " {} ", op.as_str());
            // Right operand of a left-associative chain needs one level
            // tighter binding to force parens around same-precedence ops.
            write_expr(s, right, prec + 1, lookup);
            if need_parens {
                s.push(')');
            }
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => {
                s.push('-');
                // `--x` would lex as a line comment, and a leading
                // negative literal would fuse the signs; parenthesize
                // anything that starts with `-` itself.
                // A bound parameter prints as its literal, so it is
                // judged as one.
                let starts_negative = match expr.as_ref() {
                    Expr::Unary { op: UnOp::Neg, .. } => true,
                    Expr::Literal(Literal::Int(i)) => *i < 0,
                    Expr::Literal(Literal::Float(f)) => *f < 0.0,
                    Expr::Param(p) => match lookup(p) {
                        Some(Value::Int(i)) => *i < 0,
                        Some(Value::Float(f)) => *f < 0.0,
                        _ => false,
                    },
                    _ => false,
                };
                if starts_negative {
                    s.push('(');
                    write_expr(s, expr, 0, lookup);
                    s.push(')');
                } else {
                    write_expr(s, expr, u8::MAX, lookup);
                }
            }
            UnOp::Not => {
                // NOT sits between AND (2) and the comparisons (3): as an
                // operand of anything tighter it must be parenthesized.
                let need_parens = min_prec > 2;
                if need_parens {
                    s.push('(');
                }
                s.push_str("NOT ");
                write_expr(s, expr, 3, lookup);
                if need_parens {
                    s.push(')');
                }
            }
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // BETWEEN parses at the comparison level and is
            // non-associative there.
            let need_parens = min_prec > 3;
            if need_parens {
                s.push('(');
            }
            write_expr(s, expr, 4, lookup);
            if *negated {
                s.push_str(" NOT");
            }
            s.push_str(" BETWEEN ");
            write_expr(s, low, 4, lookup);
            s.push_str(" AND ");
            write_expr(s, high, 4, lookup);
            if need_parens {
                s.push(')');
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let need_parens = min_prec > 3;
            if need_parens {
                s.push('(');
            }
            write_expr(s, expr, 4, lookup);
            if *negated {
                s.push_str(" NOT");
            }
            s.push_str(" IN (");
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                write_expr(s, item, 0, lookup);
            }
            s.push(')');
            if need_parens {
                s.push(')');
            }
        }
        Expr::IsNull { expr, negated } => {
            let need_parens = min_prec > 3;
            if need_parens {
                s.push('(');
            }
            write_expr(s, expr, 4, lookup);
            s.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
            if need_parens {
                s.push(')');
            }
        }
    }
}

fn write_literal(s: &mut String, lit: &Literal) {
    match lit {
        Literal::Int(i) => {
            let _ = write!(s, "{i}");
        }
        Literal::Float(f) => write_float(s, *f),
        Literal::Str(v) => write_str(s, v),
        Literal::Bool(b) => s.push_str(if *b { "TRUE" } else { "FALSE" }),
        Literal::Null => s.push_str("NULL"),
    }
}

/// Writes `v` as [`write_literal`] writes `v.to_literal()`.
fn write_value(s: &mut String, v: &Value) {
    match v {
        Value::Int(i) => {
            let _ = write!(s, "{i}");
        }
        Value::Float(f) => write_float(s, *f),
        Value::Str(v) => write_str(s, v),
        Value::Bool(b) => s.push_str(if *b { "TRUE" } else { "FALSE" }),
        Value::Null => s.push_str("NULL"),
    }
}

fn write_float(s: &mut String, f: f64) {
    // Always keep a decimal point so the literal re-lexes as Float.
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        let _ = write!(s, "{f:.1}");
    } else {
        let _ = write!(s, "{f}");
    }
}

fn write_str(s: &mut String, v: &str) {
    s.push('\'');
    for c in v.chars() {
        if c == '\'' {
            s.push('\'');
        }
        s.push(c);
    }
    s.push('\'');
}

#[cfg(test)]
mod tests {

    use crate::parser::{parse_expr, parse_query};

    fn roundtrip(sql: &str) {
        let q = parse_query(sql).unwrap();
        let printed = q.to_sql();
        let q2 = parse_query(&printed).unwrap_or_else(|e| {
            panic!("reparse of `{printed}` failed: {e}");
        });
        assert_eq!(q, q2, "printed: {printed}");
    }

    #[test]
    fn roundtrips_query_shapes() {
        roundtrip("SELECT * FROM t");
        roundtrip("SELECT TOP 5 a, b AS c, t.* FROM t u WHERE a < 5");
        roundtrip(
            "SELECT TOP 1000 p.objID FROM fGetNearbyObjEq(185.0, 1.5, 30.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 20.0 ORDER BY objID ASC",
        );
        roundtrip("SELECT * FROM f($a, $b) x WHERE c BETWEEN $lo AND $hi AND d NOT IN (1, 2)");
        roundtrip("SELECT * FROM t WHERE NOT (a = 1 OR b = 2) AND c IS NOT NULL");
        roundtrip("SELECT * FROM t WHERE s LIKE 'it''s %'");
        roundtrip("SELECT * FROM t WHERE -a < -5 AND b = -2.5");
    }

    #[test]
    fn parentheses_only_where_needed() {
        let e = parse_expr("(a + b) * c").unwrap();
        assert_eq!(e.to_sql(), "(a + b) * c");
        let e = parse_expr("a + b * c").unwrap();
        assert_eq!(e.to_sql(), "a + b * c");
        let e = parse_expr("a - (b - c)").unwrap();
        assert_eq!(e.to_sql(), "a - (b - c)");
        let e = parse_expr("(a OR b) AND c").unwrap();
        assert_eq!(e.to_sql(), "(a OR b) AND c");
    }

    #[test]
    fn float_literals_keep_their_point() {
        let e = parse_expr("2.0").unwrap();
        assert_eq!(e.to_sql(), "2.0");
        let q1 = parse_expr(&e.to_sql()).unwrap();
        assert_eq!(q1, e);
    }

    #[test]
    fn canonical_text_is_deterministic() {
        let a = parse_query("select   top 3 * from T where x=1 and y=2").unwrap();
        let b = parse_query("SELECT TOP 3 * FROM T WHERE x = 1 AND y = 2").unwrap();
        assert_eq!(a.to_sql(), b.to_sql());
    }
}

//! A SQL executor for the function-embedded query class.
//!
//! This is what makes the synthetic origin site able to answer both the
//! form queries and the proxy's synthesized **remainder queries**: parse →
//! bind `FROM` sources (base table or TVF) → hash joins → `WHERE` filter →
//! `ORDER BY` → `TOP` → projection.

use crate::catalog::Catalog;
use crate::result::{ExecStats, QueryOutcome, ResultSet};
use crate::tvf::{eval_tvf, is_tvf, TvfError, TvfOutput};
use fp_sqlmini::{BinOp, Expr, ParamLookup, Query, SelectItem, TableSource, UnOp, Value};
use std::collections::HashMap;

/// An executor error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A table name that is not `PhotoPrimary`.
    UnknownTable(String),
    /// A TVF problem.
    Tvf(TvfError),
    /// A column reference that could not be resolved.
    UnknownColumn(String),
    /// An alias used twice in one query.
    DuplicateAlias(String),
    /// A scalar function that is not implemented.
    UnknownScalar(String),
    /// A type error during expression evaluation.
    Type(String),
    /// A TVF argument that is not a constant (the executor evaluates
    /// `FROM`-clause arguments before any rows exist).
    NonConstantArgument,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            ExecError::Tvf(e) => write!(f, "{e}"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            ExecError::DuplicateAlias(a) => write!(f, "duplicate alias `{a}`"),
            ExecError::UnknownScalar(s) => write!(f, "unknown function `{s}`"),
            ExecError::Type(m) => write!(f, "type error: {m}"),
            ExecError::NonConstantArgument => {
                write!(f, "table-valued function arguments must be constants")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TvfError> for ExecError {
    fn from(e: TvfError) -> Self {
        ExecError::Tvf(e)
    }
}

/// A bound `FROM`/`JOIN` relation.
enum Relation<'a> {
    /// The `PhotoPrimary` base table.
    Photo(&'a Catalog),
    /// The `SpecObj` spectroscopic table.
    Spec(&'a Catalog),
    /// A materialized TVF result.
    Tvf(TvfOutput),
}

impl Relation<'_> {
    fn columns(&self) -> Vec<String> {
        match self {
            Relation::Photo(_) => crate::catalog::PHOTO_PRIMARY_COLUMNS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Relation::Spec(_) => crate::catalog::SPEC_OBJ_COLUMNS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            Relation::Tvf(out) => out.columns.clone(),
        }
    }

    fn has_column(&self, name: &str) -> bool {
        match self {
            Relation::Photo(_) => Catalog::has_column(name),
            Relation::Spec(_) => Catalog::spec_has_column(name),
            Relation::Tvf(out) => out.columns.iter().any(|c| c == name),
        }
    }

    fn len(&self) -> usize {
        match self {
            Relation::Photo(c) => c.len(),
            Relation::Spec(c) => c.spec_len(),
            Relation::Tvf(out) => out.rows.len(),
        }
    }

    fn value(&self, row: usize, column: &str) -> Option<Value> {
        match self {
            Relation::Photo(c) => c.value(row, column),
            Relation::Spec(c) => c.spec_value(row, column),
            Relation::Tvf(out) => {
                let i = out.columns.iter().position(|c| c == column)?;
                Some(out.rows[row][i].clone())
            }
        }
    }
}

/// One joined tuple: per-relation row indexes (usize::MAX = unbound).
type JoinedRow = Vec<usize>;

struct Binding<'a> {
    alias: String,
    relation: Relation<'a>,
}

/// Executes `query` against `catalog`.
///
/// # Errors
/// Returns [`ExecError`] on unknown tables/functions/columns and type
/// errors; never panics on well-formed ASTs.
pub fn execute(catalog: &Catalog, query: &Query) -> Result<QueryOutcome, ExecError> {
    let mut stats = ExecStats::default();

    // Bind FROM and JOIN sources.
    let mut bindings: Vec<Binding<'_>> = Vec::with_capacity(1 + query.joins.len());
    bind_source(catalog, &query.from, &mut bindings, &mut stats)?;

    // Seed tuples from the driving relation.
    let mut tuples: Vec<JoinedRow> = (0..bindings[0].relation.len()).map(|r| vec![r]).collect();

    for join in &query.joins {
        bind_source(catalog, &join.source, &mut bindings, &mut stats)?;
        let new_idx = bindings.len() - 1;
        tuples = execute_join(&bindings, tuples, new_idx, &join.on, &mut stats)?;
    }

    // WHERE.
    if let Some(pred) = &query.where_clause {
        stats.rows_scanned += tuples.len();
        let mut kept = Vec::with_capacity(tuples.len());
        for t in tuples {
            if truthy(&eval_expr(pred, &bindings, &t)?) {
                kept.push(t);
            }
        }
        tuples = kept;
    }

    // ORDER BY.
    if let Some((col, asc)) = &query.order_by {
        let sort_expr = Expr::Column {
            qualifier: None,
            name: col.clone(),
        };
        let mut keyed: Vec<(Value, JoinedRow)> = tuples
            .into_iter()
            .map(|t| Ok((eval_expr(&sort_expr, &bindings, &t)?, t)))
            .collect::<Result<_, ExecError>>()?;
        keyed.sort_by(|a, b| {
            let ord = a.0.total_cmp(&b.0);
            if *asc {
                ord
            } else {
                ord.reverse()
            }
        });
        tuples = keyed.into_iter().map(|(_, t)| t).collect();
    }

    // TOP.
    if let Some(n) = query.top {
        tuples.truncate(n as usize);
    }

    // Projection.
    let (columns, projectors) = build_projection(&query.select, &bindings)?;
    let mut rows = Vec::with_capacity(tuples.len());
    for t in &tuples {
        let mut row = Vec::with_capacity(projectors.len());
        for p in &projectors {
            row.push(eval_expr(p, &bindings, t)?);
        }
        rows.push(row);
    }

    let result = ResultSet { columns, rows };
    stats.rows_returned = result.len();
    stats.result_bytes = result.xml_bytes();
    Ok(QueryOutcome { result, stats })
}

fn bind_source<'a>(
    catalog: &'a Catalog,
    source: &TableSource,
    bindings: &mut Vec<Binding<'a>>,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    let alias = source.binding_name().to_string();
    if bindings.iter().any(|b| b.alias == alias) {
        return Err(ExecError::DuplicateAlias(alias));
    }
    let relation = match source {
        TableSource::Table { name, .. } => {
            if name.eq_ignore_ascii_case("PhotoPrimary") {
                Relation::Photo(catalog)
            } else if name.eq_ignore_ascii_case("SpecObj") {
                Relation::Spec(catalog)
            } else {
                return Err(ExecError::UnknownTable(name.clone()));
            }
        }
        TableSource::Function { name, args, .. } => {
            if !is_tvf(name) {
                return Err(ExecError::Tvf(TvfError::UnknownFunction(name.clone())));
            }
            let arg_values: Vec<Value> = args
                .iter()
                .map(|a| eval_const(a).ok_or(ExecError::NonConstantArgument))
                .collect::<Result<_, _>>()?;
            let out = eval_tvf(catalog, name, &arg_values)?;
            stats.rows_scanned += out.rows_scanned;
            Relation::Tvf(out)
        }
    };
    bindings.push(Binding { alias, relation });
    Ok(())
}

/// Joins existing tuples with relation `new_idx` under condition `on`,
/// using a hash join for `left.col = new.col` equality conditions and
/// falling back to a nested loop otherwise.
fn execute_join(
    bindings: &[Binding<'_>],
    tuples: Vec<JoinedRow>,
    new_idx: usize,
    on: &Expr,
    stats: &mut ExecStats,
) -> Result<Vec<JoinedRow>, ExecError> {
    let new = &bindings[new_idx];

    // Try the hash-join fast path.
    if let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = on
    {
        if let (Some((la, lc)), Some((ra, rc))) = (as_column(left), as_column(right)) {
            // Identify which side references the new relation.
            let (probe_side, build_col, probe_col) = if la == new.alias {
                (ra, lc, rc)
            } else if ra == new.alias {
                (la, rc, lc)
            } else {
                ("", "", "")
            };
            if !probe_side.is_empty() {
                // `PhotoPrimary.objID` probes use the catalog's id index
                // directly instead of building a hash table over millions
                // of rows.
                if let Relation::Photo(cat) = &new.relation {
                    if build_col == "objID" {
                        let mut out = Vec::with_capacity(tuples.len());
                        for mut t in tuples {
                            stats.rows_scanned += 1;
                            let v = tuple_value(bindings, &t, probe_side, probe_col)?;
                            if let Some(id) = v.as_i64() {
                                if let Some(row) = cat.row_of_id(id) {
                                    t.push(row);
                                    out.push(t);
                                }
                            }
                        }
                        return Ok(out);
                    }
                }
                // Generic hash join: build on the new relation.
                let mut table: HashMap<String, Vec<usize>> = HashMap::new();
                for row in 0..new.relation.len() {
                    let v = new
                        .relation
                        .value(row, build_col)
                        .ok_or_else(|| ExecError::UnknownColumn(build_col.to_string()))?;
                    table.entry(hash_key(&v)).or_default().push(row);
                }
                let mut out = Vec::new();
                for t in tuples {
                    stats.rows_scanned += 1;
                    let v = tuple_value(bindings, &t, probe_side, probe_col)?;
                    if v.is_null() {
                        continue;
                    }
                    if let Some(rows) = table.get(&hash_key(&v)) {
                        for &row in rows {
                            let mut t2 = t.clone();
                            t2.push(row);
                            out.push(t2);
                        }
                    }
                }
                return Ok(out);
            }
        }
    }

    // Nested loop fallback (small relations only in practice).
    let mut out = Vec::new();
    for t in tuples {
        for row in 0..new.relation.len() {
            stats.rows_scanned += 1;
            let mut t2 = t.clone();
            t2.push(row);
            if truthy(&eval_expr(on, bindings, &t2)?) {
                out.push(t2);
            }
        }
    }
    Ok(out)
}

fn as_column(e: &Expr) -> Option<(&str, &str)> {
    match e {
        Expr::Column {
            qualifier: Some(q),
            name,
        } => Some((q.as_str(), name.as_str())),
        _ => None,
    }
}

/// A hashable key for join values, with Int/Float coercion that never
/// loses integer precision: a whole-valued float maps onto the integer
/// key, instead of integers mapping onto floats (which would collide
/// distinct SDSS-scale ids above 2^53).
fn hash_key(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i{i}"),
        Value::Float(f) if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 => {
            format!("i{}", *f as i64)
        }
        Value::Float(f) => format!("f{f}"),
        Value::Str(s) => format!("s{s}"),
        Value::Bool(b) => format!("b{b}"),
        Value::Null => "null".to_string(),
    }
}

fn tuple_value(
    bindings: &[Binding<'_>],
    tuple: &JoinedRow,
    alias: &str,
    column: &str,
) -> Result<Value, ExecError> {
    let idx = bindings
        .iter()
        .position(|b| b.alias == alias)
        .ok_or_else(|| ExecError::UnknownColumn(format!("{alias}.{column}")))?;
    if idx >= tuple.len() {
        return Err(ExecError::UnknownColumn(format!("{alias}.{column}")));
    }
    bindings[idx]
        .relation
        .value(tuple[idx], column)
        .ok_or_else(|| ExecError::UnknownColumn(format!("{alias}.{column}")))
}

/// Resolves an unqualified column against all bound relations (first match
/// in binding order wins, mirroring lax SQL dialects).
fn resolve_unqualified(
    bindings: &[Binding<'_>],
    tuple: &JoinedRow,
    column: &str,
) -> Result<Value, ExecError> {
    for (i, b) in bindings.iter().enumerate() {
        if i < tuple.len() && b.relation.has_column(column) {
            if let Some(v) = b.relation.value(tuple[i], column) {
                return Ok(v);
            }
        }
    }
    Err(ExecError::UnknownColumn(column.to_string()))
}

fn build_projection(
    select: &[SelectItem],
    bindings: &[Binding<'_>],
) -> Result<(Vec<String>, Vec<Expr>), ExecError> {
    let mut columns = Vec::new();
    let mut projectors = Vec::new();
    for item in select {
        match item {
            SelectItem::Wildcard => {
                for b in bindings {
                    for c in b.relation.columns() {
                        projectors.push(Expr::Column {
                            qualifier: Some(b.alias.clone()),
                            name: c.clone(),
                        });
                        columns.push(c);
                    }
                }
            }
            SelectItem::QualifiedWildcard(alias) => {
                let b = bindings
                    .iter()
                    .find(|b| &b.alias == alias)
                    .ok_or_else(|| ExecError::UnknownColumn(format!("{alias}.*")))?;
                for c in b.relation.columns() {
                    projectors.push(Expr::Column {
                        qualifier: Some(alias.clone()),
                        name: c.clone(),
                    });
                    columns.push(c);
                }
            }
            SelectItem::Expr { expr, alias } => {
                validate_columns(expr, bindings)?;
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    other => other.to_sql(),
                });
                projectors.push(expr.clone());
                columns.push(name);
            }
        }
    }
    Ok((columns, projectors))
}

/// Checks every column reference in `e` against the bound relations, so
/// projection errors surface even when no tuples survive the filter.
fn validate_columns(e: &Expr, bindings: &[Binding<'_>]) -> Result<(), ExecError> {
    let mut bad: Option<String> = None;
    e.walk(&mut |node| {
        if bad.is_some() {
            return;
        }
        if let Expr::Column { qualifier, name } = node {
            let ok = match qualifier {
                Some(q) => bindings
                    .iter()
                    .any(|b| &b.alias == q && b.relation.has_column(name)),
                None => bindings.iter().any(|b| b.relation.has_column(name)),
            };
            if !ok {
                bad = Some(match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                });
            }
        }
    });
    match bad {
        Some(c) => Err(ExecError::UnknownColumn(c)),
        None => Ok(()),
    }
}

/// Evaluates a constant expression (no column references); `None` when the
/// expression references rows or template parameters.
pub fn eval_const(e: &Expr) -> Option<Value> {
    eval_const_with(e, &|_| None)
}

/// [`eval_const`] under a parameter lookup: a `$param` that `lookup` binds
/// evaluates to its value, as the literal a substitution would have left
/// in its place does.
pub fn eval_const_with(e: &Expr, lookup: &ParamLookup<'_>) -> Option<Value> {
    match e {
        Expr::Literal(l) => Some(Value::from(l)),
        Expr::Param(p) => lookup(p).cloned(),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => {
            let v = eval_const_with(expr, lookup)?;
            match v {
                Value::Int(i) => Some(Value::Int(-i)),
                Value::Float(f) => Some(Value::Float(-f)),
                _ => None,
            }
        }
        Expr::Binary { op, left, right } => {
            let l = eval_const_with(left, lookup)?;
            let r = eval_const_with(right, lookup)?;
            arith(*op, &l, &r).ok()
        }
        // Every scalar function takes one or two arguments; those are
        // evaluated in place, without a vector.
        Expr::Call { name, args } => match args.as_slice() {
            [a] => scalar_fn(name, &[eval_const_with(a, lookup)?]).ok(),
            [a, b] => {
                let vals = [eval_const_with(a, lookup)?, eval_const_with(b, lookup)?];
                scalar_fn(name, &vals).ok()
            }
            _ => {
                let vals: Option<Vec<Value>> =
                    args.iter().map(|a| eval_const_with(a, lookup)).collect();
                scalar_fn(name, &vals?).ok()
            }
        },
        _ => None,
    }
}

/// Evaluates `e` against one joined tuple.
fn eval_expr(e: &Expr, bindings: &[Binding<'_>], tuple: &JoinedRow) -> Result<Value, ExecError> {
    match e {
        Expr::Literal(l) => Ok(Value::from(l)),
        Expr::Param(p) => Err(ExecError::Type(format!(
            "unbound template parameter ${p} at execution time"
        ))),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => tuple_value(bindings, tuple, q, name),
            None => resolve_unqualified(bindings, tuple, name),
        },
        Expr::Call { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_expr(a, bindings, tuple))
                .collect::<Result<_, _>>()?;
            scalar_fn(name, &vals)
        }
        Expr::Binary { op, left, right } => {
            match op {
                BinOp::And => {
                    // Short-circuit.
                    let l = eval_expr(left, bindings, tuple)?;
                    if !truthy(&l) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_expr(right, bindings, tuple)?;
                    Ok(Value::Bool(truthy(&r)))
                }
                BinOp::Or => {
                    let l = eval_expr(left, bindings, tuple)?;
                    if truthy(&l) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_expr(right, bindings, tuple)?;
                    Ok(Value::Bool(truthy(&r)))
                }
                BinOp::Like => {
                    let l = eval_expr(left, bindings, tuple)?;
                    let r = eval_expr(right, bindings, tuple)?;
                    match (l.as_str(), r.as_str()) {
                        (Some(s), Some(p)) => Ok(Value::Bool(like_match(s, p))),
                        _ => Ok(Value::Bool(false)),
                    }
                }
                BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let l = eval_expr(left, bindings, tuple)?;
                    let r = eval_expr(right, bindings, tuple)?;
                    if l.is_null() || r.is_null() {
                        // SQL three-valued logic collapses to false in a
                        // WHERE context.
                        return Ok(Value::Bool(false));
                    }
                    let ord = l.total_cmp(&r);
                    Ok(Value::Bool(match op {
                        BinOp::Eq => ord.is_eq(),
                        BinOp::Neq => ord.is_ne(),
                        BinOp::Lt => ord.is_lt(),
                        BinOp::Le => ord.is_le(),
                        BinOp::Gt => ord.is_gt(),
                        BinOp::Ge => ord.is_ge(),
                        _ => unreachable!(),
                    }))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    let l = eval_expr(left, bindings, tuple)?;
                    let r = eval_expr(right, bindings, tuple)?;
                    arith(*op, &l, &r)
                }
            }
        }
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, bindings, tuple)?;
            match op {
                UnOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    Value::Null => Ok(Value::Null),
                    other => Err(ExecError::Type(format!("cannot negate {other:?}"))),
                },
                UnOp::Not => Ok(Value::Bool(!truthy(&v))),
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(expr, bindings, tuple)?;
            let lo = eval_expr(low, bindings, tuple)?;
            let hi = eval_expr(high, bindings, tuple)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Bool(false));
            }
            let inside = v.total_cmp(&lo).is_ge() && v.total_cmp(&hi).is_le();
            Ok(Value::Bool(inside != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, bindings, tuple)?;
            if v.is_null() {
                return Ok(Value::Bool(false));
            }
            let mut found = false;
            for item in list {
                let iv = eval_expr(item, bindings, tuple)?;
                if !iv.is_null() && v.total_cmp(&iv).is_eq() {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, bindings, tuple)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Null => false,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Str(s) => !s.is_empty(),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value, ExecError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic stays integral except division.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_rem(*b))
                }
            }
            _ => return Err(ExecError::Type(format!("{op:?} is not arithmetic"))),
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(ExecError::Type(format!(
                "arithmetic on non-numeric values {l:?}, {r:?}"
            )))
        }
    };
    Ok(match op {
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a % b)
            }
        }
        _ => return Err(ExecError::Type(format!("{op:?} is not arithmetic"))),
    })
}

/// The scalar function library (numeric; enough for the templates'
/// coordinate formulas and `other_predicates`). Trigonometry is in
/// **degrees**, matching how SkyServer templates write `cos(ra)`.
fn scalar_fn(name: &str, args: &[Value]) -> Result<Value, ExecError> {
    let f1 = |args: &[Value]| -> Result<f64, ExecError> {
        if args.len() != 1 {
            return Err(ExecError::Type(format!(
                "{} expects 1 argument",
                args.len()
            )));
        }
        args[0]
            .as_f64()
            .ok_or_else(|| ExecError::Type("expected a number".into()))
    };
    // Function names are matched case-insensitively; the longest
    // (`greatest`) is eight bytes, so the folded copy lives on the stack.
    let mut folded = [0u8; 8];
    let Some(folded) = folded.get_mut(..name.len()) else {
        return Err(ExecError::UnknownScalar(name.to_string()));
    };
    folded.copy_from_slice(name.as_bytes());
    folded.make_ascii_lowercase();
    let Ok(lower) = std::str::from_utf8(folded) else {
        return Err(ExecError::UnknownScalar(name.to_string()));
    };
    Ok(match lower {
        "cos" => Value::Float(f1(args)?.to_radians().cos()),
        "sin" => Value::Float(f1(args)?.to_radians().sin()),
        "tan" => Value::Float(f1(args)?.to_radians().tan()),
        "sqrt" => Value::Float(f1(args)?.max(0.0).sqrt()),
        "abs" => match args {
            [Value::Int(i)] => Value::Int(i.wrapping_abs()),
            _ => Value::Float(f1(args)?.abs()),
        },
        "floor" => Value::Float(f1(args)?.floor()),
        "ceiling" | "ceil" => Value::Float(f1(args)?.ceil()),
        "log" => Value::Float(f1(args)?.max(f64::MIN_POSITIVE).ln()),
        "log10" => Value::Float(f1(args)?.max(f64::MIN_POSITIVE).log10()),
        "exp" => Value::Float(f1(args)?.exp()),
        "radians" => Value::Float(f1(args)?.to_radians()),
        "degrees" => Value::Float(f1(args)?.to_degrees()),
        "least" | "greatest" => {
            if args.len() != 2 {
                return Err(ExecError::Type(format!("{lower} expects 2 arguments")));
            }
            let a = args[0]
                .as_f64()
                .ok_or_else(|| ExecError::Type("expected a number".into()))?;
            let b = args[1]
                .as_f64()
                .ok_or_else(|| ExecError::Type("expected a number".into()))?;
            Value::Float(if lower == "least" { a.min(b) } else { a.max(b) })
        }
        "power" => {
            if args.len() != 2 {
                return Err(ExecError::Type("power expects 2 arguments".into()));
            }
            let a = args[0]
                .as_f64()
                .ok_or_else(|| ExecError::Type("expected a number".into()))?;
            let b = args[1]
                .as_f64()
                .ok_or_else(|| ExecError::Type("expected a number".into()))?;
            Value::Float(a.powf(b))
        }
        _ => return Err(ExecError::UnknownScalar(name.to_string())),
    })
}

/// SQL `LIKE` with `%` (any run) and `_` (any one char), case-sensitive.
fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::CatalogSpec;
    use fp_sqlmini::parse_query;

    fn cat() -> Catalog {
        Catalog::generate(&CatalogSpec::small_test())
    }

    fn run(c: &Catalog, sql: &str) -> QueryOutcome {
        execute(c, &parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn tvf_join_photoprimary() {
        let c = cat();
        let out = run(
            &c,
            "SELECT p.objID, p.ra, p.dec, n.distance \
             FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        );
        assert_eq!(out.result.columns, ["objID", "ra", "dec", "distance"]);
        assert!(!out.result.is_empty());
        // Join must not change cardinality (objID is a key).
        let alone = run(&c, "SELECT * FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n");
        assert_eq!(out.result.len(), alone.result.len());
    }

    #[test]
    fn where_filters_and_top_truncates() {
        let c = cat();
        let all = run(
            &c,
            "SELECT p.r FROM fGetNearbyObjEq(185.0, 0.0, 30.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        );
        let bright = run(
            &c,
            "SELECT p.r FROM fGetNearbyObjEq(185.0, 0.0, 30.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 18.0",
        );
        assert!(bright.result.len() < all.result.len());
        for row in &bright.result.rows {
            assert!(row[0].as_f64().unwrap() < 18.0);
        }
        let top = run(
            &c,
            "SELECT TOP 5 p.r FROM fGetNearbyObjEq(185.0, 0.0, 30.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        );
        assert_eq!(top.result.len(), 5.min(all.result.len()));
    }

    #[test]
    fn order_by_sorts() {
        let c = cat();
        let out = run(
            &c,
            "SELECT p.r FROM fGetNearbyObjEq(185.0, 0.0, 25.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID ORDER BY r DESC",
        );
        let vals: Vec<f64> = out
            .result
            .rows
            .iter()
            .map(|r| r[0].as_f64().unwrap())
            .collect();
        assert!(vals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let c = cat();
        let q = run(&c, "SELECT n.* FROM fGetNearbyObjEq(185.0, 0.0, 10.0) n");
        assert_eq!(q.result.columns, ["objID", "distance"]);
        let w = run(
            &c,
            "SELECT * FROM fGetNearbyObjEq(185.0, 0.0, 10.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        );
        assert_eq!(
            w.result.columns.len(),
            2 + crate::catalog::PHOTO_PRIMARY_COLUMNS.len()
        );
    }

    #[test]
    fn expressions_between_in_like_functions() {
        let c = cat();
        let out = run(
            &c,
            "SELECT p.g - p.r AS color FROM fGetNearbyObjEq(185.0, 0.0, 30.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID \
             WHERE p.r BETWEEN 15.0 AND 20.0 AND p.type IN (3, 6) AND abs(p.dec) < 3.0",
        );
        assert_eq!(out.result.columns, ["color"]);
        for row in &out.result.rows {
            let color = row[0].as_f64().unwrap();
            assert!((0.0..=1.5).contains(&color), "g-r in generator range");
        }
    }

    #[test]
    fn two_join_query_through_spec_obj() {
        // The paper's property (3): joins that preserve the function's
        // query semantics. TVF → PhotoPrimary → SpecObj.
        let c = cat();
        let out = run(
            &c,
            "SELECT p.objID, s.z, s.class FROM fGetNearbyObjEq(185.0, 0.0, 60.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID \
             JOIN SpecObj s ON s.objID = p.objID \
             WHERE s.class = 1",
        );
        assert!(!out.result.is_empty(), "wide cone should catch spectra");
        // Brute force: objects in the cone that have a class-1 spectrum.
        let limit = fp_geometry::celestial::arcmin_to_rad(60.0);
        let mut want = 0usize;
        for srow in 0..c.spec_len() {
            if c.spec_value(srow, "class").unwrap() != Value::Int(1) {
                continue;
            }
            let obj_id = c.spec_value(srow, "objID").unwrap().as_i64().unwrap();
            let prow = c.row_of_id(obj_id).unwrap();
            let (ra, dec) = c.radec(prow);
            if fp_geometry::celestial::angular_separation(185.0, 0.0, ra, dec) <= limit + 1e-12 {
                want += 1;
            }
        }
        assert_eq!(out.result.len(), want);
        // Redshifts come from the spec table, not the z magnitude.
        for row in &out.result.rows {
            let z = row[1].as_f64().unwrap();
            assert!((0.0..0.8).contains(&z), "redshift {z}");
        }
    }

    #[test]
    fn spec_obj_scans_standalone() {
        let c = cat();
        let out = run(&c, "SELECT s.specObjID FROM SpecObj s WHERE s.z > 0.5");
        assert!(!out.result.is_empty());
        let all = run(&c, "SELECT s.specObjID FROM SpecObj s");
        assert_eq!(all.result.len(), c.spec_len());
        assert!(out.result.len() < all.result.len());
    }

    #[test]
    fn errors_are_reported() {
        let c = cat();
        let e = execute(&c, &parse_query("SELECT * FROM Missing t").unwrap());
        assert!(matches!(e, Err(ExecError::UnknownTable(_))));
        let e = execute(
            &c,
            &parse_query("SELECT nope FROM PhotoPrimary p WHERE p.r < 0").unwrap(),
        );
        assert!(matches!(e, Err(ExecError::UnknownColumn(_))));
        let e = execute(
            &c,
            &parse_query("SELECT * FROM fGetNearbyObjEq($ra, 0.0, 1.0) n").unwrap(),
        );
        assert!(matches!(e, Err(ExecError::NonConstantArgument)));
        let e = execute(
            &c,
            &parse_query("SELECT * FROM PhotoPrimary p JOIN PhotoPrimary p ON p.r = p.r").unwrap(),
        );
        assert!(matches!(e, Err(ExecError::DuplicateAlias(_))));
    }

    #[test]
    fn const_folding_in_tvf_args() {
        let c = cat();
        let a = run(
            &c,
            "SELECT * FROM fGetNearbyObjEq(184.0 + 1.0, 0.0, 15.0) n",
        );
        let b = run(&c, "SELECT * FROM fGetNearbyObjEq(185.0, 0.0, 15.0) n");
        assert_eq!(a.result.len(), b.result.len());
    }

    #[test]
    fn like_matching() {
        assert!(like_match("PhotoPrimary", "Photo%"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("abc", "%"));
        assert!(!like_match("abc", "a_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn stats_account_scans() {
        let c = cat();
        let out = run(
            &c,
            "SELECT p.objID FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        );
        assert!(out.stats.rows_scanned >= out.stats.rows_returned);
        assert!(out.stats.result_bytes > 0);
    }

    #[test]
    fn trig_is_in_degrees() {
        let v = scalar_fn("cos", &[Value::Float(0.0)]).unwrap();
        assert_eq!(v.as_f64().unwrap(), 1.0);
        let v = scalar_fn("cos", &[Value::Float(90.0)]).unwrap();
        assert!(v.as_f64().unwrap().abs() < 1e-12);
        let v = scalar_fn("sin", &[Value::Float(90.0)]).unwrap();
        assert!((v.as_f64().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn null_semantics() {
        // NULL comparisons are false; arithmetic with NULL is NULL.
        assert_eq!(
            arith(BinOp::Add, &Value::Null, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert_eq!(
            arith(BinOp::Div, &Value::Int(1), &Value::Int(0)).unwrap(),
            Value::Null
        );
    }
}

//! SQL parsing and templates for **function-embedded queries**.
//!
//! The paper's proxy does not need a full SQL engine — it needs to
//! understand one query *class* (its Figure 2):
//!
//! ```sql
//! SELECT TOP 1000 p.objID, p.run, p.ra, p.dec, p.cx, p.cy, p.cz
//! FROM fGetNearbyObjEq($ra, $dec, $radius) n
//! JOIN PhotoPrimary p ON n.objID = p.objID
//! WHERE p.r < $maxmag
//! ```
//!
//! — a `SELECT` with an optional `TOP N`, a table-valued function call in
//! the `FROM` clause, optional semantics-preserving joins, and optional
//! extra predicates. This crate provides:
//!
//! * a lexer and recursive-descent parser for that class (plus enough
//!   general expression syntax for the `other_predicates` the paper keeps
//!   abstract),
//! * a typed AST ([`Query`], [`Expr`], [`TableSource`]) with a
//!   pretty-printer that emits valid SQL text (needed to *generate*
//!   remainder queries to send to the origin site),
//! * **query templates** ([`template::QueryTemplate`]): queries containing
//!   `$param` placeholders, with structural matching that recovers the
//!   parameter bindings of a concrete query — the mechanism that lets the
//!   proxy recognize "this HTTP request is a Radial-form query with
//!   `ra=185, dec=1.5, radius=30`".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod template;
pub mod token;
pub mod value;

pub use ast::{BinOp, Expr, Join, Literal, Query, SelectItem, TableSource, UnOp};
pub use parser::parse_query;
pub use printer::ParamLookup;
pub use template::{Bindings, QueryTemplate};
pub use value::Value;

/// A positioned SQL parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl SqlError {
    pub(crate) fn new(offset: usize, message: impl Into<String>) -> Self {
        SqlError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_parse_and_print() {
        let sql = "SELECT TOP 10 p.objID, p.ra FROM fGetNearbyObjEq(185.0, 1.5, 30.0) n \
                   JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 20.0";
        let q = parse_query(sql).unwrap();
        assert_eq!(q.top, Some(10));
        let printed = q.to_sql();
        let q2 = parse_query(&printed).unwrap();
        assert_eq!(q, q2, "printing must round-trip");
    }
}

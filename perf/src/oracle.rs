//! The no-cache oracle: what the origin itself answers for a request,
//! reduced to a row count and an order-independent hash of the
//! `objID` column, and the same reduction of a reply document.

use crate::rig::FORM_PATH;
use fp_skyserver::SkySite;
use fp_sqlmini::{BinOp, Expr, Value};
use fp_trace::RadialQuery;
use funcproxy::query::region_inside_predicate;
use funcproxy::template::TemplateManager;

/// The reduced form of one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u32,
    pub hash: u64,
}

fn mix(obj_id: i64) -> u64 {
    let mut z = (obj_id as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the origin answers for `q`, with the answer's XML size.
pub fn expected(site: &SkySite, manager: &TemplateManager, q: &RadialQuery) -> (Answer, usize) {
    let bound = manager
        .resolve_form(FORM_PATH, &q.form_fields())
        .expect("generated request resolves");
    let outcome = site
        .execute_sql(&bound.sql)
        .expect("origin executes a generated request");
    let key = outcome
        .result
        .column_index("objID")
        .expect("radial answers carry objID");
    let hash = outcome.result.rows.iter().fold(0u64, |acc, row| {
        let Value::Int(id) = row[key] else {
            panic!("objID is an integer column");
        };
        acc.wrapping_add(mix(id))
    });
    let answer = Answer {
        rows: outcome.result.len() as u32,
        hash,
    };
    (answer, outcome.stats.result_bytes)
}

/// Grows `q` in steps of 0.001′ until no object sits on its fringe: a
/// row the origin's ε-tolerant cone membership admits but the exact
/// `d² ≤ r²` predicate of a batched remainder query drops (README,
/// "What the oracle found").
pub fn settle_fringe(site: &SkySite, manager: &TemplateManager, mut q: RadialQuery) -> RadialQuery {
    loop {
        // Work on the request as the wire carries it.
        q.radius = format!("{:.4}", q.radius).parse().expect("formatted f64");
        let bound = manager
            .resolve_form(FORM_PATH, &q.form_fields())
            .expect("trace request resolves");
        let tolerant = site.execute_sql(&bound.sql).expect("origin executes");
        let inside = region_inside_predicate(
            &bound.region,
            &bound.reg.coord_alias,
            &bound.reg.coord_columns,
        );
        let mut exact = bound.query.clone();
        exact.where_clause = Some(match exact.where_clause.take() {
            Some(pred) => Expr::binary(BinOp::And, pred, inside),
            None => inside,
        });
        let exact = site.execute_sql(&exact.to_sql()).expect("origin executes");
        if tolerant.result.len() == exact.result.len() {
            return q;
        }
        q.radius += 0.001;
    }
}

/// Reduces a reply document (`<ResultSet>…<Row><V>objID</V>…</Row>…`)
/// to its [`Answer`]; `None` when it is not such a document. It runs on
/// the measured CPU after every reply, so it searches with `str::find`
/// on a `char` (word-at-a-time) and skips what it can.
pub fn scan_reply(body: &[u8]) -> Option<Answer> {
    /// Ten more `<V>x</V>` cells at least follow the key in its row.
    const REST_OF_ROW: usize = 80;
    let text = std::str::from_utf8(body).ok()?;
    if !text.starts_with("<ResultSet>") || !text.ends_with("</ResultSet>") {
        return None;
    }
    let (mut rows, mut hash) = (0u32, 0u64);
    let mut at = 0;
    // Values are numbers, so `R` occurs only in `<Row>` and `</Row>`
    // (and the root element).
    while let Some(p) = text.get(at..).and_then(|rest| rest.find('R')) {
        let r = at + p;
        at = r + 1;
        if !body[r..].starts_with(b"Row><V>") || body[r - 1] != b'<' {
            continue;
        }
        let digits = &text[r + 7..];
        let end = digits.find('<')?;
        hash = hash.wrapping_add(mix(digits[..end].parse().ok()?));
        rows += 1;
        at = (r + 7 + end + REST_OF_ROW).min(body.len());
    }
    Some(Answer { rows, hash })
}

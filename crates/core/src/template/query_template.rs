//! Registered query templates: the parameterized queries plus the metadata
//! local evaluation depends on.

use crate::ProxyError;
use fp_sqlmini::{QueryTemplate, TableSource, Value};
use std::fmt::Write as _;
use std::sync::Arc;

/// A query template registered with the proxy, together with:
///
/// * which of its `$params` feed the embedded function (the **spatial
///   parameters** — only these may vary between queries the proxy relates
///   geometrically; all other parameters must match exactly),
/// * the **coordinate attributes**: result columns holding the Cartesian
///   coordinates of each tuple's point (the paper's property 4, *result
///   attribute availability*),
/// * the **key column** used to deduplicate when merging cached and
///   remainder results, and
/// * the alias those columns live under in the template SQL (needed to
///   synthesize remainder predicates).
#[derive(Debug, Clone)]
pub struct RegisteredQueryTemplate {
    /// The parameterized query.
    pub template: QueryTemplate,
    /// Name of the embedded function template this query calls.
    pub function: String,
    /// `$params` that appear in the embedded function's argument list.
    pub spatial_params: Vec<String>,
    /// Result columns carrying the point coordinates, in region dimension
    /// order (e.g. `["cx", "cy", "cz"]` for Radial).
    pub coord_columns: Vec<String>,
    /// Alias qualifying the coordinate columns inside the template SQL
    /// (e.g. `p` for the `PhotoPrimary p` join).
    pub coord_alias: String,
    /// Column that uniquely keys result rows (e.g. `objID`).
    pub key_column: String,
    /// The part of every residual key this template's queries share:
    /// template name and `TOP`. The whole key when nothing is residual.
    residual_prefix: Arc<str>,
    /// Positions in `template.params()` of the residual parameters.
    residual_slots: Vec<usize>,
}

impl RegisteredQueryTemplate {
    /// Builds a registered template, deriving `function` and
    /// `spatial_params` from the template's `FROM` clause.
    ///
    /// # Errors
    /// Returns [`ProxyError::Template`] when the template's primary source
    /// is not a function call, or the declared columns are absent from the
    /// select list (`SELECT *` and `alias.*` are accepted as covering
    /// everything).
    pub fn new(
        template: QueryTemplate,
        coord_columns: Vec<String>,
        coord_alias: impl Into<String>,
        key_column: impl Into<String>,
    ) -> Result<RegisteredQueryTemplate, ProxyError> {
        let TableSource::Function { name, args, .. } = &template.query.from else {
            return Err(ProxyError::Template(format!(
                "template `{}` must have a table-valued function in FROM",
                template.name
            )));
        };
        let function = name.clone();
        let mut spatial_params = Vec::new();
        for a in args {
            for p in a.params() {
                if !spatial_params.iter().any(|s: &String| s == p) {
                    spatial_params.push(p.to_string());
                }
            }
        }
        let coord_alias = coord_alias.into();
        let key_column = key_column.into();
        let residual_prefix = format!("{}|top={:?}", template.name, template.query.top).into();
        let residual_slots = (0..template.params().len())
            .filter(|i| !spatial_params.contains(&template.params()[*i]))
            .collect();

        let reg = RegisteredQueryTemplate {
            template,
            function,
            spatial_params,
            coord_columns,
            coord_alias,
            key_column,
            residual_prefix,
            residual_slots,
        };
        reg.check_result_attributes()?;
        Ok(reg)
    }

    /// Verifies the paper's property (4): the coordinate and key columns
    /// must be present in the projected output.
    fn check_result_attributes(&self) -> Result<(), ProxyError> {
        use fp_sqlmini::SelectItem;
        let select = &self.template.query.select;
        let covers_all = select.iter().any(|item| {
            matches!(item, SelectItem::Wildcard)
                || matches!(item, SelectItem::QualifiedWildcard(a) if *a == self.coord_alias)
        });
        if covers_all {
            return Ok(());
        }
        let mut need: Vec<&str> = self
            .coord_columns
            .iter()
            .map(String::as_str)
            .chain(std::iter::once(self.key_column.as_str()))
            .collect();
        need.retain(|col| {
            !select.iter().any(|item| {
                matches!(
                    item,
                    SelectItem::Expr { expr: fp_sqlmini::Expr::Column { name, .. }, alias: None }
                        if name == col
                )
            })
        });
        if need.is_empty() {
            Ok(())
        } else {
            Err(ProxyError::Template(format!(
                "template `{}` does not project required result attributes {:?} \
                 (paper property 4: result attribute availability)",
                self.template.name, need
            )))
        }
    }

    /// Residual (non-spatial) parameters of the template.
    pub fn residual_params(&self) -> Vec<&str> {
        let params = self.template.params();
        self.residual_slots
            .iter()
            .map(|&i| params[i].as_str())
            .collect()
    }

    /// The residual key of the query whose parameter values are `slots`
    /// (one per `template.params()` entry, in that order): template
    /// identity, `TOP`, and every non-spatial parameter's value. Two
    /// queries relate geometrically only within one residual group.
    pub(crate) fn residual_key(&self, slots: &[Value]) -> Arc<str> {
        if self.residual_slots.is_empty() {
            return Arc::clone(&self.residual_prefix);
        }
        let params = self.template.params();
        let mut key = String::from(&*self.residual_prefix);
        for &i in &self.residual_slots {
            let _ = write!(key, "|{}={}", params[i], slots[i]);
        }
        key.into()
    }

    /// The template's `TOP` limit, when declared.
    pub fn top(&self) -> Option<u64> {
        self.template.query.top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_sqlmini::QueryTemplate;

    fn radial() -> QueryTemplate {
        QueryTemplate::parse(
            "radial",
            "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
             FROM fGetNearbyObjEq($ra, $dec, $radius) n \
             JOIN PhotoPrimary p ON n.objID = p.objID \
             WHERE p.r < $maxmag",
        )
        .unwrap()
    }

    #[test]
    fn derives_function_and_spatial_params() {
        let reg = RegisteredQueryTemplate::new(
            radial(),
            vec!["cx".into(), "cy".into(), "cz".into()],
            "p",
            "objID",
        )
        .unwrap();
        assert_eq!(reg.function, "fGetNearbyObjEq");
        assert_eq!(reg.spatial_params, ["ra", "dec", "radius"]);
        assert_eq!(reg.residual_params(), ["maxmag"]);
        assert_eq!(reg.top(), None);
    }

    #[test]
    fn rejects_table_from() {
        let t = QueryTemplate::parse("t", "SELECT * FROM PhotoPrimary p").unwrap();
        assert!(matches!(
            RegisteredQueryTemplate::new(t, vec![], "p", "objID"),
            Err(ProxyError::Template(_))
        ));
    }

    #[test]
    fn enforces_result_attribute_availability() {
        // Projection misses cz.
        let t = QueryTemplate::parse(
            "r",
            "SELECT p.objID, p.cx, p.cy FROM fGetNearbyObjEq($ra, $dec, $radius) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        )
        .unwrap();
        let e = RegisteredQueryTemplate::new(
            t,
            vec!["cx".into(), "cy".into(), "cz".into()],
            "p",
            "objID",
        );
        assert!(matches!(e, Err(ProxyError::Template(ref m)) if m.contains("cz")));

        // SELECT p.* covers everything.
        let t = QueryTemplate::parse(
            "r",
            "SELECT p.* FROM fGetNearbyObjEq($ra, $dec, $radius) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        )
        .unwrap();
        assert!(RegisteredQueryTemplate::new(
            t,
            vec!["cx".into(), "cy".into(), "cz".into()],
            "p",
            "objID"
        )
        .is_ok());
    }
}

//! The template manager: registration and request resolution.

use crate::template::{FunctionTemplate, InfoFile, RegisteredQueryTemplate};
use crate::ProxyError;
use fp_geometry::Region;
use fp_skyserver::exec::eval_const_with;
use fp_sqlmini::{parse_query, Query, TableSource, Value};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// What binding a request computes, and all a cache hit reads: the
/// template, the region, the residual group and the canonical SQL text.
/// Classification, exact lookup and local evaluation take this; only the
/// origin-facing paths need the concrete query of a [`BoundQuery`].
///
/// `residual_key` encodes everything *non-spatial* that must agree before
/// two queries may be related geometrically: the template identity, the
/// values of all non-spatial parameters, and the `TOP` limit.
#[derive(Debug, Clone)]
pub struct BoundKey {
    /// The registered template this query instantiates.
    pub reg: Arc<RegisteredQueryTemplate>,
    /// The query's spatial region.
    pub region: Region,
    /// Group key: queries are only related within equal keys.
    pub residual_key: Arc<str>,
    /// Canonical SQL text (doubles as the passive-cache key).
    pub sql: String,
    /// Parameter values recovered from the form/SQL, one per
    /// `reg.template.params()` entry, in that order.
    slots: Vec<Value>,
}

impl BoundKey {
    /// Builds the concrete query the origin-facing paths send: the
    /// template instantiated with this key's parameter values.
    pub fn complete(self) -> BoundQuery {
        let query = self
            .reg
            .template
            .instantiate_with(&slot_lookup(self.reg.template.params(), &self.slots))
            .expect("a key holds a value for every template parameter");
        BoundQuery { key: self, query }
    }
}

/// A fully resolved query: a [`BoundKey`] (whose fields read through
/// this) completed with the concrete query AST.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    key: BoundKey,
    /// The concrete query AST; prints as `sql`.
    pub query: Query,
}

impl Deref for BoundQuery {
    type Target = BoundKey;

    fn deref(&self) -> &BoundKey {
        &self.key
    }
}

/// The `$param → value` lookup of a slot vector laid out like `params`.
fn slot_lookup<'a>(
    params: &'a [String],
    slots: &'a [Value],
) -> impl Fn(&str) -> Option<&'a Value> + 'a {
    move |p| params.iter().position(|n| n == p).map(|i| &slots[i])
}

/// A registered form, compiled for binding: per template parameter, where
/// its value comes from.
struct Form {
    reg: Arc<RegisteredQueryTemplate>,
    /// One per `reg.template.params()` entry, in that order.
    sources: Vec<SlotSource>,
}

struct SlotSource {
    /// The form fields the info file maps to this parameter, in file
    /// order; of those a request carries, the last one wins.
    fields: Vec<String>,
    /// The info file's default for this parameter.
    default: Option<Value>,
}

/// Registry of function templates, query templates, and info files.
#[derive(Default)]
pub struct TemplateManager {
    functions: HashMap<String, Arc<FunctionTemplate>>,
    queries: HashMap<String, Arc<RegisteredQueryTemplate>>,
    forms: HashMap<String, Form>,
}

impl TemplateManager {
    /// An empty manager.
    pub fn new() -> Self {
        TemplateManager::default()
    }

    /// A manager pre-loaded with the SkyServer Radial and Rectangular
    /// artifacts used throughout the paper's evaluation.
    ///
    /// # Panics
    /// Never — the built-in artifacts are statically valid.
    pub fn with_sky_defaults() -> Self {
        let mut m = TemplateManager::new();
        m.register_function(FunctionTemplate::sky_radial())
            .expect("built-in radial function template");
        m.register_function(FunctionTemplate::sky_rect())
            .expect("built-in rect function template");

        let radial = fp_sqlmini::QueryTemplate::parse(
            "radial",
            "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
             FROM fGetNearbyObjEq($ra, $dec, $radius) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        )
        .expect("built-in radial SQL");
        m.register_query(
            RegisteredQueryTemplate::new(
                radial,
                vec!["cx".into(), "cy".into(), "cz".into()],
                "p",
                "objID",
            )
            .expect("built-in radial registration"),
        )
        .expect("radial registers");
        m.register_info(InfoFile::identity(
            "/search/radial",
            "radial",
            &["ra", "dec", "radius"],
        ))
        .expect("radial info file");

        let rect = fp_sqlmini::QueryTemplate::parse(
            "rect",
            "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
             FROM fGetObjFromRect($min_ra, $max_ra, $min_dec, $max_dec) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        )
        .expect("built-in rect SQL");
        m.register_query(
            RegisteredQueryTemplate::new(rect, vec!["ra".into(), "dec".into()], "p", "objID")
                .expect("built-in rect registration"),
        )
        .expect("rect registers");
        m.register_info(InfoFile::identity(
            "/search/rect",
            "rect",
            &["min_ra", "max_ra", "min_dec", "max_dec"],
        ))
        .expect("rect info file");

        m.register_function(FunctionTemplate::sky_triangle())
            .expect("built-in triangle function template");
        let triangle = fp_sqlmini::QueryTemplate::parse(
            "triangle",
            "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
             FROM fGetObjFromTriangle($ra1, $dec1, $ra2, $dec2, $ra3, $dec3) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        )
        .expect("built-in triangle SQL");
        m.register_query(
            RegisteredQueryTemplate::new(triangle, vec!["ra".into(), "dec".into()], "p", "objID")
                .expect("built-in triangle registration"),
        )
        .expect("triangle registers");
        m.register_info(InfoFile::identity(
            "/search/triangle",
            "triangle",
            &["ra1", "dec1", "ra2", "dec2", "ra3", "dec3"],
        ))
        .expect("triangle info file");

        m
    }

    /// Registers a function template.
    ///
    /// # Errors
    /// Returns [`ProxyError::Template`] on duplicate names.
    pub fn register_function(&mut self, t: FunctionTemplate) -> Result<(), ProxyError> {
        if self.functions.contains_key(&t.name) {
            return Err(ProxyError::Template(format!(
                "function template `{}` already registered",
                t.name
            )));
        }
        self.functions.insert(t.name.clone(), Arc::new(t));
        Ok(())
    }

    /// Registers a query template; its embedded function template must be
    /// registered first and the argument count must match.
    ///
    /// # Errors
    /// Returns [`ProxyError::Template`] on duplicates or inconsistencies.
    pub fn register_query(&mut self, reg: RegisteredQueryTemplate) -> Result<(), ProxyError> {
        let name = reg.template.name.clone();
        if self.queries.contains_key(&name) {
            return Err(ProxyError::Template(format!(
                "query template `{name}` already registered"
            )));
        }
        let func = self.functions.get(&reg.function).ok_or_else(|| {
            ProxyError::Template(format!(
                "query template `{name}` calls unregistered function `{}`",
                reg.function
            ))
        })?;
        let TableSource::Function { args, .. } = &reg.template.query.from else {
            unreachable!("checked by RegisteredQueryTemplate::new");
        };
        if args.len() != func.params.len() {
            return Err(ProxyError::Template(format!(
                "`{}` takes {} arguments, template `{name}` passes {}",
                reg.function,
                func.params.len(),
                args.len()
            )));
        }
        if reg.coord_columns.len() != func.dims() {
            return Err(ProxyError::Template(format!(
                "template `{name}` declares {} coordinate columns but `{}` is {}-dimensional",
                reg.coord_columns.len(),
                reg.function,
                func.dims()
            )));
        }
        self.queries.insert(name, Arc::new(reg));
        Ok(())
    }

    /// Registers an info file; its query template must exist.
    ///
    /// # Errors
    /// Returns [`ProxyError::Template`] on duplicates or dangling
    /// template references.
    pub fn register_info(&mut self, info: InfoFile) -> Result<(), ProxyError> {
        if self.forms.contains_key(&info.form_path) {
            return Err(ProxyError::Template(format!(
                "form `{}` already registered",
                info.form_path
            )));
        }
        let Some(reg) = self.queries.get(&info.query_template) else {
            return Err(ProxyError::Template(format!(
                "info file for `{}` references unknown template `{}`",
                info.form_path, info.query_template
            )));
        };
        let sources = reg
            .template
            .params()
            .iter()
            .map(|param| SlotSource {
                fields: info
                    .field_map
                    .iter()
                    .filter(|(_, p)| p == param)
                    .map(|(field, _)| field.clone())
                    .collect(),
                default: info
                    .defaults
                    .iter()
                    .find(|(p, _)| p == param)
                    .map(|(_, text)| Value::from_form_text(text)),
            })
            .collect();
        let form = Form {
            reg: Arc::clone(reg),
            sources,
        };
        self.forms.insert(info.form_path, form);
        Ok(())
    }

    /// Looks up a registered query template by name.
    pub fn query_template(&self, name: &str) -> Option<&Arc<RegisteredQueryTemplate>> {
        self.queries.get(name)
    }

    /// Looks up a function template by name.
    pub fn function_template(&self, name: &str) -> Option<&Arc<FunctionTemplate>> {
        self.functions.get(name)
    }

    /// Binds a form request (`path` + decoded fields) to its
    /// [`BoundKey`] — all a cache hit needs.
    ///
    /// # Errors
    /// [`ProxyError::UnknownForm`] for unregistered paths,
    /// [`ProxyError::BadRequest`] for missing fields,
    /// [`ProxyError::Template`] when formulas fail to evaluate.
    pub fn bind_form<K: AsRef<str>, V: AsRef<str>>(
        &self,
        path: &str,
        fields: &[(K, V)],
    ) -> Result<BoundKey, ProxyError> {
        let form = self
            .forms
            .get(path)
            .ok_or_else(|| ProxyError::UnknownForm(path.to_string()))?;
        let params = form.reg.template.params();
        let mut slots = Vec::with_capacity(params.len());
        for (param, source) in params.iter().zip(&form.sources) {
            let given = source.fields.iter().rev().find_map(|field| {
                let (_, text) = fields.iter().find(|(k, _)| k.as_ref() == field)?;
                Some(Value::from_form_text(text.as_ref()))
            });
            match given.or_else(|| source.default.clone()) {
                Some(value) => slots.push(value),
                None => {
                    return Err(ProxyError::BadRequest(format!(
                        "missing form field for parameter `{param}`"
                    )))
                }
            }
        }
        self.bind_key(&form.reg, slots)
    }

    /// Resolves a form request into a [`BoundQuery`]:
    /// [`TemplateManager::bind_form`], then [`BoundKey::complete`].
    ///
    /// # Errors
    /// As [`TemplateManager::bind_form`].
    pub fn resolve_form<K: AsRef<str>, V: AsRef<str>>(
        &self,
        path: &str,
        fields: &[(K, V)],
    ) -> Result<BoundQuery, ProxyError> {
        self.bind_form(path, fields).map(BoundKey::complete)
    }

    /// Binds raw SQL text against the registered templates (the path a
    /// power user's typed query takes). Returns `None` when no template
    /// matches — such queries bypass active caching.
    pub fn bind_sql(&self, sql: &str) -> Option<Result<BoundKey, ProxyError>> {
        let query = parse_query(sql).ok()?;
        self.bind_query(&query)
    }

    /// [`TemplateManager::bind_sql`] on an already-parsed query.
    pub fn bind_query(&self, query: &Query) -> Option<Result<BoundKey, ProxyError>> {
        for reg in self.queries.values() {
            if let Some(bindings) = reg.template.match_query(query) {
                let slots = reg
                    .template
                    .params()
                    .iter()
                    .map(|p| {
                        bindings.get(p).cloned().ok_or_else(|| {
                            ProxyError::BadRequest(format!("missing binding for ${p}"))
                        })
                    })
                    .collect::<Result<Vec<Value>, ProxyError>>();
                return Some(slots.and_then(|slots| self.bind_key(reg, slots)));
            }
        }
        None
    }

    /// [`TemplateManager::bind_sql`], then [`BoundKey::complete`].
    pub fn resolve_sql(&self, sql: &str) -> Option<Result<BoundQuery, ProxyError>> {
        Some(self.bind_sql(sql)?.map(BoundKey::complete))
    }

    /// [`TemplateManager::bind_query`], then [`BoundKey::complete`].
    pub fn resolve_query(&self, query: &Query) -> Option<Result<BoundQuery, ProxyError>> {
        Some(self.bind_query(query)?.map(BoundKey::complete))
    }

    /// The one binder: print the SQL text, map function arguments,
    /// evaluate the region and derive the residual key, all from the
    /// template as registered, reading parameters out of `slots` (one per
    /// `reg.template.params()` entry). No tree is cloned or rewritten.
    fn bind_key(
        &self,
        reg: &Arc<RegisteredQueryTemplate>,
        slots: Vec<Value>,
    ) -> Result<BoundKey, ProxyError> {
        let func = self
            .functions
            .get(&reg.function)
            .expect("registration validated the reference");
        let TableSource::Function { args, .. } = &reg.template.query.from else {
            unreachable!("checked at registration");
        };
        let (sql, region) = {
            let lookup = slot_lookup(reg.template.params(), &slots);
            let sql = reg.template.to_sql_with(&lookup);
            // Map the TVF's positional arguments onto the function
            // template's parameter names, evaluating each argument
            // under the slots.
            let mut arg_values = Vec::with_capacity(args.len());
            for arg in args {
                arg_values.push(eval_const_with(arg, &lookup).ok_or_else(|| {
                    ProxyError::BadRequest(format!(
                        "function argument `{arg}` did not evaluate to a constant"
                    ))
                })?);
            }
            let region = func.region_with(&|p| {
                let i = func.params.iter().rposition(|n| n == p)?;
                arg_values.get(i)
            })?;
            (sql, region)
        };
        let residual_key = reg.residual_key(&slots);

        Ok(BoundKey {
            reg: Arc::clone(reg),
            region,
            residual_key,
            sql,
            slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geometry::celestial::radial_query_sphere;

    fn fields(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn resolves_radial_form() {
        let m = TemplateManager::with_sky_defaults();
        let b = m
            .resolve_form(
                "/search/radial",
                &fields(&[("ra", "185.0"), ("dec", "1.5"), ("radius", "30")]),
            )
            .unwrap();
        assert_eq!(b.reg.template.name, "radial");
        let Region::Sphere(s) = &b.region else {
            panic!()
        };
        assert!(s.approx_eq(&radial_query_sphere(185.0, 1.5, 30.0).unwrap()));
        assert!(b.sql.contains("fGetNearbyObjEq(185.0, 1.5, 30)"));
    }

    #[test]
    fn unknown_form_and_missing_fields() {
        let m = TemplateManager::with_sky_defaults();
        assert!(matches!(
            m.resolve_form("/nope", &fields(&[])),
            Err(ProxyError::UnknownForm(_))
        ));
        assert!(matches!(
            m.resolve_form("/search/radial", &fields(&[("ra", "1")])),
            Err(ProxyError::BadRequest(_))
        ));
    }

    #[test]
    fn resolve_sql_recovers_template_and_region() {
        let m = TemplateManager::with_sky_defaults();
        let b = m
            .resolve_sql(
                "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
                 FROM fGetNearbyObjEq(200.0, -2.0, 10.0) n \
                 JOIN PhotoPrimary p ON n.objID = p.objID",
            )
            .unwrap()
            .unwrap();
        assert_eq!(b.reg.template.name, "radial");
        let Region::Sphere(s) = &b.region else {
            panic!()
        };
        assert!(s.approx_eq(&radial_query_sphere(200.0, -2.0, 10.0).unwrap()));
    }

    #[test]
    fn resolve_sql_rejects_unknown_shapes() {
        let m = TemplateManager::with_sky_defaults();
        assert!(m.resolve_sql("SELECT * FROM PhotoPrimary p").is_none());
        assert!(m.resolve_sql("not sql at all").is_none());
    }

    #[test]
    fn residual_key_separates_templates_and_tops() {
        let m = TemplateManager::with_sky_defaults();
        let a = m
            .resolve_form(
                "/search/radial",
                &fields(&[("ra", "185.0"), ("dec", "1.5"), ("radius", "30")]),
            )
            .unwrap();
        let b = m
            .resolve_form(
                "/search/rect",
                &fields(&[
                    ("min_ra", "184.0"),
                    ("max_ra", "186.0"),
                    ("min_dec", "0.0"),
                    ("max_dec", "1.0"),
                ]),
            )
            .unwrap();
        assert_ne!(a.residual_key, b.residual_key);
        // Same form, different spatial params → same residual key.
        let c = m
            .resolve_form(
                "/search/radial",
                &fields(&[("ra", "10.0"), ("dec", "0.0"), ("radius", "5")]),
            )
            .unwrap();
        assert_eq!(a.residual_key, c.residual_key);
    }

    #[test]
    fn resolve_sql_matches_the_triangle_template() {
        let m = TemplateManager::with_sky_defaults();
        let b = m
            .resolve_sql(
                "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
                 FROM fGetObjFromTriangle(184.0, -0.5, 186.5, -0.5, 185.2, 1.0) n \
                 JOIN PhotoPrimary p ON n.objID = p.objID",
            )
            .unwrap()
            .unwrap();
        assert_eq!(b.reg.template.name, "triangle");
        assert_eq!(b.region.shape_name(), "polytope");
        // The region matches the origin's construction exactly.
        let server = fp_skyserver::tvf::triangle_polytope(184.0, -0.5, 186.5, -0.5, 185.2, 1.0)
            .expect("CCW triangle");
        assert_eq!(b.region, Region::Polytope(server));
    }

    #[test]
    fn registration_validation() {
        let mut m = TemplateManager::new();
        // Query before function → error.
        let qt = fp_sqlmini::QueryTemplate::parse(
            "q",
            "SELECT p.objID, p.cx, p.cy, p.cz FROM fGetNearbyObjEq($a, $b, $c) n \
             JOIN PhotoPrimary p ON n.objID = p.objID",
        )
        .unwrap();
        let reg = RegisteredQueryTemplate::new(
            qt,
            vec!["cx".into(), "cy".into(), "cz".into()],
            "p",
            "objID",
        )
        .unwrap();
        assert!(m.register_query(reg.clone()).is_err());

        m.register_function(FunctionTemplate::sky_radial()).unwrap();
        m.register_query(reg.clone()).unwrap();
        // Duplicate query template name.
        assert!(m.register_query(reg).is_err());
        // Duplicate function template name.
        assert!(m.register_function(FunctionTemplate::sky_radial()).is_err());
        // Info referencing missing template.
        assert!(m
            .register_info(InfoFile::identity("/f", "missing", &[]))
            .is_err());
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let mut m = TemplateManager::new();
        m.register_function(FunctionTemplate::sky_radial()).unwrap();
        let qt = fp_sqlmini::QueryTemplate::parse(
            "radial_mag",
            "SELECT p.objID, p.cx, p.cy, p.cz FROM fGetNearbyObjEq($ra, $dec, $radius) n \
             JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < $maxmag",
        )
        .unwrap();
        m.register_query(
            RegisteredQueryTemplate::new(
                qt,
                vec!["cx".into(), "cy".into(), "cz".into()],
                "p",
                "objID",
            )
            .unwrap(),
        )
        .unwrap();
        let mut info = InfoFile::identity("/radmag", "radial_mag", &["ra", "dec", "radius"]);
        info.defaults.push(("maxmag".into(), "22.5".into()));
        m.register_info(info).unwrap();

        let b = m
            .resolve_form(
                "/radmag",
                &fields(&[("ra", "185.0"), ("dec", "0.0"), ("radius", "5")]),
            )
            .unwrap();
        assert!(b.sql.contains("p.r < 22.5"));
        // Residual key contains the default value.
        assert!(b.residual_key.contains("maxmag=22.5"));
    }
}

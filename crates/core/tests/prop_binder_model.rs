//! Binder ≡ model: `TemplateManager::bind_form` / `resolve_form` bind
//! under a parameter environment, without building or rewriting a tree;
//! the model here binds the way the manager did before — a string-keyed
//! `Bindings` map, `QueryTemplate::instantiate` + `to_sql`,
//! `substitute_expr` + `eval_const` per formula. Over arbitrary form text
//! the two must agree on every field, bit for bit, and fail alike.

use fp_geometry::{HalfSpace, HyperRect, HyperSphere, Point, Polytope, Region};
use fp_skyserver::exec::eval_const;
use fp_sqlmini::parser::parse_expr;
use fp_sqlmini::template::substitute_expr;
use fp_sqlmini::{parse_query, Bindings, Expr, Query, QueryTemplate, TableSource, Value};
use funcproxy::template::{
    FunctionTemplate, InfoFile, RegisteredQueryTemplate, Shape, TemplateManager,
};
use funcproxy::ProxyError;
use proptest::prelude::*;
use std::fmt::Write as _;

/// The three built-in forms plus a synthetic one with everything the
/// built-ins lack: a `TOP`, residual parameters (a number with a default
/// and a string), a `-$x` argument, renamed and doubly mapped fields,
/// and a duplicated default.
fn manager_and_infos() -> (TemplateManager, Vec<InfoFile>) {
    let mut m = TemplateManager::with_sky_defaults();
    let formula = |s: &str| parse_expr(s).expect("formula parses");
    m.register_function(FunctionTemplate {
        name: "fBox".into(),
        params: vec!["cx".into(), "half".into(), "base".into()],
        shape: Shape::Rect {
            lo: vec![formula("$cx - $half"), formula("$base")],
            hi: vec![formula("$cx + $half"), formula("$base + 1.0")],
        },
    })
    .unwrap();
    let template = QueryTemplate::parse(
        "box",
        "SELECT TOP 50 p.objID, p.ra, p.dec FROM fBox(-$x, $w, $y) n \
         JOIN PhotoPrimary p ON n.objID = p.objID \
         WHERE p.r < $maxmag AND p.kind = $tag",
    )
    .unwrap();
    m.register_query(
        RegisteredQueryTemplate::new(template, vec!["ra".into(), "dec".into()], "p", "objID")
            .unwrap(),
    )
    .unwrap();
    let synthetic = InfoFile {
        form_path: "/search/box".into(),
        query_template: "box".into(),
        field_map: [
            ("x", "x"),
            ("w", "w"),
            ("y", "y"),
            ("mag", "maxmag"),
            ("tag", "tag"),
            ("x2", "x"), // a later mapping of a present field wins
        ]
        .iter()
        .map(|(f, p)| (f.to_string(), p.to_string()))
        .collect(),
        defaults: [
            ("maxmag", "22.5"),
            ("w", " 2 "),
            ("w", "3"),
            ("unused", "1"),
        ]
        .iter()
        .map(|(p, d)| (p.to_string(), d.to_string()))
        .collect(),
    };
    m.register_info(synthetic.clone()).unwrap();
    let infos = vec![
        InfoFile::identity("/search/radial", "radial", &["ra", "dec", "radius"]),
        InfoFile::identity(
            "/search/rect",
            "rect",
            &["min_ra", "max_ra", "min_dec", "max_dec"],
        ),
        InfoFile::identity(
            "/search/triangle",
            "triangle",
            &["ra1", "dec1", "ra2", "dec2", "ra3", "dec3"],
        ),
        synthetic,
    ];
    (m, infos)
}

/// What the model computes for one request.
#[derive(Debug)]
struct Modelled {
    query: Query,
    sql: String,
    region: Region,
    residual_key: String,
}

/// Form fields → `Bindings`, as the manager resolved a form before.
fn model_form_bindings(
    m: &TemplateManager,
    infos: &[InfoFile],
    path: &str,
    fields: &[(String, String)],
) -> Result<(std::sync::Arc<RegisteredQueryTemplate>, Bindings), ProxyError> {
    let info = infos
        .iter()
        .find(|i| i.form_path == path)
        .ok_or_else(|| ProxyError::UnknownForm(path.to_string()))?;
    let reg = m.query_template(&info.query_template).expect("registered");
    let mut bindings = Bindings::new();
    for (field, param) in &info.field_map {
        if let Some((_, v)) = fields.iter().find(|(k, _)| k == field) {
            bindings.insert(param.clone(), Value::from_form_text(v));
        }
    }
    for (param, default) in &info.defaults {
        bindings
            .entry(param.clone())
            .or_insert_with(|| Value::from_form_text(default));
    }
    if let Some(missing) = reg
        .template
        .params()
        .iter()
        .find(|p| !bindings.contains_key(*p))
    {
        return Err(ProxyError::BadRequest(format!("missing `{missing}`")));
    }
    Ok((std::sync::Arc::clone(reg), bindings))
}

/// `Bindings` → bound query, by instantiating and rewriting trees.
fn model_bind(
    m: &TemplateManager,
    reg: &RegisteredQueryTemplate,
    bindings: &Bindings,
) -> Result<Modelled, ProxyError> {
    let query = reg
        .template
        .instantiate(bindings)
        .map_err(|e| ProxyError::BadRequest(e.to_string()))?;
    let sql = query.to_sql();
    let func = m.function_template(&reg.function).expect("registered");
    let TableSource::Function { args, .. } = &reg.template.query.from else {
        unreachable!("registered templates call a function");
    };
    let mut func_bindings = Bindings::new();
    for (param, arg) in func.params.iter().zip(args) {
        let value = eval_const(&substitute_expr(arg, bindings))
            .ok_or_else(|| ProxyError::BadRequest(format!("argument `{arg}`")))?;
        func_bindings.insert(param.clone(), value);
    }
    let region = model_region(func, &func_bindings)?;
    let mut residual_key = format!("{}|top={:?}", reg.template.name, reg.top());
    for p in reg.residual_params() {
        let _ = write!(residual_key, "|{p}={}", bindings[p]);
    }
    Ok(Modelled {
        query,
        sql,
        region,
        residual_key,
    })
}

/// The function template's region by substitution: each formula is
/// cloned, its parameters replaced by literals, and the constant tree
/// evaluated.
fn model_region(func: &FunctionTemplate, bindings: &Bindings) -> Result<Region, ProxyError> {
    let eval = |e: &Expr| -> Result<f64, ProxyError> {
        eval_const(&substitute_expr(e, bindings))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| ProxyError::Template(format!("formula `{e}`")))
    };
    let eval_all = |es: &[Expr]| -> Result<Vec<f64>, ProxyError> { es.iter().map(eval).collect() };
    let bad = |e: fp_geometry::GeometryError| ProxyError::Template(e.to_string());
    Ok(match &func.shape {
        Shape::Sphere { center, radius } => {
            let c = Point::new(eval_all(center)?).map_err(bad)?;
            Region::Sphere(HyperSphere::new(c, eval(radius)?).map_err(bad)?)
        }
        Shape::Rect { lo, hi } => {
            Region::Rect(HyperRect::new(eval_all(lo)?, eval_all(hi)?).map_err(bad)?)
        }
        Shape::Polytope {
            faces,
            bbox_lo,
            bbox_hi,
        } => {
            let bbox = HyperRect::new(eval_all(bbox_lo)?, eval_all(bbox_hi)?).map_err(bad)?;
            let mut hs = Vec::new();
            for (normal, offset) in faces {
                hs.push(HalfSpace::new(eval_all(normal)?, eval(offset)?).map_err(bad)?);
            }
            Region::Polytope(Polytope::new(hs, bbox).map_err(bad)?)
        }
    })
}

fn variant(e: &ProxyError) -> &'static str {
    match e {
        ProxyError::UnknownForm(_) => "UnknownForm",
        ProxyError::BadRequest(_) => "BadRequest",
        ProxyError::Template(_) => "Template",
        ProxyError::Origin(_) => "Origin",
    }
}

/// `Debug` prints an `f64` as the shortest text that reads back to the
/// same bits and tells `-0.0` from `0.0`, so equal text is equal bits.
fn bits(region: &Region) -> String {
    format!("{region:?}")
}

/// Text a form field can carry.
fn form_text() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => "-?[0-9]{1,3}",
        4 => "-?[0-9]{1,3}\\.[0-9]{1,6}",
        2 => "[0-9]{1,2}\\.[0-9]{1,3}",
        1 => "-?[1-9]\\.[0-9]{1,3}e-?[0-3]",
        1 => "-?[0-9]{1,2}E[0-2]",
        1 => " {0,2}-?[0-9]{1,2}\\.[0-9]{1,2}[ \t]{1,2}",
        1 => Just("-0.0".to_string()),
        1 => Just("-0".to_string()),
        1 => Just("+7".to_string()),
        1 => Just("1e999".to_string()),
        1 => Just("NaN".to_string()),
        1 => Just("".to_string()),
        1 => Just("9223372036854775808".to_string()),
        1 => "[a-z' ]{0,6}",
    ]
}

/// How often a field occurs in a request: mostly once, sometimes twice
/// (the first occurrence counts), sometimes not at all.
fn occurrences() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        1 => Just(Vec::new()),
        8 => prop::collection::vec(form_text(), 1..2),
        1 => prop::collection::vec(form_text(), 2..3),
    ]
}

const FORMS: [(&str, &[&str]); 5] = [
    ("/search/radial", &["ra", "dec", "radius"]),
    ("/search/rect", &["min_ra", "max_ra", "min_dec", "max_dec"]),
    (
        "/search/triangle",
        &["ra1", "dec1", "ra2", "dec2", "ra3", "dec3"],
    ),
    (
        "/search/box",
        &["x", "w", "y", "mag", "tag", "x2", "maxmag"],
    ),
    ("/search/nowhere", &["ra"]),
];

/// A request: a form, and for each field the form knows (plus one it
/// does not) the texts it occurs with, rotated so order varies.
fn request() -> impl Strategy<Value = (&'static str, Vec<(String, String)>)> {
    (
        0usize..FORMS.len(),
        prop::collection::vec(occurrences(), 8),
        0usize..8,
    )
        .prop_map(|(form, texts, rotate)| {
            let (path, names) = FORMS[form];
            let mut fields: Vec<(String, String)> = names
                .iter()
                .chain(&["extra"])
                .zip(texts)
                .flat_map(|(name, texts)| texts.into_iter().map(|t| (name.to_string(), t)))
                .collect();
            if !fields.is_empty() {
                let by = rotate % fields.len();
                fields.rotate_left(by);
            }
            (path, fields)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn binding_a_form_equals_the_substitution_model((path, fields) in request()) {
        let (m, infos) = manager_and_infos();
        let model = model_form_bindings(&m, &infos, path, &fields)
            .and_then(|(reg, bindings)| model_bind(&m, &reg, &bindings));
        let key = m.bind_form(path, &fields);
        let bound = m.resolve_form(path, &fields);
        match model {
            Err(expected) => {
                let key = key.expect_err("the model fails");
                prop_assert_eq!(variant(&key), variant(&expected));
                let bound = bound.expect_err("the model fails");
                prop_assert_eq!(variant(&bound), variant(&expected));
            }
            Ok(expected) => {
                let key = key.expect("the model binds");
                prop_assert_eq!(&key.sql, &expected.sql);
                prop_assert_eq!(bits(&key.region), bits(&expected.region));
                prop_assert_eq!(&*key.residual_key, &expected.residual_key);
                let bound = bound.expect("the model binds");
                prop_assert_eq!(&bound.query, &expected.query);
                prop_assert_eq!(&bound.query.to_sql(), &expected.sql);
                prop_assert_eq!(&bound.sql, &expected.sql);
                prop_assert_eq!(bits(&bound.region), bits(&expected.region));
                prop_assert_eq!(&*bound.residual_key, &expected.residual_key);
                prop_assert_eq!(&bound.reg.template.name, &key.reg.template.name);

                // The same query arriving as SQL text binds to what the
                // model recovers by matching it against the template.
                let reg = &key.reg;
                let matched = parse_query(&expected.sql)
                    .ok()
                    .and_then(|q| reg.template.match_query(&q));
                match (matched, m.resolve_sql(&expected.sql)) {
                    (None, None) => {}
                    (Some(bindings), Some(from_sql)) => match model_bind(&m, reg, &bindings) {
                        Ok(again) => {
                            let from_sql = from_sql.expect("the model binds");
                            prop_assert_eq!(&from_sql.query, &again.query);
                            prop_assert_eq!(&from_sql.sql, &again.sql);
                            prop_assert_eq!(bits(&from_sql.region), bits(&again.region));
                            prop_assert_eq!(&*from_sql.residual_key, &again.residual_key);
                        }
                        Err(e) => {
                            let from_sql = from_sql.expect_err("the model fails");
                            prop_assert_eq!(variant(&from_sql), variant(&e));
                        }
                    },
                    (model, manager) => prop_assert!(
                        false,
                        "model matched: {}, manager matched: {}",
                        model.is_some(),
                        manager.is_some()
                    ),
                }
            }
        }
    }
}

/// The cases the strategy is built to reach, pinned: each would be easy
/// to lose to a change in the generator.
#[test]
fn pinned_edge_cases_bind_like_the_model() {
    let (m, infos) = manager_and_infos();
    let f = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let cases = [
        // `-$x` before a negative, a zero and a negative-zero literal.
        f(&[("x", "-3"), ("y", "1"), ("tag", "it's")]),
        f(&[("x", "-2.5"), ("y", "1"), ("tag", "")]),
        f(&[("x", "-0.0"), ("y", "1"), ("tag", "a")]),
        f(&[("x", "0"), ("y", "1"), ("tag", "a")]),
        // The later mapping wins; the first occurrence of a field wins;
        // the first default wins; blanks are trimmed.
        f(&[
            ("x", "1"),
            ("x2", "2"),
            ("x2", "3"),
            ("y", " 4.50 "),
            ("tag", "t"),
            ("mag", "1e1"),
        ]),
    ];
    for fields in cases {
        let (reg, bindings) = model_form_bindings(&m, &infos, "/search/box", &fields).unwrap();
        let expected = model_bind(&m, &reg, &bindings).unwrap();
        let bound = m.resolve_form("/search/box", &fields).unwrap();
        assert_eq!(bound.sql, expected.sql);
        assert_eq!(bound.query, expected.query);
        assert_eq!(bits(&bound.region), bits(&expected.region));
        assert_eq!(&*bound.residual_key, expected.residual_key);
    }
    let bound = m
        .resolve_form(
            "/search/box",
            &f(&[("x", "-3"), ("y", "1"), ("tag", "it's")]),
        )
        .unwrap();
    assert_eq!(
        bound.sql,
        "SELECT TOP 50 p.objID, p.ra, p.dec FROM fBox(-(-3), 2, 1) n \
         JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 22.5 AND p.kind = 'it''s'"
    );
    assert_eq!(
        &*bound.residual_key,
        "box|top=Some(50)|maxmag=22.5|tag=it's"
    );
}

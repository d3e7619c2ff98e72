//! Function templates: the XML-described spatial semantics of a TVF.

use crate::ProxyError;
use fp_geometry::{HalfSpace, HyperRect, HyperSphere, Point, Polytope, Region};
use fp_skyserver::exec::eval_const_with;
use fp_sqlmini::{parser::parse_expr, Bindings, Expr, ParamLookup};
use fp_xmlite::Element;

/// The region shape a function template declares, with the parameter→
/// geometry mapping as parsed SQL scalar expressions over `$params`.
///
/// Trigonometry in the formulas is evaluated in **degrees** (the SkyServer
/// convention this repository's executor follows); e.g. the Radial search
/// template maps `radius` arc minutes to a chord via `2*sin($radius/120.0)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// A ball: per-dimension center formulas plus a radius formula.
    Sphere {
        /// One formula per dimension.
        center: Vec<Expr>,
        /// Radius formula.
        radius: Expr,
    },
    /// An axis-aligned box: per-dimension low/high formulas.
    Rect {
        /// Lower-corner formulas.
        lo: Vec<Expr>,
        /// Upper-corner formulas.
        hi: Vec<Expr>,
    },
    /// A convex polytope: faces (`normal·x <= offset`) plus a declared
    /// bounding box.
    Polytope {
        /// Face normals (one formula per dimension) and offsets.
        faces: Vec<(Vec<Expr>, Expr)>,
        /// Bounding-box lower corner formulas.
        bbox_lo: Vec<Expr>,
        /// Bounding-box upper corner formulas.
        bbox_hi: Vec<Expr>,
    },
}

/// The parsed form of the paper's Figure-3 XML artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionTemplate {
    /// Function name (`fGetNearbyObjEq`, …).
    pub name: String,
    /// Positional parameter names (argument order of the function).
    pub params: Vec<String>,
    /// The declared region semantics.
    pub shape: Shape,
}

impl FunctionTemplate {
    /// Dimensionality of the declared region.
    pub fn dims(&self) -> usize {
        match &self.shape {
            Shape::Sphere { center, .. } => center.len(),
            Shape::Rect { lo, .. } => lo.len(),
            Shape::Polytope { bbox_lo, .. } => bbox_lo.len(),
        }
    }

    /// The built-in template of `fGetNearbyObjEq(ra, dec, radius)`:
    /// a 3-D hypersphere over unit-vector coordinates, with the arcminute
    /// radius converted to a chord length (paper Figure 3).
    pub fn sky_radial() -> FunctionTemplate {
        let parse = |s: &str| parse_expr(s).expect("built-in formula parses");
        FunctionTemplate {
            name: "fGetNearbyObjEq".into(),
            params: vec!["ra".into(), "dec".into(), "radius".into()],
            shape: Shape::Sphere {
                center: vec![
                    parse("cos($ra)*cos($dec)"),
                    parse("sin($ra)*cos($dec)"),
                    parse("sin($dec)"),
                ],
                radius: parse("2.0*sin($radius/120.0)"),
            },
        }
    }

    /// The built-in template of
    /// `fGetObjFromRect(min_ra, max_ra, min_dec, max_dec)`: a 2-D box in
    /// equatorial coordinates.
    pub fn sky_rect() -> FunctionTemplate {
        let parse = |s: &str| parse_expr(s).expect("built-in formula parses");
        FunctionTemplate {
            name: "fGetObjFromRect".into(),
            params: vec![
                "min_ra".into(),
                "max_ra".into(),
                "min_dec".into(),
                "max_dec".into(),
            ],
            shape: Shape::Rect {
                lo: vec![parse("$min_ra"), parse("$min_dec")],
                hi: vec![parse("$max_ra"), parse("$max_dec")],
            },
        }
    }

    /// The built-in template of
    /// `fGetObjFromTriangle(ra1, dec1, ra2, dec2, ra3, dec3)`: a 2-D
    /// convex polytope in equatorial coordinates. Vertices must be in
    /// counter-clockwise order (the origin site rejects other windings),
    /// which makes the half-space formulas below describe the interior.
    pub fn sky_triangle() -> FunctionTemplate {
        let parse = |s: &str| parse_expr(s).expect("built-in formula parses");
        let faces = vec![
            // Edge 1→2: outward normal (dec2-dec1, -(ra2-ra1)).
            (
                vec![parse("$dec2 - $dec1"), parse("0.0 - ($ra2 - $ra1)")],
                parse("($dec2 - $dec1) * $ra1 - ($ra2 - $ra1) * $dec1"),
            ),
            // Edge 2→3.
            (
                vec![parse("$dec3 - $dec2"), parse("0.0 - ($ra3 - $ra2)")],
                parse("($dec3 - $dec2) * $ra2 - ($ra3 - $ra2) * $dec2"),
            ),
            // Edge 3→1.
            (
                vec![parse("$dec1 - $dec3"), parse("0.0 - ($ra1 - $ra3)")],
                parse("($dec1 - $dec3) * $ra3 - ($ra1 - $ra3) * $dec3"),
            ),
        ];
        FunctionTemplate {
            name: "fGetObjFromTriangle".into(),
            params: vec![
                "ra1".into(),
                "dec1".into(),
                "ra2".into(),
                "dec2".into(),
                "ra3".into(),
                "dec3".into(),
            ],
            shape: Shape::Polytope {
                faces,
                bbox_lo: vec![
                    parse("least(least($ra1, $ra2), $ra3)"),
                    parse("least(least($dec1, $dec2), $dec3)"),
                ],
                bbox_hi: vec![
                    parse("greatest(greatest($ra1, $ra2), $ra3)"),
                    parse("greatest(greatest($dec1, $dec2), $dec3)"),
                ],
            },
        }
    }

    /// Evaluates the shape formulas under `bindings` into a concrete
    /// [`Region`].
    ///
    /// # Errors
    /// Returns [`ProxyError::Template`] when a formula references an
    /// unbound parameter, evaluates to a non-number, or produces an
    /// invalid region (negative radius, inverted box).
    pub fn region_for(&self, bindings: &Bindings) -> Result<Region, ProxyError> {
        self.region_with(&|p| bindings.get(p))
    }

    /// [`FunctionTemplate::region_for`] under a parameter lookup: the
    /// formulas are evaluated as they stand, reading each `$param` through
    /// `lookup`.
    ///
    /// # Errors
    /// As [`FunctionTemplate::region_for`].
    pub fn region_with(&self, lookup: &ParamLookup<'_>) -> Result<Region, ProxyError> {
        let eval = |e: &Expr| -> Result<f64, ProxyError> {
            eval_const_with(e, lookup)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| {
                    let under: Vec<_> = e.params().into_iter().map(|p| (p, lookup(p))).collect();
                    ProxyError::Template(format!(
                        "formula `{e}` did not evaluate to a number under {under:?}"
                    ))
                })
        };
        let eval_all =
            |es: &[Expr]| -> Result<Vec<f64>, ProxyError> { es.iter().map(eval).collect() };

        let bad = |e: fp_geometry::GeometryError| ProxyError::Template(e.to_string());
        match &self.shape {
            Shape::Sphere { center, radius } => {
                let c = Point::new(eval_all(center)?).map_err(bad)?;
                let r = eval(radius)?;
                Ok(Region::Sphere(HyperSphere::new(c, r).map_err(bad)?))
            }
            Shape::Rect { lo, hi } => {
                let rect = HyperRect::new(eval_all(lo)?, eval_all(hi)?).map_err(bad)?;
                Ok(Region::Rect(rect))
            }
            Shape::Polytope {
                faces,
                bbox_lo,
                bbox_hi,
            } => {
                let bbox = HyperRect::new(eval_all(bbox_lo)?, eval_all(bbox_hi)?).map_err(bad)?;
                let mut hs = Vec::with_capacity(faces.len());
                for (normal, offset) in faces {
                    hs.push(HalfSpace::new(eval_all(normal)?, eval(offset)?).map_err(bad)?);
                }
                Ok(Region::Polytope(Polytope::new(hs, bbox).map_err(bad)?))
            }
        }
    }

    /// Parses the XML artifact form.
    ///
    /// # Errors
    /// Returns [`ProxyError::Template`] with a description of the first
    /// structural problem.
    pub fn from_xml(doc: &Element) -> Result<FunctionTemplate, ProxyError> {
        let err = |m: String| ProxyError::Template(m);
        if doc.name() != "FunctionTemplate" {
            return Err(err(format!(
                "expected <FunctionTemplate>, got <{}>",
                doc.name()
            )));
        }
        let name = doc
            .child_text("Name")
            .ok_or_else(|| err("missing <Name>".into()))?
            .to_string();
        let params: Vec<String> = doc
            .child("Params")
            .ok_or_else(|| err("missing <Params>".into()))?
            .child_elements()
            .map(|p| p.text())
            .collect();
        let shape_name = doc
            .child_text("Shape")
            .ok_or_else(|| err("missing <Shape>".into()))?
            .to_ascii_lowercase();
        let dims: usize = doc
            .child_text("NumDimensions")
            .ok_or_else(|| err("missing <NumDimensions>".into()))?
            .parse()
            .map_err(|_| err("bad <NumDimensions>".into()))?;

        let exprs_of = |el: &Element| -> Result<Vec<Expr>, ProxyError> {
            el.child_elements()
                .map(|c| parse_expr(&c.text()).map_err(|e| err(format!("bad formula: {e}"))))
                .collect()
        };
        let required = |tag: &str| -> Result<&Element, ProxyError> {
            doc.child(tag)
                .ok_or_else(|| err(format!("missing <{tag}>")))
        };

        let shape = match shape_name.as_str() {
            "hypersphere" => {
                let center = exprs_of(required("CenterCoordinate")?)?;
                let radius = parse_expr(
                    doc.child_text("Radius")
                        .ok_or_else(|| err("missing <Radius>".into()))?,
                )
                .map_err(|e| err(format!("bad radius formula: {e}")))?;
                if center.len() != dims {
                    return Err(err(format!(
                        "center has {} formulas, NumDimensions is {dims}",
                        center.len()
                    )));
                }
                Shape::Sphere { center, radius }
            }
            "hyperrect" | "hypercube" => {
                let lo = exprs_of(required("Low")?)?;
                let hi = exprs_of(required("High")?)?;
                if lo.len() != dims || hi.len() != dims {
                    return Err(err("Low/High arity disagrees with NumDimensions".into()));
                }
                Shape::Rect { lo, hi }
            }
            "polytope" => {
                let bbox_lo = exprs_of(required("BBoxLow")?)?;
                let bbox_hi = exprs_of(required("BBoxHigh")?)?;
                let mut faces = Vec::new();
                for face in doc.children_named("Face") {
                    let normal = exprs_of(
                        face.child("Normal")
                            .ok_or_else(|| err("face missing <Normal>".into()))?,
                    )?;
                    let offset = parse_expr(
                        face.child_text("Offset")
                            .ok_or_else(|| err("face missing <Offset>".into()))?,
                    )
                    .map_err(|e| err(format!("bad offset formula: {e}")))?;
                    if normal.len() != dims {
                        return Err(err("face normal arity disagrees".into()));
                    }
                    faces.push((normal, offset));
                }
                if faces.is_empty() {
                    return Err(err("polytope needs at least one <Face>".into()));
                }
                Shape::Polytope {
                    faces,
                    bbox_lo,
                    bbox_hi,
                }
            }
            other => return Err(err(format!("unknown shape `{other}`"))),
        };

        Ok(FunctionTemplate {
            name,
            params,
            shape,
        })
    }

    /// Serializes back to the XML artifact form (inverse of
    /// [`FunctionTemplate::from_xml`]).
    pub fn to_xml(&self) -> Element {
        let exprs = |tag: &str, es: &[Expr]| {
            let mut el = Element::new(tag);
            for e in es {
                el.push_child(Element::new("C").with_text(e.to_sql()));
            }
            el
        };
        let mut params = Element::new("Params");
        for p in &self.params {
            params.push_child(Element::new("P").with_text(p.clone()));
        }
        let mut doc = Element::new("FunctionTemplate")
            .with_child(Element::new("Name").with_text(self.name.clone()))
            .with_child(params)
            .with_child(Element::new("Shape").with_text(match &self.shape {
                Shape::Sphere { .. } => "hypersphere",
                Shape::Rect { .. } => "hyperrect",
                Shape::Polytope { .. } => "polytope",
            }))
            .with_child(Element::new("NumDimensions").with_text(self.dims().to_string()));
        match &self.shape {
            Shape::Sphere { center, radius } => {
                doc.push_child(exprs("CenterCoordinate", center));
                doc.push_child(Element::new("Radius").with_text(radius.to_sql()));
            }
            Shape::Rect { lo, hi } => {
                doc.push_child(exprs("Low", lo));
                doc.push_child(exprs("High", hi));
            }
            Shape::Polytope {
                faces,
                bbox_lo,
                bbox_hi,
            } => {
                doc.push_child(exprs("BBoxLow", bbox_lo));
                doc.push_child(exprs("BBoxHigh", bbox_hi));
                for (normal, offset) in faces {
                    doc.push_child(
                        Element::new("Face")
                            .with_child(exprs("Normal", normal))
                            .with_child(Element::new("Offset").with_text(offset.to_sql())),
                    );
                }
            }
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geometry::celestial::radial_query_sphere;
    use fp_sqlmini::Value;

    fn radial_bindings(ra: f64, dec: f64, radius: f64) -> Bindings {
        let mut b = Bindings::new();
        b.insert("ra".into(), Value::Float(ra));
        b.insert("dec".into(), Value::Float(dec));
        b.insert("radius".into(), Value::Float(radius));
        b
    }

    #[test]
    fn radial_template_matches_geometry_helper() {
        let t = FunctionTemplate::sky_radial();
        let region = t.region_for(&radial_bindings(185.0, 1.5, 30.0)).unwrap();
        let Region::Sphere(s) = region else {
            panic!("expected sphere")
        };
        let expected = radial_query_sphere(185.0, 1.5, 30.0).unwrap();
        assert!(s.approx_eq(&expected), "template {s} vs helper {expected}");
    }

    #[test]
    fn rect_template_builds_boxes() {
        let t = FunctionTemplate::sky_rect();
        let mut b = Bindings::new();
        b.insert("min_ra".into(), Value::Float(184.0));
        b.insert("max_ra".into(), Value::Float(186.0));
        b.insert("min_dec".into(), Value::Float(-1.0));
        b.insert("max_dec".into(), Value::Float(1.0));
        let Region::Rect(r) = t.region_for(&b).unwrap() else {
            panic!()
        };
        assert_eq!(r.lo(), &[184.0, -1.0]);
        assert_eq!(r.hi(), &[186.0, 1.0]);
    }

    #[test]
    fn xml_roundtrip_sphere_and_rect() {
        for t in [FunctionTemplate::sky_radial(), FunctionTemplate::sky_rect()] {
            let xml = t.to_xml();
            let back = FunctionTemplate::from_xml(&xml).unwrap();
            assert_eq!(back, t);
            // And through text.
            let doc = Element::parse(&xml.to_xml_pretty()).unwrap();
            assert_eq!(FunctionTemplate::from_xml(&doc).unwrap(), t);
        }
    }

    #[test]
    fn parses_the_paper_figure3_text() {
        // The paper's literal figure, adapted to this crate's child-element
        // convention and degree-based chord radius.
        let xml = r#"<FunctionTemplate>
            <Name>fGetNearbyObjEq</Name>
            <Params><P>ra</P><P>dec</P><P>radius</P></Params>
            <Shape>hypersphere</Shape>
            <NumDimensions>3</NumDimensions>
            <CenterCoordinate>
                <C>cos($ra)*cos($dec)</C>
                <C>sin($ra)*cos($dec)</C>
                <C>sin($dec)</C>
            </CenterCoordinate>
            <Radius>2.0*sin($radius/120.0)</Radius>
        </FunctionTemplate>"#;
        let t = FunctionTemplate::from_xml(&Element::parse(xml).unwrap()).unwrap();
        assert_eq!(t, FunctionTemplate::sky_radial());
    }

    #[test]
    fn polytope_template() {
        let xml = r#"<FunctionTemplate>
            <Name>fTriangle</Name>
            <Params><P>size</P></Params>
            <Shape>polytope</Shape>
            <NumDimensions>2</NumDimensions>
            <BBoxLow><C>0.0</C><C>0.0</C></BBoxLow>
            <BBoxHigh><C>$size</C><C>$size</C></BBoxHigh>
            <Face><Normal><C>-1.0</C><C>0.0</C></Normal><Offset>0.0</Offset></Face>
            <Face><Normal><C>0.0</C><C>-1.0</C></Normal><Offset>0.0</Offset></Face>
            <Face><Normal><C>1.0</C><C>1.0</C></Normal><Offset>$size</Offset></Face>
        </FunctionTemplate>"#;
        let t = FunctionTemplate::from_xml(&Element::parse(xml).unwrap()).unwrap();
        let mut b = Bindings::new();
        b.insert("size".into(), Value::Float(2.0));
        let region = t.region_for(&b).unwrap();
        assert!(region.contains_coords(&[0.5, 0.5]));
        assert!(!region.contains_coords(&[1.5, 1.5]));
        let back = FunctionTemplate::from_xml(&t.to_xml()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn errors_are_descriptive() {
        let missing = FunctionTemplate::from_xml(&Element::new("FunctionTemplate"));
        assert!(matches!(missing, Err(ProxyError::Template(_))));

        let t = FunctionTemplate::sky_radial();
        // Unbound parameter.
        let e = t.region_for(&Bindings::new());
        assert!(matches!(e, Err(ProxyError::Template(_))));
        // Non-numeric binding.
        let mut b = radial_bindings(1.0, 2.0, 3.0);
        b.insert("ra".into(), Value::Str("north".into()));
        assert!(t.region_for(&b).is_err());
        // Negative radius.
        let b = radial_bindings(1.0, 2.0, -3.0);
        assert!(t.region_for(&b).is_err());
    }
}

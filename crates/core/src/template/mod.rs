//! Templates: the semantic contracts between the web site and the proxy.
//!
//! Three artifacts, exactly as in the paper's Section 2:
//!
//! * [`FunctionTemplate`] — XML description of a table-valued function's
//!   spatial semantics (shape, dimensionality, parameter→geometry mapping).
//! * [`RegisteredQueryTemplate`] — a parameterized SQL query of the
//!   supported class, referencing the embedded function, plus the metadata
//!   local evaluation needs (which result columns carry the point
//!   coordinates, which column is the row key).
//! * [`InfoFile`] — the binding from an HTML form path to a query template.

mod function_template;
mod info;
mod manager;
mod query_template;

pub use function_template::{FunctionTemplate, Shape};
pub use info::InfoFile;
pub use manager::{BoundKey, BoundQuery, TemplateManager};
pub use query_template::RegisteredQueryTemplate;

//! Query processing: relationship classification, local evaluation,
//! remainder-query synthesis, and result merging.

mod local_eval;
mod merge;
mod relate;
mod remainder;

pub(crate) use local_eval::eval_answer_region;
pub use local_eval::{
    eval_entry_region, eval_region_over, eval_region_scratch, EntryEval, EvalScratch,
};
pub use merge::merge_results;
pub use relate::{classify, classify_graded, QueryStatus};
pub use remainder::{region_inside_predicate, remainder_query};

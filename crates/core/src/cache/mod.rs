//! The proxy cache: result store, replacement, cache descriptions, and
//! the disk tier that is also its only persistence.

mod description;
mod entry;
mod frame;
mod persist;
mod profit;
mod replace;
mod store;
mod tier;

pub use description::{ArrayDescription, CacheDescription, DescriptionKind, RTreeDescription};
pub use entry::{Body, Entry};
pub use persist::{entry_from_segment, segment_header, SegmentEntry};
pub use profit::{ProfitEstimate, ProfitModel, ProfitParams};
pub use replace::Replacement;
pub use store::{CacheStats, CacheStore};
pub use tier::{
    encode_payload, EvictionManager, IoFault, IoOp, SegRef, SlabFile, SlabIo, SlabSlice,
    TierConfig, SLAB_MAGIC, SLAB_VERSION,
};
